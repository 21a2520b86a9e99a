"""Poisson atomic broadcast workload.

The paper's workload (Section 5.1): A-broadcast events form a Poisson
process of aggregate rate *T* (the *throughput*), and all (correct) processes
send at the same constant rate.  The generator pre-schedules a fixed number
of arrivals on the simulation kernel; each arrival picks a sender uniformly
at random among the configured senders, which realises the "same rate at
every sender" requirement in expectation while keeping the aggregate arrival
process Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.core.types import BroadcastID
from repro.metrics.stats import interarrival_from_throughput

SentCallback = Callable[[int, BroadcastID, float], None]


@dataclass(frozen=True)
class SentMessage:
    """One workload message that was actually handed to the broadcast layer."""

    index: int
    broadcast_id: BroadcastID
    sender: int
    time: float


class PoissonWorkload:
    """Schedules Poisson A-broadcast arrivals on a :class:`BroadcastSystem`."""

    def __init__(
        self,
        system,
        throughput: float,
        senders: Optional[Sequence[int]] = None,
        rng_name: str = "workload",
        payload_factory: Optional[Callable[[int], Any]] = None,
        reassign_crashed: bool = False,
    ) -> None:
        """Create a workload of ``throughput`` messages per second.

        ``senders`` defaults to every process of the system; crash-steady
        experiments restrict it to the correct processes.  With
        ``reassign_crashed``, an arrival whose chosen sender is down at
        emission time is redirected to the next live configured sender (in
        pid order, wrapping around) -- scenarios whose fault schedule crashes
        and recovers processes mid-run use this to keep "correct processes
        send at the same rate" without disturbing the random streams.
        """
        if throughput <= 0:
            raise ValueError(f"throughput must be positive, got {throughput}")
        self.system = system
        self.throughput = throughput
        self.senders: List[int] = (
            list(senders) if senders is not None else list(range(system.config.n))
        )
        if not self.senders:
            raise ValueError("at least one sender is required")
        self.reassign_crashed = reassign_crashed
        self._rng = system.rng.stream(rng_name)
        self._payload_factory = payload_factory or (lambda index: f"workload-{index}")
        self._sent_callbacks: List[SentCallback] = []
        #: Messages actually A-broadcast so far, in send order.
        self.sent: List[SentMessage] = []
        self._scheduled = 0

    # ------------------------------------------------------------------ wiring

    @property
    def mean_interarrival(self) -> float:
        """Mean inter-arrival time in simulation time units (ms)."""
        return interarrival_from_throughput(self.throughput)

    def add_sent_callback(self, callback: SentCallback) -> None:
        """Subscribe to sends: ``callback(index, broadcast_id, time)``."""
        self._sent_callbacks.append(callback)

    # ------------------------------------------------------------------ scheduling

    def schedule_messages(self, count: int, start_time: float = 0.0) -> float:
        """Pre-schedule ``count`` arrivals starting after ``start_time``.

        Returns the time of the last scheduled arrival.  Arrival times and
        senders are drawn from the workload's dedicated random stream so the
        schedule only depends on the system seed.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        # Per arrival: one ``expovariate`` draw, then one ``choice`` draw,
        # then one kernel entry; everything else is loop-invariant.
        rate = 1.0 / self.mean_interarrival
        expovariate = self._rng.expovariate
        choice = self._rng.choice
        senders = self.senders
        post_at = self.system.sim.post_at
        emit = self._emit
        first = self._scheduled
        time = start_time
        for index in range(first, first + count):
            time += expovariate(rate)
            post_at(time, emit, index, choice(senders))
        self._scheduled = first + count
        return time

    def scheduled_count(self) -> int:
        """Number of arrivals scheduled so far."""
        return self._scheduled

    # ------------------------------------------------------------------ internals

    def _emit(self, index: int, sender: int) -> None:
        if self.reassign_crashed and self.system.process(sender).crashed:
            sender = self._live_sender(sender)
        payload = self._payload_factory(index)
        broadcast_id = self.system.broadcast(sender, payload)
        now = self.system.sim.now
        sent = SentMessage(index=index, broadcast_id=broadcast_id, sender=sender, time=now)
        self.sent.append(sent)
        for callback in list(self._sent_callbacks):
            callback(index, broadcast_id, now)

    def _live_sender(self, sender: int) -> int:
        """The next configured sender (pid order, wrapping) that is up.

        Falls back to the original sender when every configured sender is
        down -- impossible under the ``f < n/2`` bound the scenarios enforce.
        """
        position = self.senders.index(sender)
        for offset in range(1, len(self.senders)):
            candidate = self.senders[(position + offset) % len(self.senders)]
            if not self.system.process(candidate).crashed:
                return candidate
        return sender
