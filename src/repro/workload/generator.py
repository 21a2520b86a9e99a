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

from typing import Callable, List, Optional, Sequence

from repro.core.types import BroadcastID
from repro.metrics.stats import interarrival_from_throughput
from repro.sim.process import live_sender

SentCallback = Callable[[int, BroadcastID, float], None]


class PoissonWorkload:
    """Schedules Poisson A-broadcast arrivals on a :class:`BroadcastSystem`.

    Its arrivals sit in the system's kernel queue, so it keeps the parts it
    drives (kernel, abcasts, processes) and not the system: like any part,
    it is dead once its system is dropped.
    """

    def __init__(
        self,
        system,
        throughput: float,
        senders: Optional[Sequence[int]] = None,
        reassign_crashed: bool = False,
    ) -> None:
        """Create a workload of ``throughput`` messages per second.

        ``senders`` defaults to every process of the system; crash-steady
        experiments restrict it to the correct processes.  With
        ``reassign_crashed``, an arrival whose chosen sender is down at
        emission time is redirected to the next live configured sender
        (:func:`repro.sim.process.live_sender`) -- scenarios whose fault schedule crashes
        and recovers processes mid-run use this to keep "correct processes
        send at the same rate" without disturbing the random streams.
        """
        if throughput <= 0:
            raise ValueError(f"throughput must be positive, got {throughput}")
        self.sim = system.sim
        self.abcasts = system.abcasts
        self.processes = system.processes
        self.throughput = throughput
        self.senders: List[int] = (
            list(senders) if senders is not None else list(range(system.config.n))
        )
        if not self.senders:
            raise ValueError("at least one sender is required")
        self.reassign_crashed = reassign_crashed
        self._rng = system.rng.stream("workload")
        self._sent_callbacks: List[SentCallback] = []
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
        post_at = self.sim.post_at
        emit = self._emit
        first = self._scheduled
        time = start_time
        for index in range(first, first + count):
            time += expovariate(rate)
            post_at(time, emit, index, choice(senders))
        self._scheduled = first + count
        return time

    # ------------------------------------------------------------------ internals

    def _emit(self, index: int, sender: int) -> None:
        if self.reassign_crashed:
            sender = live_sender(self.processes, self.senders, sender)
        broadcast_id = self.abcasts[sender].broadcast(f"workload-{index}")
        now = self.sim.now
        for callback in list(self._sent_callbacks):
            callback(index, broadcast_id, now)
