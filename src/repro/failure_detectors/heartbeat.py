"""Concrete heartbeat failure detector (extension, not used by the paper).

The paper models failure detectors abstractly through QoS metrics.  This
module provides a real, message-based detector so users can study how
implementation parameters (heartbeat period, timeout) translate into the QoS
metrics (``T_D`` roughly equals ``period + timeout`` in the absence of
contention) and how the extra heartbeat traffic loads the network.

:class:`HeartbeatFailureDetectorFabric` adapts the per-process detectors to
the fabric protocol of the stack registry
(:class:`repro.stacks.api.FailureDetectorFabric`), which makes the heartbeat
detector a first-class ``fd_kind``: ``SystemConfig(stack="fd",
fd_kind="heartbeat")`` (or ``stack="fd/heartbeat"``) runs any scenario --
including the crash-recovery churn and correlated-crash schedules -- on real
heartbeat traffic instead of the paper's abstract QoS clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.failure_detectors.interface import FailureDetector
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Component, SimProcess

INFINITY = float("inf")


@dataclass(frozen=True)
class HeartbeatConfig:
    """Parameters of the heartbeat detector: the ``heartbeat`` fd kind's params.

    Attributes
    ----------
    period:
        Interval between two heartbeats sent by a process.
    timeout:
        A process is suspected when no heartbeat arrived for this long.
    check_interval:
        How often the monitor re-evaluates its timeouts; defaults to the
        period.

    The field metadata is :func:`repro.stacks.api.param`'s: the flat
    ``heartbeat_*`` keywords and the campaigns CLI flags.
    """

    period: float = field(
        default=10.0,
        metadata=dict(
            keyword="heartbeat_period", flag="--hb-period", help="heartbeat period in ms"
        ),
    )
    timeout: float = field(
        default=30.0,
        metadata=dict(
            keyword="heartbeat_timeout", flag="--hb-timeout", help="heartbeat timeout in ms"
        ),
    )
    check_interval: float = field(default=0.0, metadata=dict(keyword="heartbeat_check_interval"))

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.check_interval < 0:
            raise ValueError(f"check_interval must be >= 0, got {self.check_interval}")

    @property
    def effective_check_interval(self) -> float:
        """The check interval actually used (defaults to ``period``)."""
        return self.check_interval if self.check_interval > 0 else self.period


class HeartbeatFailureDetector(FailureDetector, Component):
    """A push-style heartbeat failure detector exchanging real messages."""

    protocol = "heartbeat-fd"

    def __init__(self, process: SimProcess, config: HeartbeatConfig) -> None:
        n = process.network.n
        FailureDetector.__init__(self, process.pid, range(n))
        Component.__init__(self, process)
        self.config = config
        self._last_heartbeat: Dict[int, float] = {}
        # Forced-suspicion windows (fault injection): while ``now`` is before
        # the recorded deadline, arriving heartbeats do not clear the
        # suspicion of that process.
        self._forced_until: Dict[int, float] = {}
        self._started = False

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin emitting heartbeats and checking timeouts."""
        if self._started:
            return
        self._started = True
        now = self.now
        for pid in self.monitored:
            self._last_heartbeat[pid] = now
        self._emit_heartbeat()
        self.set_timer(self.config.effective_check_interval, self._check_timeouts)

    def on_crash(self) -> None:
        """The hosting process crashed: timers died with it; allow a restart."""
        self._started = False

    def on_recover(self) -> None:
        """Warm restart: resume heartbeats and grant peers a fresh timeout.

        Re-arming the last-heartbeat clocks on recovery mirrors the QoS
        fabric's post-recovery grace: the recovered monitor does not
        instantly suspect every peer just because its clocks went stale
        while it was down.
        """
        self.start()

    # ------------------------------------------------------------------ messages

    def on_message(self, sender: int, body) -> None:
        """Record the heartbeat and clear any suspicion of the sender."""
        self._last_heartbeat[sender] = self.now
        if self.is_suspected(sender) and self.now >= self._forced_until.get(sender, 0.0):
            self._set_suspected(sender, False)

    # ------------------------------------------------------------------ fault injection

    def force_suspect_until(self, pid: int, until: float) -> None:
        """Suspect ``pid`` now and ignore its heartbeats until ``until``."""
        self._forced_until[pid] = max(until, self._forced_until.get(pid, 0.0))
        self._set_suspected(pid, True)

    def lift_forced_suspicion(self, pid: int) -> None:
        """End a forced window; trust returns unless ``pid`` is really down.

        A longer (or permanent) window layered on top of the one whose end
        scheduled this call keeps the suspicion: the lift only applies once
        the recorded deadline has actually passed.
        """
        if self._forced_until.get(pid, 0.0) > self.now:
            return
        self._forced_until.pop(pid, None)
        if not self.process.network.is_crashed(pid):
            self._set_suspected(pid, False)

    # ------------------------------------------------------------------ timers

    def _emit_heartbeat(self) -> None:
        destinations = [pid for pid in range(self.process.network.n) if pid != self.pid]
        if destinations:
            self.send(destinations, ("HEARTBEAT", self.pid))
        self.set_timer(self.config.period, self._emit_heartbeat)

    def _check_timeouts(self) -> None:
        now = self.now
        for pid in self.monitored:
            last = self._last_heartbeat.get(pid, 0.0)
            if now - last > self.config.timeout and not self.is_suspected(pid):
                self._set_suspected(pid, True)
        self.set_timer(self.config.effective_check_interval, self._check_timeouts)


class HeartbeatFailureDetectorFabric:
    """Fabric protocol adapter over per-process heartbeat detectors.

    Unlike the clock-driven fabrics, the detectors here are real protocol
    components: they are created when a process is attached, start with the
    process, stop when it crashes and resume when it recovers.  The fabric
    therefore has no crash bookkeeping of its own -- detection *is* the
    message timeout -- and only implements the forced-suspicion capabilities
    fault schedules require.
    """

    def __init__(self, sim: Simulator, network: Network, config: HeartbeatConfig) -> None:
        self._sim = sim
        self._network = network
        self.config = config
        self._detectors: Dict[int, HeartbeatFailureDetector] = {}

    # ------------------------------------------------------------------ access

    def attach(self, process: SimProcess) -> HeartbeatFailureDetector:
        """Create the heartbeat component of ``process`` (once per process)."""
        if process.pid in self._detectors:
            raise ValueError(f"process {process.pid} already has a heartbeat detector")
        detector = HeartbeatFailureDetector(process, self.config)
        self._detectors[process.pid] = detector
        return detector

    def detector(self, pid: int) -> HeartbeatFailureDetector:
        """The failure detector local to process ``pid``."""
        return self._detectors[pid]

    def detectors(self) -> Dict[int, HeartbeatFailureDetector]:
        """All detectors, keyed by owner process id."""
        return dict(self._detectors)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """No-op: heartbeat detectors start with their hosting process."""

    # ------------------------------------------------------------------ fault injection

    def suspect_permanently(self, monitored: int, delay: float = 0.0) -> None:
        """Make every monitor suspect ``monitored`` permanently after ``delay``.

        The forced window never expires, so even a live process stays
        suspected (its heartbeats are ignored) -- matching the crash-steady
        convention of the clock-driven fabrics.
        """
        for monitor, detector in self._detectors.items():
            if monitor == monitored:
                continue
            if delay == 0.0:
                detector.force_suspect_until(monitored, INFINITY)
            else:
                self._sim.post(delay, detector.force_suspect_until, monitored, INFINITY)

    def suspect_during(
        self,
        target: int,
        start: float,
        duration: float,
        monitors: Optional[Iterable[int]] = None,
    ) -> None:
        """Force a wrong suspicion of ``target`` during ``[start, start + duration]``.

        Heartbeats from ``target`` arriving inside the window are ignored
        (the mistake does not self-heal early); crashed endpoints are
        skipped at fire time, and the suspicion is not lifted if ``target``
        really crashed in the meantime.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        pids = self._detectors.keys() if monitors is None else monitors
        for monitor in pids:
            if monitor == target:
                continue
            self._sim.post_at(start, self._forced_begins, monitor, target, duration)

    def _forced_begins(self, monitor: int, target: int, duration: float) -> None:
        if self._network.is_crashed(monitor) or self._network.is_crashed(target):
            return
        detector = self._detectors[monitor]
        if detector.is_suspected(target):
            return
        if duration <= 0:
            detector.force_suspect_until(target, self._sim.now)
            detector.lift_forced_suspicion(target)
            return
        detector.force_suspect_until(target, self._sim.now + duration)
        self._sim.post(duration, detector.lift_forced_suspicion, target)
