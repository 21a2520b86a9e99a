"""Concrete heartbeat failure detector (extension, not used by the paper).

The paper models failure detectors abstractly through QoS metrics.  This
module provides a real, message-based detector so users can study how
implementation parameters (heartbeat period, timeout) translate into the QoS
metrics (``T_D`` roughly equals ``period + timeout`` in the absence of
contention) and how the extra heartbeat traffic loads the network.

:class:`HeartbeatFailureDetectorFabric` is the
:class:`~repro.failure_detectors.interface.DetectorFabric` of the per-process
detectors, which makes the heartbeat detector a first-class ``fd_kind``:
``SystemConfig(stack="fd", fd_kind="heartbeat")`` (or
``stack="fd/heartbeat"``) runs any scenario -- including the crash-recovery
churn and correlated-crash schedules -- on real heartbeat traffic instead of
the paper's abstract QoS clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.failure_detectors.interface import DetectorFabric, FailureDetector
from repro.sim.engine import EventHandle, Simulator
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
        The monitor re-checks its timeouts once per ``period``.

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

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")


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
        # The pending timer of each chain (heartbeat, timeout check).
        self._beat_timer: Optional[EventHandle] = None
        self._check_timer: Optional[EventHandle] = None

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
        self._check_timer = self.set_timer(self.config.period, self._check_timeouts)

    def on_crash(self) -> None:
        """The hosting process crashed: timers died with it; allow a restart."""
        self._started = False

    def on_recover(self) -> None:
        """Warm restart: resume heartbeats and grant peers a fresh timeout.

        Re-arming the last-heartbeat clocks on recovery mirrors the QoS
        fabric's post-recovery grace: the recovered monitor does not
        instantly suspect every peer just because its clocks went stale
        while it was down.  A process crashed before the run was started
        while down: its first timers fire while it is down and end both
        chains (or would keep the old phase), so they restart here too.
        """
        if self._started:
            self._beat_timer.cancel()
            self._check_timer.cancel()
            self._started = False
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
        self._beat_timer = self.set_timer(self.config.period, self._emit_heartbeat)

    def _check_timeouts(self) -> None:
        now = self.now
        for pid in self.monitored:
            last = self._last_heartbeat.get(pid, 0.0)
            if now - last > self.config.timeout and not self.is_suspected(pid):
                self._set_suspected(pid, True)
        self._check_timer = self.set_timer(self.config.period, self._check_timeouts)


class HeartbeatFailureDetectorFabric(DetectorFabric):
    """The fabric of per-process heartbeat detectors.

    Unlike the clock-driven fabrics, the detectors here are real protocol
    components: they are created when a process is attached, start with the
    process, stop when it crashes and resume when it recovers.  The fabric
    therefore has no crash bookkeeping of its own -- detection *is* the
    message timeout -- and only implements the forced-suspicion capabilities
    fault schedules require.
    """

    def __init__(self, sim: Simulator, network: Network, config: HeartbeatConfig) -> None:
        super().__init__(sim, network)
        self.config = config
        network.add_recovery_listener(self._on_recovery)

    def attach(self, process: SimProcess) -> HeartbeatFailureDetector:
        """Create the heartbeat component of ``process`` (once per process)."""
        if process.pid in self._detectors:
            raise ValueError(f"process {process.pid} already has a heartbeat detector")
        detector = HeartbeatFailureDetector(process, self.config)
        self._detectors[process.pid] = detector
        return detector

    # ------------------------------------------------------------------ fault injection

    def suspect_permanently(self, monitored: int) -> None:
        """Make every monitor suspect ``monitored`` from now until it recovers.

        The forced window has no deadline, so even a live process stays
        suspected (its heartbeats are ignored).  A recovery of ``monitored``
        ends the window and its next heartbeat restores trust -- the
        crash-steady convention of the clock-driven fabrics.
        """
        self._check("suspect_permanently", [monitored])
        for monitor, detector in self._detectors.items():
            if monitor == monitored:
                continue
            detector.force_suspect_until(monitored, INFINITY)

    def _on_recovery(self, pid: int, _time: float) -> None:
        for detector in self._detectors.values():
            if detector._forced_until.get(pid) == INFINITY:
                del detector._forced_until[pid]

    def _forced_begins(self, monitor: int, target: int, duration: float) -> None:
        # Heartbeats from ``target`` arriving inside the window are ignored:
        # the mistake does not self-heal early.
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
