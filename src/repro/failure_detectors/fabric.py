"""Shared machinery of the clock-driven failure detector fabrics.

:class:`CrashDetectionFabric` is the
:class:`~repro.failure_detectors.interface.DetectorFabric` of the clock-driven
kinds: it owns one plain detector per process and implements everything
every clock-driven fabric needs, independent of *why* suspicions
happen:

* crash detection: a crash is suspected by every monitor a per-pair
  detection time ``T_D`` later (pending detections are cancelled if the
  process recovers first -- a crash shorter than ``T_D`` goes unnoticed);
* trust restoration: monitors that did suspect a recovered process trust it
  again one detection time after the recovery;
* forced suspicions: :meth:`suspect_permanently` (the crash-steady
  convention) and :meth:`suspect_during` (deterministic wrong-suspicion
  windows used by declarative fault schedules);
* partition awareness: the clock-driven detectors exchange no messages, so
  they cannot starve naturally when the network partitions (unlike the
  heartbeat detector, whose real heartbeat traffic the partition mask
  drops).  The fabric therefore listens for reachability changes: while the
  ``monitored -> monitor`` link is blocked the pair behaves exactly like a
  crash from the monitor's point of view -- suspected one detection time
  after the cut, trusted again one detection time after the heal, with the
  pair's random mistakes suppressed in between (a stray mistake correction
  must not clear a partition-induced suspicion).

:class:`repro.failure_detectors.qos.QoSFailureDetectorFabric` extends it
with the paper's *random* mistake model (exponential ``T_MR`` / ``T_M``);
:class:`repro.failure_detectors.perfect.PerfectFailureDetectorFabric` uses
it as-is, so "perfect" can no longer inherit QoS mistake behaviour by
accident.  A mistake model adds its transition kinds to :attr:`kinds`, one
handler per kind, and overrides the ``_cancel_mistakes`` /
``_resume_mistakes`` hooks and :meth:`start`.

Pending transitions
-------------------

Every pair transition is of one *kind*, named after the method that handles
it (``_detect_crash``, ``_restore_trust``, ``_partition_detect``,
``_partition_trust``, and the mistake model's two).  ``_due[kind][pair]``
holds the pair's one pending transition of that kind: :meth:`_after` arms
it (replacing a pending one), :meth:`_cancel` drops it, and its handler
removes it when it fires.  Nothing else arms or drops a transition.

Two backends sit behind :meth:`_after`.  By default (``scan_interval=None``)
an entry is the kernel :class:`~repro.sim.engine.EventHandle` of its
handler: exact per-pair timers, the golden-pinned semantics.  That is
O(n^2) live timer events, which dominates the event loop at n >= 15, so
``scan_interval=q`` (the qos / perfect kinds' ``fd_scan_interval`` param)
makes an entry a sequence number on a fabric-local calendar heap instead:
at most **one** simulator event (the scan) is armed at a time, and each
scan runs the handler of every entry due by then that is still the pair's
pending one.  Transitions fire at the next multiple of ``q`` at or after
their due time, so results are quantized to the scan tick and *not*
bit-identical to the exact mode.  Partition transitions are rare (a handful
per scenario) and stay kernel events in both backends, like the
forced-suspicion windows.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.failure_detectors.interface import DetectorFabric, FailureDetector
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Network

#: An ordered (monitor, monitored) failure detector pair.
Pair = Tuple[int, int]

#: Pair transition kinds, each named after the fabric method that handles it.
DETECT = "_detect_crash"
TRUST = "_restore_trust"
PARTITION_DETECT = "_partition_detect"
PARTITION_TRUST = "_partition_trust"

#: A pending transition: a kernel event, or a sequence number on the calendar.
Entry = Union[EventHandle, int]


class CrashDetectionFabric(DetectorFabric):
    """Base fabric: crash detection, trust restoration, forced suspicions."""

    #: The pair transition kinds this fabric arms.
    kinds: Tuple[str, ...] = (DETECT, TRUST, PARTITION_DETECT, PARTITION_TRUST)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        scan_interval: Optional[float] = None,
    ) -> None:
        if scan_interval is not None and scan_interval <= 0:
            raise ValueError(f"scan_interval must be > 0, got {scan_interval}")
        super().__init__(sim, network)
        pids = list(range(network.n))
        self._detectors.update((pid, FailureDetector(pid, pids)) for pid in pids)
        self._crashed: set = set()
        self._started = False
        #: The pending transition of each kind, per pair.
        self._due: Dict[str, Dict[Pair, Entry]] = {kind: {} for kind in self.kinds}
        # Batched-scan calendar (``scan_interval is not None``): a heap of
        # ``(due, seq, kind, monitor, monitored)`` tuples drained by one
        # armed simulator event.
        self._scan_interval = scan_interval
        self._calendar: List[tuple] = []
        self._cal_seq = 0
        self._armed_time: Optional[float] = None
        self._armed_handle: Optional[EventHandle] = None
        #: (monitor, monitored) pairs whose ``monitored -> monitor`` link is
        #: currently blocked by a partition.
        self._partition_blocked: Set[Pair] = set()
        network.add_crash_listener(self._on_crash)
        network.add_recovery_listener(self._on_recovery)
        network.add_partition_listener(self._on_partition)

    # ------------------------------------------------------------------ access

    @property
    def scan_interval(self) -> Optional[float]:
        """The batched-scan tick, or ``None`` in exact per-pair-timer mode."""
        return self._scan_interval

    # ------------------------------------------------------------------ hooks

    def _detection_time(self, monitor: int, monitored: int) -> float:
        """The detection time ``T_D`` of the ordered pair (default: 0)."""
        return 0.0

    def _cancel_mistakes(self, monitor: int, monitored: int) -> None:
        """Cancel pending random-mistake transitions of the pair (mistake models)."""

    def _resume_mistakes(self, monitor: int, monitored: int) -> None:
        """Resume random-mistake generation for the pair after a recovery."""

    # ------------------------------------------------------------------ pending transitions

    def _after(self, kind: str, delay: float, monitor: int, monitored: int) -> None:
        """Arm the pair's ``kind`` transition ``delay`` from now.

        A pair has at most one pending transition of each kind, so a pending
        one is dropped first.
        """
        due = self._due[kind]
        pair = (monitor, monitored)
        if pair in due:
            self._cancel(kind, monitor, monitored)
        if self._scan_interval is None or kind in (PARTITION_DETECT, PARTITION_TRUST):
            due[pair] = self._sim.schedule(delay, getattr(self, kind), monitor, monitored)
            return
        time = self._sim.now + delay
        seq = self._cal_seq
        self._cal_seq = seq + 1
        heapq.heappush(self._calendar, (time, seq, kind, monitor, monitored))
        due[pair] = seq
        # Fast path: a scan armed at or before ``time`` already covers this
        # entry (its tick is <= ``time``'s tick), so skip the quantization.
        armed = self._armed_time
        if armed is None or armed > time:
            self._arm(time)

    def _cancel(self, kind: str, monitor: int, monitored: int) -> None:
        """Drop the pair's pending ``kind`` transition, if there is one.

        A calendar entry is dropped by forgetting its sequence number: the
        scan skips an entry that is no longer its pair's pending one.
        """
        entry = self._due[kind].pop((monitor, monitored), None)
        if isinstance(entry, EventHandle):
            entry.cancel()

    def _arm(self, due: float) -> None:
        """Make sure the scan event fires no later than ``due``'s tick.

        The tick is the first multiple of the scan interval at or after ``due``.
        """
        interval = self._scan_interval
        tick = math.ceil(due / interval) * interval
        if self._armed_time is not None and self._armed_time <= tick:
            return
        if self._armed_handle is not None:
            self._armed_handle.cancel()
        self._armed_time = tick
        self._armed_handle = self._sim.schedule_at(tick, self._scan)

    def _scan(self) -> None:
        """Run every pending calendar transition due by now, in (time, seq) order."""
        self._armed_time = None
        self._armed_handle = None
        calendar = self._calendar
        due = self._due
        pop = heapq.heappop
        now = self._sim.now
        while calendar and calendar[0][0] <= now:
            _time, seq, kind, monitor, monitored = pop(calendar)
            if due[kind].get((monitor, monitored)) == seq:
                getattr(self, kind)(monitor, monitored)
        if calendar:
            self._arm(calendar[0][0])

    def _trust_pending(self, monitor: int, monitored: int) -> bool:
        """Whether the pair has a pending post-recovery trust restoration."""
        pair = (monitor, monitored)
        return pair in self._due[PARTITION_TRUST] or pair in self._due[TRUST]

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Lifecycle hook called once when the system starts (idempotent)."""
        self._started = True

    def suspect_permanently(self, monitored: int) -> None:
        """Make every monitor suspect ``monitored`` from now until it recovers.

        Used by the crash-steady scenario where crashes happened long before
        the measured window: every detector suspects the crashed processes
        from the very start of the run.
        """
        self._check("suspect_permanently", [monitored])
        self._crashed.add(monitored)
        for monitor, detector in self._detectors.items():
            if monitor == monitored:
                continue
            self._cancel_mistakes(monitor, monitored)
            detector._set_suspected(monitored, True)

    def _forced_begins(self, monitor: int, target: int, duration: float) -> None:
        if target in self._crashed or monitor in self._crashed:
            return
        detector = self._detectors[monitor]
        if detector.is_suspected(target):
            return
        detector._set_suspected(target, True)
        if duration <= 0:
            detector._set_suspected(target, False)
        else:
            self._sim.post(duration, self._forced_ends, monitor, target)

    def _forced_ends(self, monitor: int, monitored: int) -> None:
        if monitored in self._crashed:
            return
        self._detectors[monitor]._set_suspected(monitored, False)

    # ------------------------------------------------------------------ partitions

    def _on_partition(self, blocked: Optional[Set[tuple]], _time: float) -> None:
        """React to a reachability change: a cut monitoring link looks like a crash.

        Monitor ``m`` learns about ``p`` through the ``p -> m`` link; while
        that link is blocked the pair behaves exactly like a crash of ``p``
        from ``m``'s point of view.  ``blocked`` is the network's full set of
        blocked directed ``(src, dst)`` links (or ``None``/empty after a
        heal); the fabric diffs it against the previous set so asymmetric
        splits and partial heals work pair by pair.
        """
        detectors = self._detectors
        now_blocked: Set[Pair] = set()
        if blocked:
            for src, dst in blocked:
                if src != dst and src in detectors and dst in detectors:
                    now_blocked.add((dst, src))  # monitor dst loses news of src
        for monitor, monitored in now_blocked - self._partition_blocked:
            # A stray random-mistake correction must not clear the upcoming
            # partition suspicion, so the pair's mistakes stop (crash parity).
            self._cancel_mistakes(monitor, monitored)
            self._cancel(PARTITION_TRUST, monitor, monitored)
            if monitored in self._crashed:
                continue  # the crash path already drives this pair
            self._after(
                PARTITION_DETECT, self._detection_time(monitor, monitored), monitor, monitored
            )
        for monitor, monitored in self._partition_blocked - now_blocked:
            # A cut shorter than the detection time goes unnoticed.
            self._cancel(PARTITION_DETECT, monitor, monitored)
            if monitored not in self._crashed and detectors[monitor].is_suspected(monitored):
                self._after(
                    PARTITION_TRUST, self._detection_time(monitor, monitored), monitor, monitored
                )
            # Mistake generation resumes once the link is back (the pending
            # partition trust, entered first, keeps ``_resume_mistakes`` from
            # lifting the suspicion early).
            if self._started and monitored not in self._crashed and monitor not in self._crashed:
                self._resume_mistakes(monitor, monitored)
        self._partition_blocked = now_blocked

    def _partition_detect(self, monitor: int, monitored: int) -> None:
        self._due[PARTITION_DETECT].pop((monitor, monitored), None)
        if monitored in self._crashed:
            return
        self._detectors[monitor]._set_suspected(monitored, True)

    def _partition_trust(self, monitor: int, monitored: int) -> None:
        self._due[PARTITION_TRUST].pop((monitor, monitored), None)
        if monitored in self._crashed or (monitor, monitored) in self._partition_blocked:
            return
        self._detectors[monitor]._set_suspected(monitored, False)

    # ------------------------------------------------------------------ crashes

    def _on_crash(self, pid: int, _time: float) -> None:
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        for monitor in self._detectors:
            if monitor == pid:
                continue
            self._cancel_mistakes(monitor, pid)
            self._cancel(TRUST, monitor, pid)
            self._after(DETECT, self._detection_time(monitor, pid), monitor, pid)

    def _detect_crash(self, monitor: int, crashed: int) -> None:
        # A recovery cancels the detection, so the crash is still in effect.
        self._due[DETECT].pop((monitor, crashed), None)
        self._detectors[monitor]._set_suspected(crashed, True)

    # ------------------------------------------------------------------ recoveries

    def _on_recovery(self, pid: int, _time: float) -> None:
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        for monitor in self._detectors:
            if monitor == pid:
                continue
            # A crash shorter than the detection time goes unnoticed.
            self._cancel(DETECT, monitor, pid)
            if (monitor, pid) in self._partition_blocked:
                # The recovered process is still cut off from this monitor:
                # the heal (not the recovery) owns the eventual trust
                # restoration.  If the crash masked the partition's own
                # detection (it began while the process was down), arm it now.
                if (monitor, pid) not in self._due[PARTITION_DETECT] and not self._detectors[
                    monitor
                ].is_suspected(pid):
                    self._after(PARTITION_DETECT, self._detection_time(monitor, pid), monitor, pid)
            elif self._detectors[monitor].is_suspected(pid):
                self._after(TRUST, self._detection_time(monitor, pid), monitor, pid)
            # Wrong-suspicion generation resumes in both directions (unless a
            # partition still blocks that direction's monitoring link).
            if self._started:
                if (monitor, pid) not in self._partition_blocked:
                    self._resume_mistakes(monitor, pid)
                if (pid, monitor) not in self._partition_blocked:
                    self._resume_mistakes(pid, monitor)

    def _restore_trust(self, monitor: int, recovered: int) -> None:
        self._due[TRUST].pop((monitor, recovered), None)
        if recovered in self._crashed:
            return
        self._detectors[monitor]._set_suspected(recovered, False)
