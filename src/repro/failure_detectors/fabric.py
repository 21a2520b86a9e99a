"""Shared machinery of the clock-driven failure detector fabrics.

:class:`CrashDetectionFabric` owns one detector per process and implements
everything every clock-driven fabric needs, independent of *why* suspicions
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
accident.  The mistake-specific extension points are the ``_cancel_mistakes``
/ ``_resume_mistakes`` hooks, the ``_scan_mistake_*`` calendar handlers and
the :meth:`start` override.

Batched scan mode
-----------------

With the default ``scan_interval=None`` every pending detection, trust
restoration and (in the QoS subclass) mistake transition is its own
simulator event -- O(n^2) live timer events, which dominates the event loop
at n >= 15.  Passing ``scan_interval=q`` (``SystemConfig(fd_scan_interval=q)``)
switches the fabric to a *batched calendar*: pair transitions become plain
tuples on a fabric-local heap, at most **one** simulator event (the scan) is
armed at a time, and each scan drains every transition due by then.
Cancellation is O(1) via per-pair generation counters instead of event
handles, so recoveries and re-crashes never touch the simulator queue.

The trade-off is explicit: transitions fire at the next multiple of ``q``
at or after their exact due time, so results are quantized to the scan tick
(same flavour of approximation as the heartbeat detector's
``check_interval``) and are *not* bit-identical to the default mode.  The
default mode stays the golden-pinned exact semantics; batch mode is the
throughput lane for large-n sweeps.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.failure_detectors.interface import FailureDetector
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Network

#: An ordered (monitor, monitored) failure detector pair.
Pair = Tuple[int, int]

#: Calendar entry kinds (index into the scan dispatch table).
KIND_DETECT = 0
KIND_TRUST = 1
KIND_MISTAKE_BEGIN = 2
KIND_MISTAKE_END = 3


class CrashDetectionFabric:
    """Base fabric: crash detection, trust restoration, forced suspicions."""

    #: Detector class instantiated per process; subclasses may refine it.
    detector_class = FailureDetector

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        monitored: Optional[Iterable[int]] = None,
        scan_interval: Optional[float] = None,
    ) -> None:
        if scan_interval is not None and scan_interval <= 0:
            raise ValueError(f"scan_interval must be > 0, got {scan_interval}")
        self._sim = sim
        self._network = network
        pids = list(range(network.n)) if monitored is None else sorted(monitored)
        self._detectors: Dict[int, FailureDetector] = {
            pid: self.detector_class(pid, pids) for pid in pids
        }
        # Pending crash detections / post-recovery trust restorations, so a
        # recovery (resp. a re-crash) can cancel them (exact mode only).
        self._pending_detect: Dict[Pair, EventHandle] = {}
        self._pending_trust: Dict[Pair, EventHandle] = {}
        self._crashed: set = set()
        self._started = False
        # Batched-scan calendar (``scan_interval is not None``): a heap of
        # ``(due, seq, kind, monitor, monitored, gen)`` tuples drained by one
        # armed simulator event.  ``gen`` snapshots the pair's generation
        # counter; bumping the counter invalidates every outstanding entry of
        # that pair/kind family without touching the heap.
        self._scan_interval = scan_interval
        self._calendar: List[tuple] = []
        self._cal_seq = 0
        self._armed_time: Optional[float] = None
        self._armed_handle: Optional[EventHandle] = None
        # KIND_MISTAKE_BEGIN and KIND_MISTAKE_END share one generation map:
        # legacy ``_cancel_mistakes`` cancels both transition kinds at once.
        mistake_gen: Dict[Pair, int] = {}
        self._cal_gens = ({}, {}, mistake_gen, mistake_gen)
        self._scan_dispatch = (
            self._scan_detect,
            self._scan_trust,
            self._scan_mistake_begins,
            self._scan_mistake_ends,
        )
        #: Pairs with a live trust-restoration entry on the calendar (batch
        #: mode's counterpart of ``pair in self._pending_trust``).
        self._trust_armed: Set[Pair] = set()
        #: (monitor, monitored) pairs whose ``monitored -> monitor`` link is
        #: currently blocked by a partition, plus their pending transitions.
        #: Partition changes are rare (a handful per scenario), so these stay
        #: direct simulator events even in batched-scan mode -- the same
        #: convention as the forced-suspicion windows.
        self._partition_blocked: Set[Pair] = set()
        self._pending_part_detect: Dict[Pair, EventHandle] = {}
        self._pending_part_trust: Dict[Pair, EventHandle] = {}
        network.add_crash_listener(self._on_crash)
        network.add_recovery_listener(self._on_recovery)
        network.add_partition_listener(self._on_partition)

    # ------------------------------------------------------------------ access

    @property
    def scan_interval(self) -> Optional[float]:
        """The batched-scan tick, or ``None`` in exact per-pair-timer mode."""
        return self._scan_interval

    def attach(self, process) -> FailureDetector:
        """The detector of ``process`` (fabric protocol; detectors pre-exist)."""
        return self._detectors[process.pid]

    def detector(self, pid: int) -> FailureDetector:
        """The failure detector local to process ``pid``."""
        return self._detectors[pid]

    def detectors(self) -> Dict[int, FailureDetector]:
        """All detectors, keyed by owner process id."""
        return dict(self._detectors)

    # ------------------------------------------------------------------ hooks

    def _detection_time(self, monitor: int, monitored: int) -> float:
        """The detection time ``T_D`` of the ordered pair (default: 0)."""
        return 0.0

    def _cancel_mistakes(self, monitor: int, monitored: int) -> None:
        """Cancel pending random-mistake events of the pair (mistake models)."""

    def _resume_mistakes(self, monitor: int, monitored: int) -> None:
        """Resume random-mistake generation for the pair after a recovery."""

    def _scan_mistake_begins(self, monitor: int, monitored: int) -> None:
        """Calendar handler for mistake onsets (mistake models override)."""

    def _scan_mistake_ends(self, monitor: int, monitored: int) -> None:
        """Calendar handler for mistake corrections (mistake models override)."""

    # ------------------------------------------------------------------ calendar

    def _calendar_push(self, kind: int, delay: float, monitor: int, monitored: int) -> None:
        """Enter a pair transition on the batch calendar, ``delay`` from now."""
        due = self._sim.now + delay
        gen = self._cal_gens[kind].get((monitor, monitored), 0)
        heapq.heappush(self._calendar, (due, self._cal_seq, kind, monitor, monitored, gen))
        self._cal_seq += 1
        # Fast path: a scan armed at or before ``due`` already covers this
        # entry (its tick is <= quantize(due)), so skip the quantization.
        armed = self._armed_time
        if armed is None or armed > due:
            self._arm(due)

    def _calendar_cancel(self, kind: int, monitor: int, monitored: int) -> None:
        """Invalidate every outstanding calendar entry of the pair's kind."""
        gens = self._cal_gens[kind]
        pair = (monitor, monitored)
        gens[pair] = gens.get(pair, 0) + 1

    def _quantize(self, time: float) -> float:
        """The first scan tick at or after ``time`` (``ceil`` to the grid)."""
        interval = self._scan_interval
        return math.ceil(time / interval) * interval

    def _arm(self, due: float) -> None:
        """Make sure the scan event fires no later than ``due``'s tick."""
        tick = self._quantize(due)
        if self._armed_time is not None and self._armed_time <= tick:
            return
        if self._armed_handle is not None:
            self._armed_handle.cancel()
        self._armed_time = tick
        self._armed_handle = self._sim.schedule_at(tick, self._scan)

    def _scan(self) -> None:
        """Drain every calendar transition due by now, in (time, seq) order."""
        self._armed_time = None
        self._armed_handle = None
        calendar = self._calendar
        gens = self._cal_gens
        dispatch = self._scan_dispatch
        pop = heapq.heappop
        now = self._sim.now
        while calendar and calendar[0][0] <= now:
            due, _seq, kind, monitor, monitored, gen = pop(calendar)
            if gens[kind].get((monitor, monitored), 0) != gen:
                continue
            dispatch[kind](monitor, monitored)
        if calendar:
            self._arm(calendar[0][0])

    def _trust_pending(self, monitor: int, monitored: int) -> bool:
        """Whether the pair has a pending post-recovery trust restoration."""
        if (monitor, monitored) in self._pending_part_trust:
            return True
        if self._scan_interval is not None:
            return (monitor, monitored) in self._trust_armed
        return (monitor, monitored) in self._pending_trust

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Lifecycle hook called once when the system starts (idempotent)."""
        self._started = True

    def suspect_permanently(self, monitored: int, delay: float = 0.0) -> None:
        """Make every monitor suspect ``monitored`` permanently after ``delay``.

        Used by the crash-steady scenario where crashes happened long before
        the measured window: every detector suspects the crashed processes
        from the very start of the run.
        """
        self._crashed.add(monitored)
        for monitor, detector in self._detectors.items():
            if monitor == monitored:
                continue
            self._cancel_mistakes(monitor, monitored)
            if delay == 0.0:
                detector._set_suspected(monitored, True)
            else:
                self._sim.post(delay, detector._set_suspected, monitored, True)

    def suspect_during(
        self,
        target: int,
        start: float,
        duration: float,
        monitors: Optional[Iterable[int]] = None,
    ) -> None:
        """Force a wrong suspicion of ``target`` during ``[start, start + duration]``.

        Every monitor in ``monitors`` (default: all) suspects ``target`` at
        absolute time ``start`` and trusts it again ``duration`` later --
        the deterministic counterpart of the random QoS mistakes, used by
        declarative fault schedules.  Crashed endpoints are skipped at fire
        time, and the suspicion is not lifted if ``target`` really crashed
        in the meantime.  Forced windows are rare (a handful per scenario),
        so they stay direct simulator events even in batched-scan mode.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        pids = self._detectors.keys() if monitors is None else monitors
        for monitor in pids:
            if monitor == target:
                continue
            self._sim.post_at(start, self._forced_begins, monitor, target, duration)

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
            self._cancel_part_trust(monitor, monitored)
            if monitored in self._crashed:
                continue  # the crash path already drives this pair
            self._pending_part_detect[(monitor, monitored)] = self._sim.schedule(
                self._detection_time(monitor, monitored),
                self._partition_detect,
                monitor,
                monitored,
            )
        for monitor, monitored in self._partition_blocked - now_blocked:
            # A cut shorter than the detection time goes unnoticed.
            pending = self._pending_part_detect.pop((monitor, monitored), None)
            if pending is not None:
                pending.cancel()
            if monitored not in self._crashed and detectors[monitor].is_suspected(monitored):
                self._pending_part_trust[(monitor, monitored)] = self._sim.schedule(
                    self._detection_time(monitor, monitored),
                    self._partition_trust,
                    monitor,
                    monitored,
                )
            # Mistake generation resumes once the link is back (the pending
            # partition trust, entered first, keeps ``_resume_mistakes`` from
            # lifting the suspicion early).
            if self._started and monitored not in self._crashed and monitor not in self._crashed:
                self._resume_mistakes(monitor, monitored)
        self._partition_blocked = now_blocked

    def _partition_detect(self, monitor: int, monitored: int) -> None:
        self._pending_part_detect.pop((monitor, monitored), None)
        if monitored in self._crashed:
            return
        self._detectors[monitor]._set_suspected(monitored, True)

    def _partition_trust(self, monitor: int, monitored: int) -> None:
        self._pending_part_trust.pop((monitor, monitored), None)
        if monitored in self._crashed or (monitor, monitored) in self._partition_blocked:
            return
        self._detectors[monitor]._set_suspected(monitored, False)

    def _cancel_part_trust(self, monitor: int, monitored: int) -> None:
        handle = self._pending_part_trust.pop((monitor, monitored), None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------ crashes

    def _on_crash(self, pid: int, _time: float) -> None:
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        batch = self._scan_interval is not None
        for monitor in self._detectors:
            if monitor == pid:
                continue
            self._cancel_mistakes(monitor, pid)
            self._cancel_trust(monitor, pid)
            detection_time = self._detection_time(monitor, pid)
            if batch:
                self._calendar_push(KIND_DETECT, detection_time, monitor, pid)
            else:
                self._pending_detect[(monitor, pid)] = self._sim.schedule(
                    detection_time, self._detect_crash, monitor, pid
                )

    def _detect_crash(self, monitor: int, crashed: int) -> None:
        self._pending_detect.pop((monitor, crashed), None)
        self._detectors[monitor]._set_suspected(crashed, True)

    def _scan_detect(self, monitor: int, crashed: int) -> None:
        # Recovery bumps the detect generation, so reaching here means the
        # crash is still in effect.
        self._detectors[monitor]._set_suspected(crashed, True)

    # ------------------------------------------------------------------ recoveries

    def _on_recovery(self, pid: int, _time: float) -> None:
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        batch = self._scan_interval is not None
        for monitor in self._detectors:
            if monitor == pid:
                continue
            # A crash shorter than the detection time goes unnoticed.
            if batch:
                self._calendar_cancel(KIND_DETECT, monitor, pid)
            else:
                pending = self._pending_detect.pop((monitor, pid), None)
                if pending is not None:
                    pending.cancel()
            if (monitor, pid) in self._partition_blocked:
                # The recovered process is still cut off from this monitor:
                # the heal (not the recovery) owns the eventual trust
                # restoration.  If the crash masked the partition's own
                # detection (it began while the process was down), arm it now.
                if (monitor, pid) not in self._pending_part_detect and not self._detectors[
                    monitor
                ].is_suspected(pid):
                    self._pending_part_detect[(monitor, pid)] = self._sim.schedule(
                        self._detection_time(monitor, pid),
                        self._partition_detect,
                        monitor,
                        pid,
                    )
            elif self._detectors[monitor].is_suspected(pid):
                detection_time = self._detection_time(monitor, pid)
                if batch:
                    self._trust_armed.add((monitor, pid))
                    self._calendar_push(KIND_TRUST, detection_time, monitor, pid)
                else:
                    self._pending_trust[(monitor, pid)] = self._sim.schedule(
                        detection_time, self._restore_trust, monitor, pid
                    )
            # Wrong-suspicion generation resumes in both directions (unless a
            # partition still blocks that direction's monitoring link).
            if self._started:
                if (monitor, pid) not in self._partition_blocked:
                    self._resume_mistakes(monitor, pid)
                if (pid, monitor) not in self._partition_blocked:
                    self._resume_mistakes(pid, monitor)

    def _restore_trust(self, monitor: int, recovered: int) -> None:
        self._pending_trust.pop((monitor, recovered), None)
        if recovered in self._crashed:
            return
        self._detectors[monitor]._set_suspected(recovered, False)

    def _scan_trust(self, monitor: int, recovered: int) -> None:
        self._trust_armed.discard((monitor, recovered))
        if recovered in self._crashed:
            return
        self._detectors[monitor]._set_suspected(recovered, False)

    # ------------------------------------------------------------------ helpers

    def _cancel_trust(self, monitor: int, monitored: int) -> None:
        if self._scan_interval is not None:
            self._calendar_cancel(KIND_TRUST, monitor, monitored)
            self._trust_armed.discard((monitor, monitored))
            return
        handle = self._pending_trust.pop((monitor, monitored), None)
        if handle is not None:
            handle.cancel()
