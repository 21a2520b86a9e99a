"""Failure detector interface shared by all implementations.

A failure detector is local to one process.  Algorithms query the current
suspicion state with :meth:`FailureDetector.is_suspected` and subscribe to
changes with :meth:`FailureDetector.add_listener`; listeners are invoked as
``listener(pid, suspected)`` whenever the suspicion state of ``pid`` flips.

:class:`DetectorFabric` is what an ``fd_kind`` is: the one object per
system that owns every process's detector and drives their suspicion state.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.network import Network

SuspicionListener = Callable[[int, bool], None]


class FailureDetector:
    """Base class holding suspicion state and listener plumbing."""

    def __init__(self, owner_pid: int, monitored: Iterable[int]) -> None:
        self.owner_pid = owner_pid
        self._monitored: Set[int] = {pid for pid in monitored if pid != owner_pid}
        self._suspected: Set[int] = set()
        # A tuple, replaced on add, so the (hot) notification loop never
        # copies it: a listener added during a notification sees the next
        # flip, not the one in flight.
        self._listeners: Tuple[SuspicionListener, ...] = ()

    # ------------------------------------------------------------------ queries

    @property
    def monitored(self) -> Set[int]:
        """Processes this detector monitors (never includes the owner)."""
        return set(self._monitored)

    def is_suspected(self, pid: int) -> bool:
        """Whether ``pid`` is currently suspected by the owner process."""
        return pid in self._suspected

    def suspected(self) -> Set[int]:
        """The set of currently suspected processes."""
        return set(self._suspected)

    # ------------------------------------------------------------------ listeners

    def add_listener(self, listener: SuspicionListener) -> None:
        """Subscribe to suspicion-state changes."""
        self._listeners += (listener,)

    # ------------------------------------------------------------------ mutation

    def _set_suspected(self, pid: int, suspected: bool) -> None:
        """Update the suspicion state of ``pid`` and notify listeners on change."""
        if pid == self.owner_pid or pid not in self._monitored:
            return
        suspected_set = self._suspected
        if (pid in suspected_set) == suspected:
            return
        if suspected:
            suspected_set.add(pid)
        else:
            suspected_set.discard(pid)
        for listener in self._listeners:
            listener(pid, suspected)

    def force_suspect(self, pid: int) -> None:
        """Testing hook: mark ``pid`` suspected immediately."""
        self._set_suspected(pid, True)

    def force_trust(self, pid: int) -> None:
        """Testing hook: mark ``pid`` trusted immediately."""
        self._set_suspected(pid, False)


class DetectorFabric:
    """The failure detectors of one system: the contract of an ``fd_kind``.

    The system assembler, the fault events and the instrumentation use only
    this surface.  A subclass fills ``_detectors`` (up front, or in its own
    :meth:`attach`), implements ``suspect_permanently`` and the
    ``_forced_begins(monitor, target, duration)`` event that
    :meth:`suspect_during` posts, and overrides :meth:`start` if it has
    anything to start.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self._sim = sim
        self._network = network
        self._detectors: Dict[int, FailureDetector] = {}

    def attach(self, process) -> FailureDetector:
        """The detector of ``process`` (called once per process, before its components)."""
        return self._detectors[process.pid]

    def detector(self, pid: int) -> FailureDetector:
        """The failure detector local to process ``pid``."""
        return self._detectors[pid]

    def detectors(self) -> Dict[int, FailureDetector]:
        """All detectors, keyed by owner process id."""
        return dict(self._detectors)

    def start(self) -> None:
        """Lifecycle hook called once when the system starts (no-op here)."""

    def _check(self, call: str, pids: Iterable[int]) -> None:
        """Raise ``ValueError`` naming the first of ``pids`` the system lacks."""
        n = self._network.n
        for pid in pids:
            if not 0 <= pid < n:
                raise ValueError(
                    f"{call} names process {pid}, but the system has processes 0..{n - 1}"
                )

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
        the deterministic counterpart of random mistakes, used by
        declarative fault schedules.  Crashed endpoints are skipped at fire
        time, and the suspicion is not lifted if ``target`` really crashed
        in the meantime.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        pids = list(self._detectors if monitors is None else monitors)
        self._check("suspect_during", [target, *pids])
        for monitor in pids:
            if monitor == target:
                continue
            self._sim.post_at(start, self._forced_begins, monitor, target, duration)
