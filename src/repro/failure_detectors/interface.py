"""Failure detector interface shared by all implementations.

A failure detector is local to one process.  Algorithms query the current
suspicion state with :meth:`FailureDetector.is_suspected` and subscribe to
changes with :meth:`FailureDetector.add_listener`; listeners are invoked as
``listener(pid, suspected)`` whenever the suspicion state of ``pid`` flips.
"""

from __future__ import annotations

from typing import Callable, Iterable, Set, Tuple

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

