"""Deterministic discrete-event simulation kernel.

The kernel is a plain priority queue of timestamped callbacks.  Events
scheduled for the same simulation time fire in the order they were scheduled,
which makes every run fully deterministic for a given seed.  Simulation time
is a ``float``; by convention one unit is the network transmission time of a
single message (interpreted as 1 ms in the paper's plots).

Entry layout.  The heap holds ``(time, seq, callback, args, handle)`` tuples.
``(time, seq)`` is unique, so heap comparisons run entirely in C on the two
leading numbers and never reach the rest.  ``handle`` is the
:class:`EventHandle` the caller may cancel, or ``None`` for an event nobody
can cancel: the run loop unpacks the entry, calls ``callback(*args)`` and
looks at the handle only when there is one.

The one rule.  **``post*`` when you drop the handle, ``schedule*`` when you
keep it.**  :meth:`Simulator.post` / :meth:`Simulator.post_at` are
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` minus the handle:
same past-time check, same ``seq`` draw, same position in the total order,
no allocation beyond the heap entry.  Most events of a run (resource
completions, local deliveries, pre-scheduled arrivals, fault injections) are
never cancelled; only timers and the failure detector fabrics keep what
``schedule*`` returns (a structural test holds ``src/`` to the rule).

Hot-path notes.  The run loop keeps the queue and the heap primitives in
locals, ``now`` is a plain slot only this module writes (every component
reads it once or more per message), cancelled events are *counted* so the
heap can be compacted in place when more than half of it is dead weight
(timer-heavy failure detector workloads cancel constantly and would otherwise
carry every dead timer until its time came), and the attached
instrumentation is a local the one loop tests around the callback (measured
against a second, hook-free copy of the loop: inside the run-to-run noise).
None of this changes which events execute or in which order:
``events_processed`` and every delivered sequence stay bit-identical to the
pre-optimisation kernel (pinned by the golden tests and the
kernel-equivalence property suite).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

#: Compaction threshold: never compact below this many cancelled events (the
#: rebuild is O(queue), so tiny queues are not worth touching).
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class EventHandle:
    """Handle of a scheduled event, usable for cancellation.

    Returned by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`
    and carried as the last field of the event's heap entry.  Handles order
    themselves by ``(time, seq)`` for callers that sort them directly.
    """

    __slots__ = ("time", "seq", "cancelled", "_cancel_box")

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.cancelled = False
        #: Owning simulator's cancelled-event counter cell while the event
        #: is on the heap; ``None`` once the run loop popped it (and for
        #: handles created outside a simulator, e.g. in unit tests), so
        #: cancelling an event that already ran counts nothing.
        self._cancel_box = None

    def cancel(self) -> None:
        """Cancel the event; it will be skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            box = self._cancel_box
            if box is not None:
                box[0] += 1

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class Simulator:
    """Single-threaded deterministic discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.post(1.5, callback, arg1, arg2)             # fire and forget
        timeout = sim.schedule(20.0, on_timeout)        # ... or keep the handle
        timeout.cancel()
        sim.run(until=1000.0)

    ``now`` is the current simulation time: a plain attribute, read by
    everything and written by the kernel alone.
    """

    __slots__ = (
        "now",
        "_queue",
        "_seq",
        "_running",
        "_stopped",
        "_processed",
        "_exhausted",
        "_obs",
        "_cancel_box",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed: int = 0
        self._exhausted: bool = False
        #: Instrumentation, or ``None`` when nothing observes the run loop.
        self._obs = None
        #: Shared one-cell counter of cancelled events still on the heap.
        #: Handles hold a reference while they are queued so ``cancel()``
        #: stays O(1) and allocation free; the scheduler compacts the heap
        #: when the cell outgrows half the queue.
        self._cancel_box: List[int] = [0]

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics and tests)."""
        return self._processed

    @property
    def run_exhausted(self) -> bool:
        """Whether the last :meth:`run` ended because ``max_events`` was hit.

        Distinguishes "the event budget ran out with work still queued" from
        "the queue drained / ``until`` was reached / :meth:`stop` was called"
        -- with ``until`` set, a budget-exhausted run does not advance
        ``now``, so the end time alone cannot tell the two apart.
        """
        return self._exhausted

    def set_instrumentation(self, obs) -> None:
        """Attach an :class:`repro.obs.Instrumentation` (or ``None`` to detach).

        With instrumentation attached, :meth:`run` reports per-category
        event counts and the queue-depth high-water mark; detached, an event
        pays two ``is not None`` tests on a local.
        """
        self._obs = obs

    @property
    def pending_events(self) -> int:
        """Number of events still waiting on the queue (cancelled included)."""
        return len(self._queue)

    @property
    def cancelled_pending_events(self) -> int:
        """Cancelled events still occupying the queue (compaction trigger)."""
        return self._cancel_box[0]

    # The four entry points share one body, written out four times: they are
    # the hottest calls of a run and a shared helper would cost every event a
    # second frame.  The guards are phrased ``not x >= y`` so that a NaN time
    # is rejected by the same single comparison that rejects the past.

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` time units from now, uncancellably.

        :meth:`schedule` without the :class:`EventHandle`: the event takes
        the same place in the total order and costs one heap entry.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heappush(queue, (self.now + delay, seq, callback, args, None))
        cancelled = self._cancel_box[0]
        if cancelled >= _COMPACT_MIN and cancelled * 2 > len(queue):
            self._compact()

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulation ``time``, uncancellably."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heappush(queue, (time, seq, callback, args, None))
        cancelled = self._cancel_box[0]
        if cancelled >= _COMPACT_MIN and cancelled * 2 > len(queue):
            self._compact()

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns the handle that cancels the event; a caller that would drop
        it uses :meth:`post` instead.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq)
        box = handle._cancel_box = self._cancel_box
        queue = self._queue
        heappush(queue, (time, seq, callback, args, handle))
        cancelled = box[0]
        if cancelled >= _COMPACT_MIN and cancelled * 2 > len(queue):
            self._compact()
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``.

        Returns the handle that cancels the event; a caller that would drop
        it uses :meth:`post_at` instead.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq)
        box = handle._cancel_box = self._cancel_box
        queue = self._queue
        heappush(queue, (time, seq, callback, args, handle))
        cancelled = box[0]
        if cancelled >= _COMPACT_MIN and cancelled * 2 > len(queue):
            self._compact()
        return handle

    def _compact(self) -> None:
        """Drop cancelled events from the heap, in place.

        In place matters: a :meth:`run` loop in progress holds a local
        reference to the queue list, so the rebuild must not rebind it.
        Cancelled events never execute, so compaction is invisible to the
        simulation -- it only shrinks :attr:`pending_events`.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[4] is None or not entry[4].cancelled]
        heapify(queue)
        self._cancel_box[0] = 0

    def stop(self) -> None:
        """Stop the current :meth:`run` after the event being processed."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached or ``stop``.

        Returns the simulation time at which the run ended.  Events scheduled
        exactly at ``until`` are executed.

        Control flow is check-for-check the seed loop (budget, ``until``,
        cancellation, stop), with the queue, the heap pop, the budget and the
        instrumentation hoisted out of the loop; the event count is folded
        back into ``_processed`` on exit (exceptions included) so external
        observers see the same counter the per-iteration increment produced.
        A popped handle is detached from the cancelled-event cell: it is no
        longer on the heap, so a later ``cancel()`` must not count it.  The
        hooks only *observe*: queue depth is sampled at the top of each
        iteration, which is where it peaks (it only grows during callbacks).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        self._exhausted = False
        obs = self._obs
        queue = self._queue
        pop = heappop
        box = self._cancel_box
        budget = max_events if max_events is not None else float("inf")
        executed = 0
        try:
            while queue and not self._stopped:
                if obs is not None:
                    obs.queue_depth(len(queue))
                if executed >= budget:
                    self._exhausted = True
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                time, _seq, callback, args, handle = pop(queue)
                if handle is not None:
                    if handle.cancelled:
                        box[0] -= 1
                        continue
                    handle._cancel_box = None
                self.now = time
                callback(*args)
                executed += 1
                if obs is not None:
                    obs.sim_event(time, _callback_category(callback))
            else:
                if until is not None and not queue and self.now < until:
                    self.now = until
        finally:
            self._processed += executed
            self._running = False
        return self.now

    def reset(self) -> None:
        """Clear all state so the simulator can be reused from time zero.

        ``BroadcastSystem.close()`` calls it to drop a finished run's events.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self.now = 0.0
        self._queue.clear()
        self._seq = 0
        self._processed = 0
        self._stopped = False
        self._exhausted = False
        # A fresh cell, not a zeroed one: handles of the events just dropped
        # still point at the old cell and must not count against this one.
        self._cancel_box = [0]


def _callback_category(callback: Callable[..., Any]) -> str:
    """Event-loop category of a callback: its defining class and method.

    ``Network._emitted`` -> ``"Network._emitted"``; closures collapse to the
    function that created them (``FIFOResource.submit.<locals>.<lambda>`` ->
    ``"FIFOResource.submit"``), which is the granularity the event-loop
    profile wants.  Bound methods (the closure-free dispatch path of the
    network and the FIFO resources) carry their ``__qualname__`` directly,
    so they keep resolving to ``Class.method`` buckets.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return type(callback).__name__
    return qualname.split(".<locals>", 1)[0]
