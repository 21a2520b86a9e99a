"""Kernel-equivalence property suite.

The optimised run loop in :mod:`repro.sim.engine` (five-field heap entries,
handle-free ``post*`` events, hoisted locals, lazy compaction) must execute
the *exact* same callbacks in the exact same order as the straightforward
seed kernel it replaced.  This suite pins that claim: random event programs
-- posted and handled events mixed, cancellations before and after firing,
events that schedule more events, a mass cancellation large enough to
compact the heap, ``stop()``, ``until`` horizons and ``max_events`` budgets
-- are run through a transcription of the seed loop and through the
production :class:`~repro.sim.engine.Simulator`, and the full observable
trace (fired ids, firing times, end time, ``events_processed``,
``run_exhausted``, ``pending_events``, ``cancelled_pending_events``) must
match bit for bit.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _COMPACT_MIN, Simulator


class _RefHandle:
    """Seed-shaped handle: the heap orders handles directly via ``__lt__``."""

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """Transcription of the pre-optimisation seed kernel.

    No tuple heap, no hoisted locals, no handle-free events and no counter
    cell: handles sit on the heap directly, every event has one, cancelled
    ones are skipped when popped, and the number of cancelled events on the
    heap is *counted by looking* whenever someone asks.  The compaction
    *rule* is the production one (it decides ``pending_events``, which is
    observable), applied the slow way.  Only the surface needed by the
    equivalence programs is implemented.
    """

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._seq = 0
        self._processed = 0
        self._stopped = False
        self._exhausted = False

    @property
    def now(self):
        return self._now

    @property
    def events_processed(self):
        return self._processed

    @property
    def run_exhausted(self):
        return self._exhausted

    @property
    def pending_events(self):
        return len(self._queue)

    @property
    def cancelled_pending_events(self):
        return sum(1 for handle in self._queue if handle.cancelled)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = _RefHandle(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, handle)
        dead = self.cancelled_pending_events
        if dead >= _COMPACT_MIN and dead * 2 > len(self._queue):
            self._queue = [handle for handle in self._queue if not handle.cancelled]
            heapq.heapify(self._queue)
        return handle

    # A posted event is a scheduled event whose handle nobody looks at.
    post = schedule
    post_at = schedule_at

    def stop(self):
        self._stopped = True

    def run(self, until=None, max_events=None):
        self._stopped = False
        self._exhausted = False
        executed = 0
        while self._queue and not self._stopped:
            if max_events is not None and executed >= max_events:
                self._exhausted = True
                break
            head = self._queue[0]
            if until is not None and head.time > until:
                self._now = until
                break
            heapq.heappop(self._queue)
            if head.cancelled:
                continue
            self._now = head.time
            head.callback(*head.args)
            executed += 1
        else:
            if until is not None and not self._queue and self._now < until:
                self._now = until
        self._processed += executed
        return self._now


_DELAYS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)

# One action performed when an event fires: spawn a follow-up event after a
# relative delay (keeping its handle or posting it), cancel the handle at
# (index % live handles) -- which may already have fired or been cancelled,
# exercising the no-op cancel paths too --, cancel every far-future victim
# at once (enough dead weight for the next scheduling call to compact the
# heap), or stop the run.
_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), _DELAYS),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("massacre")),
        st.tuples(st.just("stop")),
    ),
    max_size=3,
)


@st.composite
def programs(draw):
    """A deterministic event program plus run parameters.

    Events are identified by creation order, which both kernels share
    because the program itself is deterministic.  Actions are defined only
    for a bounded range of event ids, so spawn chains terminate.
    """
    roots = draw(st.lists(st.tuples(_DELAYS, st.booleans()), min_size=1, max_size=10))
    actions = draw(
        st.dictionaries(st.integers(min_value=0, max_value=60), _ACTIONS, max_size=25)
    )
    victims = draw(st.sampled_from((0, 0, _COMPACT_MIN, 2 * _COMPACT_MIN + 5)))
    until = draw(st.none() | st.floats(min_value=0.0, max_value=250.0, allow_nan=False))
    max_events = draw(st.none() | st.integers(min_value=0, max_value=120))
    return roots, actions, victims, until, max_events


def run_program(sim, program):
    """Execute ``program`` on ``sim`` and return its full observable trace."""
    roots, actions, victims, until, max_events = program
    fired = []
    handles = []
    doomed = []
    counter = [0]

    def fire(eid):
        fired.append((eid, sim.now))
        for action in actions.get(eid, ()):
            kind = action[0]
            if kind == "spawn" or kind == "post":
                child = counter[0]
                counter[0] += 1
                if kind == "spawn":
                    handles.append(sim.schedule(action[1], fire, child))
                else:
                    sim.post(action[1], fire, child)
            elif kind == "cancel":
                handles[action[1] % len(handles)].cancel()
            elif kind == "massacre":
                for victim in doomed:
                    victim.cancel()
            else:
                sim.stop()

    for index in range(victims):
        # Beyond every ``until`` the strategy draws: victims only ever leave
        # the heap by compaction.
        doomed.append(sim.schedule_at(10_000.0 + index, fire, -1))
    handles.extend(doomed[:3])
    for delay, keep in roots:
        eid = counter[0]
        counter[0] += 1
        if keep:
            handles.append(sim.schedule(delay, fire, eid))
        else:
            sim.post_at(sim.now + delay, fire, eid)
    if not handles:
        handles.append(sim.schedule(0.0, fire, -2))
    end = sim.run(until=until, max_events=max_events)
    return (
        fired,
        end,
        sim.events_processed,
        sim.run_exhausted,
        sim.pending_events,
        sim.cancelled_pending_events,
    )


class TestKernelEquivalence:
    @given(program=programs())
    @settings(max_examples=200, deadline=None)
    def test_optimized_loop_matches_reference_loop(self, program):
        reference = run_program(ReferenceSimulator(), program)
        optimized = run_program(Simulator(), program)
        assert optimized == reference

    @given(program=programs(), resume_until=st.none() | st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_survives_resumed_runs(self, program, resume_until):
        """A second run() continuing a stopped/limited first run also matches."""
        traces = []
        for sim in (ReferenceSimulator(), Simulator()):
            first = run_program(sim, program)
            end = sim.run(until=resume_until, max_events=50)
            traces.append(
                (first, end, sim.events_processed, sim.run_exhausted,
                 sim.pending_events, sim.cancelled_pending_events)
            )
        assert traces[0] == traces[1]

    @given(program=programs())
    @settings(max_examples=50, deadline=None)
    def test_instrumented_loop_matches_reference_loop(self, program):
        from repro.obs import Instrumentation

        reference = run_program(ReferenceSimulator(), program)
        sim = Simulator()
        sim.set_instrumentation(Instrumentation())
        assert run_program(sim, program) == reference

    def test_the_strategy_reaches_a_compaction(self):
        """The hand-written worst case of the strategy: a massacre followed by
        a spawn compacts both kernels' heaps, mid-run, to the same size."""
        program = (
            [(1.0, True), (2.0, False)],
            {0: [("massacre",), ("spawn", 5.0)], 1: [("cancel", 0), ("post", 1.0)]},
            2 * _COMPACT_MIN + 5,
            None,
            None,
        )
        reference = run_program(ReferenceSimulator(), program)
        assert run_program(Simulator(), program) == reference
        fired, _end, processed, _exhausted, pending, cancelled = reference
        assert [eid for eid, _time in fired] == [0, 1, 3, 2]
        assert (processed, pending, cancelled) == (4, 0, 0)
