"""Kernel-equivalence property suite.

The one run loop of :mod:`repro.sim.engine` (five-field heap entries,
handle-free ``post*`` events, hoisted locals, lazy compaction, the attached
instrumentation tested around the callback) must execute the *exact* same
callbacks in the exact same order as the straightforward seed kernel it
replaced -- :class:`ReferenceSimulator` below, the single reference kernel.
This suite pins that claim: random event programs -- posted and handled
events mixed, cancellations before and after firing, events that schedule
more events, a mass cancellation large enough to compact the heap,
``stop()``, a callback that raises, ``until`` horizons and ``max_events``
budgets -- are run through the reference and through the production
:class:`~repro.sim.engine.Simulator`, detached and with a recorder attached,
and the full observable trace (fired ids, firing times, end time or the
exception, ``events_processed``, ``run_exhausted``, ``pending_events``,
``cancelled_pending_events``) must match bit for bit.  With the recorder
attached the loop must also report exactly one ``sim_event`` per executed
event, in execution order, and the reference's queue-depth high-water mark.
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
        #: Largest queue depth seen from the loop, i.e. at the top of an
        #: iteration: the depth only grows inside callbacks, so it peaks there.
        self.depth_hwm = 0

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
            self.depth_hwm = max(self.depth_hwm, len(self._queue))
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
            # Counted once it returned: an event whose callback raised was
            # not executed.
            executed += 1
            self._processed += 1
        else:
            if until is not None and not self._queue and self._now < until:
                self._now = until
        return self._now


class Recorder:
    """What an attached instrumentation hears from the run loop, verbatim."""

    enabled = True

    def __init__(self):
        self.events = []
        self.depth_hwm = 0

    def sim_event(self, time, category):
        self.events.append((time, category))

    def queue_depth(self, depth):
        self.depth_hwm = max(self.depth_hwm, depth)


class Boom(Exception):
    """Raised by the ``raise`` action, through ``run()``, into the program."""


_DELAYS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)

# One action performed when an event fires: spawn a follow-up event after a
# relative delay (keeping its handle or posting it), cancel the handle at
# (index % live handles) -- which may already have fired or been cancelled,
# exercising the no-op cancel paths too --, cancel every far-future victim
# at once (enough dead weight for the next scheduling call to compact the
# heap), stop the run, or raise out of the callback (and so out of ``run()``).
_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), _DELAYS),
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("massacre")),
        st.tuples(st.just("stop")),
        st.tuples(st.just("raise")),
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
            elif kind == "stop":
                sim.stop()
            else:
                raise Boom(eid)

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
    try:
        end = sim.run(until=until, max_events=max_events)
    except Boom as boom:
        end = ("raised", boom.args, sim.now)
    return (
        fired,
        end,
        sim.events_processed,
        sim.run_exhausted,
        sim.pending_events,
        sim.cancelled_pending_events,
    )


def recorded_simulator():
    sim = Simulator()
    recorder = Recorder()
    sim.set_instrumentation(recorder)
    return sim, recorder


def assert_recorder_heard_the_run(recorder, sim, reference_sim, traces):
    """One ``sim_event`` per executed event, in order, and the exact depth mark.

    ``traces`` are the ``run_program`` traces of the runs so far; an event
    whose callback raised was fired but not executed, and is the last one
    its run fired.
    """
    executed_times = []
    for fired, end, *_rest in traces:
        raised = isinstance(end, tuple)
        executed_times.extend(time for _eid, time in (fired[:-1] if raised else fired))
    assert len(recorder.events) == sim.events_processed
    assert [time for time, _category in recorder.events] == executed_times
    assert {category for _time, category in recorder.events} <= {"run_program"}
    assert recorder.depth_hwm == reference_sim.depth_hwm


class TestKernelEquivalence:
    @given(program=programs())
    @settings(max_examples=200, deadline=None)
    def test_the_one_loop_matches_the_reference_with_and_without_a_recorder(self, program):
        reference_sim = ReferenceSimulator()
        reference = run_program(reference_sim, program)
        assert run_program(Simulator(), program) == reference
        sim, recorder = recorded_simulator()
        assert run_program(sim, program) == reference
        assert_recorder_heard_the_run(recorder, sim, reference_sim, [reference])

    @given(program=programs(), resume_until=st.none() | st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_survives_resumed_runs(self, program, resume_until):
        """A second run() continuing a stopped/limited/raised first run also matches."""
        reference_sim = ReferenceSimulator()
        sim, recorder = recorded_simulator()
        traces = []
        for kernel in (reference_sim, Simulator(), sim):
            first = run_program(kernel, program)
            fired_before = len(first[0])
            try:
                end = kernel.run(until=resume_until, max_events=50)
            except Boom as boom:
                end = ("raised", boom.args, kernel.now)
            traces.append(
                (first, end, kernel.events_processed, kernel.run_exhausted,
                 kernel.pending_events, kernel.cancelled_pending_events)
            )
        assert traces[0] == traces[1] == traces[2]
        # ``fired`` is one list the program's closure keeps appending to.
        first, end = traces[2][0], traces[2][1]
        fired = first[0]
        assert_recorder_heard_the_run(
            recorder, sim, reference_sim,
            [(fired[:fired_before], first[1]), (fired[fired_before:], end)],
        )

    @given(program=programs())
    @settings(max_examples=50, deadline=None)
    def test_the_real_instrumentation_counts_what_the_recorder_hears(self, program):
        from repro.obs import Instrumentation

        reference_sim = ReferenceSimulator()
        reference = run_program(reference_sim, program)
        sim = Simulator()
        obs = Instrumentation()
        sim.set_instrumentation(obs)
        assert run_program(sim, program) == reference
        assert obs.counter("sim.events") == sim.events_processed
        assert obs.counter("sim.events.run_program") == sim.events_processed
        assert obs.gauges.get("sim.queue_depth_hwm", 0) == reference_sim.depth_hwm

    def test_a_raising_callback_is_fired_but_not_counted(self):
        """The hand-written exception case: the event count folded back on the
        way out excludes the event that raised, no ``sim_event`` reports it,
        and the simulator can run again."""
        program = (
            [(1.0, False), (2.0, True), (3.0, False)],
            {1: [("post", 0.5), ("raise",)]},
            0,
            None,
            None,
        )
        reference_sim = ReferenceSimulator()
        reference = run_program(reference_sim, program)
        sim, recorder = recorded_simulator()
        assert run_program(sim, program) == reference
        fired, end, processed, _exhausted, pending, _cancelled = reference
        assert [eid for eid, _time in fired] == [0, 1]
        assert end == ("raised", (1,), 2.0)
        assert (processed, pending) == (1, 2)
        assert recorder.events == [(1.0, "run_program")]
        assert sim.run() == reference_sim.run() == 3.0
        assert sim.events_processed == reference_sim.events_processed == 3

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
