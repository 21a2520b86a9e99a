"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator, _callback_category


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_runs_single_event(self, simulator):
        fired = []
        simulator.schedule(5.0, fired.append, "a")
        simulator.run()
        assert fired == ["a"]
        assert simulator.now == 5.0

    def test_events_run_in_time_order(self, simulator):
        order = []
        simulator.schedule(3.0, order.append, "late")
        simulator.schedule(1.0, order.append, "early")
        simulator.schedule(2.0, order.append, "middle")
        simulator.run()
        assert order == ["early", "middle", "late"]

    def test_same_time_events_run_in_scheduling_order(self, simulator):
        order = []
        for label in ("first", "second", "third"):
            simulator.schedule(1.0, order.append, label)
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_schedule_at_absolute_time(self, simulator):
        times = []
        simulator.schedule_at(7.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [7.5]

    def test_events_can_schedule_more_events(self, simulator):
        seen = []

        def chain(depth):
            seen.append(simulator.now)
            if depth > 0:
                simulator.schedule(1.0, chain, depth - 1)

        simulator.schedule(1.0, chain, 3)
        simulator.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]

    def test_zero_delay_event_runs_at_current_time(self, simulator):
        seen = []
        simulator.schedule(2.0, lambda: simulator.schedule(0.0, lambda: seen.append(simulator.now)))
        simulator.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self, simulator):
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(1.0, lambda: None)

    def test_events_processed_counter(self, simulator):
        for _ in range(4):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 4


class TestPost:
    """``post`` / ``post_at``: ``schedule`` / ``schedule_at`` minus the handle."""

    def test_post_returns_nothing_and_fires(self, simulator):
        fired = []
        assert simulator.post(2.0, fired.append, "a") is None
        assert simulator.post_at(1.0, fired.append, "b") is None
        simulator.run()
        assert fired == ["b", "a"]
        assert simulator.events_processed == 2

    def test_posted_and_scheduled_events_share_one_order(self, simulator):
        # Same instant: insertion order decides, whichever entry point was used.
        order = []
        simulator.post(1.0, order.append, "post")
        simulator.schedule(1.0, order.append, "schedule")
        simulator.post_at(1.0, order.append, "post_at")
        simulator.schedule_at(1.0, order.append, "schedule_at")
        simulator.run()
        assert order == ["post", "schedule", "post_at", "schedule_at"]

    def test_post_rejects_the_past(self, simulator):
        simulator.post(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.post(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.post_at(4.0, lambda: None)

    def test_posted_events_survive_compaction(self, simulator):
        fired = []
        simulator.post(5.0, fired.append, "posted")
        doomed = [simulator.schedule(900.0, lambda: None) for _ in range(200)]
        for handle in doomed:
            handle.cancel()
        simulator.post(6.0, fired.append, "trigger")  # post compacts like schedule
        assert simulator.pending_events == 2
        assert simulator.cancelled_pending_events == 0
        simulator.run()
        assert fired == ["posted", "trigger"]


class TestTimeGuards:
    """NaN compares false with everything, so ``delay < 0`` let it through:
    the callback ran with ``now == nan`` and the heap order broke for every
    event after it.  The guards are written ``not x >= y``."""

    NAN = float("nan")

    @pytest.mark.parametrize("entry", ["post", "schedule", "post_at", "schedule_at"])
    def test_nan_time_rejected(self, simulator, entry):
        with pytest.raises(SimulationError):
            getattr(simulator, entry)(self.NAN, lambda: None)
        assert simulator.pending_events == 0

    @pytest.mark.parametrize("entry", ["post", "schedule", "post_at", "schedule_at"])
    def test_zero_and_infinity_still_accepted(self, simulator, entry):
        fired = []
        getattr(simulator, entry)(0.0, fired.append, "now")
        getattr(simulator, entry)(float("inf"), fired.append, "never")
        simulator.run(until=1_000.0)
        assert fired == ["now"]
        assert simulator.pending_events == 1

    def test_clock_stays_ordered_after_a_rejected_nan(self, simulator):
        seen = []
        simulator.post(2.0, lambda: seen.append(simulator.now))
        with pytest.raises(SimulationError):
            simulator.schedule(self.NAN, lambda: seen.append("nan"))
        simulator.post(1.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        handle.cancel()
        simulator.run()
        assert fired == []

    def test_cancel_is_idempotent(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        simulator.run()
        assert simulator.events_processed == 0

    def test_other_events_still_fire_after_cancel(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, fired.append, "cancelled")
        simulator.schedule(2.0, fired.append, "kept")
        handle.cancel()
        simulator.run()
        assert fired == ["kept"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "early")
        simulator.schedule(10.0, fired.append, "late")
        end = simulator.run(until=5.0)
        assert fired == ["early"]
        assert end == 5.0
        assert simulator.pending_events == 1

    def test_event_exactly_at_until_is_executed(self, simulator):
        fired = []
        simulator.schedule(5.0, fired.append, "edge")
        simulator.run(until=5.0)
        assert fired == ["edge"]

    def test_run_can_be_resumed(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(10.0, fired.append, "b")
        simulator.run(until=5.0)
        simulator.run()
        assert fired == ["a", "b"]

    def test_stop_from_within_event(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: (fired.append("a"), simulator.stop()))
        simulator.schedule(2.0, fired.append, "b")
        simulator.run()
        assert fired == ["a"]
        assert simulator.pending_events == 1

    def test_max_events_limit(self, simulator):
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=3)
        assert simulator.events_processed == 3

    def test_time_advances_to_until_when_queue_empty(self, simulator):
        simulator.schedule(1.0, lambda: None)
        end = simulator.run(until=50.0)
        assert end == 50.0

    def test_reset_clears_state(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        simulator.reset()
        assert simulator.now == 0.0
        assert simulator.pending_events == 0
        assert simulator.events_processed == 0

    def test_reentrant_run_rejected(self, simulator):
        def try_run():
            with pytest.raises(SimulationError):
                simulator.run()

        simulator.schedule(1.0, try_run)
        simulator.run()


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            events = []
            for i in range(50):
                sim.schedule((i * 7) % 13 + 0.5, events.append, i)
            sim.run()
            return events, sim.now

        assert trace() == trace()


class TestRunExhausted:
    def test_budget_hit_sets_the_flag(self, simulator):
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=3)
        assert simulator.run_exhausted

    def test_drained_queue_leaves_flag_clear(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=10)
        assert not simulator.run_exhausted

    def test_exact_budget_without_leftover_is_not_exhausted(self, simulator):
        # The budget only reads as "gave up" when events were left behind.
        for _ in range(3):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=3)
        assert not simulator.run_exhausted

    def test_next_run_resets_the_flag(self, simulator):
        for _ in range(5):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=2)
        assert simulator.run_exhausted
        simulator.run()  # drain the remaining three
        assert not simulator.run_exhausted

    def test_reset_clears_the_flag(self, simulator):
        for _ in range(5):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=2)
        simulator.reset()
        assert not simulator.run_exhausted

    def test_instrumented_loop_reports_exhaustion_identically(self):
        from repro.obs import Instrumentation

        sim = Simulator()
        sim.set_instrumentation(Instrumentation())
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.run_exhausted
        assert sim.events_processed == 3


class TestHeapCompaction:
    """Cancelled events must not accumulate on the heap without bound.

    Timer-heavy failure-detector workloads reschedule (cancel + re-arm)
    one timer per monitored pair per message; before lazy compaction the
    dead handles sat on the heap until their original firing time.
    """

    def test_cancelled_events_are_counted(self, simulator):
        handles = [simulator.schedule(10.0, lambda: None) for _ in range(5)]
        for handle in handles[:3]:
            handle.cancel()
        assert simulator.cancelled_pending_events == 3
        assert simulator.pending_events == 5

    def test_double_cancel_counts_once(self, simulator):
        handle = simulator.schedule(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert simulator.cancelled_pending_events == 1

    def test_popping_a_cancelled_head_decrements_the_counter(self, simulator):
        simulator.schedule(1.0, lambda: None).cancel()
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.cancelled_pending_events == 0
        assert simulator.events_processed == 1

    def test_mostly_cancelled_heap_is_compacted(self, simulator):
        # Far-future timers that are immediately re-armed: the classic
        # heartbeat pattern.  The live population stays tiny, so the heap
        # must not retain the hundreds of cancelled predecessors.
        live = simulator.schedule(1_000.0, lambda: None)
        for _ in range(500):
            live.cancel()
            live = simulator.schedule(1_000.0, lambda: None)
        assert simulator.pending_events < 200
        # Compaction fires once >= 64 cancelled events outnumber the live
        # ones, so the dead population can never reach 2x the threshold.
        assert simulator.cancelled_pending_events < 128

    def test_timer_heavy_workload_has_bounded_queue(self):
        # Regression for the heap-bloat bug: a heartbeat-style workload
        # (cancel + re-arm a far-future timeout on every tick) ran the
        # queue up linearly with tick count.  With lazy compaction the
        # pending count stays bounded by a small constant regardless of
        # how many ticks execute.
        sim = Simulator()
        n_pairs = 20
        timeouts = {}
        high_water = [0]

        def tick(pair):
            old = timeouts.get(pair)
            if old is not None:
                old.cancel()
            timeouts[pair] = sim.schedule(500.0, lambda: None)
            sim.schedule(1.0, tick, pair)
            high_water[0] = max(high_water[0], sim.pending_events)

        for pair in range(n_pairs):
            sim.schedule(0.1 * pair, tick, pair)
        sim.run(until=400.0)
        # ~8000 cancel/re-arm cycles; without compaction the queue peaks
        # above n_pairs * ticks.  Bounded means O(live events), with slack
        # for the half-dead compaction threshold.
        assert high_water[0] < 10 * n_pairs + 200
        assert sim.cancelled_pending_events <= sim.pending_events

    def test_compaction_does_not_change_execution(self, simulator):
        fired = []
        keep = []
        for i in range(300):
            handle = simulator.schedule(float(i) + 1.0, fired.append, i)
            if i % 10 == 0:
                keep.append(i)
            else:
                handle.cancel()
        simulator.schedule(0.5, fired.append, "first")
        simulator.run()
        assert fired == ["first"] + keep

    def test_compaction_during_run_is_safe(self):
        # A callback that cancels hundreds of events and schedules a new
        # one triggers compaction *while the run loop holds the queue
        # reference*; the in-place rebuild must keep the loop working.
        sim = Simulator()
        fired = []
        victims = [sim.schedule(900.0, lambda: None) for _ in range(400)]

        def massacre():
            for victim in victims:
                victim.cancel()
            sim.schedule(1.0, fired.append, "after-compaction")

        sim.schedule(1.0, massacre)
        sim.schedule(5.0, fired.append, "tail")
        sim.run()
        assert fired == ["after-compaction", "tail"]
        assert sim.pending_events == 0


class TestCancelAfterFiring:
    """Cancelling a handle whose event already ran (or left the heap some
    other way) must not count as a cancelled event *on* the heap: the counter
    drives compaction, and ``SimProcess.crash()`` cancels every timer handle
    it still holds, fired ones included."""

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_fired_handles_do_not_inflate_the_counter(self, instrumented):
        from repro.obs import Instrumentation

        sim = Simulator()
        if instrumented:
            sim.set_instrumentation(Instrumentation())
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
        sim.run()
        for handle in handles:
            handle.cancel()
        assert sim.pending_events == 0
        assert sim.cancelled_pending_events == 0

    def test_cancelling_the_running_event_counts_nothing(self, simulator):
        handles = []
        handles.append(simulator.schedule(1.0, lambda: handles[0].cancel()))
        simulator.run()
        assert simulator.events_processed == 1
        assert simulator.cancelled_pending_events == 0

    def test_cancel_after_reset_does_not_touch_the_new_counter(self, simulator):
        stale = [simulator.schedule(1.0, lambda: None) for _ in range(5)]
        simulator.reset()
        for handle in stale:
            handle.cancel()
        assert simulator.cancelled_pending_events == 0


class TestCallbackCategory:
    """Event-profile buckets must resolve for every dispatch shape in use."""

    def test_bound_method_resolves_to_class_and_method(self):
        sim = Simulator()
        assert _callback_category(sim.stop) == "Simulator.stop"

    def test_network_pipeline_methods_resolve(self):
        from repro.obs import Instrumentation
        from repro.sim.messages import Message
        from repro.sim.network import Network, NetworkConfig

        sim = Simulator()
        obs = Instrumentation()
        sim.set_instrumentation(obs)
        network = Network(sim, NetworkConfig(n=3))
        for pid in range(3):
            network.attach(pid, lambda _pid, _message: None)
        assert _callback_category(network._emitted) == "Network._emitted"
        assert _callback_category(network._transmitted) == "Network._transmitted"
        assert _callback_category(network._received) == "Network._received"
        # FIFO completion events dispatch through the resource's bound
        # _finish with the continuation as an argument, so the category
        # stays the resource bucket, not the continuation's: one emission,
        # one transmission and two receptions, plus the local delivery.
        network.send(Message(sender=0, destinations=(0, 1, 2), protocol="t", body=None))
        sim.run()
        assert obs.counter("sim.events.FIFOResource._finish") == 4
        assert obs.counter("sim.events.Network._deliver_local") == 1
        assert obs.counter("sim.events") == 5

    @pytest.mark.parametrize(
        "stack, fd_kind, expected",
        [
            (
                "fd", "qos",
                {
                    "FIFOResource._finish": 2558,
                    "Network._deliver_local": 279,
                    "PoissonWorkload._emit": 144,
                    "QoSFailureDetectorFabric._mistake_begins": 37,
                    "QoSFailureDetectorFabric._mistake_ends": 34,
                },
            ),
            (
                "gm", "heartbeat",
                {
                    "FIFOResource._finish": 4018,
                    "Network._deliver_local": 144,
                    "PoissonWorkload._emit": 144,
                    "SimProcess._fire_timer": 822,
                },
            ),
        ],
    )
    def test_full_run_emits_the_pinned_categories(self, stack, fd_kind, expected):
        """Every event of a run lands in the ``Class.method`` bucket it had
        before ``post*`` existed, with the same count: bound methods stay
        bound methods (a ``partial`` or a lambda as event callback would
        rename or merge buckets)."""
        from repro.failure_detectors.qos import QoSConfig
        from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
        from repro.system import SystemConfig, build_system

        config = SystemConfig(
            n=3, stack=stack, fd_kind=fd_kind, seed=11, instrument=True,
            fd=QoSConfig(mistake_recurrence_time=200.0, mistake_duration=5.0),
        )
        spec = SteadyStateSpec("suspicion-steady", config, 100.0, 120)
        result = ScenarioRunner().run_steady_on(build_system(config), spec)
        prefix = "sim.events."
        emitted = {
            name[len(prefix):]: count
            for name, count in result.metrics["counters"].items()
            if name.startswith(prefix)
        }
        assert emitted == expected
        assert sum(emitted.values()) == result.events

    def test_closure_collapses_to_defining_function(self):
        def outer():
            return lambda: None

        # qualname splits at the first ``.<locals>``: everything nested in a
        # function collapses to the outermost defining scope.
        assert _callback_category(outer()) == (
            "TestCallbackCategory.test_closure_collapses_to_defining_function"
        )

    def test_plain_function_uses_qualname(self):
        assert _callback_category(_callback_category) == "_callback_category"

    def test_callable_without_qualname_falls_back_to_type(self):
        class Callable:
            def __call__(self):
                return None

        assert _callback_category(Callable()) == "Callable"
