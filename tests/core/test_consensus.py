"""Unit tests for the Chandra-Toueg consensus implementation."""

from collections import Counter

import pytest

from repro.core.consensus import ConsensusInstance
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.faults import CrashAt, FaultSchedule

from tests.core.helpers import ConsensusHarness


class TestFailureFreeRuns:
    def test_all_processes_decide_the_same_value(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["v0", "v1", "v2"])
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) == {0, 1, 2}
        assert len(set(decided.values())) == 1

    def test_decision_is_a_proposed_value(self):
        harness = ConsensusHarness(n=5)
        harness.start()
        values = [f"value-{pid}" for pid in range(5)]
        harness.propose_all("c1", values)
        harness.run()
        decided = harness.decided_values("c1")
        assert all(value in values for value in decided.values())

    def test_round1_coordinator_value_wins_without_failures(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["coordinator-value", "other", "other2"])
        harness.run()
        assert set(harness.decided_values("c1").values()) == {"coordinator-value"}

    def test_single_instance_message_pattern(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["a", "b", "c"])
        harness.run()
        stats = harness.network.stats
        # 1 proposal multicast + 2 acks + 1 decision multicast.
        assert stats.multicasts_sent == 2
        assert stats.unicasts_sent == 2

    def test_each_instance_decides_in_one_round(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["a", "b", "c"])
        harness.run()
        for service in harness.services:
            counters = service.counters()
            assert (counters["rounds"], counters["decisions"]) == (1, 1)

    def test_multiple_instances_are_independent(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("first", ["a0", "a1", "a2"])
        harness.propose_all("second", ["b0", "b1", "b2"])
        harness.run()
        assert set(harness.decided_values("first").values()) == {"a0"}
        assert set(harness.decided_values("second").values()) == {"b0"}

    def test_custom_coordinator_order(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["v0", "v1", "v2"], order=[2, 0, 1])
        harness.run()
        assert set(harness.decided_values("c1").values()) == {"v2"}

    def test_participants_subset(self):
        harness = ConsensusHarness(n=5)
        harness.start()
        harness.propose_all("c1", ["v0", "v1", "v2", "v3", "v4"], participants=[1, 2, 3])
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) == {1, 2, 3}
        assert set(decided.values()) == {"v1"}

    def test_propose_twice_returns_same_instance(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        first = harness.services[0].propose("c1", "a", [0, 1, 2])
        second = harness.services[0].propose("c1", "ignored", [0, 1, 2])
        assert first is second


class TestLatecomers:
    def test_messages_buffered_until_local_propose(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        # Only processes 0 and 1 propose at first.
        harness.services[0].propose("c1", "a", [0, 1, 2])
        harness.services[1].propose("c1", "b", [0, 1, 2])
        harness.run(until=50.0)
        assert harness.services[2].has_buffered("c1") or 2 in harness.decided_values("c1")
        # The decision still reaches process 2 through reliable broadcast.
        assert 2 in harness.decided_values("c1")

    def test_unknown_instance_listener_fires_once(self):
        harness = ConsensusHarness(n=3)
        unknown = []
        harness.services[2].add_unknown_instance_listener(unknown.append)
        harness.start()
        harness.services[0].propose("c1", "a", [0, 1, 2])
        harness.run(until=50.0)
        assert unknown.count("c1") == 1

    def test_late_propose_adopts_existing_decision(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.services[0].propose("c1", "a", [0, 1, 2])
        harness.services[1].propose("c1", "b", [0, 1, 2])
        harness.run(until=100.0)
        instance = harness.services[2].propose("c1", "late", [0, 1, 2])
        assert instance.decided
        assert harness.decided_values("c1")[2] == "a"


class TestCrashes:
    def test_decides_despite_coordinator_crash(self):
        harness = ConsensusHarness(n=3, qos=QoSConfig(detection_time=20.0))
        harness.start()
        harness.processes[0].crash()
        harness.propose_all("c1", ["dead", "alive1", "alive2"], participants=[0, 1, 2])
        harness.run()
        decided = harness.decided_values("c1")
        assert 1 in decided and 2 in decided
        assert len(set(decided.values())) == 1
        assert decided[1] in ("alive1", "alive2")

    def test_crash_of_non_coordinator_does_not_prevent_decision(self):
        harness = ConsensusHarness(n=3, qos=QoSConfig(detection_time=20.0))
        harness.start()
        harness.processes[2].crash()
        harness.propose_all("c1", ["a", "b", "c"])
        harness.run()
        decided = harness.decided_values("c1")
        assert decided[0] == "a" and decided[1] == "a"

    def test_no_decision_without_majority(self):
        harness = ConsensusHarness(n=3, qos=QoSConfig(detection_time=5.0))
        harness.start()
        harness.processes[1].crash()
        harness.processes[2].crash()
        harness.services[0].propose("c1", "alone", [0, 1, 2])
        harness.run(until=5000.0)
        assert harness.decided_values("c1") == {}

    def test_coordinator_crash_after_proposal(self):
        harness = ConsensusHarness(n=5, qos=QoSConfig(detection_time=15.0))
        harness.start()
        harness.propose_all("c1", [f"v{i}" for i in range(5)])
        # Crash the coordinator shortly after it sent its proposal.
        harness.sim.schedule(2.5, harness.processes[0].crash)
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) >= {1, 2, 3, 4}
        assert len(set(decided.values())) == 1

    def test_two_crashes_tolerated_with_n5(self):
        harness = ConsensusHarness(n=5, qos=QoSConfig(detection_time=10.0))
        harness.start()
        harness.processes[0].crash()
        harness.processes[1].crash()
        harness.propose_all("c1", [f"v{i}" for i in range(5)])
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) == {2, 3, 4}
        assert len(set(decided.values())) == 1


class TestWrongSuspicions:
    def test_single_wrong_suspicion_does_not_block_decision(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["a", "b", "c"])
        # Process 2 wrongly suspects the coordinator right away.
        harness.fabric.detector(2).force_suspect(0)
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) == {0, 1, 2}
        assert len(set(decided.values())) == 1

    def test_wrong_suspicion_by_majority_still_decides(self):
        harness = ConsensusHarness(n=3)
        harness.start()
        harness.propose_all("c1", ["a", "b", "c"])
        harness.fabric.detector(1).force_suspect(0)
        harness.fabric.detector(2).force_suspect(0)
        harness.run()
        decided = harness.decided_values("c1")
        assert set(decided) == {0, 1, 2}
        assert len(set(decided.values())) == 1

    def test_frequent_instantaneous_mistakes_do_not_violate_agreement(self):
        harness = ConsensusHarness(
            n=3, qos=QoSConfig(mistake_recurrence_time=5.0, mistake_duration=0.0), seed=3
        )
        harness.start()
        for k in range(10):
            harness.propose_all(("c", k), [f"{k}-a", f"{k}-b", f"{k}-c"])
        harness.run(until=20_000.0)
        for k in range(10):
            decided = harness.decided_values(("c", k))
            assert set(decided) == {0, 1, 2}, f"instance {k} did not decide everywhere"
            assert len(set(decided.values())) == 1


class TestInstanceInternals:
    def test_coordinator_rotation(self):
        harness = ConsensusHarness(n=3)
        instance = ConsensusInstance(harness.services[0], "c", "v", [0, 1, 2])
        assert [instance.coordinator_of(r) for r in (1, 2, 3, 4)] == [0, 1, 2, 0]

    def test_coordinator_order_must_be_permutation(self):
        harness = ConsensusHarness(n=3)
        with pytest.raises(ValueError):
            ConsensusInstance(harness.services[0], "c", "v", [0, 1, 2], coordinator_order=[0, 1])

    def test_majority_size(self):
        harness = ConsensusHarness(n=5)
        instance = ConsensusInstance(harness.services[0], "c", "v", [0, 1, 2, 3, 4])
        assert instance.majority == 3


class TestCatchUpRoundSkipping:
    """Regression: the catch-up rule must feed the coordinators it jumps over.

    Found by hypothesis on a GM run (n=5, one real crash plus wrong
    suspicions): processes that jumped several rounds forward never sent
    their estimates to the skipped rounds' coordinators, and the run ended
    with every alive process parked as the coordinator of a *different*
    round, each waiting for a majority of estimates that could no longer
    arrive -- no process ever suspects itself, so no failure detector event
    could unpark them and the view-change consensus deadlocked permanently.
    """

    SCENARIO = {
        "seed": 2552,
        "arrivals": [
            (7.6200076685013265, 1, "m0"),
            (36.96037530022315, 4, "m1"),
            (61.16621654725308, 4, "m2"),
            (71.16621654725307, 2, "m3"),
            (89.99733425605031, 0, "m4"),
            (119.99733425605031, 0, "m5"),
            (122.86190701016642, 0, "m6"),
        ],
    }

    def test_gm_view_change_survives_divergent_round_skips(self):
        from repro import SystemConfig, build_system

        system = build_system(
            SystemConfig(
                n=5,
                stack="gm",
                seed=self.SCENARIO["seed"],
                fd=QoSConfig(
                    detection_time=30.0,
                    mistake_recurrence_time=150.0,
                    mistake_duration=30.0,
                ),
            )
        )
        system.start()
        for time, sender, payload in self.SCENARIO["arrivals"]:
            system.broadcast_at(time, sender, payload)
        FaultSchedule([CrashAt(100.0, 1)]).apply(system)
        system.run(until=60_000.0, max_events=1_500_000)

        required = {"m2", "m3", "m4", "m5", "m6"}  # everything a correct sender sent
        for pid in (0, 2, 3, 4):
            delivered = {payload for _bid, payload in system.abcast(pid).delivered}
            assert required <= delivered, f"p{pid} stalled: {sorted(delivered)}"
        # the crashed process was excluded and the wrongly excluded one re-admitted
        for pid in (0, 2, 3, 4):
            members = system.membership(pid).view.members
            assert 1 not in members and 0 in members

    def test_skipping_processes_nack_the_rounds_they_jump(self):
        harness = ConsensusHarness(n=3)
        instance = ConsensusInstance(harness.services[0], "c", "v", [0, 1, 2])
        instance.round = 1
        instance._skip_rounds(2, 5)
        # rounds 2 and 3 have other coordinators (1, 2); round 4 is our own
        assert instance._nacked_round == {2, 3}
        assert instance.rounds_skipped == 3


def summed_counters(services):
    totals = Counter()
    for service in services:
        totals.update(service.counters())
    return totals


class TestCounters:
    """The per-instance diagnostics: plain counters, no event, no RNG draw."""

    def steady(self, read_counters=False):
        from repro import SystemConfig, build_system
        from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec

        spec = SteadyStateSpec("normal-steady", SystemConfig(n=5, seed=4), 300.0, 60)
        system = build_system(spec.config)
        reads = []
        if read_counters:
            services = system.consensus_services
            system.abcasts[0].add_delivery_listener(
                lambda _bid, _payload: reads.append(summed_counters(services))
            )
        result = ScenarioRunner().run_steady_on(system, spec)
        return system, result, reads

    def test_a_suspicion_free_run_decides_every_instance_in_its_first_round(self):
        system, _result, _reads = self.steady()
        totals = summed_counters(system.consensus_services)
        assert totals["decisions"] > 0
        # The run stops at its last measured delivery: the instances still
        # open then have entered their first round too.
        assert totals["rounds"] == totals["decisions"] + totals["open"]
        assert totals["abandoned_nacked"] == totals["abandoned_silent"] == 0
        assert totals["rounds_skipped"] == 0
        assert totals["decision_ms"] > 0

    def test_reading_the_counters_leaves_the_run_unchanged(self):
        _system, plain, _ = self.steady()
        _system, read, reads = self.steady(read_counters=True)
        assert len(reads) >= 60
        assert read.events == plain.events
        assert read.observed_digest == plain.observed_digest

    def test_wrong_suspicions_show_in_the_counters(self):
        harness = ConsensusHarness(
            n=3, qos=QoSConfig(mistake_recurrence_time=5.0, mistake_duration=0.0), seed=3
        )
        harness.start()
        for k in range(10):
            harness.propose_all(("c", k), [f"{k}-a", f"{k}-b", f"{k}-c"])
        harness.run(until=20_000.0)
        totals = summed_counters(harness.services)
        assert totals["decisions"] == 30
        assert totals["rounds"] > totals["decisions"]
