"""Golden-neutrality and counter-consistency tests of the instrumentation.

Observation must never perturb the run: for every registered stack variant,
an instrumented execution must be bit-identical to an uninstrumented one --
same delivery sequences, same delivery times, same kernel event count.  And
the counters an instrumented run reports must match values independently
derivable from the network statistics, the failure detectors' own counters,
the recorded ``send`` events and an ``abcast_deliver`` subscriber on the
same seed.
"""

from collections import Counter

import pytest

from repro import SystemConfig, build_system
from repro.scenarios import (
    run_gray_degradation,
    run_partition_transient,
    run_suspicion_steady,
    run_wan_steady,
)
from repro.stacks import stack_variants

#: A fixed golden workload: (time ms, sender) pairs over a 3-process group.
ARRIVALS = ((1.0, 0), (4.0, 1), (9.0, 2), (15.0, 0), (22.0, 1))


def golden_run(variant, instrument):
    system = build_system(
        SystemConfig(n=3, stack=variant, seed=7, instrument=instrument)
    )
    deliveries = []
    system.add_delivery_listener(
        lambda pid, bid, _payload: deliveries.append(
            (round(system.sim.now, 9), pid, bid)
        )
    )
    system.start()
    for time, sender in ARRIVALS:
        system.broadcast_at(time, sender, f"m-{sender}-{time:g}")
    system.run(until=3_000.0)
    return system, deliveries


class TestGoldenNeutrality:
    @pytest.mark.parametrize("variant", stack_variants())
    def test_instrumented_run_is_bit_identical(self, variant):
        base_system, base_deliveries = golden_run(variant, instrument=False)
        inst_system, inst_deliveries = golden_run(variant, instrument=True)
        assert inst_deliveries == base_deliveries
        assert inst_system.delivery_sequences() == base_system.delivery_sequences()
        assert inst_system.sim.events_processed == base_system.sim.events_processed
        assert inst_system.sim.now == base_system.sim.now
        assert inst_system.message_stats() == base_system.message_stats()

    def test_neutral_under_failure_detector_mistakes(self):
        """The RNG-heavy suspicion-steady scenario stays bit-identical too."""

        def measure(instrument):
            return run_suspicion_steady(
                SystemConfig(n=3, stack="fd", seed=3, instrument=instrument),
                50.0,
                mistake_recurrence_time=500.0,
                mistake_duration=30.0,
                num_messages=40,
            )

        base = measure(False)
        inst = measure(True)
        assert inst.latencies == base.latencies
        assert inst.events == base.events
        assert inst.duration == base.duration
        assert base.metrics is None
        assert inst.metrics is not None
        assert inst.metrics["counters"]["fd.suspicions"] > 0

    @pytest.mark.parametrize(
        "runner,kwargs",
        [
            (run_partition_transient, {"partition_duration": 300.0}),
            (run_wan_steady, {"wan_profile": "wan-3dc"}),
            (run_gray_degradation, {"degrade_factor": 4.0, "link_loss": 0.2}),
        ],
        ids=["partition", "wan", "gray"],
    )
    def test_neutral_under_fault_injection(self, runner, kwargs):
        """The partition/WAN/gray fault paths stay bit-identical too."""

        def measure(instrument):
            return runner(
                SystemConfig(n=3, stack="gm-reform", seed=3, instrument=instrument),
                50.0,
                num_messages=30,
                detection_time=10.0,
                **kwargs,
            )

        base = measure(False)
        inst = measure(True)
        assert inst.latencies == base.latencies
        assert inst.events == base.events
        assert inst.duration == base.duration
        assert base.metrics is None
        assert inst.metrics is not None


class TestCounterConsistency:
    @pytest.mark.parametrize("variant", stack_variants())
    def test_counters_match_independent_observers(self, variant):
        system = build_system(
            SystemConfig(n=3, stack=variant, seed=7, instrument=True)
        )
        obs = system.obs
        delivered = []
        obs.subscribe("abcast_deliver", lambda _t, _pid, bid, _payload: delivered.append(bid))
        system.start()
        for time, sender in ARRIVALS:
            system.broadcast_at(time, sender, f"m-{sender}-{time:g}")
        system.run(until=3_000.0)

        sends = [event for event in obs.events if event["ev"] == "send"]
        stats = system.message_stats()
        assert obs.counter("messages.sent") == stats["messages_sent"]
        assert obs.counter("messages.sent") == len(sends)
        assert obs.counters_by_prefix("messages.sent.") == {
            f"messages.sent.{proto}": count
            for proto, count in Counter(event["proto"] for event in sends).items()
        }
        assert obs.counter("abcast.deliveries") == len(delivered)
        assert obs.counter("abcast.broadcasts") == len(ARRIVALS)
        assert obs.counter("abcast.sequenced") == len(ARRIVALS)
        # Every delivered message has a complete lifecycle latency.
        for broadcast_id in delivered:
            assert obs.first_delivery_latency(broadcast_id) is not None
        assert len(obs.histograms["abcast.broadcast_to_deliver"]) == len(set(delivered))

    def test_suspicion_counters_match_the_detectors(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=7, instrument=True))
        system.start()
        detector = system.fd_fabric.detectors()[1]
        system.sim.schedule_at(100.0, lambda: detector.force_suspect(0))
        system.sim.schedule_at(150.0, lambda: detector.force_trust(0))
        system.run(until=400.0)

        detectors = system.fd_fabric.detectors().values()
        assert system.obs.counter("fd.suspicions") == sum(
            d.suspicion_events for d in detectors
        )
        assert system.obs.counter("fd.trusts") == sum(
            d.trust_events for d in detectors
        )
        assert system.obs.histograms["fd.mistake_duration"] == [50.0]

    def test_consensus_counters_match_the_services(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=7, instrument=True))
        system.start()
        for time, sender in ARRIVALS:
            system.broadcast_at(time, sender, "m")
        system.run(until=3_000.0)
        decided = sum(
            len(service._decisions) for service in system.consensus_services
        )
        assert system.obs.counter("consensus.decisions") == decided
