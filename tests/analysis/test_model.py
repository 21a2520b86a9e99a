"""Tests for the analytical cost model, validated against the simulator."""

import pytest

from repro import SystemConfig, build_system
from repro.analysis.model import CostModel, predicted_latency
from repro.metrics.latency import LatencyRecorder


class TestCostModelFormulas:
    def test_step_cost(self):
        assert CostModel(n=3, lambda_cpu=1.0, network_time=1.0).step == 3.0
        assert CostModel(n=3, lambda_cpu=2.0, network_time=1.0).step == 5.0

    def test_normal_latency_three_steps(self):
        assert CostModel(n=3).normal_latency("fd") == 9.0
        assert CostModel(n=3).normal_latency("gm") == 9.0
        assert CostModel(n=7).normal_latency("fd") == 9.0  # independent of n

    def test_non_uniform_is_two_steps_cheaper(self):
        model = CostModel(n=3)
        assert model.normal_latency("gm-nonuniform") == model.normal_latency("gm") - 2 * model.step

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            CostModel(n=3).normal_latency("zab")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CostModel(n=0)
        with pytest.raises(ValueError):
            CostModel(n=3, network_time=0.0)

    def test_messages_per_broadcast(self):
        cost = CostModel(n=5).messages_per_broadcast("fd")
        assert cost.multicasts == 3
        assert cost.unicasts == 4
        assert cost.total == 7
        assert CostModel(n=5).messages_per_broadcast("gm-nonuniform").total == 2

    def test_view_change_messages_match_paper_count(self):
        # Paper, Section 4.4: "about n multicast and n unicast messages".
        cost = CostModel(n=7).view_change_messages()
        assert cost.unicasts == 6
        assert cost.multicasts >= 7

    def test_crash_transient_overheads(self):
        model = CostModel(n=3)
        assert model.crash_transient_overhead("fd") == 3 * model.step
        assert model.crash_transient_overhead("gm") == 5 * model.step

    def test_saturation_bound_decreases_with_n(self):
        assert CostModel(n=7).saturation_throughput() < CostModel(n=3).saturation_throughput()

    def test_predicted_latency_wrapper(self):
        assert predicted_latency(3) == 9.0
        assert predicted_latency(3, lambda_cpu=2.0) == 15.0


class TestModelAgainstSimulator:
    @pytest.mark.parametrize("algorithm", ["fd", "gm", "gm-nonuniform"])
    @pytest.mark.parametrize("lambda_cpu", [0.5, 1.0, 2.0])
    def test_isolated_broadcast_latency_matches_prediction(self, algorithm, lambda_cpu):
        system = build_system(
            SystemConfig(n=3, stack=algorithm, seed=3, lambda_cpu=lambda_cpu)
        )
        recorder = LatencyRecorder()
        recorder.attach(system)
        system.start()
        system.broadcast_at(10.0, 1, "solo")
        system.run(until=1_000.0)
        (latency,) = recorder.latencies().values()
        expected = predicted_latency(3, algorithm, lambda_cpu=lambda_cpu)
        assert latency == pytest.approx(expected)

    def test_prediction_is_lower_bound_under_load(self):
        from repro.scenarios import run_normal_steady

        result = run_normal_steady(SystemConfig(n=3, stack="fd", seed=3), 300, num_messages=80)
        assert result.mean_latency >= predicted_latency(3)

    def test_message_count_matches_simulated_run(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=3))
        system.start()
        system.broadcast_at(10.0, 1, "solo")
        system.run(until=1_000.0)
        stats = system.message_stats()
        cost = CostModel(n=3).messages_per_broadcast("fd")
        assert stats["multicasts_sent"] == cost.multicasts
        assert stats["unicasts_sent"] == cost.unicasts
