"""Tests for the beyond-paper fault-schedule scenarios.

Rejected inputs are covered once for every kind in ``test_kinds.py``.
"""

from repro import SystemConfig
from repro.scenarios import (
    run_asymmetric_qos,
    run_churn_steady,
    run_correlated_crash,
    run_gray_degradation,
    run_normal_steady,
    run_partition_transient,
    run_wan_steady,
)


def config(algorithm="fd", n=5, seed=11):
    return SystemConfig(n=n, stack=algorithm, seed=seed)


class TestCorrelatedCrash:
    def test_measurement_spans_the_crash(self, algorithm):
        result = run_correlated_crash(
            config(algorithm), throughput=50, crashed=[3, 4], detection_time=10.0, num_messages=60
        )
        assert result.scenario == "correlated-crash"
        assert result.completed
        assert result.params["crashed"] == (3, 4)
        assert result.params["crash_time"] > 0

    def test_explicit_crash_time_is_used(self, algorithm):
        result = run_correlated_crash(
            config(algorithm),
            throughput=50,
            crashed=[4],
            crash_time=123.0,
            num_messages=30,
            detection_time=10.0,
        )
        assert result.params["crash_time"] == 123.0
        assert result.completed


class TestChurnSteady:
    def test_runs_to_completion_under_churn(self, algorithm):
        result = run_churn_steady(
            config(algorithm),
            throughput=50,
            churn_rate=2.0,
            mean_downtime=150.0,
            detection_time=10.0,
            num_messages=60,
        )
        assert result.scenario == "churn-steady"
        assert result.completed
        assert result.params["churn_rate"] == 2.0

    def test_churn_is_slower_than_fault_free(self, algorithm):
        normal = run_normal_steady(config(algorithm), throughput=50, num_messages=60)
        churned = run_churn_steady(
            config(algorithm),
            throughput=50,
            churn_rate=5.0,
            mean_downtime=300.0,
            detection_time=10.0,
            num_messages=60,
        )
        assert churned.mean_latency >= normal.mean_latency

    def test_determinism_per_seed(self, algorithm):
        kwargs = dict(
            throughput=50,
            churn_rate=2.0,
            mean_downtime=150.0,
            detection_time=10.0,
            num_messages=40,
        )
        first = run_churn_steady(config(algorithm), **kwargs)
        second = run_churn_steady(config(algorithm), **kwargs)
        assert first.latencies == second.latencies
        assert first.events == second.events


class TestAsymmetricQoS:
    def test_only_flaky_pair_degrades(self, algorithm):
        result = run_asymmetric_qos(
            config(algorithm),
            throughput=50,
            mistake_recurrence_time=200.0,
            mistake_duration=10.0,
            num_messages=60,
        )
        assert result.scenario == "asymmetric-qos"
        assert result.completed
        assert result.params["flaky_monitor"] == 1

    def test_gm_suffers_more_than_fd_from_a_flaky_observer(self):
        fd = run_asymmetric_qos(
            config("fd", n=3),
            throughput=10,
            mistake_recurrence_time=50.0,
            mistake_duration=5.0,
            num_messages=50,
        )
        gm = run_asymmetric_qos(
            config("gm", n=3),
            throughput=10,
            mistake_recurrence_time=50.0,
            mistake_duration=5.0,
            num_messages=50,
        )
        # One flaky observer of the sequencer forces view changes under GM,
        # while the FD algorithm only pays an occasional extra round.
        assert gm.mean_latency > fd.mean_latency


class TestPartitionTransient:
    def test_partition_bites_and_heals(self, algorithm):
        result = run_partition_transient(
            config(algorithm), throughput=50, partition_duration=500.0, detection_time=10.0,
            num_messages=60,
        )
        assert result.scenario == "partition-transient"
        assert result.params["minority"] == (3, 4)
        assert result.params["dropped_partitioned"] > 0
        assert result.params["script"]["stages"] == ["build", "measure", "verify"]
        assert "failed_stage" not in result.params["script"]

    def test_explicit_partition_start_is_used(self, algorithm):
        result = run_partition_transient(
            config(algorithm),
            throughput=50,
            partition_start=120.0,
            partition_duration=300.0,
            num_messages=40,
            detection_time=10.0,
        )
        assert result.params["partition_start"] == 120.0
        assert result.params["partition_duration"] == 300.0

    def test_determinism_per_seed(self, algorithm):
        first = run_partition_transient(
            config(algorithm), throughput=50, partition_duration=400.0, detection_time=10.0,
            num_messages=40,
        )
        second = run_partition_transient(
            config(algorithm), throughput=50, partition_duration=400.0, detection_time=10.0,
            num_messages=40,
        )
        assert first.latencies == second.latencies
        assert first.events == second.events


class TestWanSteady:
    def test_wan_latency_dominates_the_lan_baseline(self, algorithm):
        lan = run_normal_steady(config(algorithm), throughput=50, num_messages=60)
        wan = run_wan_steady(
            config(algorithm), throughput=50, detection_time=10.0, num_messages=60
        )
        assert wan.scenario == "wan-steady"
        assert wan.params["wan_profile"] == "wan-3dc"
        assert wan.params["dc_count"] == 3
        assert not wan.undelivered
        assert wan.mean_latency > lan.mean_latency + 10.0

    def test_wider_topology_is_slower(self, algorithm):
        near = run_wan_steady(
            config(algorithm), throughput=50, detection_time=10.0, num_messages=40
        )
        far = run_wan_steady(
            config(algorithm), throughput=50, wan_profile="wan-5dc", detection_time=10.0,
            num_messages=40,
        )
        assert far.params["max_wan_delay"] > near.params["max_wan_delay"]
        assert far.mean_latency > near.mean_latency


class TestGrayDegradation:
    def test_degradation_slows_the_run_then_restores(self, algorithm):
        healthy = run_normal_steady(config(algorithm), throughput=50, num_messages=60)
        gray = run_gray_degradation(
            config(algorithm),
            throughput=50,
            degrade_factor=8.0,
            degrade_duration=1_000.0,
            num_messages=60,
            detection_time=10.0,
        )
        assert gray.scenario == "gray-degradation"
        assert gray.params["degraded_pid"] == 0
        assert gray.mean_latency > healthy.mean_latency
        assert "failed_stage" not in gray.params["script"]

    def test_lossy_links_drop_frames(self, algorithm):
        result = run_gray_degradation(
            config(algorithm),
            throughput=50,
            link_loss=0.3,
            degrade_duration=1_000.0,
            num_messages=40,
            detection_time=10.0,
        )
        assert result.params["link_loss"] == 0.3
        assert result.params["dropped_lossy_link"] > 0
