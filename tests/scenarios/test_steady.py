"""Tests for the steady-state scenario drivers (small workloads)."""

import pytest

from repro import SystemConfig
from repro.scenarios import (
    run_crash_steady,
    run_normal_steady,
    run_suspicion_steady,
)


def config(algorithm="fd", n=3, seed=31):
    return SystemConfig(n=n, stack=algorithm, seed=seed)


class TestNormalSteady:
    def test_all_messages_delivered(self, algorithm):
        result = run_normal_steady(config(algorithm), throughput=100, num_messages=60)
        assert result.completed
        assert result.undelivered == 0
        assert len(result.latencies) == 60

    def test_latency_positive_and_bounded(self, algorithm):
        result = run_normal_steady(config(algorithm), throughput=50, num_messages=40)
        assert all(latency > 0 for latency in result.latencies)
        assert result.mean_latency < 100.0

    def test_fd_and_gm_have_identical_latency(self):
        fd = run_normal_steady(config("fd"), throughput=200, num_messages=80)
        gm = run_normal_steady(config("gm"), throughput=200, num_messages=80)
        assert fd.mean_latency == pytest.approx(gm.mean_latency, rel=1e-9)

    def test_latency_grows_with_throughput(self, algorithm):
        low = run_normal_steady(config(algorithm), throughput=10, num_messages=60)
        high = run_normal_steady(config(algorithm), throughput=500, num_messages=60)
        assert high.mean_latency > low.mean_latency

    def test_result_metadata(self):
        result = run_normal_steady(config(), throughput=100, num_messages=30)
        assert result.scenario == "normal-steady"
        assert result.n == 3
        assert result.throughput == 100
        assert result.events > 0


class TestCrashSteady:
    def test_latency_measured_with_crashed_processes(self, algorithm):
        result = run_crash_steady(
            config(algorithm), throughput=100, crashed=[2], num_messages=60
        )
        assert result.completed
        assert result.params["crashed"] == (2,)

    def test_n7_with_three_crashes(self, algorithm):
        result = run_crash_steady(
            config(algorithm, n=7), throughput=100, crashed=[4, 5, 6], num_messages=40
        )
        assert result.completed

    def test_crash_steady_not_slower_than_normal_at_high_load(self, algorithm):
        normal = run_normal_steady(config(algorithm), throughput=500, num_messages=80)
        crashed = run_crash_steady(
            config(algorithm), throughput=500, crashed=[2], num_messages=80
        )
        assert crashed.mean_latency <= normal.mean_latency * 1.1


class TestSuspicionSteady:
    def test_runs_with_wrong_suspicions(self, algorithm):
        result = run_suspicion_steady(
            config(algorithm),
            throughput=10,
            mistake_recurrence_time=500.0,
            mistake_duration=0.0,
            num_messages=40,
        )
        assert result.completed
        assert result.params["mistake_recurrence_time"] == 500.0

    def test_gm_degrades_more_than_fd_at_low_tmr(self):
        fd = run_suspicion_steady(
            config("fd"), throughput=10, mistake_recurrence_time=50.0, num_messages=50
        )
        gm = run_suspicion_steady(
            config("gm"), throughput=10, mistake_recurrence_time=50.0, num_messages=50
        )
        assert gm.mean_latency > fd.mean_latency

    def test_algorithms_converge_at_huge_tmr(self):
        fd = run_suspicion_steady(
            config("fd"), throughput=10, mistake_recurrence_time=1e6, num_messages=50
        )
        gm = run_suspicion_steady(
            config("gm"), throughput=10, mistake_recurrence_time=1e6, num_messages=50
        )
        assert gm.mean_latency == pytest.approx(fd.mean_latency, rel=0.05)

    def test_mistake_duration_hurts_gm(self):
        short = run_suspicion_steady(
            config("gm"),
            throughput=10,
            mistake_recurrence_time=1000.0,
            mistake_duration=1.0,
            num_messages=40,
        )
        long = run_suspicion_steady(
            config("gm"),
            throughput=10,
            mistake_recurrence_time=1000.0,
            mistake_duration=500.0,
            num_messages=40,
        )
        assert long.mean_latency > short.mean_latency
