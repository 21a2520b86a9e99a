"""Unit tests for the scenario result containers."""

import math

import pytest

from repro.scenarios.results import ScenarioResult, TransientResult


class TestScenarioResult:
    def make(self, latencies, measured=10, undelivered=0):
        return ScenarioResult(
            scenario="normal-steady",
            algorithm="fd",
            n=3,
            throughput=100.0,
            latencies=list(latencies),
            undelivered=undelivered,
            measured=measured,
        )

    def test_mean_latency(self):
        result = self.make([10.0, 20.0, 30.0], measured=3)
        assert result.mean_latency == 20.0

    def test_delivery_ratio(self):
        result = self.make([1.0] * 8, measured=10, undelivered=2)
        assert result.delivery_ratio == 0.8

    def test_completed_threshold(self):
        assert self.make([1.0] * 10, measured=10).completed
        assert not self.make([1.0] * 5, measured=10, undelivered=5).completed

    def test_empty_result_not_completed(self):
        result = self.make([], measured=0)
        assert not result.completed
        assert result.delivery_ratio == 0.0
        assert math.isnan(result.mean_latency)

    def test_describe_mentions_scenario_and_algorithm(self):
        text = self.make([5.0], measured=1).describe()
        assert "normal-steady" in text
        assert "fd" in text

    def test_summary_is_the_95_percent_interval(self):
        assert self.make([1.0, 2.0, 4.0], measured=3).summary().confidence == 0.95

    def test_describe_flags_incomplete_points(self):
        text = self.make([1.0], measured=10, undelivered=9).describe()
        assert "DID NOT COMPLETE" in text


class TestTransientResult:
    def make(self, latencies, detection_time=10.0):
        return TransientResult(
            algorithm="gm",
            n=3,
            throughput=50.0,
            detection_time=detection_time,
            crashed_process=0,
            sender=2,
            latencies=list(latencies),
        )

    def test_latency_summary(self):
        result = self.make([20.0, 30.0])
        assert result.latency_summary().mean == 25.0
        assert result.runs == 2

    def test_overhead_subtracts_detection_time(self):
        result = self.make([20.0, 30.0], detection_time=10.0)
        assert result.overhead_summary().mean == 15.0

    def test_both_summaries_are_95_percent_intervals(self):
        result = self.make([20.0, 30.0, 25.0])
        assert result.latency_summary().confidence == 0.95
        assert result.overhead_summary().confidence == 0.95
        assert result.overhead_summary().ci_halfwidth == pytest.approx(
            result.latency_summary().ci_halfwidth
        )

    def test_describe(self):
        assert "crash-transient" in self.make([12.0]).describe()
