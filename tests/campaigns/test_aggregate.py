"""Tests for folding campaign records into figure containers."""

from repro.campaigns.aggregate import (
    merge_scenario_results,
    merge_transient_results,
    point_from_scenario,
    point_from_transient,
)
from repro.campaigns.records import record_to_result, result_to_record
from repro.campaigns.runner import CampaignRunner
from repro.experiments import figure4, figure8
from repro.scenarios.results import ScenarioResult, TransientResult
from repro.scenarios import run_normal_steady
from repro.scenarios import run_crash_transient
from repro.system import SystemConfig


class TestRecords:
    def test_scenario_record_round_trip(self):
        result = run_normal_steady(SystemConfig(n=3, stack="fd", seed=1), 30.0, num_messages=10)
        rebuilt = record_to_result(result_to_record(result))
        assert isinstance(rebuilt, ScenarioResult)
        assert rebuilt.latencies == result.latencies
        assert rebuilt.summary().mean == result.summary().mean

    def test_transient_record_round_trip(self):
        result = run_crash_transient(
            SystemConfig(n=3, stack="fd", seed=1), 30.0, detection_time=0.0, num_runs=2
        )
        rebuilt = record_to_result(result_to_record(result))
        assert isinstance(rebuilt, TransientResult)
        assert rebuilt.latencies == result.latencies
        assert rebuilt.overhead_summary().mean == result.overhead_summary().mean


class TestMerge:
    def test_single_replica_is_identity(self):
        result = run_normal_steady(SystemConfig(n=3, stack="fd", seed=1), 30.0, num_messages=10)
        assert merge_scenario_results([result]) is result

    def test_replicas_pool_latencies(self):
        results = [
            run_normal_steady(SystemConfig(n=3, stack="fd", seed=seed), 30.0, num_messages=10)
            for seed in (1, 2)
        ]
        merged = merge_scenario_results(results)
        assert merged.latencies == results[0].latencies + results[1].latencies
        assert merged.measured == 20
        assert merged.params["replicas"] == 2

    def test_transient_replicas_pool_runs(self):
        results = [
            run_crash_transient(
                SystemConfig(n=3, stack="fd", seed=seed), 30.0, detection_time=0.0, num_runs=2
            )
            for seed in (1, 2)
        ]
        merged = merge_transient_results(results)
        assert merged.runs == results[0].runs + results[1].runs


class TestFigureEquivalence:
    def test_figure4_matches_direct_scenario_calls(self):
        figure = figure4.run(
            quick=True, seed=1, n_values=(3,), throughputs=(20, 60), num_messages=15
        )
        expected = []
        for algorithm in ("fd", "gm"):
            for throughput in (20, 60):
                result = run_normal_steady(
                    SystemConfig(n=3, stack=algorithm, seed=1), throughput, num_messages=15
                )
                expected.append(point_from_scenario(throughput, result))
        got = [point for series in figure.series for point in series.points]
        assert got == expected

    def test_figure8_matches_direct_scenario_calls(self):
        figure = figure8.run(
            quick=True,
            seed=1,
            n_values=(3,),
            detection_times=(0.0,),
            throughputs=(10,),
            num_runs=2,
        )
        expected = []
        for algorithm in ("fd", "gm"):
            result = run_crash_transient(
                SystemConfig(n=3, stack=algorithm, seed=1),
                10,
                detection_time=0.0,
                crashed_process=0,
                num_runs=2,
            )
            expected.append(point_from_transient(10, result))
        got = [point for series in figure.series for point in series.points]
        assert got == expected

    def test_multi_seed_replicas_increase_samples(self):
        single = figure4.run(
            quick=True, seed=1, n_values=(3,), throughputs=(30,), num_messages=10
        )
        pooled = figure4.run(
            quick=True,
            seed=1,
            n_values=(3,),
            throughputs=(30,),
            num_messages=10,
            replicas=2,
        )
        assert pooled.series[0].points[0].samples > single.series[0].points[0].samples

    def test_parallel_runner_yields_identical_figure(self):
        serial = figure4.run(
            quick=True, seed=1, n_values=(3,), throughputs=(20, 60), num_messages=15
        )
        parallel = figure4.run(
            quick=True,
            seed=1,
            n_values=(3,),
            throughputs=(20, 60),
            num_messages=15,
            runner=CampaignRunner(jobs=2),
        )
        for a, b in zip(serial.series, parallel.series):
            assert a.label == b.label
            assert a.points == b.points
