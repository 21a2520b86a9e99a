"""Tests for the service-load scenario and its campaign integration."""

import math

import pytest

from repro import SystemConfig
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.scenarios import run_service_load
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt


class TestOpenLoop:
    def test_below_saturation_everything_completes(self, algorithm):
        result = run_service_load(
            SystemConfig(n=3, stack=algorithm, seed=81), 100.0, num_requests=60
        )
        assert result.scenario == "service-load"
        assert result.measured == 60
        assert result.undelivered == 0
        assert len(result.latencies) == 60
        assert result.completed
        assert result.params["replicas_consistent"]
        assert result.params["outcomes"]["shed"] == 0

    def test_percentiles_reported_and_ordered(self, algorithm):
        result = run_service_load(
            SystemConfig(n=3, stack=algorithm, seed=81), 200.0, num_requests=80
        )
        p50, p99, p999 = (
            result.params["p50"], result.params["p99"], result.params["p999"]
        )
        assert not math.isnan(p50)
        assert p50 <= p99 <= p999
        assert result.params["goodput"] > 0

    def test_overload_sheds_and_reports_reduced_goodput(self):
        result = run_service_load(
            SystemConfig(n=3, stack="fd", seed=81),
            4000.0,
            num_requests=150,
            max_inflight=16,
            max_queue=16,
        )
        assert result.params["outcomes"]["shed"] > 0
        assert result.params["goodput"] < 4000.0
        assert result.undelivered > 0

    def test_deterministic_per_seed(self, algorithm):
        def run():
            return run_service_load(
                SystemConfig(n=3, stack=algorithm, seed=83), 150.0, num_requests=40
            )

        first, second = run(), run()
        assert first.latencies == second.latencies
        assert first.duration == second.duration
        assert first.events == second.events


class TestClosedLoop:
    def test_closed_loop_completes_all_requests(self, algorithm):
        result = run_service_load(
            SystemConfig(n=3, stack=algorithm, seed=85),
            0.0,
            clients=5,
            think_time=10.0,
            num_requests=50,
        )
        assert result.undelivered == 0
        assert len(result.latencies) == 50
        assert result.params["clients"] == 5

    def test_local_consistency_mode(self):
        result = run_service_load(
            SystemConfig(n=3, stack="fd", seed=85),
            0.0,
            clients=4,
            think_time=5.0,
            num_requests=60,
            consistency="local",
        )
        assert result.params["outcomes"]["local_reads"] > 0
        assert result.undelivered == 0


class TestBatchingGain:
    def test_batching_doubles_saturation_throughput(self):
        # The acceptance criterion: >= 2x measured saturation-throughput
        # gain at equal n, from amortizing the ordering step over k
        # requests.  Offered load far above capacity in both runs.
        def goodput(max_batch):
            result = run_service_load(
                SystemConfig(
                    n=4, stack="fd", seed=87, max_batch=max_batch,
                    max_delay=2.0 if max_batch else 0.0,
                ),
                8000.0,
                num_requests=250,
                max_inflight=128,
                max_queue=256,
            )
            return result.params["goodput"]

        assert goodput(8) / goodput(0) >= 2.0


class TestFaults:
    def test_crash_recover_mid_load(self, algorithm):
        from repro import QoSConfig

        faults = FaultSchedule([CrashAt(time=100.0, pid=0), RecoverAt(time=400.0, pid=0)])
        result = run_service_load(
            SystemConfig(
                n=4, stack=algorithm, seed=89, fd=QoSConfig(detection_time=10.0)
            ),
            120.0,
            num_requests=60,
            faults=faults,
        )
        assert result.params["replicas_consistent"]
        assert result.delivery_ratio > 0.9


class TestCampaignIntegration:
    def test_execute_point_dispatches_service_load(self):
        point = PointSpec(
            kind="service-load", stack="fd", seed=91, throughput=150.0, num_messages=30
        )
        record = execute_point(point)
        assert record["scenario"] == "service-load"
        assert len(record["latencies"]) == 30

    def test_grid_runs_across_stacks(self):
        campaign = grid(
            "service-load",
            stacks=("fd", "gm", "gm-reform"),
            throughputs=(100.0,),
            num_messages=20,
            max_batch=2,
            max_delay=2.0,
        )
        run = CampaignRunner().run(campaign)
        assert len(campaign.points()) == 3
        for point in campaign.points():
            assert point.config().params.batching.max_batch == 2
            result = run.result(point)
            assert result.scenario == "service-load"
            assert len(result.latencies) == 20

    def test_closed_loop_grid_scoping(self):
        campaign = grid(
            "service-load",
            stacks=("fd",),
            throughputs=(50.0,),
            clients=4,
            think_time=10.0,
            consistency="local",
        )
        (point,) = campaign.points()
        assert point.clients == 4
        assert point.consistency == "local"
        # The population axes belong to service-load alone: another kind's
        # grid rejects them instead of silently zeroing them.
        with pytest.raises(ValueError, match="no axis"):
            grid("normal-steady", stacks=("fd",), throughputs=(50.0,), clients=4)

    def test_batching_dimension_is_unscoped(self):
        campaign = grid(
            "normal-steady", stacks=("fd",), throughputs=(50.0,), max_batch=4
        )
        (point,) = campaign.points()
        assert point.config().params.batching.max_batch == 4
