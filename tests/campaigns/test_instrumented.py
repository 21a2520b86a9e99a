"""Tests for instrumented campaigns: metrics records, keys, traces, caching."""

import json
import os
from dataclasses import replace

import pytest

from repro.campaigns.queue import WorkQueue
from repro.campaigns.records import record_to_result
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.campaigns.store import ResultStore
from repro.obs import export as obs_export


def small_campaign(**kwargs):
    return grid(
        "normal-steady",
        stacks=("fd",),
        throughputs=(50.0,),
        seeds=(1,),
        num_messages=8,
        **kwargs,
    )


class TestInstrumentKey:
    def test_instrument_enters_the_cache_key(self):
        base = PointSpec(kind="normal-steady", stack="fd", num_messages=8)
        instrumented = replace(base, instrument=True)
        assert base.key() != instrumented.key()
        assert base.as_dict()["instrument"] is False
        assert instrumented.as_dict()["instrument"] is True

    def test_instrument_flows_into_the_config(self):
        point = PointSpec(kind="normal-steady", stack="fd", instrument=True)
        assert point.config().instrument is True
        assert PointSpec(kind="normal-steady", stack="fd").config().instrument is False


class TestExecutePoint:
    def test_uninstrumented_record_has_no_metrics_key(self):
        point = PointSpec(kind="normal-steady", stack="fd", num_messages=8)
        record = execute_point(point)
        assert "metrics" not in record

    def test_instrumented_record_carries_a_metrics_snapshot(self):
        point = PointSpec(
            kind="normal-steady", stack="fd", num_messages=8, instrument=True
        )
        record = execute_point(point)
        metrics = record["metrics"]
        assert metrics["provenance"]["stack"] == "fd"
        assert metrics["provenance"]["scenario"] == "normal-steady"
        assert metrics["counters"]["abcast.broadcasts"] >= 8
        assert metrics["sim"]["events_processed"] > 0
        json.dumps(record)  # records must stay JSONL-storable

    def test_metrics_round_trip_through_result(self):
        point = PointSpec(
            kind="normal-steady", stack="fd", num_messages=8, instrument=True
        )
        record = execute_point(point)
        result = record_to_result(record)
        assert result.metrics == record["metrics"]

    def test_instrumented_transient_point_aggregates_runs(self):
        point = PointSpec(
            kind="crash-transient",
            stack="fd",
            detection_time=20.0,
            num_runs=2,
            instrument=True,
        )
        record = execute_point(point)
        metrics = record["metrics"]
        assert metrics["provenance"]["runs"] == 2
        assert "sim" not in metrics  # aggregated over several kernels
        assert metrics["counters"]["abcast.broadcasts"] > 0

    def test_instrumented_result_matches_uninstrumented(self):
        point = PointSpec(kind="normal-steady", stack="fd", num_messages=8)
        base = record_to_result(execute_point(point))
        inst = record_to_result(execute_point(replace(point, instrument=True)))
        assert inst.latencies == base.latencies
        assert inst.events == base.events


class TestCampaignRunnerInstrument:
    def test_runner_clones_points_and_aliases_resolve(self):
        campaign = small_campaign()
        declared = campaign.points()[0]
        run = CampaignRunner(instrument=True).run(campaign)
        record = run.record(declared)  # looked up by the *declared* point
        assert "metrics" in record
        assert run.aliases[declared.key()] in run.records

    def test_uninstrumented_runner_records_no_metrics(self):
        campaign = small_campaign()
        run = CampaignRunner().run(campaign)
        assert run.aliases == {}
        assert all("metrics" not in record for record in run.records.values())

    def test_metrics_survive_the_result_cache(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = small_campaign()
        first = CampaignRunner(store=store, instrument=True).run(campaign)
        second = CampaignRunner(store=store, instrument=True).run(campaign)
        assert second.cache_hits == len(campaign.points())
        assert second.executed == 0
        point = campaign.points()[0]
        assert second.record(point)["metrics"] == first.record(point)["metrics"]

    def test_instrumented_and_plain_runs_use_disjoint_cache_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = small_campaign()
        CampaignRunner(store=store).run(campaign)
        instrumented = CampaignRunner(store=store, instrument=True).run(campaign)
        # The plain cache entry must not satisfy the instrumented run.
        assert instrumented.cache_hits == 0
        assert "metrics" in instrumented.record(campaign.points()[0])

    def test_trace_dir_implies_instrumentation_and_writes_files(self, tmp_path):
        trace_dir = tmp_path / "traces"
        campaign = small_campaign()
        runner = CampaignRunner(trace_dir=str(trace_dir))
        assert runner.instrument
        run = runner.run(campaign)
        assert "metrics" in run.record(campaign.points()[0])
        names = sorted(os.listdir(trace_dir))
        assert any(name.endswith(".trace.jsonl") for name in names)
        assert any(name.endswith(".chrome.json") for name in names)

    def test_parallel_instrumented_run_matches_serial(self, tmp_path):
        campaign = grid(
            "normal-steady",
            stacks=("fd", "gm"),
            throughputs=(50.0,),
            seeds=(1,),
            num_messages=8,
        )
        serial = CampaignRunner(instrument=True).run(campaign)
        parallel = CampaignRunner(jobs=2, instrument=True).run(campaign)
        for point in campaign.points():
            assert parallel.record(point) == serial.record(point)


class TestTraceSink:
    """``trace_dir`` arms the process-wide sink for one point at a time."""

    @pytest.mark.parametrize("mode", ["serial", "jobs=2", "queue"])
    def test_every_mode_writes_key_prefixed_traces(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(obs_export, "_trace_dir", None)
        campaign = grid(
            "normal-steady", stacks=("fd", "gm"), throughputs=(50.0,), seeds=(1,), num_messages=8
        )
        options = {
            "serial": {},
            "jobs=2": {"jobs": 2},
            "queue": {"queue": WorkQueue(str(tmp_path / "q"))},
        }[mode]
        trace_dir = tmp_path / "traces"
        with CampaignRunner(trace_dir=str(trace_dir), **options) as runner:
            run = runner.run(campaign)
        prefixes = {name.split("-", 1)[0] for name in os.listdir(trace_dir)}
        assert prefixes == {key[:12] for key in run.records}
        assert obs_export._trace_dir is None

    def test_a_later_run_without_traces_writes_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(obs_export, "_trace_dir", None)
        trace_dir = tmp_path / "traces"
        CampaignRunner(queue=WorkQueue(str(tmp_path / "q")), trace_dir=str(trace_dir)).run(
            small_campaign()
        )
        written = sorted(os.listdir(trace_dir))
        later = grid("normal-steady", stacks=("gm",), throughputs=(10.0,), seeds=(2,), num_messages=8)
        CampaignRunner(instrument=True).run(later)
        assert sorted(os.listdir(trace_dir)) == written
        assert obs_export._trace_dir is None
