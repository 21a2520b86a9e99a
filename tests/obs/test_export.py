"""Tests for the exporters: metrics snapshots, JSONL traces, Chrome traces."""

import json

import pytest

from repro import SystemConfig, build_system
from repro.obs import Instrumentation, metrics_snapshot, metrics_snapshot_from_obs
from repro.obs import export as obs_export


def instrumented_run(stack="fd", n=3, seed=7):
    system = build_system(SystemConfig(n=n, stack=stack, seed=seed, instrument=True))
    system.start()
    for time, sender in ((1.0, 0), (5.0, 1), (9.0, 2)):
        system.broadcast_at(time, sender, f"m-{sender}")
    system.run(until=2_000.0)
    return system


class TestMetricsSnapshot:
    def test_provenance_identifies_the_run(self):
        system = instrumented_run()
        snapshot = metrics_snapshot(system, scenario="adhoc")
        provenance = snapshot["provenance"]
        assert provenance["schema"] == obs_export.METRICS_SCHEMA
        assert provenance["stack"] == "fd"
        assert provenance["fd_kind"] == "qos"
        assert provenance["n"] == 3
        assert provenance["seed"] == 7
        assert provenance["scenario"] == "adhoc"
        assert len(provenance["config_hash"]) == 16
        int(provenance["config_hash"], 16)  # hex

    def test_sim_section_reports_the_kernel(self):
        system = instrumented_run()
        snapshot = metrics_snapshot(system)
        assert snapshot["sim"]["events_processed"] == system.sim.events_processed
        assert snapshot["sim"]["run_exhausted"] is False

    def test_counters_round_trip(self):
        system = instrumented_run()
        snapshot = metrics_snapshot(system)
        assert snapshot["counters"] == dict(system.obs.counters)
        assert snapshot["counters"]["abcast.broadcasts"] == 3

    def test_snapshot_is_json_serialisable(self):
        json.dumps(metrics_snapshot(instrumented_run()))

    def test_uninstrumented_system_rejected(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=7))
        with pytest.raises(ValueError, match="not instrumented"):
            metrics_snapshot(system)

    def test_config_fingerprint_is_stable_and_sensitive(self):
        a = SystemConfig(n=3, stack="fd", seed=7)
        b = SystemConfig(n=3, stack="fd", seed=7)
        c = SystemConfig(n=3, stack="fd", seed=8)
        assert obs_export.config_fingerprint(a) == obs_export.config_fingerprint(b)
        assert obs_export.config_fingerprint(a) != obs_export.config_fingerprint(c)

    def test_snapshot_from_bare_obs_has_no_sim_section(self):
        obs = Instrumentation()
        obs.count("x")
        snapshot = metrics_snapshot_from_obs(obs, SystemConfig(n=3), runs=4)
        assert "sim" not in snapshot
        assert snapshot["provenance"]["runs"] == 4
        assert snapshot["counters"] == {"x": 1}

    def test_write_metrics(self, tmp_path):
        system = instrumented_run()
        path = tmp_path / "out" / "metrics.json"
        written = obs_export.write_metrics(str(path), system)
        assert json.loads(path.read_text()) == json.loads(json.dumps(written))


class TestGitRevision:
    def test_resolves_inside_this_checkout(self):
        rev = obs_export.git_revision()
        assert rev is None or (4 <= len(rev) < 40 and all(
            ch in "0123456789abcdef" for ch in rev
        ))
        assert metrics_snapshot(instrumented_run())["provenance"]["git_rev"] == rev

    def test_null_outside_a_checkout(self, tmp_path, monkeypatch):
        outside = obs_export._rev_parse(str(tmp_path))
        assert outside is None
        monkeypatch.setattr(obs_export, "_git_rev_cache", [outside])
        assert metrics_snapshot(instrumented_run())["provenance"]["git_rev"] is None


class TestHistogramSummary:
    def test_empty_histogram(self):
        assert obs_export.summarize_histogram([]) == {"count": 0}

    def test_summary_fields(self):
        summary = obs_export.summarize_histogram([3.0, 1.0, 2.0, 4.0])
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 3.0


class TestEventTrace:
    def test_jsonl_lines_parse_and_count(self, tmp_path):
        system = instrumented_run()
        path = tmp_path / "run.trace.jsonl"
        count = obs_export.write_event_trace(str(path), system.obs)
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(system.obs.events)
        kinds = {json.loads(line)["ev"] for line in lines}
        assert {"send", "recv", "broadcast", "sequenced", "adeliver"} <= kinds


class TestChromeTrace:
    def test_abcast_spans_balance(self):
        system = instrumented_run()
        trace = obs_export.chrome_trace(system.obs)
        events = trace["traceEvents"]
        begins = [e for e in events if e.get("cat") == "abcast" and e["ph"] == "b"]
        ends = [e for e in events if e.get("cat") == "abcast" and e["ph"] == "e"]
        assert len(begins) == len(ends) == 3
        assert {e["id"] for e in begins} == {e["id"] for e in ends}

    def test_timestamps_are_microseconds(self):
        system = instrumented_run()
        events = obs_export.chrome_trace(system.obs)["traceEvents"]
        first = min(
            (e for e in events if e.get("cat") == "abcast" and e["ph"] == "b"),
            key=lambda e: e["ts"],
        )
        assert first["ts"] == pytest.approx(1.0 * 1000.0)  # 1 ms sim time

    def test_process_metadata_present(self):
        system = instrumented_run()
        events = obs_export.chrome_trace(system.obs)["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"p0", "p1", "p2"}

    def test_suspicion_spans_balance(self):
        system = build_system(SystemConfig(n=3, stack="fd", seed=7, instrument=True))
        system.start()
        detector = system.fd_fabric.detectors()[1]
        system.sim.schedule_at(10.0, lambda: detector.force_suspect(0))
        system.sim.schedule_at(60.0, lambda: detector.force_trust(0))
        system.run(until=200.0)
        events = obs_export.chrome_trace(system.obs)["traceEvents"]
        fd_events = [e for e in events if e.get("cat") == "fd"]
        assert [e["ph"] for e in fd_events] == ["b", "e"]
        assert fd_events[0]["ts"] == pytest.approx(10_000.0)
        assert fd_events[1]["ts"] == pytest.approx(60_000.0)


class TestTraceSink:
    def teardown_method(self):
        obs_export.set_trace_dir(None)

    def test_disarmed_sink_writes_nothing(self):
        system = instrumented_run()
        assert obs_export.maybe_write_traces(system, "label") == []

    def test_armed_sink_writes_both_files(self, tmp_path):
        obs_export.set_trace_dir(str(tmp_path), prefix="abc123")
        system = instrumented_run()
        paths = obs_export.maybe_write_traces(system, "normal-steady/fd n=3")
        assert len(paths) == 2
        for path in paths:
            assert path.startswith(str(tmp_path))
            assert "abc123-" in path
            assert "/" not in path[len(str(tmp_path)) + 1 :]

    def test_uninstrumented_system_writes_nothing(self, tmp_path):
        obs_export.set_trace_dir(str(tmp_path))
        system = build_system(SystemConfig(n=3, stack="fd", seed=7))
        assert obs_export.maybe_write_traces(system, "label") == []


class TestExportMetricsRecords:
    def test_only_metrics_bearing_records_written(self, tmp_path):
        records = {
            "aaa": {"type": "scenario", "metrics": {"counters": {"x": 1}}},
            "bbb": {"type": "scenario"},
        }
        written = obs_export.export_metrics_records(records, str(tmp_path))
        assert written == 1
        payload = json.loads((tmp_path / "aaa.metrics.json").read_text())
        assert payload["key"] == "aaa"
        assert payload["counters"] == {"x": 1}
        assert not (tmp_path / "bbb.metrics.json").exists()
