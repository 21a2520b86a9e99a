"""Tests of the benchmark suite itself (not part of tier-1).

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import paths
import spec
from checks import CheckFailed, check_mirror, check_total_order

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = os.path.join(paths.SUITE_DIR, "run.py")


def run_suite(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *arguments], capture_output=True, text=True, cwd=paths.REPO_ROOT
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of every workload, untraced and traced."""
    out = str(tmp_path_factory.mktemp("suite-out"))
    lines = {}
    for trace in (0, 1):
        for name in spec.ALL:
            done = run_suite("--smoke", "--workload", name, "--trace", str(trace), "--out", out)
            assert done.returncode == 0, done.stderr
            lines[(name, trace)] = json.loads(done.stdout.strip().splitlines()[-1])
    return out, lines


# ------------------------------------------------------------------ declarations


def test_manifest_is_generated_from_spec_and_meets_the_contract():
    with open(paths.MANIFEST_PATH, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text == spec.manifest_text(), "BENCHMARK.json drifted: rerun run.py --manifest"
    manifest = json.loads(text)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(text.encode("utf-8")) <= 64 * 1024
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_readme_tables_are_generated_from_spec():
    import run

    with open(paths.README_PATH, "r", encoding="utf-8") as handle:
        readme = handle.read()
    begin, end = "<!-- GLOSSARY:BEGIN -->\n", "<!-- GLOSSARY:END -->"
    assert begin in readme and end in readme
    tables = readme.split(begin, 1)[1].split(end, 1)[0]
    assert tables == spec.glossary(run.all_sizes()), "README tables drifted: rerun run.py --glossary"


def test_every_workload_is_implemented_and_sized():
    from workloads import REGISTRY

    assert tuple(REGISTRY) == spec.ALL == tuple(w.name for w in spec.WORKLOADS)
    for workload in REGISTRY.values():
        assert set(workload.SIZES) == {"full", "smoke"}
        assert set(workload.SIZES["full"]) == set(workload.SIZES["smoke"])


# ------------------------------------------------------------------ what a run emits


def test_untraced_run_emits_exactly_the_declared_end_to_end_metrics(smoke):
    out, lines = smoke
    driver = {m.name: m.unit for m in spec.metrics("driver")}
    for name in spec.ALL:
        line = lines[(name, 0)]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == driver
        assert all(v["value"] > 0 for v in line["metrics"].values())
        with open(os.path.join(out, f"BENCH_{name}.json"), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        rows = payload["rows"]
        assert [row["metric"] for row in rows] == [m.name for m in spec.end_to_end_for(name)]
        for row in rows:
            assert set(row) == {"workload", "layer", "metric", "unit", "better",
                                "samples", "median", "mad", "min", "max"}
            assert row["workload"] == name and row["unit"] == spec.metric(row["metric"]).unit
        stamp = payload["provenance"]
        assert {"git_rev", "python", "platform", "nproc", "scipy", "seed", "mode", "sizes",
                "sim_digest"} <= set(stamp)


def test_traced_run_emits_exactly_the_declared_per_layer_metrics(smoke):
    out, lines = smoke
    layer = {m.name: m.unit for m in spec.metrics("layer")}
    for name in spec.ALL:
        line = lines[(name, 1)]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == layer
        with open(os.path.join(out, f"trace.{name}.json"), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["spans"] and payload["layers"]
        assert payload["span_columns"] == ["name", "layer", "start_s", "end_s", "parent", "pass"]
    service = lines[("service_kv", 1)]["metrics"]
    steady = lines[("steady_paper", 1)]["metrics"]
    assert service["load.service.shed"]["value"] > 0 and steady["load.service.shed"]["value"] == 0
    assert service["load.service.submit_self_s"]["value"] > 0
    assert steady["load.service.submit_self_s"]["value"] == 0


def test_traced_and_untraced_runs_simulate_the_same(smoke):
    out, _lines = smoke
    for name in spec.ALL:
        digests = []
        for filename in (f"BENCH_{name}.json", f"trace.{name}.json"):
            with open(os.path.join(out, filename), "r", encoding="utf-8") as handle:
                digests.append(json.load(handle)["provenance"]["sim_digest"])
        assert digests[0] == digests[1]


def test_compare_agrees_with_itself_and_flags_a_regression(smoke, tmp_path):
    out, _lines = smoke
    same = run_suite("--compare", out, out)
    assert same.returncode == 0 and " regressed " not in same.stdout
    worse = tmp_path / "worse"
    worse.mkdir()
    for filename in os.listdir(out):
        with open(os.path.join(out, filename), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for row in payload["rows"]:
            if row["metric"] == "wall_s":
                for field in ("median", "min", "max"):
                    row[field] *= 1.5
        with open(worse / filename, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    verdicts = run_suite("--compare", out, str(worse))
    assert verdicts.returncode == 1
    assert "steady_paper wall_s regressed" in verdicts.stdout
    assert "steady_paper events_per_s unchanged" in verdicts.stdout


def test_suite_alone_exits_non_zero_without_a_result(tmp_path):
    """The contract: no ``src/`` beside the suite, no result."""
    import shutil

    alone = tmp_path / "benchmarks" / "suite"
    shutil.copytree(paths.SUITE_DIR, alone, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(alone / "run.py"), "--workload", "steady_paper", "--smoke"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout


# ------------------------------------------------------------------ the checks fire


def test_total_order_check_fires_on_a_reordered_delivery_sequence():
    good = {0: ["a", "b", "c"], 1: ["a", "b", "c"], 2: ["a", "c"]}
    check_total_order(good)
    with pytest.raises(CheckFailed, match="different orders"):
        check_total_order({**good, 1: ["a", "c", "b"]})
    with pytest.raises(CheckFailed, match="twice"):
        check_total_order({**good, 2: ["a", "c", "a"]})


def test_mirror_check_fires_on_a_corrupted_rcol(tmp_path):
    from repro.campaigns.columnar import mirror_path
    from repro.campaigns.store import ResultStore

    records = {
        f"key-{index}": {"type": "scenario", "scenario": "normal-steady", "algorithm": "fd", "n": 3,
                         "throughput": 10.0, "latencies": [8.0 + index, 9.5], "undelivered": 0,
                         "measured": 2, "duration": 100.0, "events": 40 + index, "params": {}}
        for index in range(4)
    }
    store = ResultStore(str(tmp_path))
    for key, record in records.items():
        store.put(key, record)
    store.close()
    check_mirror(str(tmp_path), records)
    mirror = mirror_path(store.path)
    with open(mirror, "r+b") as handle:  # the latency blob is the file's tail
        handle.seek(-8, os.SEEK_END)
        handle.write(b"\x00" * 8)
    with pytest.raises(CheckFailed, match="latency vector differs"):
        check_mirror(str(tmp_path), records)


def test_trace_wrappers_are_fully_removed_after_a_traced_pass():
    from tracing import Tracer
    from workloads import REGISTRY

    from repro.core.consensus import ConsensusService
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.system import BroadcastSystem

    watched = [(Network, "send"), (Simulator, "run"), (BroadcastSystem, "__init__"),
               (ConsensusService, "on_message"), (ConsensusService, "propose")]
    before = [owner.__dict__[attribute] for owner, attribute in watched]
    workload = REGISTRY["steady_paper"]
    tracer = Tracer(enabled=True)
    tracer.install()
    try:
        assert all(owner.__dict__[attribute] is not original
                   for (owner, attribute), original in zip(watched, before))
        workload.run_pass(1, workload.sizes(True), tracer, True)
    finally:
        tracer.remove()
    assert [owner.__dict__[attribute] for owner, attribute in watched] == before
    assert tracer.layer_count("sim.network") > 0 and tracer.spans
    assert not tracer._patched
