"""Benchmark the campaign engine: dispatch overhead, warm pools, aggregation.

The pytest entry point runs a reduced Figure 4 grid three ways -- serial,
through a process pool, and from a warm JSONL cache -- and checks the
identical table each mode produces.

The module also runs standalone and emits
``benchmarks/output/BENCH_campaign.json`` with the scaling story of the
campaign overhaul:

* **dispatch** -- a many-small-point quick grid executed by the legacy
  dispatch (replicated in-bench: a fresh pool per run, one future per point
  fanned out up-front, an fsync-and-reopen per stored line) versus the
  current runner (persistent warm pool, chunked round-trips, bounded
  in-flight window, batched store durability), with bit-identical records
  asserted;
* **warm_pool** -- the same runner executing two campaigns back to back:
  the second run reuses the hot workers and skips the pool spin-up;
* **heavy** -- a heavy-point grid (n=7, long message streams) serial versus
  ``jobs=4``, the regime where parallel speedup comes from the simulations
  themselves rather than from dispatch overhead;
* **aggregation** -- one store with ~10^5 records loaded the legacy way
  (re-parsing ``results.jsonl`` dict by dict) versus through the columnar
  mirror, plus a grouped cross-campaign query over each form.

Wall-clock parallel speedup is gated (>= 3x) only when the machine has at
least 4 cores -- on fewer cores the dispatch-overhead ratio is reported
instead, which is what the single-core container can measure honestly.

Usage::

    python benchmarks/bench_campaign_runner.py        # full artifact
    REPRO_BENCH_SMOKE=1 python benchmarks/bench_campaign_runner.py
    python -m pytest benchmarks/bench_campaign_runner.py -q
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List

from repro.campaigns import CampaignRunner, ResultStore, cross_campaign_summary
from repro.campaigns.aggregate import load_store_table
from repro.campaigns.runner import execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.experiments import figure4
from repro.experiments.report import format_figure

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")
OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
ARTIFACT = os.path.join(OUTPUT_DIR, "BENCH_campaign.json")

JOBS = 4
#: Many-small-point dispatch grid (the acceptance regime is >= 500 points).
QUICK_POINTS = 240 if SMOKE else 640
#: Heavy-point grid: fewer, slower simulations.
HEAVY_POINTS = 4 if SMOKE else 12
HEAVY_N = 7
HEAVY_MESSAGES = 60
#: Synthetic store size for the aggregation comparison.
AGG_RECORDS = 20_000 if SMOKE else 120_000
AGG_LATENCIES = 20

GRID = dict(quick=True, seed=1, n_values=(3,), throughputs=(10, 50, 100, 200), num_messages=80)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def quick_grid(count: int, *, seed_base: int = 1):
    """``count`` distinct quick points (tiny n=3 normal-steady runs)."""
    throughputs = tuple(10.0 + index for index in range(count // 4))
    return grid(
        "normal-steady",
        stacks=("fd",),
        n_values=(3,),
        throughputs=throughputs,
        seeds=(seed_base, seed_base + 1, seed_base + 2, seed_base + 3),
        num_messages=6,
    )


def heavy_grid():
    throughputs = tuple(20.0 + 10.0 * index for index in range(HEAVY_POINTS))
    return grid(
        "normal-steady",
        stacks=("fd",),
        n_values=(HEAVY_N,),
        throughputs=throughputs,
        num_messages=HEAVY_MESSAGES,
    )


# ------------------------------------------------------------------ legacy path


def run_legacy(points: List[PointSpec], jobs: int, store_dir: str) -> Dict[str, Any]:
    """The pre-overhaul dispatch, replicated for the A/B comparison.

    Fresh ``ProcessPoolExecutor`` per run; every point is its own future,
    all submitted up-front; every record is persisted by reopening the
    JSONL, writing one line and fsyncing -- the per-point costs the current
    runner amortises away.
    """
    records: Dict[str, Dict[str, Any]] = {}
    path = os.path.join(store_dir, "results.jsonl")
    os.makedirs(store_dir, exist_ok=True)
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        futures = {executor.submit(execute_point, point): point for point in points}
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                point = futures.pop(future)
                record = future.result()
                records[point.key()] = record
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(
                        json.dumps(
                            {"key": point.key(), "point": point.as_dict(), "record": record},
                            sort_keys=True,
                        )
                        + "\n"
                    )
                    handle.flush()
                    os.fsync(handle.fileno())
    return records


# ------------------------------------------------------------------ sections


def bench_dispatch(workdir: str) -> Dict[str, Any]:
    campaign = quick_grid(QUICK_POINTS)
    points = campaign.points()

    started = time.perf_counter()
    serial_run = CampaignRunner(jobs=1).run(campaign)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    legacy_records = run_legacy(points, JOBS, os.path.join(workdir, "legacy"))
    legacy_wall = time.perf_counter() - started

    new_store = ResultStore(os.path.join(workdir, "new"), durability="batch")
    with CampaignRunner(jobs=JOBS, store=new_store) as runner:
        started = time.perf_counter()
        cold_run = runner.run(campaign)
        new_cold_wall = time.perf_counter() - started

        rerun = quick_grid(QUICK_POINTS, seed_base=101)  # fresh points, hot pool
        started = time.perf_counter()
        warm_run = runner.run(rerun)
        new_warm_wall = time.perf_counter() - started
    new_store.close()

    assert legacy_records == serial_run.records, "legacy dispatch diverged from serial"
    assert cold_run.records == serial_run.records, "chunked dispatch diverged from serial"
    assert warm_run.executed == len(points)

    cores = cpu_count()
    ideal = serial_wall / min(JOBS, cores)
    return {
        "points": len(points),
        "jobs": JOBS,
        "serial_wall_s": round(serial_wall, 4),
        "legacy_wall_s": round(legacy_wall, 4),
        "new_cold_wall_s": round(new_cold_wall, 4),
        "new_warm_wall_s": round(new_warm_wall, 4),
        "points_per_s_legacy": int(len(points) / legacy_wall),
        "points_per_s_new": int(len(points) / new_warm_wall),
        "speedup_vs_legacy": round(legacy_wall / new_warm_wall, 2),
        # Overhead = wall beyond an ideal fan-out of the serial sim time;
        # the honest metric on machines where cores cap the wall-clock.
        "legacy_overhead_s": round(max(0.0, legacy_wall - ideal), 4),
        "new_overhead_s": round(max(0.0, new_warm_wall - ideal), 4),
        "records_identical": True,
    }


def bench_warm_pool(workdir: str) -> Dict[str, Any]:
    first = quick_grid(max(40, QUICK_POINTS // 4), seed_base=201)
    second = quick_grid(max(40, QUICK_POINTS // 4), seed_base=301)
    with CampaignRunner(jobs=JOBS) as runner:
        started = time.perf_counter()
        runner.run(first)
        cold_wall = time.perf_counter() - started  # includes pool spin-up
        started = time.perf_counter()
        runner.run(second)
        warm_wall = time.perf_counter() - started
        checkouts = runner.pool.checkouts
    assert checkouts == 2, "warm pool was not reused across runs"
    return {
        "points_per_run": len(first.points()),
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "spinup_saved_s": round(max(0.0, cold_wall - warm_wall), 4),
    }


def bench_heavy() -> Dict[str, Any]:
    campaign = heavy_grid()
    started = time.perf_counter()
    serial_run = CampaignRunner(jobs=1).run(campaign)
    serial_wall = time.perf_counter() - started
    with CampaignRunner(jobs=JOBS) as runner:
        started = time.perf_counter()
        parallel_run = runner.run(campaign)
        parallel_wall = time.perf_counter() - started
    assert parallel_run.records == serial_run.records
    return {
        "points": len(campaign.points()),
        "n": HEAVY_N,
        "num_messages": HEAVY_MESSAGES,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 2),
        "points_per_s": round(len(campaign.points()) / parallel_wall, 2),
    }


def synthetic_record(index: int) -> Dict[str, Any]:
    base = (index % 97) / 97.0
    return {
        "type": "scenario",
        "scenario": "normal-steady",
        "algorithm": "fd" if index % 2 else "gm",
        "n": 3 + (index % 4) * 4,
        "throughput": float(10 * (1 + index % 5)),
        "measured": AGG_LATENCIES,
        "undelivered": index % 3,
        "events": 1000 + index,
        "duration": 400.0,
        "latencies": [base + 0.1 * position for position in range(AGG_LATENCIES)],
    }


def bench_aggregation(workdir: str) -> Dict[str, Any]:
    directory = os.path.join(workdir, "agg")
    store = ResultStore(directory, durability="batch", auto_compact_dupes=0)
    for index in range(AGG_RECORDS):
        store.put(
            f"key-{index:08d}",
            synthetic_record(index),
            point={
                "kind": "normal-steady",
                "stack": "fd" if index % 2 else "gm",
                "n": 3 + (index % 4) * 4,
                "seed": index,
            },
        )
    store.close()  # leaves a fresh mirror beside the JSONL
    del store
    gc.collect()

    # Legacy load: re-parse the JSONL into one dict per record.  Opening a
    # store only indexes the file, so the full pass over its entries is
    # what materialises (and parses) every record.
    started = time.perf_counter()
    legacy_store = ResultStore(directory, mirror=False)
    legacy_entries = list(legacy_store.entries())
    jsonl_parse_s = time.perf_counter() - started
    started = time.perf_counter()
    legacy_groups: Dict[Any, float] = {}
    for _, point, record in legacy_entries:
        group = (point["kind"], point["stack"], point["n"], record["throughput"])
        legacy_groups[group] = legacy_groups.get(group, 0.0) + sum(record["latencies"])
    legacy_query_s = time.perf_counter() - started
    legacy_store.close()
    del legacy_store, legacy_entries
    gc.collect()

    # Columnar load: bulk frombytes reads of the mirror.
    started = time.perf_counter()
    table = load_store_table(directory)
    mirror_read_s = time.perf_counter() - started
    assert table.count == AGG_RECORDS
    del table
    gc.collect()

    started = time.perf_counter()
    summary = cross_campaign_summary([directory])
    columnar_query_s = time.perf_counter() - started
    assert sum(entry["records"] for entry in summary) == AGG_RECORDS

    return {
        "records": AGG_RECORDS,
        "jsonl_parse_s": round(jsonl_parse_s, 4),
        "mirror_read_s": round(mirror_read_s, 4),
        "load_speedup": round(jsonl_parse_s / mirror_read_s, 1),
        "legacy_query_s": round(jsonl_parse_s + legacy_query_s, 4),
        "columnar_query_s": round(mirror_read_s + columnar_query_s, 4),
        "query_speedup": round(
            (jsonl_parse_s + legacy_query_s) / (mirror_read_s + columnar_query_s), 1
        ),
        "groups": len(summary),
    }


# ------------------------------------------------------------------ artifact


def run_benchmark() -> Dict[str, Any]:
    workdir = tempfile.mkdtemp(prefix="campaign-bench-")
    try:
        report: Dict[str, Any] = {
            "mode": "smoke" if SMOKE else "full",
            "cpu_count": cpu_count(),
            "dispatch": bench_dispatch(workdir),
            "warm_pool": bench_warm_pool(workdir),
            "heavy": bench_heavy(),
            "aggregation": bench_aggregation(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates: Dict[str, Any] = {
        "records_identical": report["dispatch"]["records_identical"],
        "aggregation_load_10x": report["aggregation"]["load_speedup"] >= 10.0,
    }
    # The >= 3x wall-clock gate needs real cores; on fewer the dispatch
    # overhead ratio carries the comparison instead.
    if report["cpu_count"] >= 4:
        gates["dispatch_3x_vs_legacy"] = report["dispatch"]["speedup_vs_legacy"] >= 3.0
    else:
        gates["dispatch_3x_vs_legacy"] = None
        overhead = report["dispatch"]["new_overhead_s"]
        gates["dispatch_overhead_reduced"] = (
            overhead < report["dispatch"]["legacy_overhead_s"]
        )
    report["gates"] = gates
    return report


def write_artifact(report: Dict[str, Any]) -> str:
    """Persist ``report`` as ``BENCH_campaign.json``; return the path."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return ARTIFACT


def gates_pass(report: Dict[str, Any]) -> bool:
    return all(value is not False for value in report["gates"].values())


# ------------------------------------------------------------------ pytest


def test_campaign_modes_agree(run_once):
    cache_dir = tempfile.mkdtemp(prefix="campaign-bench-")
    try:
        serial = figure4.run(**GRID)
        parallel = run_once(figure4.run, runner=CampaignRunner(jobs=4), **GRID)

        cold_runner = CampaignRunner(jobs=1, store=ResultStore(cache_dir))
        figure4.run(runner=cold_runner, **GRID)
        warm_runner = CampaignRunner(jobs=1, store=ResultStore(cache_dir))
        warm = figure4.run(runner=warm_runner, **GRID)

        print()
        print(format_figure(parallel))
        assert format_figure(parallel) == format_figure(serial)
        assert format_figure(warm) == format_figure(serial)
        assert warm_runner.last_run.executed == 0
        assert warm_runner.last_run.cache_hits == len(
            figure4.build_campaign(**GRID).points()
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    artifact = run_benchmark()
    print(json.dumps(artifact, indent=2))
    print(f"\nwritten to {write_artifact(artifact)}", file=sys.stderr)
    sys.exit(0 if gates_pass(artifact) else 1)
