"""``campaign_store``: the campaign engine with almost no simulation under it."""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List

import paths
from checks import check_mirror, check_same_records, require
from harness import PassContext, nproc
from workloads.base import Workload, finish_pass

from repro.campaigns.aggregate import cross_campaign_summary, load_store_table
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec, grid
from repro.campaigns.store import ResultStore


def _noop() -> int:
    return os.getpid()


def record_label(record: Dict[str, Any]) -> str:
    return f"{record['algorithm']}/n{record['n']}/T{record['throughput']:g}"


def record_identity(record: Dict[str, Any]) -> tuple:
    """What a record simulated, whatever key it is stored under."""
    return (record_label(record), record["events"], record["latencies"])


class CampaignStore(Workload):
    name = "campaign_store"
    include_children = True
    setup_imports = ("repro.campaigns",)
    SIZES = {
        "full": {"stacks": ["fd", "gm"], "n_values": [3, 5], "throughputs": 6, "seeds": 8,
                 "messages": 20, "warm_reruns": 5, "bulk_records": 6000, "queue_points": 60,
                 "workers": 2},
        "smoke": {"stacks": ["fd", "gm"], "n_values": [3], "throughputs": 2, "seeds": 3,
                  "messages": 10, "warm_reruns": 2, "bulk_records": 300, "queue_points": 6,
                  "workers": 2},
    }

    def _campaign(self, seed: int, sizes: Dict[str, Any]) -> CampaignSpec:
        """Generated input: the grid is rebuilt from scratch wherever it is used."""
        return grid(
            "normal-steady",
            name="campaign_store",
            stacks=tuple(sizes["stacks"]),
            n_values=tuple(sizes["n_values"]),
            throughputs=tuple(10.0 * (index + 1) for index in range(sizes["throughputs"])),
            seeds=tuple(1000 * seed + replica for replica in range(sizes["seeds"])),
            num_messages=sizes["messages"],
        )

    def run_pass(self, seed, sizes, tracer, instrument):
        os.makedirs(paths.OUT_DIR, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="campaign_store.", dir=paths.OUT_DIR)
        try:
            return self._run_phases(PassContext(tracer, instrument), seed, sizes, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _cold_run(self, ctx, seed, sizes, directory, jobs):
        """Every point of the grid through a fresh fsync store, with ``jobs`` workers."""
        with CampaignRunner(jobs=jobs, store=ResultStore(directory, durability="fsync"),
                            instrument=ctx.instrument) as runner:
            if ctx.instrument and jobs > 1:
                with ctx.tracer.span("WarmPool.spinup", "campaigns.pool"):
                    runner.pool.executor().submit(_noop).result()
            with ctx.tracer.span(f"cold.jobs={jobs}", "bench") as span:
                run = runner.run(self._campaign(seed, sizes))
                runner.store.close()
        with ctx.checking():
            require(run.cache_hits == 0 and run.executed == len(run.records),
                    f"cold run with jobs={jobs} found points in a fresh store")
        ctx.attempted += run.executed
        ctx.failed += sum(
            bool(record["params"].get("run_exhausted")) for record in run.records.values()
        )
        return run, span.elapsed

    def _run_phases(self, ctx, seed, sizes, scratch):
        tracer = ctx.tracer
        workers = min(sizes["workers"], nproc())
        started = time.perf_counter()

        # (s) serial cold: in this process, one point after another.  The
        # reference the other execution modes must reproduce, and the phase
        # behind ops_per_s and events_per_s: two pool workers and their
        # parent on two cores are at the mercy of whatever else the box does.
        serial_dir = os.path.join(scratch, "serial")
        serial, serial_s = self._cold_run(ctx, seed, sizes, serial_dir, 1)
        points = serial.executed
        latencies: List[float] = []
        for record in serial.records.values():  # grid order
            latencies.extend(record["latencies"])
            ctx.events += record["events"]
            ctx.fold(record_label(record), record["events"], record["latencies"])
            ctx.fold_metrics(record.get("metrics"))
        ctx.event_wall_s += serial_s

        # (a) pooled cold: the same grid through the warm pool.
        cache_dir = os.path.join(scratch, "cache")
        pooled, pooled_s = self._cold_run(ctx, seed, sizes, cache_dir, workers)
        with ctx.checking():
            require(pooled.executed == points, f"pooled run executed {pooled.executed} of {points}")
            check_same_records(serial.records, pooled.records, f"jobs={workers}")
            check_mirror(cache_dir, pooled.records)

        # (b) warm: rebuild the grid, reopen the store, rerun -- all cache hits.
        hits = 0
        with tracer.span("warm", "bench") as warm:
            for _ in range(sizes["warm_reruns"]):
                store = ResultStore(cache_dir, durability="fsync")
                with CampaignRunner(jobs=workers, store=store, instrument=ctx.instrument) as runner:
                    warm_run = runner.run(self._campaign(seed, sizes))
                store.close()
                hits += warm_run.cache_hits
        with ctx.checking():
            require(hits == points * sizes["warm_reruns"] and warm_run.executed == 0,
                    "warm reruns re-simulated points")
            check_same_records(serial.records, warm_run.records, "warm")

        # (c) bulk: the real records re-keyed into a large store, then queried.
        bulk_dir = os.path.join(scratch, "bulk")
        keys = sorted(serial.records)
        entries = [
            (f"{keys[index % len(keys)]}-{index // len(keys):04d}",
             serial.records[keys[index % len(keys)]])
            for index in range(sizes["bulk_records"])
        ]
        with tracer.span("bulk-write", "bench"):
            store = ResultStore(bulk_dir, durability="batch")
            for key, record in entries:
                store.put(key, record)
            store.close()
        with tracer.span("ResultStore.load", "campaigns.store.load"):
            store = ResultStore(bulk_dir, durability="batch")
        with ctx.checking():
            require(len(store) == len(entries), "the reopened bulk store lost records")
        store.compact()
        store.close()
        with tracer.span("query", "bench") as query:
            table = load_store_table(bulk_dir)
            with tracer.span("cross_campaign_summary", "campaigns.aggregate.summary"):
                summary = cross_campaign_summary([bulk_dir], percentiles=(0.5, 0.99))
        with ctx.checking():
            require(table.count == len(entries), "the bulk mirror lost records")
            require(sum(group["records"] for group in summary) == len(entries),
                    "the cross-campaign summary lost records")

        # (d) queue: the first points again, through enqueue + a queue worker
        # (which executes the points as declared, uninstrumented).
        queue_points = self._campaign(seed, sizes).points()[:sizes["queue_points"]]
        with tracer.span("queue", "bench") as queued:
            queue = WorkQueue(os.path.join(scratch, "queue"))
            queue.enqueue(queue_points)
            drained = QueueWorker(queue, worker_id="bench").run()
        with ctx.checking():
            require(drained == len(queue_points), "the queue worker left points behind")
            simulated = {repr(record_identity(record)) for record in serial.records.values()}
            for point in queue_points:
                require(repr(record_identity(queue.result(point.key()))) in simulated,
                        f"queue: record of point {point.key()[:12]} differs from serial execution")

        exact = {"sim_latency_ms": sum(latencies) / len(latencies)}
        host = {
            "pooled_points_per_s": points / pooled_s,
            "cached_points_per_s": hits / warm.elapsed,
            "query_s": query.elapsed,
        }
        layer = {
            "campaigns.runner.dispatch_overhead_s": pooled_s * workers - serial_s,
            "campaigns.runner.cache_hit_share": hits / (hits + 2 * points),
            "campaigns.queue.cycle_ms": queued.elapsed / len(queue_points) * 1000.0,
        }
        return finish_pass(ctx, started, exact, ops=points, ops_wall_s=serial_s,
                           host=host, layer=layer)

    def check_layers(self, values, tracer):
        super().check_layers(values, tracer)
        require(values["campaigns.runner.cache_hit_share"] > 0, "campaign_store: no cache hit")
