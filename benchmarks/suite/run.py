"""The repository's benchmark: one command, five workloads.

    python benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--smoke] [--out DIR]
    python benchmarks/suite/run.py --compare A B
    python benchmarks/suite/run.py --manifest | --glossary

Without ``--workload`` the five workloads run one after another, each in a
fresh interpreter so that ``peak_rss_mb`` and ``setup_s`` mean the same as
when the benchmark driver runs a single workload.  Every metric is printed
as ``workload metric value unit``; the last line of a workload's output is
the JSON object the benchmark contract asks for.  Results go to
``benchmarks/suite/out/BENCH_<workload>.json`` (untraced run: the end-to-end
metrics) and ``out/trace.<workload>.json`` (``--trace``: the per-layer
metrics, measured on one traced pass plus the isolated layer drivers;
end-to-end metrics are never taken from it).  A failed correctness check
exits non-zero.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Any, Dict, List, Sequence

import paths
import spec
from checks import CheckFailed, require

SMOKE_SECONDS = 0.2


def run_untraced(name: str, seed: int, seconds: float, smoke: bool, out_dir: str) -> str:
    """Measure the end-to-end metrics of one workload; returns the result line."""
    import harness
    from tracing import Tracer
    from workloads import REGISTRY

    workload = REGISTRY[name]
    sizes = workload.sizes(smoke)
    setup = harness.measure_subprocess(
        harness.setup_command(workload.setup_imports, seed),
        1 if smoke else harness.SETUP_SAMPLES,
    )
    tracer = Tracer(enabled=False)
    results = harness.timed_passes(
        lambda: workload.run_pass(seed, sizes, tracer, False), seconds, workload.warmup
    )
    sim_digest = harness.same_digest(results)
    timed = results[1:] if workload.warmup else results
    samples: Dict[str, List[float]] = {
        "wall_s": [p.wall_s for p in timed],
        "events_per_s": [p.events / p.event_wall_s for p in timed],
        "ops_per_s": [p.ops / p.ops_wall_s for p in timed],
        "setup_s": setup,
        "peak_rss_mb": [harness.peak_rss_mb(workload.include_children)],
    }
    for key in timed[0].exact:
        samples[key] = [timed[0].exact[key]]
    for key in timed[0].host:
        samples[key] = [p.host[key] for p in timed]

    declared = spec.end_to_end_for(name)
    require(
        sorted(samples) == sorted(m.name for m in declared),
        f"{name} emitted {sorted(samples)}, declared {sorted(m.name for m in declared)}",
    )
    rows = [harness.make_row(name, m, samples[m.name]) for m in declared]
    print(f"{name} passes {len(timed)} timed"
          + (" after 1 warm-up" if workload.warmup else ", cold")
          + "; five or fewer samples support no percentile above the median")
    driver_names = {m.name for m in spec.metrics("driver")}
    return report(
        os.path.join(out_dir, f"BENCH_{name}.json"),
        harness.provenance(seed, "smoke" if smoke else "full", sizes, sim_digest),
        sum(p.attempted for p in timed),
        sum(p.failed for p in timed),
        rows,
        [row for row in rows if row["metric"] in driver_names],
    )


def report(path, provenance, attempted, failed, rows, line_rows, **extra) -> str:
    """Print the rows, write the result file, return the contract's result line."""
    import harness

    harness.print_rows(rows)
    print(f"{rows[0]['workload']} sim_digest {provenance['sim_digest']}")
    harness.write_json(
        path,
        {
            "provenance": provenance,
            "result": {"correct": True, "attempted": attempted, "failed": failed},
            "rows": rows,
            **extra,
        },
    )
    return harness.result_line(attempted, failed, line_rows)


def span_values(tracer, wall_s: float) -> Dict[str, float]:
    """The [span] per-layer metrics every workload shares, from the tracer."""
    values = {metric: tracer.layer_self(layer) for layer, metric in spec.SELF_TIME_METRICS.items()}
    built = tracer.layer_total("system")
    probes_s = tracer.layer_total("scenarios.transient")

    def per_call_us(layer: str) -> float:
        count = tracer.layer_count(layer)
        return tracer.layer_total(layer) / count * 1e6 if count else 0.0

    values.update({
        "system.build_share": built / wall_s,
        "workload.schedule_share": tracer.layer_total("workload") / wall_s,
        "scenarios.runner.overhead_share": max(
            0.0, 1.0 - (built + tracer.layer_total("sim.engine")) / wall_s
        ),
        "scenarios.transient.probes_per_s": (
            tracer.layer_count("scenarios.transient") / probes_s if probes_s else 0.0
        ),
        "campaigns.pool.spinup_s": tracer.layer_total("campaigns.pool"),
        "campaigns.store.put_us.fsync": per_call_us("campaigns.store.put.fsync"),
        "campaigns.store.put_us.batch": per_call_us("campaigns.store.put.batch"),
        "campaigns.store.load_s": tracer.layer_total("campaigns.store.load"),
        "campaigns.store.compact_s": tracer.layer_total("campaigns.store.compact"),
        "campaigns.columnar.write_s": tracer.layer_total("campaigns.columnar.write"),
        "campaigns.columnar.read_s": tracer.layer_total("campaigns.columnar.read"),
        "campaigns.aggregate.summary_s": tracer.layer_self("campaigns.aggregate.summary"),
        "campaigns.aggregate.figure_s": tracer.layer_total("campaigns.aggregate.figure"),
    })
    return values


def run_traced(name: str, seed: int, seconds: float, smoke: bool, out_dir: str) -> str:
    """Measure the per-layer metrics of one workload; returns the result line."""
    import harness
    import iso
    from tracing import Tracer
    from workloads import REGISTRY

    workload = REGISTRY[name]
    sizes = workload.sizes(smoke)
    reference = workload.run_pass(seed, sizes, Tracer(enabled=False), False)
    tracer = Tracer(enabled=True)
    tracer.install()
    try:
        traced = workload.run_pass(seed, sizes, tracer, True)
    finally:
        tracer.remove()
    # Observation must not perturb the run: same seed, same simulation.
    sim_digest = harness.same_digest([reference, traced])

    sample_seconds = max(0.01, seconds * 0.015)
    samples: Dict[str, List[float]] = {m.name: [0.0] for m in spec.metrics("layer")}
    for metric, driver in iso.DRIVERS.items():
        samples[metric] = [
            driver(sample_seconds) for _ in range(1 if smoke else harness.ISO_SAMPLES)
        ]
    values: Dict[str, float] = dict(span_values(tracer, traced.wall_s))
    values.update(traced.counts)
    values.update(reference.layer)
    values["bench.trace_overhead_pct"] = (traced.wall_s / reference.wall_s - 1.0) * 100.0
    workload.check_layers(values, tracer)
    for metric, value in values.items():
        if metric in samples:
            samples[metric] = [value]
    undeclared = sorted(set(iso.DRIVERS) - {m.name for m in spec.metrics("layer")})
    require(not undeclared, f"isolated drivers without a declared metric: {undeclared}")

    rows = [harness.make_row(name, m, samples[m.name]) for m in spec.metrics("layer")]
    return report(
        os.path.join(out_dir, f"trace.{name}.json"),
        harness.provenance(seed, "smoke" if smoke else "full", sizes, sim_digest),
        traced.attempted,
        traced.failed,
        rows,
        rows,
        **tracer.as_dict(),
    )


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool, out_dir: str) -> int:
    try:
        run = run_traced if trace else run_untraced
        line = run(name, seed, seconds, smoke, out_dir)
    except CheckFailed as failure:
        print(f"{name} CORRECTNESS CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print(line)
    return 0


def run_each(names: Sequence[str], arguments: Sequence[str]) -> int:
    """One fresh interpreter per workload, one after another."""
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name, *arguments]
        status = max(status, subprocess.run(command).returncode)
    return status


def all_sizes() -> Dict[str, Dict[str, Any]]:
    from workloads import REGISTRY

    return {name: REGISTRY[name].sizes(False) for name in spec.ALL}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=spec.ALL, default=None,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long the timed passes measure (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one traced pass + the isolated drivers -> per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (whole suite < 20 s)")
    parser.add_argument("--out", default=paths.OUT_DIR, help="directory of the result files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge result directory B against baseline A")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    parser.add_argument("--glossary", action="store_true", help="print the README tables")
    args = parser.parse_args(argv)

    if args.manifest:
        sys.stdout.write(spec.manifest_text())
        return 0
    if args.glossary:
        sys.stdout.write(spec.glossary(all_sizes()))
        return 0
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1])

    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS
    )
    names = args.workload or list(spec.ALL)
    if len(names) == 1:
        return run_one(names[0], args.seed, seconds, args.trace, args.smoke, args.out)
    forwarded = ["--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(args.trace), "--out", args.out]
    if args.smoke:
        forwarded.append("--smoke")
    return run_each(names, forwarded)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
