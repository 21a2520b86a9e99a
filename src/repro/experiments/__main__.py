"""Command-line entry point: regenerate the paper's figures as text tables.

Examples::

    python -m repro.experiments --figure 4 --quick
    python -m repro.experiments --figure all --full --markdown -o results.md
    python -m repro.experiments --figure all --quick --jobs 4 --cache-dir .cache

``--jobs N`` fans the grid points of each figure out over N worker
processes; the tables are bit-identical to a serial run.  With
``--cache-dir`` every completed point is persisted, so an interrupted sweep
resumes where it stopped and shared points (e.g. the no-crash curves of
Figs. 4 and 5 in quick mode) are simulated only once.

``--fd-scan-interval Q`` reruns any figure under the batched
failure-detector scan (one calendar event per Q ms instead of per-pair
timers) -- the throughput lane for large-n sweeps; scanned points cache
under their own keys.

Beyond the figures, ``--scenario`` runs any registered scenario kind as an
ad-hoc campaign grid: the whole command line is handed to
``python -m repro.campaigns``, whose options apply (its ``--help`` lists
every kind with its axes)::

    python -m repro.experiments --scenario churn --churn-rate 2 \\
        --throughputs 10 100 --jobs 4 --cache-dir .cache

    python -m repro.experiments --scenario churn-steady --stack fd \\
        --fd qos heartbeat --hb-period 20 --hb-timeout 60

    python -m repro.experiments --scenario view-majority-loss \\
        --stack gm gm-reform --reformation-timeout 500
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

from repro.campaigns.catalog import CampaignCatalog
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.store import DURABILITY_MODES, ResultStore
from repro.experiments import figure4, figure5, figure6, figure7, figure8
from repro.experiments.report import format_figure, format_markdown_table
from repro.experiments.shape_checks import ALL_CHECKS
from repro.scenarios.registry import available_kinds

FIGURES = {
    "4": figure4.run,
    "5": figure5.run,
    "6": figure6.run,
    "7": figure7.run,
    "8": figure8.run,
}


def main(argv: List[str] = None) -> int:
    """Run the requested figure experiments and print/write the tables."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if any(arg == "--scenario" or arg.startswith("--scenario=") for arg in argv):
        # Scenario grids (including the beyond-paper fault-schedule
        # scenarios) are campaign runs: hand the full command line to the
        # campaign CLI, which shares --jobs / --cache-dir / -o.
        from repro.campaigns.__main__ import main as campaign_main

        return campaign_main(argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        default="all",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to regenerate (default: all)",
    )
    parser.add_argument("--full", action="store_true", help="full-size sweeps (slow)")
    parser.add_argument("--quick", action="store_true", help="quick sweeps (default)")
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="seed replicas per point (pooled for tighter CIs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep points"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache completed points in DIR/results.jsonl (resumable sweeps)",
    )
    parser.add_argument(
        "--durability",
        choices=DURABILITY_MODES,
        default="fsync",
        help=(
            "cache write durability: fsync every point (default) or batch "
            "buffered flushes (throughput on many-small-point grids)"
        ),
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-simulate every point past the cache, rewriting its record",
    )
    parser.add_argument(
        "--force-kind",
        dest="force_kinds",
        action="append",
        default=None,
        metavar="KIND",
        choices=sorted(available_kinds()),
        help="re-simulate cached points of this scenario kind only (repeatable)",
    )
    parser.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="record each regenerated figure campaign in this catalog directory",
    )
    parser.add_argument(
        "--fd-scan-interval",
        type=float,
        default=0.0,
        help=(
            "run every point under the batched FD scan with this tick in ms "
            "(the large-n throughput lane); 0 = exact per-pair events"
        ),
    )
    parser.add_argument("--markdown", action="store_true", help="emit markdown tables")
    parser.add_argument("--check", action="store_true", help="also print the shape checks")
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="run instrumented and write one <key>.metrics.json per point to DIR",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="run instrumented and write per-run JSONL + Chrome trace files to DIR",
    )
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")
    args = parser.parse_args(argv)

    quick = not args.full
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]

    store = (
        ResultStore(args.cache_dir, durability=args.durability)
        if args.cache_dir
        else None
    )
    runner = CampaignRunner(
        jobs=args.jobs,
        store=store,
        instrument=args.metrics_out is not None,
        trace_dir=args.trace,
        fd_scan_interval=args.fd_scan_interval,
        force=args.force,
        force_kinds=tuple(args.force_kinds or ()),
    )
    catalog = CampaignCatalog(args.catalog) if args.catalog else None

    sections: List[str] = []
    try:
        for name in names:
            started = time.time()
            result = FIGURES[name](
                quick=quick, seed=args.seed, replicas=args.replicas, runner=runner
            )
            elapsed = time.time() - started
            renderer = format_markdown_table if args.markdown else format_figure
            sections.append(renderer(result))
            stats = ""
            if runner.last_run is not None:
                stats = (
                    f"; {runner.last_run.executed} points simulated, "
                    f"{runner.last_run.cache_hits} from cache"
                )
            sections.append(f"(figure {name} regenerated in {elapsed:.1f} s{stats})")
            if catalog is not None and runner.last_run is not None:
                catalog.record_run(
                    runner.last_run.campaign,
                    runner.last_run,
                    wall_clock_s=elapsed,
                    name=f"figure{name}-{'quick' if quick else 'full'}",
                    store_path=store.path if store is not None else None,
                )
            if args.metrics_out and runner.last_run is not None:
                from repro.obs.export import export_metrics_records

                written = export_metrics_records(runner.last_run.records, args.metrics_out)
                sections.append(
                    f"  wrote {written} metrics snapshots to {args.metrics_out}"
                )
            if args.check:
                checks: Dict[str, bool] = ALL_CHECKS[name](result)
                for key, ok in sorted(checks.items()):
                    sections.append(f"  check {key}: {'PASS' if ok else 'FAIL'}")
            sections.append("")
    finally:
        # The warm pool spans every figure of the invocation; closing the
        # store flushes buffered lines and refreshes the columnar mirror.
        runner.close()
        if store is not None:
            store.close()

    report = "\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
