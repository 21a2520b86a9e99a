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

``--queue-dir DIR`` distributes the missing points of each figure through
the shared-directory work queue (the full-size ``--replicas 10`` recipe);
extra workers join from other terminals or machines with
``python -m repro.campaigns --queue-worker --queue-dir DIR``.

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
from typing import List

from repro.campaigns.execution import (
    add_execution_arguments,
    finish_report,
    metrics_lines,
    open_execution,
    positive,
)
from repro.experiments.figures import FIGURES
from repro.experiments.report import format_figure, format_markdown_table


def build_parser() -> argparse.ArgumentParser:
    """The figure options plus the shared execution options."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        default="all",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to regenerate (default: all)",
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--full", action="store_true", help="full-size sweeps (slow)")
    size.add_argument("--quick", action="store_true", help="quick sweeps (default)")
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
    parser.add_argument(
        "--replicas",
        type=positive(int),
        default=1,
        help="seed replicas per point (pooled for tighter CIs)",
    )
    parser.add_argument("--markdown", action="store_true", help="emit markdown tables")
    parser.add_argument("--check", action="store_true", help="also print the shape checks")
    add_execution_arguments(parser)
    return parser


def main(argv: List[str] = None) -> int:
    """Run the requested figure experiments and print/write the tables."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if any(arg == "--scenario" or arg.startswith("--scenario=") for arg in argv):
        # Scenario grids (including the beyond-paper fault-schedule
        # scenarios) are campaign runs: hand the full command line to the
        # campaign CLI, which declares the same execution options.
        from repro.campaigns.__main__ import main as campaign_main

        return campaign_main(argv)
    args = build_parser().parse_args(argv)

    quick = not args.full
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]

    sections: List[str] = []
    # One runner -- and so one warm pool -- spans every figure of the invocation.
    with open_execution(args) as runner:
        for name in names:
            figure = FIGURES[name]
            started = time.perf_counter()
            result = figure.run(quick=quick, seed=args.seed, replicas=args.replicas, runner=runner)
            elapsed = time.perf_counter() - started
            renderer = format_markdown_table if args.markdown else format_figure
            sections.append(renderer(result))
            run = runner.last_run
            sections.append(
                f"(figure {name} regenerated in {elapsed:.1f} s; "
                f"{run.executed} points simulated, {run.cache_hits} from cache)"
            )
            sections.extend(metrics_lines(args, run))
            if args.check:
                for key, ok in sorted(figure.check(result).items()):
                    sections.append(f"  check {key}: {'PASS' if ok else 'FAIL'}")
            sections.append("")
    finish_report(args, sections)
    return 0


if __name__ == "__main__":
    sys.exit(main())
