"""The execution front-end both command lines share, declared once.

``python -m repro.campaigns`` and ``python -m repro.experiments`` differ in
*what* they run (an ad-hoc grid; the paper's figures) and agree on *how*:
worker processes, the result cache and its durability, forced re-execution,
the shared-directory work queue, instrumented output and the report file.
This module owns that half -- the options (:func:`add_execution_arguments`),
the runner they configure and the order it and its store are opened and
closed in (:func:`open_execution`), and what a finished run writes
(:func:`metrics_lines`, :func:`finish_report`) -- so an execution option is
added in one place and reaches both.
"""

from __future__ import annotations

import argparse
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List

from repro.campaigns.runner import CampaignRun, CampaignRunner
from repro.campaigns.store import DURABILITY_MODES, ResultStore
from repro.scenarios.registry import available_kinds


@lru_cache(maxsize=None)
def positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse ``type``: ``cast(text)`` when it is > 0, else a usage error.

    One parser per ``cast``, so both command lines declare the same type.
    """

    def parse(text: str) -> float:
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in its errors
    return parse


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the execution options on ``parser``."""
    parser.add_argument("--jobs", type=positive(int), default=1, help="worker processes")
    parser.add_argument("--cache-dir", default=None, help="JSONL result cache directory")
    parser.add_argument(
        "--durability",
        choices=DURABILITY_MODES,
        default="fsync",
        help=(
            "cache write durability: fsync every point (default, resumable "
            "to the last point) or batch buffered flushes (throughput)"
        ),
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-execute every point past the cache, rewriting its record",
    )
    parser.add_argument(
        "--force-kind",
        dest="force_kinds",
        action="append",
        default=None,
        metavar="KIND",
        choices=sorted(available_kinds()),
        help="re-execute cached points of this scenario kind only (repeatable)",
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="distribute the grid through a shared-directory work queue",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive(float),
        default=300.0,
        help="seconds before a crashed worker's queue lease is reclaimed",
    )
    parser.add_argument(
        "--queue-timeout",
        type=positive(float),
        default=None,
        help="give up waiting for outstanding queue results after this many seconds (unset = wait)",
    )
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
        help=(
            "run instrumented and write per-run JSONL + Chrome trace files "
            "to DIR (can be combined with --metrics-out)"
        ),
    )
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")


@contextmanager
def open_execution(args: argparse.Namespace) -> Iterator[CampaignRunner]:
    """Open store, queue and runner as ``args`` ask; close them on exit.

    On exit -- an error included -- the runner releases its warm pool, then
    the store closes, which flushes buffered lines and refreshes the columnar
    mirror.  The work queue's module loads only under ``--queue-dir``.
    """
    with ExitStack() as stack:  # unwinds in reverse: runner, then store
        store = queue = None
        if args.cache_dir:
            store = stack.enter_context(ResultStore(args.cache_dir, durability=args.durability))
        if args.queue_dir:
            from repro.campaigns.queue import WorkQueue

            queue = WorkQueue(
                args.queue_dir, lease_ttl=args.lease_ttl, queue_timeout=args.queue_timeout
            )
        runner = stack.enter_context(
            CampaignRunner(
                jobs=args.jobs,
                store=store,
                instrument=args.metrics_out is not None,
                trace_dir=args.trace,
                force=args.force,
                force_kinds=tuple(args.force_kinds or ()),
                queue=queue,
            )
        )
        yield runner


def metrics_lines(args: argparse.Namespace, run: CampaignRun) -> List[str]:
    """Write ``run``'s snapshots under ``--metrics-out``; the report line saying so."""
    if not args.metrics_out:
        return []
    from repro.obs.export import export_metrics_records

    written = export_metrics_records(run.records, args.metrics_out)
    return [f"  wrote {written} metrics snapshots to {args.metrics_out}"]


def finish_report(args: argparse.Namespace, lines: List[str]) -> None:
    """Print the report and, under ``-o``, write it to the file as well."""
    report = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    print(report)
