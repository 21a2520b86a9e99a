"""Command-line entry point: run ad-hoc campaign grids.

Examples::

    python -m repro.campaigns --scenario normal-steady --n 3 7 \\
        --throughputs 10 100 300 --jobs 4 --cache-dir .campaign-cache

    python -m repro.campaigns --scenario suspicion-steady --tmr 100 \\
        --throughputs 10 --seeds 1 2 3 --messages 200

    python -m repro.campaigns --scenario churn --churn-rate 2 --downtime 150 \\
        --detection-time 10 --stack fd --fd qos heartbeat

    python -m repro.campaigns --scenario view-majority-loss \\
        --stack gm gm-reform --reformation-timeout 500

    python -m repro.campaigns --scenario gray --degrade-factor 8 \\
        --link-loss 0.05 --detection-time 10

``--scenario`` takes a registered scenario kind or its shorthand:
``normal-steady`` (``normal``), ``crash-steady`` (``crash``),
``suspicion-steady`` (``suspicion``), ``crash-transient`` (``transient``),
``correlated-crash`` (``correlated``), ``churn-steady`` (``churn``),
``asymmetric-qos`` (``asymmetric``), ``view-majority-loss``
(``majority-loss``), ``service-load`` (``service``), ``partition-transient``
(``partition``), ``wan-steady`` (``wan``) and ``gray-degradation``
(``gray``).  Each kind declares its own axes
(:mod:`repro.scenarios.registry`); the options of the selected kind are
generated from that declaration, ``--help`` lists every kind with its axes,
and an axis given for a kind that does not declare it is an error.

The system-level dimensions apply under *every* kind: ``--stack`` sweeps
protocol stacks from the registry (``fd``, ``gm``, ``gm-nonuniform``,
``gm-reform``, or slash-qualified variants like ``fd/heartbeat``) and
``--fd`` sweeps failure detector kinds (``qos``, ``heartbeat``,
``perfect``) across every stack.  The flags of their params are generated
from the registrations (:mod:`repro.stacks.registry`) -- ``--hb-period``,
``--reformation-timeout``, ``--max-batch`` and the rest -- and a flag no
selected stack or fd kind reads is an error.  For ``service-load``,
``--throughputs`` is the offered-load axis (open loop) unless ``--clients``
selects a closed loop.

*How* a grid runs -- ``--jobs``, ``--cache-dir``, ``--force``,
``--queue-dir`` and the rest -- is the execution options, declared once in
:mod:`repro.campaigns.execution` and shared with ``python -m
repro.experiments``.  Extra workers drain a queue from other machines or
terminals with::

    python -m repro.campaigns --queue-worker --queue-dir DIR
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.campaigns.aggregate import merge_scenario_results, merge_transient_results
from repro.campaigns.execution import (
    add_execution_arguments,
    finish_report,
    metrics_lines,
    open_execution,
)
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.spec import grid
from repro.scenarios.registry import (
    Axis,
    ScenarioKind,
    available_kinds,
    get_kind,
    kind_shorthands,
)
from repro.scenarios.results import TransientResult
from repro.stacks.api import Param, params_of
from repro.stacks.registry import (
    BATCHING,
    DEFAULT_STACKS,
    available_fd_kinds,
    available_stacks,
    get_fd_kind,
    get_stack,
    param_keywords,
    param_owners,
    reads,
    resolve,
)

#: The command-line axis that selects each kind of registration.
_SELECTORS = {"stack": "--stack", "fd kind": "--fd"}


def kind_catalog() -> str:
    """Every registered kind with its shorthand and axes, then every stack and
    fd kind with its params (the ``--help`` epilog)."""
    lines = ["scenario kinds (--scenario NAME or its shorthand) and their axes:"]
    for name in available_kinds():
        kind = get_kind(name)
        lines.append(f"  {kind.name} ({kind.shorthand}): {kind.summary}")
        lines.extend(f"      {axis.flag:<20} {_axis_help(axis)}" for axis in kind.axes if axis.flag)
    lines.append("stacks (--stack NAME or NAME/FD_KIND), fd kinds (--fd NAME) and their params:")
    registrations = [("stack", get_stack(name)) for name in available_stacks()]
    registrations += [("fd kind", get_fd_kind(name)) for name in available_fd_kinds()]
    for axis, registration in registrations + [("layer", BATCHING)]:
        described = (
            f" {param.keyword}={param.default!r}" + (f" ({param.flag})" if param.flag else "")
            for param in params_of(registration.params)
        )
        lines.append(f"  {axis} {registration.name}:" + ("".join(described) or " no params"))
    return "\n".join(lines)


def system_flags() -> List[Param]:
    """Every declared system param with a CLI flag, once per keyword."""
    return [entries[0][2] for entries in param_keywords().values() if entries[0][2].flag]


def _readers(keyword: str) -> str:
    """Where ``keyword`` applies, in command-line spelling."""
    owners = param_owners(keyword)
    return "; ".join(
        f"{_SELECTORS[axis]} {' '.join(names)}" if axis in _SELECTORS else "every stack"
        for axis, names in owners.items()
    )


def _axis_help(axis: Axis) -> str:
    return axis.help if axis.default is None else f"{axis.help} (default: {axis.default})"


def build_parser(kind: ScenarioKind) -> argparse.ArgumentParser:
    """The option parser for a grid of ``kind``: common options plus its axes."""
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=kind_catalog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scenario",
        default="normal-steady",
        choices=sorted(available_kinds()) + sorted(kind_shorthands()),
        help="scenario kind of every point (default: normal-steady)",
    )
    axes = parser.add_argument_group(f"axes of {kind.name}")
    for axis in kind.axes:
        if axis.flag:
            axes.add_argument(
                axis.flag,
                dest=f"axis_{axis.name}",
                metavar=None if axis.choices else axis.name.upper(),
                type=axis.type,
                default=axis.default,
                choices=axis.choices,
                help=_axis_help(axis),
            )
    parser.add_argument(
        "--stack",
        "--stacks",
        dest="stacks",
        nargs="+",
        default=DEFAULT_STACKS,
        help=(
            f"protocol stacks to sweep (default: {' '.join(DEFAULT_STACKS)}); "
            "accepts fd/heartbeat-style variants"
        ),
    )
    parser.add_argument(
        "--fd",
        dest="fd_kinds",
        nargs="+",
        default=(None,),
        help=(
            "failure detector kinds to sweep across every stack "
            "(default: each stack's default kind, qos for the built-ins)"
        ),
    )
    parser.add_argument(
        "--n", nargs="+", type=int, default=[3], help="system sizes to sweep"
    )
    parser.add_argument(
        "--throughputs",
        nargs="+",
        type=float,
        default=[10.0, 100.0],
        help="throughput axis [1/s]",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[1], help="seed replicas per point"
    )
    parser.add_argument(
        "--messages", type=int, default=100, help="measured messages per steady point"
    )
    system = parser.add_argument_group("system params (declared by the stacks and fd kinds)")
    for param in system_flags():
        system.add_argument(
            param.flag,
            dest=param.keyword,
            type=float if param.default is None else type(param.default),
            default=param.default,
            help=f"{param.help} (default: {param.default}; read by {_readers(param.keyword)})",
        )
    parser.add_argument("--name", default="adhoc", help="campaign name")
    parser.add_argument(
        "--queue-worker",
        action="store_true",
        help="act as a fleet worker: drain --queue-dir and exit (no grid needed)",
    )
    add_execution_arguments(parser)
    return parser


def main(argv: List[str] = None) -> int:
    """Build the requested grid, run it and print one line per point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Two passes: the selected kind decides which axis options exist.
    selector = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    selector.add_argument("--scenario", default="normal-steady")
    selected = selector.parse_known_args(argv)[0].scenario
    selected = kind_shorthands().get(selected, selected)
    # An unknown spelling falls through to the full parser's choices error.
    kind = get_kind(selected if selected in available_kinds() else "normal-steady")
    parser = build_parser(kind)
    args, extra = parser.parse_known_args(argv)
    for token in extra:
        flag = token.split("=")[0]
        owners = [
            name
            for name in available_kinds()
            if any(axis.flag == flag for axis in get_kind(name).axes)
        ]
        if owners:
            parser.error(
                f"{flag} is not an axis of {kind.name}; it applies to --scenario "
                + ", ".join(owners)
            )
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))

    if args.queue_worker:
        if not args.queue_dir:
            parser.error("--queue-worker needs --queue-dir")
        worker = QueueWorker(
            WorkQueue(args.queue_dir, lease_ttl=args.lease_ttl), trace_dir=args.trace
        )
        executed = worker.run()
        print(
            f"queue worker {worker.worker_id}: executed {executed} point(s) "
            f"from {args.queue_dir}"
        )
        return 0

    try:
        selected = {
            keyword
            for stack in args.stacks
            for fd_kind in args.fd_kinds
            for keyword in reads(*resolve(stack, fd_kind))
        }
        for param in system_flags():
            if getattr(args, param.keyword) != param.default and param.keyword not in selected:
                parser.error(f"{param.flag} applies to {_readers(param.keyword)}")
        campaign = grid(
            kind.name,
            name=args.name,
            stacks=args.stacks,
            fd_kinds=args.fd_kinds,
            n_values=args.n,
            throughputs=args.throughputs,
            seeds=args.seeds,
            num_messages=args.messages,
            **{param.keyword: getattr(args, param.keyword) for param in system_flags()},
            **{
                axis.name: getattr(args, f"axis_{axis.name}")
                for axis in kind.axes
                if axis.flag
            },
        )
    except ValueError as error:
        parser.error(str(error))

    started = time.time()
    with open_execution(args) as execution:
        run = execution.runner.run(campaign)
        elapsed = time.time() - started
        execution.record(run, elapsed)

    total = run.executed + run.cache_hits
    lines: List[str] = [
        f"campaign {campaign.name!r}: {total} points "
        f"({run.executed} simulated, {run.cache_hits} from cache) in {elapsed:.1f} s"
    ]
    lines.extend(metrics_lines(args, run))
    if args.trace:
        lines.append(f"  trace files in {args.trace}")
    for series in campaign.series:
        lines.append(f"  series: {series.label}")
        for series_point in series.points:
            results = [run.result(point) for point in series_point.points]
            if isinstance(results[0], TransientResult):
                merged = merge_transient_results(results)
            else:
                merged = merge_scenario_results(results)
            lines.append(f"    {merged.describe()}")
    finish_report(args, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
