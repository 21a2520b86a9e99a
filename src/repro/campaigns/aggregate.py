"""Fold campaign records back into the experiment result containers.

The figures (:mod:`repro.experiments.figures`) declare *what* to simulate
(a :class:`CampaignSpec`); this module turns the runner's records back into
the ``Series`` / ``FigureResult`` containers the report layer renders.
Multi-seed replicas of an x position are pooled (latencies concatenated in
seed order) before summarising, which tightens the confidence intervals
without any figure-level code.

It also hosts the *cross-campaign* query path: :func:`load_store_table`
loads a whole result store as columns -- through the columnar mirror when it
is fresh, rebuilding it from the JSONL otherwise -- and
:func:`cross_campaign_summary` aggregates grouped statistics across any
number of stores without materialising one dict per record.  Only that path
loads the store and its mirror, so a figure built from a run does not.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.campaigns.runner import CampaignRun
from repro.campaigns.spec import CampaignSpec, SeriesSpec
from repro.experiments.series import FigurePoint, FigureResult, Series
from repro.scenarios.results import ScenarioResult, TransientResult

if TYPE_CHECKING:
    from repro.campaigns.columnar import ColumnarTable


def merge_scenario_results(results: Sequence[ScenarioResult]) -> ScenarioResult:
    """Pool steady-state replicas of one operating point into one result."""
    first = results[0]
    if len(results) == 1:
        return first
    merged = ScenarioResult(
        scenario=first.scenario,
        algorithm=first.algorithm,
        n=first.n,
        throughput=first.throughput,
        params=dict(first.params, replicas=len(results)),
    )
    for result in results:
        merged.latencies.extend(result.latencies)
        merged.undelivered += result.undelivered
        merged.measured += result.measured
        merged.duration = max(merged.duration, result.duration)
        merged.events += result.events
    return merged


def merge_transient_results(results: Sequence[TransientResult]) -> TransientResult:
    """Pool crash-transient replicas of one operating point into one result."""
    first = results[0]
    if len(results) == 1:
        return first
    merged = TransientResult(
        algorithm=first.algorithm,
        n=first.n,
        throughput=first.throughput,
        detection_time=first.detection_time,
        crashed_process=first.crashed_process,
        sender=first.sender,
        params=dict(first.params, replicas=len(results)),
    )
    for result in results:
        merged.latencies.extend(result.latencies)
        merged.failed_runs += result.failed_runs
    return merged


def point_from_scenario(x: float, result: ScenarioResult) -> FigurePoint:
    """Convert a steady-state scenario result into a figure point."""
    summary = result.summary()
    return FigurePoint(
        x=x,
        mean=summary.mean,
        ci=summary.ci_halfwidth if summary.count > 1 else 0.0,
        samples=summary.count,
        completed=result.completed,
    )


def point_from_transient(x: float, result: TransientResult) -> FigurePoint:
    """Convert a crash-transient result into a figure point.

    The latency is the paper's Fig. 8 *overhead*: latency minus the
    detection time.
    """
    summary = result.overhead_summary()
    return FigurePoint(
        x=x,
        mean=summary.mean,
        ci=summary.ci_halfwidth if summary.count > 1 else 0.0,
        samples=summary.count,
        completed=result.runs > 0,
    )


def series_from_spec(spec: SeriesSpec, run: CampaignRun) -> Series:
    """Build the plotted curve of one declared series from a campaign run."""
    series = Series(label=spec.label, params=dict(spec.params))
    for series_point in spec.points:
        results = [run.result(point) for point in series_point.points]
        if isinstance(results[0], TransientResult):
            merged = merge_transient_results(results)
            series.add(point_from_transient(series_point.x, merged))
        else:
            series.add(point_from_scenario(series_point.x, merge_scenario_results(results)))
    return series


def figure_from_campaign(
    campaign: CampaignSpec,
    run: CampaignRun,
    *,
    figure: str,
    title: str,
    x_label: str,
    y_label: str,
) -> FigureResult:
    """Assemble a ``FigureResult`` from a campaign and its run."""
    result = FigureResult(figure=figure, title=title, x_label=x_label, y_label=y_label)
    for spec in campaign.series:
        result.add_series(series_from_spec(spec, run))
    return result


# ---------------------------------------------------------------- cross-campaign


def _empty_table() -> ColumnarTable:
    from repro.campaigns import columnar

    return columnar.ColumnarTable(
        count=0,
        keys=[],
        strings={name: (array("i"), []) for name in columnar.STRING_COLUMNS},
        numbers={
            name: array("q") for name in columnar.INT_COLUMNS
        } | {name: array("d") for name in columnar.FLOAT_COLUMNS},
        latency_offsets=array("Q", [0]),
        latency_values=array("d"),
    )


def load_store_table(directory: str, filename: str = "results.jsonl") -> ColumnarTable:
    """Load a result store as columns, via the mirror when it is fresh.

    The fast path reads the columnar mirror (the packed-binary ``.rcol``)
    in a handful of bulk ``frombytes`` calls.  When the mirror is missing or
    describes another state of the JSONL -- e.g. a
    store still being appended to by a live campaign -- the JSONL is streamed
    through the mirror writer, one parsed record at a time, so the *next*
    aggregation over the same store is columnar again.
    """
    from repro.campaigns import columnar
    from repro.campaigns.store import ResultStore

    jsonl_path = os.path.join(directory, filename)
    fresh = columnar.fresh_mirror_path(jsonl_path)
    if fresh is not None:
        try:
            return columnar.read_mirror(fresh)
        except (OSError, ValueError):
            pass  # torn/foreign mirror: fall through to the JSONL truth
    if os.path.exists(jsonl_path):
        with ResultStore(directory, filename, mirror=False) as store:
            mirror_path = store.sync_mirror()
        if mirror_path is not None:
            return columnar.read_mirror(mirror_path)
    return _empty_table()


def cross_campaign_summary(
    directories: Sequence[str],
    *,
    group_by: Sequence[str] = ("kind", "stack", "n", "throughput"),
    percentiles: Sequence[float] = (),
) -> List[Dict[str, Any]]:
    """Grouped statistics over every record of several result stores.

    Groups rows by the given columns (string or numeric mirror columns) and
    returns one dict per group with pooled counters, the pooled mean latency
    and -- when ``percentiles`` is non-empty -- pooled latency percentiles.
    Operates column-at-a-time over the mirrors, which is what makes
    10^5-record cross-campaign queries interactive.
    """
    groups: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for directory in directories:
        table = load_store_table(directory)
        if table.count == 0:
            continue
        columns: List[Sequence[Any]] = []
        for name in group_by:
            if name in table.strings:
                columns.append(table.string_column(name))
            elif name in table.numbers:
                columns.append(table.numbers[name])
            else:
                raise KeyError(f"unknown mirror column {name!r}")
        measured = table.numbers["measured"]
        undelivered = table.numbers["undelivered"]
        failed_runs = table.numbers["failed_runs"]
        latency_sum = table.numbers["latency_sum"]
        offsets = table.latency_offsets
        for index in range(table.count):
            group_key = tuple(column[index] for column in columns)
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = {
                    **{name: value for name, value in zip(group_by, group_key)},
                    "records": 0,
                    "latency_count": 0,
                    "latency_sum": 0.0,
                    "measured": 0,
                    "undelivered": 0,
                    "failed_runs": 0,
                }
                if percentiles:
                    group["_latencies"] = array("d")
            group["records"] += 1
            group["latency_count"] += offsets[index + 1] - offsets[index]
            group["latency_sum"] += latency_sum[index]
            group["measured"] += measured[index]
            group["undelivered"] += undelivered[index]
            group["failed_runs"] += failed_runs[index]
            if percentiles:
                group["_latencies"].extend(table.latencies(index))

    summaries: List[Dict[str, Any]] = []
    for group_key in sorted(groups, key=lambda value: tuple(map(str, value))):
        group = groups[group_key]
        count = group["latency_count"]
        group["mean_latency"] = group["latency_sum"] / count if count else float("nan")
        pooled = group.pop("_latencies", None)
        if percentiles and pooled is not None:
            ordered = sorted(pooled)
            for quantile in percentiles:
                label = f"p{quantile * 100:g}".replace(".", "_")
                if not ordered:
                    group[label] = float("nan")
                else:
                    position = min(
                        len(ordered) - 1, max(0, round(quantile * (len(ordered) - 1)))
                    )
                    group[label] = ordered[position]
        summaries.append(group)
    return summaries
