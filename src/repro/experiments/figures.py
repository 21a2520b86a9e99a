"""The paper's five figures (Figs. 4-8), one :func:`register_figure` block each.

A figure's shape checks encode the paper's *qualitative* findings -- who
wins, by roughly what factor, where the curves join -- rather than absolute
numbers (our substrate is a simulator, not the authors' testbed), and find
their curves through the block's own label format and panels.  Quick mode
uses fewer messages and runs per point so that the five figures finish on a
laptop; full mode is closer to the paper's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from repro.campaigns import aggregate
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import (
    CampaignSpec, PointSpec, SeriesPointSpec, SeriesSpec, replicate_seeds,
)
from repro.experiments.series import FigureResult, Series
from repro.scenarios.faults import crashed_processes

STACKS = ("fd", "gm")
#: The system sizes of Figs. 4, 5 and 8.
N_VALUES = (3, 7)


class Curve(NamedTuple):
    """One declared curve of a figure's grid."""

    #: The curve's params; with its stack they make its label.
    params: Dict[str, Any]
    #: The :class:`PointSpec` field the x axis sweeps, and its values.
    x_field: str
    xs: Sequence[float]
    #: Every other :class:`PointSpec` field but the seed (``kind``, ``stack``, ...).
    point: Dict[str, Any]


@dataclass
class Figure:
    """One figure of the paper: its text, its grid and its shape checks."""

    number: str
    title: str
    #: The expected shape, printed under the table.
    note: str
    #: ``label(algorithm=..., **curve params)`` -> the curve's label.
    label: Callable[..., str]
    #: ``curves(quick, **grid)`` -> the grid; its keywords are the figure's.
    curves: Callable[..., Iterable[Curve]]
    #: ``checks(figure, result, **options)`` -> ``{check name: passed}``.
    checks: Callable[..., Dict[str, bool]]
    x_label: str = "throughput [1/s]"
    y_label: str = "min latency [ms]"

    def curve(self, result: FigureResult, stack: str, **params: Any) -> Optional[Series]:
        """The curve of ``stack`` with ``params`` in ``result``, if present."""
        return result.get_series(self.label(algorithm=algorithm_label(stack), **params))

    def build_campaign(
        self, quick: bool = True, seed: int = 1, replicas: int = 1, **grid: Any
    ) -> CampaignSpec:
        """Declare the figure's grid as a campaign, one point per seed replica."""
        seeds = replicate_seeds(seed, replicas)
        campaign = CampaignSpec(name=f"figure{self.number}")
        for curve in self.curves(quick, **grid):
            label = self.label(algorithm=algorithm_label(curve.point["stack"]), **curve.params)
            series = SeriesSpec(label=label, params=curve.params)
            for x in curve.xs:
                points = [
                    PointSpec(seed=point_seed, **{curve.x_field: x}, **curve.point)
                    for point_seed in seeds
                ]
                series.points.append(SeriesPointSpec(x=x, points=points))
            campaign.add_series(series)
        return campaign

    def run(self, *, runner: Optional[CampaignRunner] = None, **grid: Any) -> FigureResult:
        """Regenerate the figure (serially without a ``runner``)."""
        campaign = self.build_campaign(**grid)
        runner = runner or CampaignRunner()
        result = aggregate.figure_from_campaign(
            campaign, runner.run(campaign), figure=self.number,
            title=self.title, x_label=self.x_label, y_label=self.y_label,
        )
        result.notes.append(f"Expected shape: {self.note}")
        return result

    def check(self, result: FigureResult, **options: Any) -> Dict[str, bool]:
        """Evaluate the figure's shape checks on ``result``."""
        return self.checks(self, result, **options)


#: Figure number -> figure, in registration order.
FIGURES: Dict[str, Figure] = {}


def register_figure(figure: Figure) -> None:
    """Add a figure to :data:`FIGURES` (the CLI and the shape checks iterate it)."""
    FIGURES[figure.number] = figure


def algorithm_label(stack: str) -> str:
    """Human-readable label of a stack identifier (``fd/heartbeat`` style too)."""
    labels = {"fd": "FD", "gm": "GM", "gm-nonuniform": "GM (non-uniform)"}
    base, _, fd_kind = stack.partition("/")
    label = labels.get(base, base)
    return f"{label} ({fd_kind} FD)" if fd_kind else label


def _sweep(
    given: Optional[Iterable[float]],
    quick: bool,
    quick_values: Sequence[float],
    full_values: Sequence[float],
) -> List[float]:
    return list(given) if given is not None else list(quick_values if quick else full_values)


def _throughputs(n: int, quick: bool, xs: Optional[Iterable[float]]) -> List[float]:
    """The throughput sweep (1/s) of Figs. 4, 5 and 8: ``xs``, or up to about
    the saturation throughput (about 700/s at n = 3 and a little less at n = 7)."""
    if n <= 3:
        return _sweep(xs, quick, (10, 100, 300, 500), (10, 50, 100, 200, 300, 400, 500, 600, 700))
    return _sweep(xs, quick, (10, 100, 300), (10, 50, 100, 200, 300, 400, 500, 600))


def _mean_ratio(a: Series, b: Series) -> float:
    """Mean of the pointwise ratio a/b over x values present in both series."""
    ratios = []
    for point in a.points:
        other = b.point_at(point.x)
        if other is None or not point.completed or not other.completed:
            continue
        if other.mean > 0:
            ratios.append(point.mean / other.mean)
    if not ratios:
        return float("nan")
    return sum(ratios) / len(ratios)


def _growth(series: Series) -> float:
    """Ratio of the last completed point to the first completed point."""
    completed = [p for p in series.points if p.completed and p.mean > 0]
    if len(completed) < 2:
        return float("nan")
    return completed[-1].mean / completed[0].mean


def _panel_key(n: int, throughput: float) -> str:
    return f"n{n}_T{throughput:g}"


# ------------------------------------------------------------------ Figure 4


def _figure4_curves(
    quick: bool,
    n_values: Iterable[int] = N_VALUES,
    stacks: Iterable[str] = STACKS,
    throughputs: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
) -> Iterator[Curve]:
    messages = num_messages or (150 if quick else 600)
    for n in n_values:
        for stack in stacks:
            point = {"kind": "normal-steady", "stack": stack, "n": n, "num_messages": messages}
            yield Curve({"n": n}, "throughput", _throughputs(n, quick, throughputs), point)


def _check_figure4(figure: Figure, result: FigureResult) -> Dict[str, bool]:
    """The paper: with neither crashes nor suspicions the two algorithms perform
    *the same* (they exchange the same messages); latency grows with the
    throughput and with n, and the system saturates around 700/s at λ = 1."""
    checks: Dict[str, bool] = {}
    for n in N_VALUES:
        fd, gm = figure.curve(result, "fd", n=n), figure.curve(result, "gm", n=n)
        if fd is None or gm is None:
            continue
        checks[f"fd_equals_gm_n{n}"] = abs(_mean_ratio(fd, gm) - 1.0) <= 0.05
        means = [p.mean for p in fd.points if p.completed]
        checks[f"latency_increases_with_T_n{n}"] = len(means) >= 2 and means[-1] > means[0]
    small, large = N_VALUES
    fd_small, fd_large = figure.curve(result, "fd", n=small), figure.curve(result, "fd", n=large)
    if fd_small is not None and fd_large is not None:
        checks[f"n{large}_slower_than_n{small}"] = _mean_ratio(fd_large, fd_small) > 1.0
    return checks


register_figure(
    Figure(
        number="4",
        title="Latency vs throughput, normal-steady scenario",
        note=(
            "the FD and GM curves coincide for each n; latency grows with the "
            "throughput and with n."
        ),
        label="{algorithm}, n={n}".format,
        curves=_figure4_curves,
        checks=_check_figure4,
    )
)


# ------------------------------------------------------------------ Figure 5

#: Crash counts plotted per system size.  Following the paper, the crashed
#: processes are the highest-numbered, non-coordinator ones (the coordinator
#: re-numbering optimisation makes the steady state independent of which).
CRASH_COUNTS = {3: (0, 1), 7: (0, 1, 2, 3)}


def _figure5_label(algorithm: str, n: int, crashes: int) -> str:
    if crashes == 0:
        return f"FD and GM, no crash, n={n}"
    return f"{algorithm}, {crashes} crash(es), n={n}"


def _figure5_curves(
    quick: bool,
    n_values: Iterable[int] = N_VALUES,
    stacks: Iterable[str] = STACKS,
    throughputs: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
) -> Iterator[Curve]:
    # The no-crash curve is Figure 4's normal-steady scenario.  In quick mode
    # both figures measure 150 messages, so those points are Figure 4's and
    # come from a shared result store; in full mode (500 vs 600) they differ.
    messages = num_messages or (150 if quick else 500)
    for n in n_values:
        for crashes in CRASH_COUNTS.get(n, (0, 1)):
            scenario = (
                {"kind": "crash-steady", "crashed": crashed_processes(n, crashes)}
                if crashes
                else {"kind": "normal-steady"}
            )
            for stack in stacks:
                if crashes == 0 and stack != "fd":
                    # With no crash the two algorithms coincide (Fig. 4); the
                    # paper plots a single "FD and GM" curve.
                    continue
                point = dict(scenario, stack=stack, n=n, num_messages=messages)
                params = {"n": n, "crashes": crashes}
                yield Curve(params, "throughput", _throughputs(n, quick, throughputs), point)


def _check_figure5(figure: Figure, result: FigureResult) -> Dict[str, bool]:
    """The paper: latency decreases as more processes crash (crashed processes
    stop loading the network); for the same number of crashes GM is slightly
    better than FD, because its sequencer waits for acknowledgements from a
    majority of a *smaller* view."""
    checks: Dict[str, bool] = {}
    for n in N_VALUES:
        base = figure.curve(result, "fd", n=n, crashes=0)
        fd1 = figure.curve(result, "fd", n=n, crashes=1)
        gm1 = figure.curve(result, "gm", n=n, crashes=1)
        if base is None or fd1 is None or gm1 is None:
            continue
        checks[f"crash_reduces_latency_n{n}"] = (
            _mean_ratio(fd1, base) < 1.05 and _mean_ratio(gm1, base) < 1.05
        )
        checks[f"gm_not_worse_than_fd_n{n}"] = _mean_ratio(gm1, fd1) <= 1.05
    n = N_VALUES[-1]
    most = CRASH_COUNTS[n][-1]
    fd1 = figure.curve(result, "fd", n=n, crashes=1)
    fd_most = figure.curve(result, "fd", n=n, crashes=most)
    gm_most = figure.curve(result, "gm", n=n, crashes=most)
    if fd_most is not None and fd1 is not None:
        checks[f"more_crashes_lower_latency_n{n}"] = _mean_ratio(fd_most, fd1) < 1.0
    if fd_most is not None and gm_most is not None:
        checks[f"gm_beats_fd_with_{most}_crashes_n{n}"] = _mean_ratio(gm_most, fd_most) < 1.0
    return checks


register_figure(
    Figure(
        number="5",
        title="Latency vs throughput, crash-steady scenario",
        note=(
            "latency decreases as more processes crash; for the same number of crashes "
            "the GM curve is at or below the FD curve (the gap grows with n)."
        ),
        label=_figure5_label,
        curves=_figure5_curves,
        checks=_check_figure5,
    )
)


# ------------------------------------------------------------------ Figure 6

#: (n, throughput in 1/s).
FIGURE6_PANELS = ((3, 10.0), (7, 10.0), (3, 300.0), (7, 300.0))


def _figure6_curves(
    quick: bool,
    panels: Iterable[Any] = FIGURE6_PANELS,
    stacks: Iterable[str] = STACKS,
    tmr_values: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
) -> Iterator[Curve]:
    messages = num_messages or (80 if quick else 300)
    sweep = _sweep(
        tmr_values, quick, (10.0, 100.0, 1000.0, 10000.0),
        (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0),
    )
    for n, throughput in panels:
        for stack in stacks:
            point = {
                "kind": "suspicion-steady", "stack": stack, "n": n, "throughput": throughput,
                "num_messages": messages, "mistake_duration": 0.0,
            }
            yield Curve({"n": n, "throughput": throughput}, "mistake_recurrence_time", sweep, point)


def _check_figure6(
    figure: Figure, result: FigureResult, small_tmr: float = 10.0
) -> Dict[str, bool]:
    """The paper: GM is very sensitive to wrong suspicions -- at n = 3 and
    T = 10/s it only works for T_MR >= 50 ms while FD still works at 10 ms --
    while FD degrades only mildly, and the curves of the two algorithms only
    join for very large T_MR (>= 5000 ms).  ``gm_much_worse_at_small_tmr_*``
    reads ``small_tmr`` and, where the curve has it, T_MR = 100 ms: there FD
    must complete and be no slower than GM."""
    mid_tmr, large_tmr = 100.0, 10000.0
    checks: Dict[str, bool] = {}
    for n, throughput in FIGURE6_PANELS:
        fd = figure.curve(result, "fd", n=n, throughput=throughput)
        gm = figure.curve(result, "gm", n=n, throughput=throughput)
        if fd is None or gm is None:
            continue
        key = _panel_key(n, throughput)
        fd_small, gm_small = fd.point_at(small_tmr), gm.point_at(small_tmr)
        if fd_small is not None and gm_small is not None:
            passed = (not gm_small.completed) or (
                fd_small.completed and gm_small.mean > 1.5 * fd_small.mean
            )
            fd_mid, gm_mid = fd.point_at(mid_tmr), gm.point_at(mid_tmr)
            if fd_mid is not None and gm_mid is not None:
                passed = passed and fd_mid.completed and (
                    not gm_mid.completed or fd_mid.mean <= gm_mid.mean
                )
            checks[f"gm_much_worse_at_small_tmr_{key}"] = passed
        fd_large, gm_large = fd.point_at(large_tmr), gm.point_at(large_tmr)
        if fd_large is not None and gm_large is not None:
            if fd_large.completed and gm_large.completed:
                checks[f"curves_join_at_large_tmr_{key}"] = gm_large.mean <= 1.25 * fd_large.mean
    return checks


register_figure(
    Figure(
        number="6",
        title="Latency vs mistake recurrence time T_MR (T_M = 0), suspicion-steady",
        x_label="mistake recurrence time T_MR [ms]",
        note=(
            "per the paper, GM latency explodes (or the point does not complete) at "
            "small T_MR while FD degrades only mildly; the curves join at very large "
            "T_MR.  Reliable broadcast here is one multicast with no relay on "
            "suspicion: a relay of a wrongly suspected origin's messages never "
            "delivered anything and made FD's latency grow with run length at "
            "T = 300/s (EXPERIMENTS.md, FD under frequent wrong suspicions)."
        ),
        label="{algorithm}, n={n}, T={throughput:g}/s".format,
        curves=_figure6_curves,
        checks=_check_figure6,
    )
)


# ------------------------------------------------------------------ Figure 7

#: (n, throughput in 1/s, T_MR in ms): the paper's T_MR choices, picked so
#: that the two algorithms are close but not equal at T_M = 0.
FIGURE7_PANELS = (
    (3, 10.0, 1000.0),
    (7, 10.0, 10000.0),
    (3, 300.0, 10000.0),
    (7, 300.0, 100000.0),
)


def _figure7_curves(
    quick: bool,
    panels: Iterable[Any] = FIGURE7_PANELS,
    stacks: Iterable[str] = STACKS,
    tm_values: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
) -> Iterator[Curve]:
    messages = num_messages or (80 if quick else 300)
    sweep = _sweep(
        tm_values, quick, (1.0, 10.0, 100.0, 1000.0), (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
    )
    for n, throughput, tmr in panels:
        for stack in stacks:
            point = {
                "kind": "suspicion-steady", "stack": stack, "n": n, "throughput": throughput,
                "num_messages": messages, "mistake_recurrence_time": tmr,
            }
            params = {"n": n, "throughput": throughput, "tmr": tmr}
            yield Curve(params, "mistake_duration", sweep, point)


def _check_figure7(figure: Figure, result: FigureResult) -> Dict[str, bool]:
    """The paper: GM is sensitive to the mistake *duration* as well (wrongly
    suspected processes are excluded and have to rejoin), while FD barely
    reacts to it."""
    checks: Dict[str, bool] = {}
    for n, throughput, tmr in FIGURE7_PANELS:
        fd = figure.curve(result, "fd", n=n, throughput=throughput, tmr=tmr)
        gm = figure.curve(result, "gm", n=n, throughput=throughput, tmr=tmr)
        if fd is None or gm is None:
            continue
        fd_growth, gm_growth = _growth(fd), _growth(gm)
        if not math.isnan(fd_growth) and not math.isnan(gm_growth):
            checks[f"gm_more_sensitive_to_tm_{_panel_key(n, throughput)}"] = gm_growth > fd_growth
    return checks


register_figure(
    Figure(
        number="7",
        title="Latency vs mistake duration T_M (T_MR fixed), suspicion-steady",
        x_label="mistake duration T_M [ms]",
        note=(
            "GM latency grows with T_M much faster than FD latency (exclusions "
            "followed by costly rejoins)."
        ),
        label="{algorithm}, n={n}, T={throughput:g}/s, T_MR={tmr:g}ms".format,
        curves=_figure7_curves,
        checks=_check_figure7,
    )
)


# ------------------------------------------------------------------ Figure 8


def _figure8_curves(
    quick: bool,
    n_values: Iterable[int] = N_VALUES,
    stacks: Iterable[str] = STACKS,
    detection_times: Iterable[float] = (0.0, 10.0, 100.0),
    throughputs: Optional[Iterable[float]] = None,
    num_runs: Optional[int] = None,
) -> Iterator[Curve]:
    # p1 crashes: the round-1 coordinator of FD and the sequencer of GM, the
    # worst case.  A point measures the message A-broadcast at the crash.
    runs = num_runs or (8 if quick else 30)
    for n in n_values:
        for stack in stacks:
            for detection_time in detection_times:
                point = {
                    "kind": "crash-transient", "stack": stack, "n": n, "num_runs": runs,
                    "detection_time": detection_time, "crashed_process": 0,
                }
                params = {"n": n, "detection_time": detection_time}
                yield Curve(params, "throughput", _throughputs(n, quick, throughputs), point)


def _check_figure8(figure: Figure, result: FigureResult) -> Dict[str, bool]:
    """The paper: both algorithms behave reasonably after the crash -- the
    latency overhead (latency minus T_D) is a small multiple of the
    normal-steady latency -- and FD outperforms GM."""
    checks: Dict[str, bool] = {}
    for n in N_VALUES:
        fd0 = figure.curve(result, "fd", n=n, detection_time=0.0)
        gm0 = figure.curve(result, "gm", n=n, detection_time=0.0)
        if fd0 is None or gm0 is None:
            continue
        checks[f"fd_not_worse_than_gm_td0_n{n}"] = _mean_ratio(fd0, gm0) <= 1.1
        if fd0.points and gm0.points:
            checks[f"fd_wins_at_low_T_n{n}"] = fd0.points[0].mean <= gm0.points[0].mean * 1.05
        completed = [p.mean for p in fd0.points + gm0.points if p.completed]
        if completed:
            checks[f"overhead_moderate_n{n}"] = max(completed) < 400.0
    return checks


register_figure(
    Figure(
        number="8",
        title="Latency overhead vs throughput after the crash of p1 (crash-transient)",
        y_label="min latency - T_D [ms]",
        note=(
            "the overhead of both algorithms is a small multiple of the normal-steady "
            "latency; the FD algorithm is at or below the GM algorithm (clearest at "
            "low throughput and for T_D = 0)."
        ),
        label="{algorithm}, n={n}, T_D={detection_time:g}ms".format,
        curves=_figure8_curves,
        checks=_check_figure8,
    )
)
