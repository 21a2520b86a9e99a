"""Figure 6: latency vs mistake recurrence time T_MR (suspicion-steady, T_M = 0).

Four panels: (n, throughput) in {3, 7} x {10/s, 300/s}.  The paper's result:
the GM algorithm is very sensitive to wrong suspicions -- at n = 3 and
T = 10/s it only works for T_MR >= 50 ms whereas the FD algorithm still
works at T_MR = 10 ms; the curves of the two algorithms only join for very
large T_MR (>= 5000 ms).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.campaigns.aggregate import run_campaign_figure
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec, PointSpec, SeriesPointSpec, SeriesSpec, replicate_seeds
from repro.experiments.helpers import algorithm_label
from repro.experiments.series import FigureResult

QUICK_MESSAGES = 80
FULL_MESSAGES = 300

#: The four panels of the figure: (n, throughput in 1/s).
PANELS: Tuple[Tuple[int, float], ...] = ((3, 10.0), (7, 10.0), (3, 300.0), (7, 300.0))

QUICK_TMR_VALUES = (10.0, 100.0, 1000.0, 10000.0)
FULL_TMR_VALUES = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0)


def build_campaign(
    quick: bool = True,
    seed: int = 1,
    panels: Iterable[Tuple[int, float]] = PANELS,
    stacks: Iterable[str] = ("fd", "gm"),
    tmr_values: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
    replicas: int = 1,
) -> CampaignSpec:
    """Declare the Figure 6 grid as a campaign."""
    messages = num_messages or (QUICK_MESSAGES if quick else FULL_MESSAGES)
    sweep = list(tmr_values) if tmr_values is not None else list(
        QUICK_TMR_VALUES if quick else FULL_TMR_VALUES
    )
    seeds = replicate_seeds(seed, replicas)
    campaign = CampaignSpec(name="figure6", description="latency vs T_MR, suspicion-steady")
    for n, throughput in panels:
        for stack in stacks:
            series = SeriesSpec(
                label=f"{algorithm_label(stack)}, n={n}, T={throughput:g}/s",
                params={"n": n, "throughput": throughput},
            )
            for tmr in sweep:
                series.points.append(
                    SeriesPointSpec(
                        x=tmr,
                        points=[
                            PointSpec(
                                kind="suspicion-steady",
                                stack=stack,
                                n=n,
                                seed=point_seed,
                                throughput=throughput,
                                num_messages=messages,
                                mistake_recurrence_time=tmr,
                                mistake_duration=0.0,
                            )
                            for point_seed in seeds
                        ],
                    )
                )
            campaign.add_series(series)
    return campaign


def run(*, runner: Optional[CampaignRunner] = None, **grid) -> FigureResult:
    """Regenerate Figure 6; ``grid`` takes :func:`build_campaign`'s keywords."""
    return run_campaign_figure(
        build_campaign(**grid),
        runner,
        figure="6",
        title="Latency vs mistake recurrence time T_MR (T_M = 0), suspicion-steady",
        x_label="mistake recurrence time T_MR [ms]",
        y_label="min latency [ms]",
        note=(
            "Expected shape: GM latency explodes (or the point does not complete) "
            "at small T_MR while FD degrades only mildly; the curves join at very "
            "large T_MR."
        ),
    )
