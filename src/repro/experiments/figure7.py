"""Figure 7: latency vs mistake duration T_M (suspicion-steady, T_MR fixed).

Four panels with the paper's T_MR choices (picked so that the two algorithms
are close but not equal at T_M = 0):

* n = 3, T = 10/s,  T_MR = 1 000 ms
* n = 7, T = 10/s,  T_MR = 10 000 ms
* n = 3, T = 300/s, T_MR = 10 000 ms
* n = 7, T = 300/s, T_MR = 100 000 ms

The paper's result: the GM algorithm is sensitive to the mistake *duration*
as well (wrongly suspected processes get excluded and have to rejoin), while
the FD algorithm barely reacts to it.
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

#: The four panels: (n, throughput in 1/s, T_MR in ms).
PANELS: Tuple[Tuple[int, float, float], ...] = (
    (3, 10.0, 1000.0),
    (7, 10.0, 10000.0),
    (3, 300.0, 10000.0),
    (7, 300.0, 100000.0),
)

QUICK_TM_VALUES = (1.0, 10.0, 100.0, 1000.0)
FULL_TM_VALUES = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)


def build_campaign(
    quick: bool = True,
    seed: int = 1,
    panels: Iterable[Tuple[int, float, float]] = PANELS,
    stacks: Iterable[str] = ("fd", "gm"),
    tm_values: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
    replicas: int = 1,
) -> CampaignSpec:
    """Declare the Figure 7 grid as a campaign."""
    messages = num_messages or (QUICK_MESSAGES if quick else FULL_MESSAGES)
    sweep = list(tm_values) if tm_values is not None else list(
        QUICK_TM_VALUES if quick else FULL_TM_VALUES
    )
    seeds = replicate_seeds(seed, replicas)
    campaign = CampaignSpec(name="figure7", description="latency vs T_M, suspicion-steady")
    for n, throughput, tmr in panels:
        for stack in stacks:
            series = SeriesSpec(
                label=(
                    f"{algorithm_label(stack)}, n={n}, T={throughput:g}/s, "
                    f"T_MR={tmr:g}ms"
                ),
                params={"n": n, "throughput": throughput, "tmr": tmr},
            )
            for tm in sweep:
                series.points.append(
                    SeriesPointSpec(
                        x=tm,
                        points=[
                            PointSpec(
                                kind="suspicion-steady",
                                stack=stack,
                                n=n,
                                seed=point_seed,
                                throughput=throughput,
                                num_messages=messages,
                                mistake_recurrence_time=tmr,
                                mistake_duration=tm,
                            )
                            for point_seed in seeds
                        ],
                    )
                )
            campaign.add_series(series)
    return campaign


def run(*, runner: Optional[CampaignRunner] = None, **grid) -> FigureResult:
    """Regenerate Figure 7; ``grid`` takes :func:`build_campaign`'s keywords."""
    return run_campaign_figure(
        build_campaign(**grid),
        runner,
        figure="7",
        title="Latency vs mistake duration T_M (T_MR fixed), suspicion-steady",
        x_label="mistake duration T_M [ms]",
        y_label="min latency [ms]",
        note=(
            "Expected shape: GM latency grows with T_M much faster than FD "
            "latency (exclusions followed by costly rejoins)."
        ),
    )
