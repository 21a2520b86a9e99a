"""Figure 4: latency vs throughput in the normal-steady scenario.

The paper's result: the two algorithms have *the same* performance when
neither crashes nor suspicions occur (they generate the same message
exchange), latency grows with the throughput and with the number of
processes, and the system saturates around 700 messages/s for λ = 1.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.campaigns.aggregate import run_campaign_figure
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec, PointSpec, SeriesPointSpec, SeriesSpec, replicate_seeds
from repro.experiments.helpers import algorithm_label, default_throughputs
from repro.experiments.series import FigureResult

#: Number of measured messages per point.
QUICK_MESSAGES = 150
FULL_MESSAGES = 600


def build_campaign(
    quick: bool = True,
    seed: int = 1,
    n_values: Iterable[int] = (3, 7),
    stacks: Iterable[str] = ("fd", "gm"),
    throughputs: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
    replicas: int = 1,
) -> CampaignSpec:
    """Declare the Figure 4 grid as a campaign."""
    messages = num_messages or (QUICK_MESSAGES if quick else FULL_MESSAGES)
    seeds = replicate_seeds(seed, replicas)
    campaign = CampaignSpec(name="figure4", description="latency vs throughput, normal-steady")
    for n in n_values:
        sweep = list(throughputs) if throughputs is not None else default_throughputs(n, quick)
        for stack in stacks:
            series = SeriesSpec(
                label=f"{algorithm_label(stack)}, n={n}", params={"n": n}
            )
            for throughput in sweep:
                series.points.append(
                    SeriesPointSpec(
                        x=throughput,
                        points=[
                            PointSpec(
                                kind="normal-steady",
                                stack=stack,
                                n=n,
                                seed=point_seed,
                                throughput=throughput,
                                num_messages=messages,
                            )
                            for point_seed in seeds
                        ],
                    )
                )
            campaign.add_series(series)
    return campaign


def run(*, runner: Optional[CampaignRunner] = None, **grid) -> FigureResult:
    """Regenerate Figure 4; ``grid`` takes :func:`build_campaign`'s keywords."""
    return run_campaign_figure(
        build_campaign(**grid),
        runner,
        figure="4",
        title="Latency vs throughput, normal-steady scenario",
        x_label="throughput [1/s]",
        y_label="min latency [ms]",
        note=(
            "Expected shape: the FD and GM curves coincide for each n; latency "
            "grows with the throughput and with n."
        ),
    )
