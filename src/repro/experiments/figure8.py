"""Figure 8: latency overhead vs throughput in the crash-transient scenario.

The crashed process is p1 -- the round-1 coordinator of the FD algorithm and
the sequencer of the GM algorithm -- which is the worst case.  The plotted
value is the latency *overhead*: latency of the message A-broadcast at the
crash instant minus the detection time T_D.

The paper's result: both algorithms behave reasonably (the overhead is a
small multiple of the normal-steady latency) and the FD algorithm
outperforms the GM algorithm.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.campaigns.aggregate import run_campaign_figure
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec, PointSpec, SeriesPointSpec, SeriesSpec, replicate_seeds
from repro.experiments.helpers import algorithm_label, default_throughputs
from repro.experiments.series import FigureResult

QUICK_RUNS = 8
FULL_RUNS = 30

#: Detection times plotted in the paper.
DETECTION_TIMES: Tuple[float, ...] = (0.0, 10.0, 100.0)


def build_campaign(
    quick: bool = True,
    seed: int = 1,
    n_values: Iterable[int] = (3, 7),
    stacks: Iterable[str] = ("fd", "gm"),
    detection_times: Iterable[float] = DETECTION_TIMES,
    throughputs: Optional[Iterable[float]] = None,
    num_runs: Optional[int] = None,
    replicas: int = 1,
) -> CampaignSpec:
    """Declare the Figure 8 grid as a campaign."""
    runs = num_runs or (QUICK_RUNS if quick else FULL_RUNS)
    seeds = replicate_seeds(seed, replicas)
    campaign = CampaignSpec(
        name="figure8", description="latency overhead vs throughput, crash-transient"
    )
    for n in n_values:
        sweep = list(throughputs) if throughputs is not None else default_throughputs(n, quick)
        for stack in stacks:
            for detection_time in detection_times:
                series = SeriesSpec(
                    label=(
                        f"{algorithm_label(stack)}, n={n}, "
                        f"T_D={detection_time:g}ms"
                    ),
                    params={"n": n, "detection_time": detection_time},
                )
                for throughput in sweep:
                    series.points.append(
                        SeriesPointSpec(
                            x=throughput,
                            points=[
                                PointSpec(
                                    kind="crash-transient",
                                    stack=stack,
                                    n=n,
                                    seed=point_seed,
                                    throughput=throughput,
                                    num_runs=runs,
                                    detection_time=detection_time,
                                    crashed_process=0,
                                )
                                for point_seed in seeds
                            ],
                        )
                    )
                campaign.add_series(series)
    return campaign


def run(*, runner: Optional[CampaignRunner] = None, **grid) -> FigureResult:
    """Regenerate Figure 8; ``grid`` takes :func:`build_campaign`'s keywords."""
    return run_campaign_figure(
        build_campaign(**grid),
        runner,
        figure="8",
        title="Latency overhead vs throughput after the crash of p1 (crash-transient)",
        x_label="throughput [1/s]",
        y_label="min latency - T_D [ms]",
        note=(
            "Expected shape: the overhead of both algorithms is a small multiple "
            "of the normal-steady latency; the FD algorithm is at or below the "
            "GM algorithm (clearest at low throughput and for T_D = 0)."
        ),
    )
