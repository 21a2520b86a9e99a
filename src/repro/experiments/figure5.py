"""Figure 5: latency vs throughput in the crash-steady scenario.

The paper's result: latency decreases as more processes crash (crashed
processes stop loading the network); the GM algorithm is slightly better
than the FD algorithm for the same number of crashes because the sequencer
waits for acknowledgements from a majority of a *smaller* view.  Following
the paper, the crashed processes are non-coordinator processes (the
coordinator re-numbering optimisation makes the steady state independent of
which processes crashed).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.campaigns.aggregate import run_campaign_figure
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import (
    CampaignSpec,
    PointSpec,
    SeriesPointSpec,
    SeriesSpec,
    replicate_seeds,
)
from repro.experiments.helpers import algorithm_label, default_throughputs
from repro.experiments.series import FigureResult
from repro.scenarios.kinds import crashed_processes

QUICK_MESSAGES = 150
FULL_MESSAGES = 500

#: Crash counts plotted per system size (as in the paper).
CRASH_COUNTS: Dict[int, Tuple[int, ...]] = {3: (0, 1), 7: (0, 1, 2, 3)}


def build_campaign(
    quick: bool = True,
    seed: int = 1,
    n_values: Iterable[int] = (3, 7),
    stacks: Iterable[str] = ("fd", "gm"),
    throughputs: Optional[Iterable[float]] = None,
    num_messages: Optional[int] = None,
    replicas: int = 1,
) -> CampaignSpec:
    """Declare the Figure 5 grid as a campaign.

    In quick mode the no-crash curves are normal-steady points identical to
    Figure 4's (both figures measure 150 messages), so with a shared result
    store they come straight from the cache.  In full mode the per-figure
    message counts differ (500 vs 600), so the points are distinct.
    """
    messages = num_messages or (QUICK_MESSAGES if quick else FULL_MESSAGES)
    seeds = replicate_seeds(seed, replicas)
    campaign = CampaignSpec(name="figure5", description="latency vs throughput, crash-steady")
    for n in n_values:
        sweep = list(throughputs) if throughputs is not None else default_throughputs(n, quick)
        crash_counts = CRASH_COUNTS.get(n, (0, 1))
        for crashes in crash_counts:
            # The no-crash curve is Figure 4's normal-steady scenario.
            scenario = (
                {"kind": "crash-steady", "crashed": crashed_processes(n, crashes)}
                if crashes
                else {"kind": "normal-steady"}
            )
            for stack in stacks:
                if crashes == 0 and stack != "fd":
                    # With no crash the two algorithms coincide (Fig. 4); the
                    # paper plots a single "FD and GM, no crash" curve.
                    continue
                label = (
                    f"FD and GM, no crash, n={n}"
                    if crashes == 0
                    else f"{algorithm_label(stack)}, {crashes} crash(es), n={n}"
                )
                series = SeriesSpec(label=label, params={"n": n, "crashes": crashes})
                for throughput in sweep:
                    series.points.append(
                        SeriesPointSpec(
                            x=throughput,
                            points=[
                                PointSpec(
                                    stack=stack,
                                    n=n,
                                    seed=point_seed,
                                    throughput=throughput,
                                    num_messages=messages,
                                    **scenario,
                                )
                                for point_seed in seeds
                            ],
                        )
                    )
                campaign.add_series(series)
    return campaign


def run(*, runner: Optional[CampaignRunner] = None, **grid) -> FigureResult:
    """Regenerate Figure 5; ``grid`` takes :func:`build_campaign`'s keywords."""
    return run_campaign_figure(
        build_campaign(**grid),
        runner,
        figure="5",
        title="Latency vs throughput, crash-steady scenario",
        x_label="throughput [1/s]",
        y_label="min latency [ms]",
        note=(
            "Expected shape: latency decreases as more processes crash; for the "
            "same number of crashes the GM curve is at or below the FD curve "
            "(the gap grows with n)."
        ),
    )
