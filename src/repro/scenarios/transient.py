"""Crash-transient scenario (Fig. 8).

The paper's transient latency after a crash: in steady state, process ``p``
crashes at time ``t`` and process ``q`` A-broadcasts ``m`` at that instant;
``L(p, q)`` is the mean latency of ``m`` over independent executions, and
the worst case over ``(p, q)`` -- in practice the crash of the FD round-1
coordinator / the GM sequencer ``p1``, the case the paper plots -- is
reported.  Callers may pick any ``(p, q)`` pair.

Because no atomic broadcast can finish before the crash is detected, the
paper plots the latency *overhead*: latency minus the detection time ``T_D``
(:meth:`~repro.scenarios.results.TransientResult.overhead_summary`).  That
is also why the kind rejects the heartbeat detector, whose ``T_D`` is not a
parameter but emerges from period + timeout.

Each independent execution is a :class:`repro.scenarios.runner.ProbeSpec`
(background workload, a one-event fault schedule crashing ``p`` at ``t`` and
a tagged probe from ``q`` at the same instant) run by the shared
:class:`repro.scenarios.runner.ScenarioRunner`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.scenarios.faults import CrashAt, FaultSchedule
from repro.scenarios.results import TransientResult
from repro.scenarios.runner import ProbeSpec, ScenarioRunner
from repro.system import SystemConfig

#: Steady-state warm-up before the forced crash (ms).
CRASH_TIME = 400.0


def measure_crash_transient(
    config: SystemConfig,
    throughput: float,
    crash: CrashAt,
    sender: int,
    num_runs: int,
) -> TransientResult:
    """Measure the transient latency of a broadcast ``sender`` issues at ``crash``.

    The measurement of the ``crash-transient`` kind, whose params, defaults
    and checks live in :mod:`repro.scenarios.kinds` (its builder makes
    ``crash`` at :data:`CRASH_TIME` and ``config.fd``, whose ``T_D`` the
    result reports): ``num_runs`` executions of the probe described above,
    each on a fresh system (and seed).  A run ends as soon as the tagged
    message is delivered somewhere (or
    :data:`~repro.scenarios.runner.PROBE_MAX_WAIT` ms past the crash).
    """
    faults = FaultSchedule([crash])
    runner = ScenarioRunner()

    # With instrumentation requested, one shared Instrumentation object
    # rides along every independent run, so the point's counters aggregate
    # over all executions (event recording stays off: the runs' timelines
    # overlap, so an interleaved event trace would be meaningless).
    shared_obs = None
    run_config = config
    if config.instrument:
        from repro.obs.instrumentation import Instrumentation

        shared_obs = Instrumentation(record_events=False)
        run_config = replace(config, instrument=False)

    latencies: List[float] = []
    failed = 0
    for run in range(num_runs):
        spec = ProbeSpec(
            config=run_config.with_seed(run_config.seed + 1000 * (run + 1)),
            throughput=throughput,
            probe_sender=sender,
            probe_time=crash.time,
            faults=faults,
            obs=shared_obs,
        )
        latency = runner.run_probe(spec)
        if latency is None:
            failed += 1
        else:
            latencies.append(latency)

    metrics = None
    if shared_obs is not None:
        from repro.obs.export import metrics_snapshot_from_obs

        metrics = metrics_snapshot_from_obs(
            shared_obs,
            config,
            scenario="crash-transient",
            throughput=throughput,
            runs=num_runs,
        )

    return TransientResult(
        algorithm=config.stack_label,
        n=config.n,
        throughput=throughput,
        detection_time=config.fd.detection_time,
        crashed_process=crash.pid,
        sender=sender,
        latencies=latencies,
        failed_runs=failed,
        params={"crash_time": crash.time, "num_runs": num_runs},
        metrics=metrics,
    )

