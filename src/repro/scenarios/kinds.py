"""The twelve built-in scenario kinds, one block each.

Every kind is written the way the README's "Adding a scenario kind" tells
users to write theirs: a frozen params dataclass (the *only* place a default
lives), a ``validate(core, params)`` (the *only* place a parameter is
checked), a ``run(config, core, params)`` that builds a spec for the shared
:class:`~repro.scenarios.runner.ScenarioRunner`, and one
:func:`~repro.scenarios.registry.register_kind` call.  ``crash-transient``
and ``service-load`` measure something other than steady-state broadcast
latency and delegate to their own modules; the steady-state ones share
:func:`_steady`.  A result's ``params`` echo the kind's params (defaults
resolved) plus the kind's read-outs.

The paper's scenarios come first (Figs. 4-8), then the fault-schedule kinds,
``service-load`` and the network fault-injection kinds, whose ``verify``
step is recorded under ``params["script"]``.  Importing this module
registers them all (:mod:`repro.scenarios` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.failure_detectors.qos import QoSConfig
from repro.load.service import CONSISTENCY_MODES
from repro.metrics.stats import interarrival_from_throughput
from repro.scenarios.faults import (
    VML_CRASH_TIME,
    VML_SUSPECT_DURATION,
    VML_SUSPECT_START,
    CorrelatedCrash,
    DegradeAt,
    DegradeLinkAt,
    FaultSchedule,
    PoissonChurn,
    RestoreAt,
)
from repro.scenarios.registry import Axis, ScenarioKind, register_kind
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import (
    ReformationSpec,
    ScenarioRunner,
    SteadyStateSpec,
    warmup_count,
)
from repro.scenarios.service_load import run_service_load
from repro.scenarios.transient import measure_crash_transient
from repro.sim.wan import wan_profile
from repro.stacks.registry import GmReformParams
from repro.system import SystemConfig

#: Round trips of headroom wan-steady gives the derived per-pair detection times.
WAN_FD_SLACK = 2.0

_DETECTION_TIME = Axis(
    "detection_time", "constant crash detection time T_D in ms", "--detection-time"
)
_CRASHES = Axis(
    "crashes", "how many of the highest-numbered processes crash", "--crashes", int, default=1
)
_TMR = Axis("mistake_recurrence_time", "mean mistake recurrence time T_MR in ms", "--tmr")
_TM = Axis("mistake_duration", "mean mistake duration T_M in ms", "--tm")
_MID_WINDOW = "in ms (default: the middle of the arrival window)"


def _arrival_window(core: Any) -> float:
    """Expected length of the arrival window in ms (for default fault timing)."""
    total = warmup_count(core.num_messages) + core.num_messages
    return total * interarrival_from_throughput(core.throughput)


def _or_mid_window(instant: Optional[float], core: Any) -> float:
    """``instant``, or the middle of the expected arrival window for ``None``."""
    return 0.5 * _arrival_window(core) if instant is None else instant


def _steady(config, core: Any, fd: QoSConfig, verify=None, **fields: Any) -> ScenarioResult:
    """Run the steady-state measurement of ``core`` on ``config`` under the
    fault model ``fd`` (``fields``: the rest of its :class:`SteadyStateSpec`)."""
    spec = SteadyStateSpec(
        scenario=core.kind,
        config=replace(config, fd=fd),
        throughput=core.throughput,
        num_messages=core.num_messages,
        **fields,
    )
    return ScenarioRunner().run_steady(spec, verify=verify)


# ------------------------------------------------------------------ normal-steady


@dataclass(frozen=True)
class NoParams:
    """normal-steady reads nothing beyond the common core."""


def _run_normal_steady(config: SystemConfig, core: Any, params: NoParams) -> ScenarioResult:
    """Latency in runs with neither crashes nor suspicions (Fig. 4)."""
    return _steady(config, core, QoSConfig())


register_kind(
    ScenarioKind(
        name="normal-steady",
        shorthand="normal",
        summary="steady state with neither crashes nor suspicions (Fig. 4)",
        params=NoParams,
        run=_run_normal_steady,
    )
)


# ------------------------------------------------------------------ crash-steady


@dataclass(frozen=True)
class CrashSteadyParams:
    #: Pre-crashed process ids.
    crashed: Tuple[int, ...] = ()


def crashed_processes(n: int, count: int) -> Tuple[int, ...]:
    """The ``count`` highest-numbered (non-coordinator) processes.

    The paper's crash-steady convention: the coordinator re-numbering
    optimisation makes the steady state independent of *which* processes
    crashed, so the figures crash the highest pids.
    """
    return tuple(range(n - count, n))


def _expand_crashes(n: int, values: Dict[str, Any]) -> Dict[str, Any]:
    return dict(values, crashed=crashed_processes(n, values.pop("crashes")))


def _validate_crashed(core: Any, params: Any) -> None:
    if not params.crashed:
        raise ValueError(f"{core.kind} points need a non-empty crashed tuple")
    if 2 * len(params.crashed) >= core.n:
        raise ValueError(
            f"{len(params.crashed)} crashes exceed the f < n/2 bound for n={core.n}"
        )
    for pid in params.crashed:
        if not 0 <= pid < core.n:
            raise ValueError(f"crashed process {pid} out of range 0..{core.n - 1}")


def _run_crash_steady(config: SystemConfig, core: Any, params: CrashSteadyParams) -> ScenarioResult:
    """Latency long after the processes in ``crashed`` have crashed (Fig. 5).

    The crashed processes are suspected permanently by every failure detector
    from the very start of the run, and they do not send workload messages --
    exactly the paper's definition of the crash-steady scenario.
    """
    crashed = tuple(params.crashed)
    return _steady(
        config, core, QoSConfig(),
        faults=FaultSchedule.pre_crashed(crashed), params={"crashed": crashed},
    )


register_kind(
    ScenarioKind(
        name="crash-steady",
        shorthand="crash",
        summary="steady state long after some processes crashed (Fig. 5)",
        params=CrashSteadyParams,
        run=_run_crash_steady,
        validate=_validate_crashed,
        label=lambda p: f" crashed={list(p.crashed)}",
        axes=(_CRASHES,),
        expand=_expand_crashes,
    )
)


# ------------------------------------------------------------------ suspicion-steady


@dataclass(frozen=True)
class SuspicionSteadyParams:
    #: Means of the detectors' exponential T_MR / T_M, ms.
    mistake_recurrence_time: float = 1000.0
    mistake_duration: float = 0.0


def _validate_suspicion(core: Any, params: Any) -> None:
    if core.fd_kind != "qos":
        raise ValueError(
            f"{core.kind} points drive the QoS mistake model and need fd_kind='qos'"
        )
    if not math.isfinite(params.mistake_recurrence_time):
        raise ValueError(f"{core.kind} points need a finite mistake_recurrence_time")


def _run_suspicion_steady(
    config: SystemConfig, core: Any, params: SuspicionSteadyParams
) -> ScenarioResult:
    """Latency with wrong suspicions of correct processes (Figs. 6 and 7).

    ``mistake_recurrence_time`` and ``mistake_duration`` are the means (in
    ms) of the exponential QoS metrics ``T_MR`` and ``T_M`` of every failure
    detector pair.  No process crashes.
    """
    fd = QoSConfig(
        detection_time=0.0,
        mistake_recurrence_time=params.mistake_recurrence_time,
        mistake_duration=params.mistake_duration,
    )
    return _steady(config, core, fd, params=dict(vars(params)))


register_kind(
    ScenarioKind(
        name="suspicion-steady",
        shorthand="suspicion",
        summary="steady state under wrong suspicions of correct processes (Figs. 6, 7)",
        params=SuspicionSteadyParams,
        run=_run_suspicion_steady,
        validate=_validate_suspicion,
        label=lambda p: f" T_MR={p.mistake_recurrence_time:g} T_M={p.mistake_duration:g}",
        axes=(_TMR, _TM),
    )
)


# ------------------------------------------------------------------ crash-transient


@dataclass(frozen=True)
class CrashTransientParams:
    #: Independent executions of the point.
    num_runs: int = 8
    detection_time: float = 0.0
    crashed_process: int = 0
    #: Tagged sender of the probe; ``None`` = the highest non-crashed pid.
    sender: Optional[int] = None


def _validate_crash_transient(core: Any, params: CrashTransientParams) -> None:
    if core.fd_kind == "heartbeat":
        raise ValueError(
            "crash-transient points pin the detection time T_D and subtract it "
            "from the reported overhead; the heartbeat detector's T_D emerges "
            "from period + timeout instead (use fd_kind='qos' or 'perfect')"
        )
    if params.sender == params.crashed_process:
        raise ValueError("the tagged sender must differ from the crashed process")
    for role, pid in (("crashed_process", params.crashed_process), ("sender", params.sender)):
        if pid is not None and not 0 <= pid < core.n:
            raise ValueError(f"{role} {pid} out of range 0..{core.n - 1}")
    if core.n < 2:
        raise ValueError("crash-transient points need n >= 2 (a sender besides the crash)")


# :mod:`repro.scenarios.transient` defines the scenario, holds its measurement
# and says why the reported overhead subtracts ``T_D``.
register_kind(
    ScenarioKind(
        name="crash-transient",
        shorthand="transient",
        summary="latency of a broadcast issued at the instant of a crash (Fig. 8)",
        params=CrashTransientParams,
        run=lambda config, core, params: measure_crash_transient(
            config, core.throughput, **vars(params)
        ),
        validate=_validate_crash_transient,
        label=lambda p: (
            f" T_D={p.detection_time:g} crash=p{p.crashed_process}"
            + ("" if p.sender is None else f" sender=p{p.sender}")
        ),
        axes=(
            Axis("num_runs", "independent runs per point", "--runs", int),
            _DETECTION_TIME,
            Axis("crashed_process", "the pid that crashes", "--crashed-process", int),
            Axis("sender", "tagged sender (default: the highest non-crashed pid)"),
        ),
    )
)


# ------------------------------------------------------------------ correlated-crash


@dataclass(frozen=True)
class CorrelatedCrashParams:
    crashed: Tuple[int, ...] = ()
    #: When the group crashes, ms; ``None`` = the middle of the arrival window.
    crash_time: Optional[float] = None
    detection_time: float = 0.0


def _run_correlated_crash(
    config: SystemConfig, core: Any, params: CorrelatedCrashParams
) -> ScenarioResult:
    """Steady-state latency across a simultaneous crash of ``crashed``.

    A shared-fate fault: all processes in ``crashed`` fail at ``crash_time``,
    each crash detected ``detection_time`` ms later, and the measurement
    spans the crash -- the result mixes pre-crash, transient and post-crash
    latencies into one distribution.  Workload arrivals that would have been
    sent by a crashed process are redirected to the next live process.
    """
    crashed = tuple(params.crashed)
    crash_time = _or_mid_window(params.crash_time, core)
    return _steady(
        config, core, QoSConfig(detection_time=params.detection_time),
        faults=FaultSchedule([CorrelatedCrash(crash_time, crashed)]),
        senders=list(range(config.n)),
        reassign_crashed_senders=True,
        params=dict(vars(params), crashed=crashed, crash_time=crash_time),
    )


register_kind(
    ScenarioKind(
        name="correlated-crash",
        shorthand="correlated",
        summary="a group of processes crashes simultaneously inside the measured window",
        params=CorrelatedCrashParams,
        run=_run_correlated_crash,
        validate=_validate_crashed,
        label=lambda p: f" crashed={list(p.crashed)} T_D={p.detection_time:g}",
        axes=(
            _CRASHES,
            Axis("crash_time", f"crash instant {_MID_WINDOW}", "--crash-time"),
            _DETECTION_TIME,
        ),
        expand=_expand_crashes,
    )
)


# ------------------------------------------------------------------ churn-steady


@dataclass(frozen=True)
class ChurnSteadyParams:
    #: Crash arrivals per second and mean exponential downtime, ms.
    churn_rate: float = 1.0
    mean_downtime: float = 200.0
    detection_time: float = 0.0


def _validate_churn(core: Any, params: ChurnSteadyParams) -> None:
    if params.churn_rate <= 0 or params.mean_downtime <= 0:
        raise ValueError("churn-steady points need churn_rate > 0 and mean_downtime > 0")


def _run_churn_steady(config: SystemConfig, core: Any, params: ChurnSteadyParams) -> ScenarioResult:
    """Steady-state latency under Poisson crash-recovery churn.

    Crashes arrive at ``churn_rate`` per second; each takes a uniformly
    random up process down for an exponential downtime of mean
    ``mean_downtime`` ms.  Recovered processes rejoin (view change + state
    transfer under GM, decision catch-up under FD) and the churn generator
    never takes down more than ``f < n/2`` processes at once.
    """
    churn = PoissonChurn(
        rate=params.churn_rate,
        mean_downtime=params.mean_downtime,
        until=1.5 * _arrival_window(core) + 10_000.0,
    )
    return _steady(
        config, core, QoSConfig(detection_time=params.detection_time),
        faults=FaultSchedule([churn]),
        senders=list(range(config.n)),
        reassign_crashed_senders=True,
        params=dict(vars(params)),
    )


register_kind(
    ScenarioKind(
        name="churn-steady",
        shorthand="churn",
        summary="Poisson crash-recovery churn with rejoin, never exceeding f < n/2",
        params=ChurnSteadyParams,
        run=_run_churn_steady,
        validate=_validate_churn,
        label=lambda p: f" churn={p.churn_rate:g}/s downtime={p.mean_downtime:g}ms",
        axes=(
            Axis("churn_rate", "crash arrivals per second", "--churn-rate"),
            Axis("mean_downtime", "mean downtime per crash in ms", "--downtime"),
            _DETECTION_TIME,
        ),
    )
)


# ------------------------------------------------------------------ asymmetric-qos


@dataclass(frozen=True)
class AsymmetricQosParams:
    mistake_recurrence_time: float = 1000.0
    mistake_duration: float = 0.0
    #: ``flaky_monitor`` wrongly suspects ``flaky_target``; other pairs are perfect.
    flaky_monitor: int = 1
    flaky_target: int = 0


def _validate_asymmetric(core: Any, params: AsymmetricQosParams) -> None:
    _validate_suspicion(core, params)
    if params.flaky_monitor == params.flaky_target:
        raise ValueError("the flaky observer pair needs two distinct processes")
    for pid in (params.flaky_monitor, params.flaky_target):
        if not 0 <= pid < core.n:
            raise ValueError(f"flaky pair process {pid} out of range 0..{core.n - 1}")


def _run_asymmetric_qos(
    config: SystemConfig, core: Any, params: AsymmetricQosParams
) -> ScenarioResult:
    """Steady-state latency with one flaky failure detector pair.

    Only the ordered pair ``(flaky_monitor observes flaky_target)`` makes
    mistakes, with the given ``T_MR`` / ``T_M`` means; every other pair is
    perfect -- probing how far one bad link degrades each algorithm.  The
    default pair is "p1 wrongly suspects the coordinator / sequencer p0",
    the most damaging single bad link for both algorithms.
    """
    fd = QoSConfig().with_pair(
        params.flaky_monitor,
        params.flaky_target,
        mistake_recurrence_time=params.mistake_recurrence_time,
        mistake_duration=params.mistake_duration,
    )
    return _steady(config, core, fd, params=dict(vars(params)))


register_kind(
    ScenarioKind(
        name="asymmetric-qos",
        shorthand="asymmetric",
        summary="one flaky failure-detector pair, every other pair perfect",
        params=AsymmetricQosParams,
        run=_run_asymmetric_qos,
        validate=_validate_asymmetric,
        label=lambda p: (
            f" p{p.flaky_monitor}~p{p.flaky_target}"
            f" T_MR={p.mistake_recurrence_time:g} T_M={p.mistake_duration:g}"
        ),
        axes=(
            _TMR,
            _TM,
            Axis("flaky_monitor", "observer of the flaky pair", "--flaky-monitor", int),
            Axis("flaky_target", "observed process of the flaky pair", "--flaky-target", int),
        ),
    )
)


# ------------------------------------------------------------------ view-majority-loss


@dataclass(frozen=True)
class ViewMajorityLossParams:
    detection_time: float = 0.0
    #: The blocking crash, ms, inside the canonical suspicion window.
    crash_time: float = VML_CRASH_TIME


def _validate_view_majority_loss(core: Any, params: ViewMajorityLossParams) -> None:
    # The schedule itself rejects n < 3 and a crash outside the canonical
    # suspicion window (which could never block the view).
    FaultSchedule.view_majority_loss(core.n, crash_time=params.crash_time)


def _run_view_majority_loss(
    config: SystemConfig, core: Any, params: ViewMajorityLossParams
) -> ScenarioResult:
    """Latency and time-to-reformation across a view-majority loss.

    :meth:`FaultSchedule.view_majority_loss` shrinks the installed view
    through wrong suspicions, then crashes just enough of it that its alive
    members lose the view majority -- the GM algorithm's permanent deadlock,
    which ``gm-reform`` turns into a recovery: ``params`` report whether a
    successor view was installed and how long after the blocking crash
    (``time_to_reformation``).  Every record echoes the stack's
    ``reformation_timeout`` param, ``gm-reform``'s default when it has none.
    """
    spec = ReformationSpec(
        scenario="view-majority-loss",
        config=replace(config, fd=QoSConfig(detection_time=params.detection_time)),
        throughput=core.throughput,
        block_time=params.crash_time,
        num_messages=core.num_messages,
        faults=FaultSchedule.view_majority_loss(config.n, crash_time=params.crash_time),
        params=dict(
            vars(params),
            suspect_start=VML_SUSPECT_START,
            suspect_duration=VML_SUSPECT_DURATION,
            reformation_timeout=getattr(
                config.params.stack, "reformation_timeout", GmReformParams.reformation_timeout
            ),
        ),
    )
    return ScenarioRunner().run_reformation(spec)


register_kind(
    ScenarioKind(
        name="view-majority-loss",
        shorthand="majority-loss",
        summary="the GM view-majority-loss blocked state; time-to-reformation under gm-reform",
        params=ViewMajorityLossParams,
        run=_run_view_majority_loss,
        validate=_validate_view_majority_loss,
        label=lambda p: f" T_D={p.detection_time:g}",
        axes=(
            _DETECTION_TIME,
            Axis(
                "crash_time",
                "blocking crash instant in ms, inside the suspicion window (50, 450)",
                "--crash-time",
            ),
        ),
    )
)


# ------------------------------------------------------------------ service-load


@dataclass(frozen=True)
class ServiceLoadParams:
    #: Closed-loop client count; 0 = open loop at ``throughput`` requests/s.
    clients: int = 0
    #: Mean exponential think time per closed-loop client, ms.
    think_time: float = 0.0
    #: Read path: ``"ordered"`` or ``"local"``.
    consistency: str = "ordered"


def _validate_service_load(core: Any, params: ServiceLoadParams) -> None:
    if params.clients < 0:
        raise ValueError(f"clients must be >= 0 (0 = open loop), got {params.clients}")
    if params.think_time < 0:
        raise ValueError(f"think_time must be >= 0, got {params.think_time}")
    if params.consistency not in CONSISTENCY_MODES:
        raise ValueError(
            f"consistency must be one of {CONSISTENCY_MODES}, got {params.consistency!r}"
        )


# :func:`repro.scenarios.service_load.run_service_load` is the measurement;
# called directly it also takes what a point does not carry (admission
# bounds, a command mix, a fault schedule).
register_kind(
    ScenarioKind(
        name="service-load",
        shorthand="service",
        summary="the replicated KV service under an open- or closed-loop client population",
        params=ServiceLoadParams,
        run=lambda config, core, params: run_service_load(
            config, core.throughput, num_requests=core.num_messages, **vars(params)
        ),
        validate=_validate_service_load,
        label=lambda p: (
            (f" clients={p.clients} think={p.think_time:g}ms" if p.clients > 0 else " open-loop")
            + (f" {p.consistency}" if p.consistency != "ordered" else "")
        ),
        axes=(
            Axis("clients", "closed-loop client count, 0 = open loop", "--clients", int),
            Axis("think_time", "mean client think time in ms (closed loop)", "--think-time"),
            Axis(
                "consistency",
                "read path: totally ordered or local stale reads",
                "--consistency",
                str,
                CONSISTENCY_MODES,
            ),
        ),
    )
)


# ------------------------------------------------------------------ partition-transient


@dataclass(frozen=True)
class PartitionTransientParams:
    #: Partition instant, ms; ``None`` = the middle of the arrival window.
    partition_start: Optional[float] = None
    partition_duration: float = 2000.0
    detection_time: float = 0.0


def _validate_partition(core: Any, params: PartitionTransientParams) -> None:
    if core.n < 3:
        raise ValueError("partition-transient points need n >= 3 (a real minority)")
    if params.partition_duration <= 0:
        raise ValueError(
            f"partition_duration must be > 0 ms, got {params.partition_duration}"
        )


def _run_partition_transient(
    config: SystemConfig, core: Any, params: PartitionTransientParams
) -> ScenarioResult:
    """Steady-state latency across a transient symmetric partition.

    The top ``(n - 1) // 2`` pids are cut off from the majority at
    ``partition_start`` and rejoin ``partition_duration`` ms later.  The
    clock-driven detectors suspect unreachable peers one detection time
    after the cut (and trust them again after the heal); the heartbeat
    detector starves naturally.  Workload arrivals stay on all processes --
    minority-side sends during the window are the interesting part.

    ``verify`` checks the partition actually bit (frames were dropped) and
    fully healed; a violation is recorded under ``params["script"]``.
    """
    n = config.n
    start = _or_mid_window(params.partition_start, core)
    heal = start + params.partition_duration
    def verify(system, result: ScenarioResult) -> None:
        dropped = system.network.stats.dropped_partitioned
        if dropped == 0:
            raise AssertionError("the partition window dropped no frames -- it never took effect")
        # The run may legitimately stop (all measured messages delivered)
        # before the heal instant; only a run that outlived it must be whole.
        if result.duration >= heal:
            still_blocked = [
                (src, dst)
                for src in range(n)
                for dst in range(n)
                if src != dst and system.network.is_link_blocked(src, dst)
            ]
            if still_blocked:
                raise AssertionError(f"links still blocked after the heal: {still_blocked}")
        result.params["dropped_partitioned"] = dropped

    return _steady(
        config, core, QoSConfig(detection_time=params.detection_time), verify,
        faults=FaultSchedule.partition_transient(n, start, params.partition_duration),
        senders=list(range(n)),
        params=dict(
            vars(params), partition_start=start, minority=tuple(range(n - (n - 1) // 2, n))
        ),
    )


register_kind(
    ScenarioKind(
        name="partition-transient",
        shorthand="partition",
        summary="a symmetric split isolates a minority for a window, then heals",
        params=PartitionTransientParams,
        run=_run_partition_transient,
        validate=_validate_partition,
        label=lambda p: f" T_D={p.detection_time:g} window={p.partition_duration:g}ms",
        axes=(
            Axis("partition_start", f"partition instant {_MID_WINDOW}", "--crash-time"),
            Axis("partition_duration", "length of the partition in ms", "--fault-duration"),
            _DETECTION_TIME,
        ),
    )
)


# ------------------------------------------------------------------ wan-steady


@dataclass(frozen=True)
class WanSteadyParams:
    #: Name of a registered :class:`repro.sim.wan.WanProfile`.
    wan_profile: str = "wan-3dc"
    detection_time: float = 0.0


def _validate_wan(core: Any, params: WanSteadyParams) -> None:
    wan_profile(params.wan_profile)  # unknown names raise here, not in a worker


def _run_wan_steady(config: SystemConfig, core: Any, params: WanSteadyParams) -> ScenarioResult:
    """Steady-state latency with the group spread across WAN datacenters.

    Process ``pid`` lives in datacenter ``pid % dc_count`` of the named
    :class:`~repro.sim.wan.WanProfile` and every cross-datacenter frame pays
    the profile's one-way propagation delay on top of the paper's contention
    model.  When the stack runs the QoS detector, its per-pair detection
    times are derived from the topology (:data:`WAN_FD_SLACK` round trips of
    headroom) so WAN lag alone never looks like a crash.
    """
    topology = wan_profile(params.wan_profile)
    fd = QoSConfig(detection_time=params.detection_time)
    if config.fd_kind == "qos":
        fd = topology.derive_fd_config(fd, config.n, slack=WAN_FD_SLACK)
    def verify(system, result: ScenarioResult) -> None:
        if result.undelivered:
            raise AssertionError(
                f"wan-steady is fault-free yet {result.undelivered} measured "
                "messages were never delivered"
            )

    return _steady(
        replace(config, network=replace(config.network, wan_profile=params.wan_profile)),
        core, fd, verify,
        params=dict(
            vars(params),
            dc_count=topology.dc_count,
            max_wan_delay=topology.max_delay(),
            fd_slack=WAN_FD_SLACK,
        ),
    )


register_kind(
    ScenarioKind(
        name="wan-steady",
        shorthand="wan",
        summary="steady state with the group spread across the datacenters of a WAN profile",
        params=WanSteadyParams,
        run=_run_wan_steady,
        validate=_validate_wan,
        label=lambda p: f" profile={p.wan_profile}",
        axes=(
            Axis("wan_profile", "registered WAN topology name", "--wan-profile", str),
            _DETECTION_TIME,
        ),
    )
)


# ------------------------------------------------------------------ gray-degradation


@dataclass(frozen=True)
class GrayDegradationParams:
    degraded_pid: int = 0
    #: CPU service-time multiplier while degraded.
    degrade_factor: float = 4.0
    #: Degradation instant, ms; ``None`` = the middle of the arrival window.
    degrade_start: Optional[float] = None
    degrade_duration: float = 2000.0
    #: Per-frame loss probability on the degraded pid's outgoing links.
    link_loss: float = 0.0
    detection_time: float = 0.0


def _validate_gray(core: Any, params: GrayDegradationParams) -> None:
    if params.degrade_factor <= 1.0:
        raise ValueError(
            f"gray-degradation needs degrade_factor > 1, got {params.degrade_factor}"
        )
    if not 0 <= params.degraded_pid < core.n:
        raise ValueError(f"degraded_pid {params.degraded_pid} out of range 0..{core.n - 1}")
    if not 0.0 <= params.link_loss < 1.0:
        raise ValueError(f"link_loss must be in [0, 1), got {params.link_loss}")
    if params.degrade_duration <= 0:
        raise ValueError(f"degrade_duration must be > 0 ms, got {params.degrade_duration}")


def _run_gray_degradation(
    config: SystemConfig, core: Any, params: GrayDegradationParams
) -> ScenarioResult:
    """Steady-state latency across a gray failure of one process.

    From ``degrade_start`` until ``degrade_duration`` later,
    ``degraded_pid``'s CPU serves every job ``degrade_factor`` times slower
    -- alive and correct, just slow: the failure mode detectors must *not*
    treat as a crash.  With ``link_loss > 0`` its outgoing links
    additionally drop each frame with that probability during the window.
    The default victim is pid 0: the sequencer/coordinator of the GM stacks,
    the most damaging single slow process.
    """
    n, pid = config.n, params.degraded_pid
    start = _or_mid_window(params.degrade_start, core)
    end = start + params.degrade_duration
    faults = FaultSchedule([DegradeAt(start, pid, params.degrade_factor), RestoreAt(end, pid)])
    if params.link_loss > 0.0:
        for dst in range(n):
            if dst != pid:
                faults.add(DegradeLinkAt(start, pid, dst, loss_probability=params.link_loss))
                faults.add(DegradeLinkAt(end, pid, dst))
    def verify(system, result: ScenarioResult) -> None:
        # The run may legitimately stop (all measured messages delivered)
        # before the restore instant; only a run that outlived it must have
        # returned the CPU to full speed.
        if result.duration >= end:
            restored = system.network.cpu(pid).rate_factor
            if restored != 1.0:
                raise AssertionError(f"pid {pid} still degraded after the window: x{restored}")
        if params.link_loss > 0.0:
            result.params["dropped_lossy_link"] = system.network.stats.dropped_lossy_link

    return _steady(
        config, core, QoSConfig(detection_time=params.detection_time), verify,
        faults=faults, senders=list(range(n)), params=dict(vars(params), degrade_start=start),
    )


register_kind(
    ScenarioKind(
        name="gray-degradation",
        shorthand="gray",
        summary="one process's CPU runs slower for a window, optionally with lossy links",
        params=GrayDegradationParams,
        run=_run_gray_degradation,
        validate=_validate_gray,
        label=lambda p: (
            f" slow=p{p.degraded_pid} x{p.degrade_factor:g}"
            + (f" loss={p.link_loss:g}" if p.link_loss > 0 else "")
        ),
        axes=(
            Axis("degraded_pid", "the degraded pid", "--crashed-process", int),
            Axis(
                "degrade_factor", "CPU service-time multiplier while degraded", "--degrade-factor"
            ),
            Axis("degrade_start", f"degradation instant {_MID_WINDOW}", "--crash-time"),
            Axis("degrade_duration", "length of the degradation in ms", "--fault-duration"),
            Axis(
                "link_loss", "frame loss probability on the degraded pid's links", "--link-loss"
            ),
            _DETECTION_TIME,
        ),
    )
)
