"""The twelve built-in scenario kinds, one block each.

Every kind is written the way the README's "Adding a scenario kind" tells
users to write theirs: a frozen params dataclass (the *only* place a default,
a CLI flag and its help live), a ``validate(core, params)``, a
``run(config, core, params)`` and one
:func:`~repro.scenarios.registry.register_kind` call.  A kind checks a point
by building what it runs: a fault kind's ``validate`` is its builder,
``_build_<kind>(core, params)``, which ``run`` calls too.  It returns the
fault model ``fd``, the :class:`FaultSchedule` checked against ``core.n``
and, for a steady kind, the rest of its :class:`SteadyStateSpec`.  So a
constructor's check (``QoSConfig``, a fault event, :meth:`FaultSchedule.check`)
runs at declaration, and a builder states only what no constructor knows.
Every kind but two registers through :func:`_steady`, so its ``run`` is the
one steady run of its builder's spec; ``crash-transient`` and
``service-load`` delegate to their own modules.  A result's ``params`` echo
the kind's params (defaults resolved) plus its read-outs.

The paper's scenarios come first (Figs. 4-8), then the fault-schedule kinds,
``service-load`` and the network fault-injection kinds, whose ``verify``
step is recorded under ``params["script"]``.  Importing this module
registers them all; the first call into :mod:`repro.scenarios.registry`
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.failure_detectors.qos import QoSConfig
from repro.metrics.stats import interarrival_from_throughput
from repro.scenarios.faults import (
    VML_CRASH_TIME,
    VML_SUSPECT_DURATION,
    VML_SUSPECT_START,
    CorrelatedCrash,
    CrashAt,
    DegradeAt,
    DegradeLinkAt,
    FaultSchedule,
    PoissonChurn,
    RestoreAt,
    crashed_processes,
    minority,
)
from repro.scenarios.registry import ScenarioKind, available_kinds, register_kind, run_kind
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec, warmup_count
from repro.scenarios.transient import CRASH_TIME, measure_crash_transient
from repro.stacks.api import Param, param
from repro.stacks.registry import GmReformParams
from repro.system import SystemConfig

#: Round trips of headroom wan-steady gives the derived per-pair detection times.
WAN_FD_SLACK = 2.0

#: What crash-steady and correlated-crash derive their ``crashed`` tuple from.
_CRASHES = Param(
    "crashes", "crashes", 1, "--crashes", "how many of the highest-numbered processes crash"
)
_MID_WINDOW = "in ms, unset = the middle of the arrival window"


# The values several kinds read, one flag each: a fresh field per class.
def _detection_time() -> Any:
    return param(0.0, flag="--detection-time", help="constant crash detection time T_D in ms")


def _tmr() -> Any:
    return param(1000.0, flag="--tmr", help="mean mistake recurrence time T_MR in ms")


def _tm() -> Any:
    return param(0.0, flag="--tm", help="mean mistake duration T_M in ms")


def _arrival_window(core: Any) -> float:
    """Expected length of the arrival window in ms (for default fault timing)."""
    total = warmup_count(core.num_messages) + core.num_messages
    return total * interarrival_from_throughput(core.throughput)


def _or_mid_window(instant: Optional[float], core: Any) -> float:
    """``instant``, or the middle of the expected arrival window for ``None``."""
    return 0.5 * _arrival_window(core) if instant is None else instant


def _run_steady(
    config, core: Any, fd: QoSConfig, verify=None, watch=None, wan_profile=None, **fields: Any
) -> ScenarioResult:
    """Run the steady-state measurement of ``core`` on ``config`` as a builder
    made it: the fault model ``fd``, the WAN profile set on the config's
    network, the hooks ``verify`` and ``watch`` of
    :meth:`ScenarioRunner.run_steady` and the rest of its
    :class:`SteadyStateSpec` (``fields``)."""
    network = config.network
    if wan_profile is not None:
        network = replace(network, wan_profile=wan_profile)
    spec = SteadyStateSpec(
        scenario=core.kind,
        config=replace(config, fd=fd, network=network),
        throughput=core.throughput,
        num_messages=core.num_messages,
        **fields,
    )
    return ScenarioRunner().run_steady(spec, verify=verify, watch=watch)


def _steady(build: Callable[[Any, Any], Dict[str, Any]]) -> Dict[str, Callable]:
    """The ``validate`` and ``run`` of a steady kind: both call ``build``."""
    return {
        "validate": build,
        "run": lambda config, core, params: _run_steady(config, core, **build(core, params)),
    }


# ------------------------------------------------------------------ normal-steady


@dataclass(frozen=True)
class NoParams:
    """normal-steady reads nothing beyond the common core."""


def _build_normal_steady(core: Any, params: NoParams) -> Dict[str, Any]:
    """Latency in runs with neither crashes nor suspicions (Fig. 4)."""
    return dict(fd=QoSConfig())


register_kind(
    ScenarioKind(
        name="normal-steady",
        shorthand="normal",
        summary="steady state with neither crashes nor suspicions (Fig. 4)",
        params=NoParams,
        **_steady(_build_normal_steady),
    )
)


# ------------------------------------------------------------------ crash-steady


@dataclass(frozen=True)
class CrashSteadyParams:
    crashed: Tuple[int, ...] = param((), help="pre-crashed process ids")


def _expand_crashes(n: int, derived: Dict[str, Any]) -> Dict[str, Any]:
    return {"crashed": crashed_processes(n, derived["crashes"])}


def _build_crash_steady(core: Any, params: CrashSteadyParams) -> Dict[str, Any]:
    """Latency long after the processes in ``crashed`` have crashed (Fig. 5).

    The crashed processes are suspected permanently by every failure detector
    from the very start of the run, and they do not send workload messages --
    exactly the paper's definition of the crash-steady scenario.
    """
    if not params.crashed:
        raise ValueError(f"{core.kind} points need a non-empty crashed tuple")
    crashed = tuple(params.crashed)
    faults = FaultSchedule.pre_crashed(crashed).check(core.n)
    return dict(fd=QoSConfig(), faults=faults, params={"crashed": crashed})


register_kind(
    ScenarioKind(
        name="crash-steady",
        shorthand="crash",
        summary="steady state long after some processes crashed (Fig. 5)",
        params=CrashSteadyParams,
        derived=(_CRASHES,),
        expand=_expand_crashes,
        **_steady(_build_crash_steady),
    )
)


# ------------------------------------------------------------------ suspicion-steady


@dataclass(frozen=True)
class SuspicionSteadyParams:
    mistake_recurrence_time: float = _tmr()
    mistake_duration: float = _tm()


def _require_qos_mistakes(core: Any, params: Any) -> None:
    if core.fd_kind != "qos":
        raise ValueError(
            f"{core.kind} points drive the QoS mistake model and need fd_kind='qos'"
        )
    if not math.isfinite(params.mistake_recurrence_time):
        raise ValueError(f"{core.kind} points need a finite mistake_recurrence_time")


def _build_suspicion_steady(core: Any, params: SuspicionSteadyParams) -> Dict[str, Any]:
    """Latency with wrong suspicions of correct processes (Figs. 6 and 7).

    ``mistake_recurrence_time`` and ``mistake_duration`` are the means (in
    ms) of the exponential QoS metrics ``T_MR`` and ``T_M`` of every failure
    detector pair.  No process crashes.
    """
    _require_qos_mistakes(core, params)
    fd = QoSConfig(
        detection_time=0.0,
        mistake_recurrence_time=params.mistake_recurrence_time,
        mistake_duration=params.mistake_duration,
    )
    return dict(fd=fd, params=dict(vars(params)))


register_kind(
    ScenarioKind(
        name="suspicion-steady",
        shorthand="suspicion",
        summary="steady state under wrong suspicions of correct processes (Figs. 6, 7)",
        params=SuspicionSteadyParams,
        **_steady(_build_suspicion_steady),
    )
)


# ------------------------------------------------------------------ crash-transient


@dataclass(frozen=True)
class CrashTransientParams:
    num_runs: int = param(8, flag="--runs", help="independent runs per point")
    detection_time: float = _detection_time()
    crashed_process: int = param(0, flag="--crashed-process", help="the pid that crashes")
    sender: Optional[int] = param(
        None, help="tagged sender of the probe, unset = the highest non-crashed pid"
    )


def _build_crash_transient(core: Any, params: CrashTransientParams) -> Dict[str, Any]:
    """What :func:`~repro.scenarios.transient.measure_crash_transient` takes
    besides the system and the throughput: ``crashed_process`` crashes at
    :data:`~repro.scenarios.transient.CRASH_TIME`, and ``sender`` (by default
    the highest pid that does not crash) issues the probe."""
    if core.fd_kind == "heartbeat":
        raise ValueError(
            "crash-transient points pin the detection time T_D and subtract it "
            "from the reported overhead; the heartbeat detector's T_D emerges "
            "from period + timeout instead (use fd_kind='qos' or 'perfect')"
        )
    if params.sender == params.crashed_process:
        raise ValueError("the tagged sender must differ from the crashed process")
    if params.sender is not None and not 0 <= params.sender < core.n:
        raise ValueError(f"sender {params.sender} out of range 0..{core.n - 1}")
    if core.n < 2:
        raise ValueError("crash-transient points need n >= 2 (a sender besides the crash)")
    if params.num_runs < 1:
        raise ValueError(f"num_runs must be >= 1, got {params.num_runs}")
    crash = CrashAt(CRASH_TIME, params.crashed_process)
    FaultSchedule([crash]).check(core.n)
    sender = params.sender
    if sender is None:
        sender = core.n - 1 if crash.pid != core.n - 1 else core.n - 2
    fd = QoSConfig(detection_time=params.detection_time)
    return dict(fd=fd, crash=crash, sender=sender, num_runs=params.num_runs)


def _run_crash_transient(config: SystemConfig, core: Any, params: CrashTransientParams) -> Any:
    built = _build_crash_transient(core, params)
    return measure_crash_transient(replace(config, fd=built.pop("fd")), core.throughput, **built)


# :mod:`repro.scenarios.transient` defines the scenario, holds its measurement
# and says why the reported overhead subtracts ``T_D``.
register_kind(
    ScenarioKind(
        name="crash-transient",
        shorthand="transient",
        summary="latency of a broadcast issued at the instant of a crash (Fig. 8)",
        params=CrashTransientParams,
        run=_run_crash_transient,
        validate=_build_crash_transient,
    )
)


# ------------------------------------------------------------------ correlated-crash


@dataclass(frozen=True)
class CorrelatedCrashParams:
    crashed: Tuple[int, ...] = param((), help="the processes that crash together")
    crash_time: Optional[float] = param(
        None, flag="--crash-time", help=f"crash instant {_MID_WINDOW}"
    )
    detection_time: float = _detection_time()


def _build_correlated_crash(core: Any, params: CorrelatedCrashParams) -> Dict[str, Any]:
    """Steady-state latency across a simultaneous crash of ``crashed``.

    A shared-fate fault: all processes in ``crashed`` fail at ``crash_time``,
    each crash detected ``detection_time`` ms later, and the measurement
    spans the crash -- the result mixes pre-crash, transient and post-crash
    latencies into one distribution.  Workload arrivals that would have been
    sent by a crashed process are redirected to the next live process.
    """
    crashed = tuple(params.crashed)
    crash_time = _or_mid_window(params.crash_time, core)
    return dict(
        fd=QoSConfig(detection_time=params.detection_time),
        faults=FaultSchedule([CorrelatedCrash(crash_time, crashed)]).check(core.n),
        senders=list(range(core.n)), reassign_crashed_senders=True,
        params=dict(vars(params), crashed=crashed, crash_time=crash_time),
    )


register_kind(
    ScenarioKind(
        name="correlated-crash",
        shorthand="correlated",
        summary="a group of processes crashes simultaneously inside the measured window",
        params=CorrelatedCrashParams,
        derived=(_CRASHES,),
        expand=_expand_crashes,
        **_steady(_build_correlated_crash),
    )
)


# ------------------------------------------------------------------ churn-steady


@dataclass(frozen=True)
class ChurnSteadyParams:
    churn_rate: float = param(1.0, flag="--churn-rate", help="crash arrivals per second")
    mean_downtime: float = param(
        200.0, flag="--downtime", help="mean exponential downtime per crash in ms"
    )
    detection_time: float = _detection_time()


def _build_churn_steady(core: Any, params: ChurnSteadyParams) -> Dict[str, Any]:
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
    return dict(
        fd=QoSConfig(detection_time=params.detection_time),
        faults=FaultSchedule([churn]).check(core.n),
        senders=list(range(core.n)), reassign_crashed_senders=True, params=dict(vars(params)),
    )


register_kind(
    ScenarioKind(
        name="churn-steady",
        shorthand="churn",
        summary="Poisson crash-recovery churn with rejoin, never exceeding f < n/2",
        params=ChurnSteadyParams,
        **_steady(_build_churn_steady),
    )
)


# ------------------------------------------------------------------ asymmetric-qos


@dataclass(frozen=True)
class AsymmetricQosParams:
    mistake_recurrence_time: float = _tmr()
    mistake_duration: float = _tm()
    flaky_monitor: int = param(1, flag="--flaky-monitor", help="observer of the flaky pair")
    flaky_target: int = param(0, flag="--flaky-target", help="observed process of the flaky pair")


def _build_asymmetric_qos(core: Any, params: AsymmetricQosParams) -> Dict[str, Any]:
    """Steady-state latency with one flaky failure detector pair.

    Only the ordered pair ``(flaky_monitor observes flaky_target)`` makes
    mistakes, with the given ``T_MR`` / ``T_M`` means; every other pair is
    perfect -- probing how far one bad link degrades each algorithm.  The
    default pair is "p1 wrongly suspects the coordinator / sequencer p0",
    the most damaging single bad link for both algorithms.
    """
    _require_qos_mistakes(core, params)
    for pid in (params.flaky_monitor, params.flaky_target):
        if not 0 <= pid < core.n:
            raise ValueError(f"flaky pair process {pid} out of range 0..{core.n - 1}")
    fd = QoSConfig().with_pair(
        params.flaky_monitor,
        params.flaky_target,
        mistake_recurrence_time=params.mistake_recurrence_time,
        mistake_duration=params.mistake_duration,
    )
    return dict(fd=fd, params=dict(vars(params)))


register_kind(
    ScenarioKind(
        name="asymmetric-qos",
        shorthand="asymmetric",
        summary="one flaky failure-detector pair, every other pair perfect",
        params=AsymmetricQosParams,
        **_steady(_build_asymmetric_qos),
    )
)


# ------------------------------------------------------------------ view-majority-loss


@dataclass(frozen=True)
class ViewMajorityLossParams:
    detection_time: float = _detection_time()
    crash_time: float = param(
        VML_CRASH_TIME,
        flag="--crash-time",
        help="blocking crash instant in ms, inside the suspicion window (50, 450)",
    )


def _build_view_majority_loss(core: Any, params: ViewMajorityLossParams) -> Dict[str, Any]:
    """Latency and time-to-reformation across a view-majority loss.

    :meth:`FaultSchedule.view_majority_loss` (which rejects n < 3 and a crash
    outside its suspicion window) shrinks the installed view through wrong
    suspicions, then crashes just enough of it that its alive members lose
    the view majority -- the GM algorithm's permanent deadlock, which
    ``gm-reform`` turns into a recovery.  Every process sends (a wrongly
    excluded sender flushes its buffer when the reformation re-admits it).

    ``watch`` records every view installation and reports whether a view of
    a later epoch was installed (``reformed``, ``None`` on a stack without
    views), its members and how long after the blocking crash
    (``time_to_reformation``, ``None`` while the group stays blocked).  Every
    record echoes the stack's ``reformation_timeout``, ``gm-reform``'s
    default when it has none.
    """
    block_time = params.crash_time
    def watch(system) -> Callable[[ScenarioResult], None]:
        installs: list = []
        sim, watches_views = system.sim, bool(system.memberships)
        timeout = getattr(
            system.config.params.stack, "reformation_timeout", GmReformParams.reformation_timeout
        )
        for pid, membership in enumerate(system.memberships):
            membership.add_view_listener(
                lambda view, _pid=pid: installs.append((sim.now, _pid, view))
            )
        def read(result: ScenarioResult) -> None:
            reformed = [(time, pid, view) for time, pid, view in installs if view.epoch > 0]
            first = min(reformed, default=None)
            result.params.update(
                block_time=block_time,
                reformed=bool(reformed) if watches_views else None,
                time_to_reformation=None if first is None else first[0] - block_time,
                reformed_members=None if first is None else list(first[2].members),
                views_installed=len(installs) if watches_views else None,
                reformation_timeout=timeout,
            )
        return read

    faults = FaultSchedule.view_majority_loss(core.n, crash_time=block_time)
    return dict(
        fd=QoSConfig(detection_time=params.detection_time), faults=faults.check(core.n),
        senders=list(range(core.n)), reassign_crashed_senders=True, watch=watch,
        params=dict(
            vars(params), suspect_start=VML_SUSPECT_START, suspect_duration=VML_SUSPECT_DURATION
        ),
    )


register_kind(
    ScenarioKind(
        name="view-majority-loss",
        shorthand="majority-loss",
        summary="the GM view-majority-loss blocked state; time-to-reformation under gm-reform",
        params=ViewMajorityLossParams,
        **_steady(_build_view_majority_loss),
    )
)


# ------------------------------------------------------------------ service-load


@dataclass(frozen=True)
class ServiceLoadParams:
    clients: int = param(0, flag="--clients", help="closed-loop client count, 0 = open loop")
    think_time: float = param(
        0.0, flag="--think-time", help="mean client think time in ms (closed loop)"
    )
    consistency: str = param(
        "ordered",
        flag="--consistency",
        help="read path: ordered (through the total order) or local (stale reads)",
    )


def _validate_service_load(core: Any, params: ServiceLoadParams) -> None:
    from repro.load.service import CONSISTENCY_MODES

    if params.clients < 0:
        raise ValueError(f"clients must be >= 0 (0 = open loop), got {params.clients}")
    if params.think_time < 0:
        raise ValueError(f"think_time must be >= 0, got {params.think_time}")
    if params.consistency not in CONSISTENCY_MODES:
        raise ValueError(
            f"consistency must be one of {CONSISTENCY_MODES}, got {params.consistency!r}"
        )


def _run_service_load(config: SystemConfig, core: Any, params: ServiceLoadParams) -> Any:
    """:func:`repro.scenarios.service_load.run_service_load`, the measurement;
    called directly it also takes what a point does not carry (admission
    bounds, a command mix, a fault schedule)."""
    from repro.scenarios.service_load import run_service_load

    return run_service_load(config, core.throughput, num_requests=core.num_messages, **vars(params))


register_kind(
    ScenarioKind(
        name="service-load",
        shorthand="service",
        summary="the replicated KV service under an open- or closed-loop client population",
        params=ServiceLoadParams,
        run=_run_service_load,
        validate=_validate_service_load,
    )
)


# ------------------------------------------------------------------ partition-transient


@dataclass(frozen=True)
class PartitionTransientParams:
    partition_start: Optional[float] = param(
        None, flag="--crash-time", help=f"partition instant {_MID_WINDOW}"
    )
    partition_duration: float = param(
        2000.0, flag="--fault-duration", help="length of the partition in ms"
    )
    detection_time: float = _detection_time()


def _build_partition_transient(core: Any, params: PartitionTransientParams) -> Dict[str, Any]:
    """Steady-state latency across a transient symmetric partition.

    The top ``(n - 1) // 2`` pids are cut off from the majority at
    ``partition_start`` and rejoin ``partition_duration`` ms later
    (:meth:`FaultSchedule.partition_transient`, which rejects n < 3).  The
    clock-driven detectors suspect unreachable peers one detection time
    after the cut (and trust them again after the heal); the heartbeat
    detector starves naturally.  Workload arrivals stay on all processes --
    minority-side sends during the window are the interesting part.

    ``verify`` checks the partition actually bit (frames were dropped) and
    fully healed, and that a run which outlived the heal delivered every
    measured message; a violation is recorded under ``params["script"]``.
    """
    n = core.n
    start = _or_mid_window(params.partition_start, core)
    heal = start + params.partition_duration
    def verify(system, result: ScenarioResult) -> None:
        dropped = system.network.stats.dropped_partitioned
        if dropped == 0:
            raise AssertionError("the partition window dropped no frames -- it never took effect")
        result.params["dropped_partitioned"] = dropped
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
            if result.undelivered:
                raise AssertionError(
                    f"the partition healed yet {result.undelivered} measured "
                    "messages were never delivered"
                )

    return dict(
        fd=QoSConfig(detection_time=params.detection_time), verify=verify,
        faults=FaultSchedule.partition_transient(n, start, params.partition_duration).check(n),
        senders=list(range(n)),
        params=dict(vars(params), partition_start=start, minority=minority(n)),
    )


register_kind(
    ScenarioKind(
        name="partition-transient",
        shorthand="partition",
        summary="a symmetric split isolates a minority for a window, then heals",
        params=PartitionTransientParams,
        **_steady(_build_partition_transient),
    )
)


# ------------------------------------------------------------------ wan-steady


@dataclass(frozen=True)
class WanSteadyParams:
    wan_profile: str = param("wan-3dc", flag="--wan-profile", help="registered WAN topology name")
    detection_time: float = _detection_time()


def _build_wan_steady(core: Any, params: WanSteadyParams) -> Dict[str, Any]:
    """Steady-state latency with the group spread across WAN datacenters.

    Process ``pid`` lives in datacenter ``pid % dc_count`` of the named
    :class:`~repro.sim.wan.WanProfile` (an unknown name raises here) and
    every cross-datacenter frame pays the profile's one-way propagation
    delay on top of the paper's contention model.  When the stack runs the
    QoS detector, its per-pair detection times are derived from the topology
    (:data:`WAN_FD_SLACK` round trips of headroom) so WAN lag alone never
    looks like a crash.
    """
    from repro.sim.wan import wan_profile

    topology = wan_profile(params.wan_profile)
    fd = QoSConfig(detection_time=params.detection_time)
    if core.fd_kind == "qos":
        fd = topology.derive_fd_config(fd, core.n, slack=WAN_FD_SLACK)
    def verify(system, result: ScenarioResult) -> None:
        if result.undelivered:
            raise AssertionError(
                f"wan-steady is fault-free yet {result.undelivered} measured "
                "messages were never delivered"
            )

    return dict(
        fd=fd, verify=verify, wan_profile=params.wan_profile,
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
        **_steady(_build_wan_steady),
    )
)


# ------------------------------------------------------------------ gray-degradation


@dataclass(frozen=True)
class GrayDegradationParams:
    degraded_pid: int = param(0, flag="--crashed-process", help="the degraded pid")
    degrade_factor: float = param(
        4.0, flag="--degrade-factor", help="CPU service-time multiplier while degraded"
    )
    degrade_start: Optional[float] = param(
        None, flag="--crash-time", help=f"degradation instant {_MID_WINDOW}"
    )
    degrade_duration: float = param(
        2000.0, flag="--fault-duration", help="length of the degradation in ms"
    )
    link_loss: float = param(
        0.0, flag="--link-loss", help="frame loss probability on the degraded pid's links"
    )
    detection_time: float = _detection_time()


def _build_gray_degradation(core: Any, params: GrayDegradationParams) -> Dict[str, Any]:
    """Steady-state latency across a gray failure of one process.

    From ``degrade_start`` until ``degrade_duration`` later,
    ``degraded_pid``'s CPU serves every job ``degrade_factor`` times slower
    -- alive and correct, just slow: the failure mode detectors must *not*
    treat as a crash.  With ``link_loss > 0`` its outgoing links
    additionally drop each frame with that probability during the window.
    The default victim is pid 0: the sequencer/coordinator of the GM stacks,
    the most damaging single slow process.  The kind asks more than the
    fault events do: a factor above 1 and a loss below 1.
    """
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
    n, pid = core.n, params.degraded_pid
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

    return dict(
        fd=QoSConfig(detection_time=params.detection_time), verify=verify,
        faults=faults.check(n), senders=list(range(n)),
        params=dict(vars(params), degrade_start=start),
    )


register_kind(
    ScenarioKind(
        name="gray-degradation",
        shorthand="gray",
        summary="one process's CPU runs slower for a window, optionally with lossy links",
        params=GrayDegradationParams,
        **_steady(_build_gray_degradation),
    )
)


# ``repro.scenarios.run_<kind>``: :func:`run_kind` bound to each built-in's
# name, so an omitted parameter has the default a campaign point has.
# ``service-load``'s is :func:`~repro.scenarios.service_load.run_service_load`,
# the measurement itself.
for _name in available_kinds():
    if _name != "service-load":
        globals()["run_" + _name.replace("-", "_")] = partial(run_kind, _name)
