"""Registry of scenario kinds.

A *scenario kind* is one way of running and measuring a system: the paper's
four benchmark scenarios plus the beyond-paper fault-schedule, service-load
and network fault-injection scenarios.  Each kind is one
:class:`ScenarioKind` registration in the table below -- its name and CLI
shorthand, a frozen params dataclass holding exactly the fields that kind
reads, a ``validate`` hook, a ``run(config, core, params)`` adapter onto the
``run_*`` driver, a label fragment and its sweep axes (``grid()`` keywords
and CLI flags, as plain data).  The campaign layer
(:mod:`repro.campaigns`) builds points, cache keys, grids, dispatch and the
command line from this table; adding a kind is one :func:`register_kind`
call and changes nobody else's cache keys.

``core`` is the part of a point every kind shares (see :data:`CORE_FIELDS`);
the built-ins only read ``core.throughput``, ``core.num_messages``,
``core.n``, ``core.fd_kind`` and ``core.kind``, so any object with those works.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.failure_detectors.qos import INFINITY
from repro.scenarios.extended import (
    run_asymmetric_qos,
    run_churn_steady,
    run_correlated_crash,
    run_gray_degradation,
    run_partition_transient,
    run_view_majority_loss,
    run_wan_steady,
)
from repro.scenarios.faults import VML_CRASH_TIME, VML_SUSPECT_DURATION, VML_SUSPECT_START
from repro.scenarios.service_load import run_service_load
from repro.scenarios.steady import run_crash_steady, run_normal_steady, run_suspicion_steady
from repro.scenarios.transient import run_crash_transient
from repro.sim.wan import wan_profile
from repro.system import SystemConfig

#: The fields every point carries whatever its kind: the scenario kind, the
#: system under test, the operating point and the config-level dimensions.
#: A kind's params may not reuse these names (nor ``params``, which holds them).
CORE_FIELDS = (
    "kind", "stack", "fd_kind", "n", "seed", "throughput", "num_messages",
    "reformation_timeout", "heartbeat_period", "heartbeat_timeout",
    "max_batch", "max_delay", "fd_scan_interval", "config_overrides", "instrument",
)


@dataclass(frozen=True)
class Axis:
    """One sweepable dimension of a kind: a ``grid()`` keyword and CLI flag.

    ``name`` is the ``grid()`` keyword -- a field of the kind's params unless
    the kind's ``expand`` hook derives the params from it (``crashes``).
    ``flag`` is the command-line spelling (``None``: ``grid()`` only), and
    ``default`` applies to both, so the CLI and a bare ``grid(kind)`` sweep
    the same point.
    """

    name: str
    default: Any
    help: str
    flag: Optional[str] = None
    type: Callable[[str], Any] = float
    choices: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True)
class ScenarioKind:
    """One registered scenario kind.

    Attributes
    ----------
    name / shorthand:
        The canonical kind name (``"churn-steady"``) and the short spelling
        ``--scenario`` also accepts (``"churn"``).
    summary:
        One line for ``--help`` and the README catalog.
    params:
        A frozen dataclass with a default for every field: the values this
        kind reads besides the common core.  Field types must be ones the
        cache key can canonicalise (:mod:`repro.campaigns.canonical`).
    run:
        ``run(config, core, params)`` -> ``ScenarioResult`` /
        ``TransientResult``; ``config`` is the point's ``SystemConfig``.
    validate:
        ``validate(core, params)`` raises ``ValueError`` for a point that
        could never run, at declaration time instead of mid-campaign.
    label:
        ``label(params)`` -> the kind's fragment of a point's log label.
    axes:
        The kind's sweep axes (see :class:`Axis`).
    expand:
        Optional ``expand(n, values) -> params kwargs`` for kinds whose axes
        are not params fields one to one; ``values`` maps every axis name to
        its value.
    """

    name: str
    shorthand: str
    summary: str
    params: type
    run: Callable[[SystemConfig, Any, Any], Any]
    validate: Callable[[Any, Any], None] = lambda core, params: None
    label: Callable[[Any], str] = lambda params: ""
    axes: Tuple[Axis, ...] = ()
    expand: Optional[Callable[[int, Dict[str, Any]], Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        if not self.name or not self.shorthand:
            raise ValueError("a scenario kind needs a name and a shorthand")
        reserved = set(self.param_names) & (set(CORE_FIELDS) | {"params"})
        if reserved:
            raise ValueError(
                f"{self.name}: params fields {sorted(reserved)} shadow the common core"
            )

    @functools.cached_property
    def param_names(self) -> Tuple[str, ...]:
        """The kind's own settable point fields, in declaration order."""
        return tuple(field.name for field in dataclasses.fields(self.params))

    def axis_values(self, given: Dict[str, Any]) -> Dict[str, Any]:
        """Every axis of the kind mapped to its value: ``given`` over defaults."""
        values = {axis.name: axis.default for axis in self.axes}
        unknown = set(given) - set(values)
        if unknown:
            raise ValueError(
                f"{self.name} has no axis {sorted(unknown)}; its axes are {sorted(values)}"
            )
        values.update(given)
        return values

    def point_params(self, n: int, values: Dict[str, Any]) -> Any:
        """The params instance of a grid point of size ``n``."""
        return self.params(**(self.expand(n, dict(values)) if self.expand else values))


_KINDS: Dict[str, ScenarioKind] = {}


def register_kind(kind: ScenarioKind, replace: bool = False) -> ScenarioKind:
    """Register ``kind`` under its name (error on collision unless ``replace``)."""
    if not replace and kind.name in _KINDS:
        raise ValueError(f"scenario kind {kind.name!r} is already registered")
    taken = {
        spelling
        for other in _KINDS.values()
        if other.name != kind.name
        for spelling in (other.name, other.shorthand)
    }
    if kind.name in taken or kind.shorthand in taken:
        raise ValueError(
            f"scenario kind {kind.name!r} / shorthand {kind.shorthand!r} collides "
            "with a registered kind"
        )
    _KINDS[kind.name] = kind
    return kind


def unregister_kind(name: str) -> None:
    """Remove a registered kind (testing hook; unknown names are a no-op)."""
    _KINDS.pop(name, None)


def available_kinds() -> Tuple[str, ...]:
    """Registered kind names, in registration order."""
    return tuple(_KINDS)


def kind_shorthands() -> Dict[str, str]:
    """``shorthand -> canonical name`` of every registered kind."""
    return {kind.shorthand: kind.name for kind in _KINDS.values()}


def get_kind(name: str) -> ScenarioKind:
    """The :class:`ScenarioKind` registered under the canonical ``name``."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {name!r}; expected one of {available_kinds()}"
        ) from None


# ------------------------------------------------------------------ builtin kinds
#
# The params of a built-in are named after its driver's keywords, so its
# adapter is the driver itself (:func:`_driver`).  Defaults are the driver's
# own where it has one; a field the driver requires defaults to a value
# ``validate`` rejects, and the kind's axis carries the sweep default.


def _driver(driver: Callable[..., Any], messages: Optional[str] = "num_messages", **rename: str):
    """``run`` adapter calling ``driver`` with the kind's params as keywords.

    ``messages`` is the driver's keyword for ``core.num_messages`` (``None``:
    it has no such notion); ``rename`` maps a params field to a keyword
    spelled differently.
    """

    def run(config: SystemConfig, core: Any, params: Any) -> Any:
        kwargs = {rename.get(name, name): value for name, value in vars(params).items()}
        if messages is not None:
            kwargs[messages] = core.num_messages
        return driver(config, core.throughput, **kwargs)

    return run


def crashed_processes(n: int, count: int) -> Tuple[int, ...]:
    """The ``count`` highest-numbered (non-coordinator) processes.

    The paper's crash-steady convention: the coordinator re-numbering
    optimisation makes the steady state independent of *which* processes
    crashed, so the figures crash the highest pids.
    """
    return tuple(range(n - count, n))


def _expand_crashes(n: int, values: Dict[str, Any]) -> Dict[str, Any]:
    crashes = values.pop("crashes")
    if crashes > SystemConfig(n=n).max_tolerated_crashes():
        raise ValueError(f"{crashes} crashes exceed the f < n/2 bound for n={n}")
    return dict(values, crashed=crashed_processes(n, crashes))


_DETECTION_TIME = Axis(
    "detection_time", 0.0, "constant crash detection time T_D in ms", "--detection-time"
)
_CRASHES = Axis("crashes", 1, "how many of the highest-numbered processes crash", "--crashes", int)
_TMR = Axis("mistake_recurrence_time", 1000.0, "mean mistake recurrence time T_MR in ms", "--tmr")
_TM = Axis("mistake_duration", 0.0, "mean mistake duration T_M in ms", "--tm")
_MID_WINDOW = "in ms (default: the middle of the arrival window)"


@dataclass(frozen=True)
class NoParams:
    """normal-steady reads nothing beyond the common core."""


@dataclass(frozen=True)
class CrashSteadyParams:
    #: Pre-crashed process ids.
    crashed: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SuspicionSteadyParams:
    #: Means of the detectors' exponential T_MR / T_M, ms.
    mistake_recurrence_time: float = INFINITY
    mistake_duration: float = 0.0


@dataclass(frozen=True)
class CrashTransientParams:
    #: Independent executions of the point.
    num_runs: int = 8
    detection_time: float = 0.0
    crashed_process: int = 0
    #: Tagged sender of the probe; ``None`` = the highest non-crashed pid.
    sender: Optional[int] = None


@dataclass(frozen=True)
class CorrelatedCrashParams:
    crashed: Tuple[int, ...] = ()
    #: When the group crashes, ms; ``None`` = the middle of the arrival window.
    crash_time: Optional[float] = None
    detection_time: float = 0.0


@dataclass(frozen=True)
class ChurnSteadyParams:
    #: Crash arrivals per second and mean exponential downtime, ms.
    churn_rate: float = 0.0
    mean_downtime: float = 0.0
    detection_time: float = 0.0


@dataclass(frozen=True)
class AsymmetricQosParams:
    mistake_recurrence_time: float = INFINITY
    mistake_duration: float = 0.0
    #: ``flaky_monitor`` wrongly suspects ``flaky_target``; other pairs are perfect.
    flaky_monitor: int = 1
    flaky_target: int = 0


@dataclass(frozen=True)
class ViewMajorityLossParams:
    detection_time: float = 0.0
    #: The blocking crash, ms, inside the canonical suspicion window.
    crash_time: float = VML_CRASH_TIME


@dataclass(frozen=True)
class ServiceLoadParams:
    #: Closed-loop client count; 0 = open loop at ``throughput`` requests/s.
    clients: int = 0
    #: Mean exponential think time per closed-loop client, ms.
    think_time: float = 0.0
    #: Read path: ``"ordered"`` or ``"local"``.
    consistency: str = "ordered"


@dataclass(frozen=True)
class PartitionTransientParams:
    #: Partition instant, ms; ``None`` = the middle of the arrival window.
    partition_start: Optional[float] = None
    partition_duration: float = 2000.0
    detection_time: float = 0.0


@dataclass(frozen=True)
class WanSteadyParams:
    #: Name of a registered :class:`repro.sim.wan.WanProfile`.
    wan_profile: str = "wan-3dc"
    detection_time: float = 0.0


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


def _validate_crashed(core: Any, params: Any) -> None:
    if not params.crashed:
        raise ValueError(f"{core.kind} points need a non-empty crashed tuple")


def _validate_suspicion(core: Any, params: Any) -> None:
    if core.fd_kind != "qos":
        raise ValueError(
            f"{core.kind} points drive the QoS mistake model and need fd_kind='qos'"
        )
    if not math.isfinite(params.mistake_recurrence_time):
        raise ValueError(f"{core.kind} points need a finite mistake_recurrence_time")


def _validate_crash_transient(core: Any, params: Any) -> None:
    if core.fd_kind == "heartbeat":
        raise ValueError(
            "crash-transient points pin the detection time T_D and subtract it "
            "from the reported overhead; the heartbeat detector's T_D emerges "
            "from period + timeout instead (use fd_kind='qos' or 'perfect')"
        )
    if params.sender == params.crashed_process:
        raise ValueError("the tagged sender must differ from the crashed process")


def _validate_churn(core: Any, params: Any) -> None:
    if params.churn_rate <= 0 or params.mean_downtime <= 0:
        raise ValueError("churn-steady points need churn_rate > 0 and mean_downtime > 0")


def _validate_asymmetric(core: Any, params: Any) -> None:
    _validate_suspicion(core, params)
    if params.flaky_monitor == params.flaky_target:
        raise ValueError("the flaky observer pair needs two distinct processes")
    for pid in (params.flaky_monitor, params.flaky_target):
        if not 0 <= pid < core.n:
            raise ValueError(f"flaky pair process {pid} out of range 0..{core.n - 1}")


def _validate_view_majority_loss(core: Any, params: Any) -> None:
    if core.n < 3:
        raise ValueError(
            "view-majority-loss points need a group size n >= 3 "
            "(even sizes use the staged two-window construction)"
        )
    # The campaign path always uses the canonical suspicion window, so a
    # crash outside it (which could never block the view) is rejected here.
    window_end = VML_SUSPECT_START + VML_SUSPECT_DURATION
    if not VML_SUSPECT_START < params.crash_time < window_end:
        raise ValueError(
            "view-majority-loss crash_time must fall inside the canonical "
            f"suspicion window ({VML_SUSPECT_START:g}, {window_end:g}), "
            f"got {params.crash_time}"
        )


def _validate_service_load(core: Any, params: Any) -> None:
    if params.clients < 0:
        raise ValueError(f"clients must be >= 0 (0 = open loop), got {params.clients}")
    if params.think_time < 0:
        raise ValueError(f"think_time must be >= 0, got {params.think_time}")
    if params.consistency not in ("ordered", "local"):
        raise ValueError(
            f"consistency must be 'ordered' or 'local', got {params.consistency!r}"
        )


def _validate_partition(core: Any, params: Any) -> None:
    if core.n < 3:
        raise ValueError("partition-transient points need n >= 3 (a real minority)")
    if params.partition_duration <= 0:
        raise ValueError(
            f"partition_duration must be > 0 ms, got {params.partition_duration}"
        )


def _validate_wan(core: Any, params: Any) -> None:
    wan_profile(params.wan_profile)  # unknown names raise here, not in a worker


def _validate_gray(core: Any, params: Any) -> None:
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


_BUILTINS = (
    ScenarioKind(
        name="normal-steady",
        shorthand="normal",
        summary="steady state with neither crashes nor suspicions (Fig. 4)",
        params=NoParams,
        run=_driver(run_normal_steady),
    ),
    ScenarioKind(
        name="crash-steady",
        shorthand="crash",
        summary="steady state long after some processes crashed (Fig. 5)",
        params=CrashSteadyParams,
        run=_driver(run_crash_steady),
        validate=_validate_crashed,
        label=lambda p: f" crashed={list(p.crashed)}",
        axes=(_CRASHES,),
        expand=_expand_crashes,
    ),
    ScenarioKind(
        name="suspicion-steady",
        shorthand="suspicion",
        summary="steady state under wrong suspicions of correct processes (Figs. 6, 7)",
        params=SuspicionSteadyParams,
        run=_driver(run_suspicion_steady),
        validate=_validate_suspicion,
        label=lambda p: f" T_MR={p.mistake_recurrence_time:g} T_M={p.mistake_duration:g}",
        axes=(_TMR, _TM),
    ),
    ScenarioKind(
        name="crash-transient",
        shorthand="transient",
        summary="latency of a broadcast issued at the instant of a crash (Fig. 8)",
        params=CrashTransientParams,
        run=_driver(run_crash_transient, messages=None),
        validate=_validate_crash_transient,
        label=lambda p: (
            f" T_D={p.detection_time:g} crash=p{p.crashed_process}"
            + ("" if p.sender is None else f" sender=p{p.sender}")
        ),
        axes=(
            Axis("num_runs", 8, "independent runs per point", "--runs", int),
            _DETECTION_TIME,
            Axis("crashed_process", 0, "the pid that crashes", "--crashed-process", int),
            Axis("sender", None, "tagged sender (default: the highest non-crashed pid)"),
        ),
    ),
    ScenarioKind(
        name="correlated-crash",
        shorthand="correlated",
        summary="a group of processes crashes simultaneously inside the measured window",
        params=CorrelatedCrashParams,
        run=_driver(run_correlated_crash),
        validate=_validate_crashed,
        label=lambda p: f" crashed={list(p.crashed)} T_D={p.detection_time:g}",
        axes=(
            _CRASHES,
            Axis("crash_time", None, f"crash instant {_MID_WINDOW}", "--crash-time"),
            _DETECTION_TIME,
        ),
        expand=_expand_crashes,
    ),
    ScenarioKind(
        name="churn-steady",
        shorthand="churn",
        summary="Poisson crash-recovery churn with rejoin, never exceeding f < n/2",
        params=ChurnSteadyParams,
        run=_driver(run_churn_steady),
        validate=_validate_churn,
        label=lambda p: f" churn={p.churn_rate:g}/s downtime={p.mean_downtime:g}ms",
        axes=(
            Axis("churn_rate", 1.0, "crash arrivals per second", "--churn-rate"),
            Axis("mean_downtime", 200.0, "mean downtime per crash in ms", "--downtime"),
            _DETECTION_TIME,
        ),
    ),
    ScenarioKind(
        name="asymmetric-qos",
        shorthand="asymmetric",
        summary="one flaky failure-detector pair, every other pair perfect",
        params=AsymmetricQosParams,
        run=_driver(run_asymmetric_qos),
        validate=_validate_asymmetric,
        label=lambda p: (
            f" p{p.flaky_monitor}~p{p.flaky_target}"
            f" T_MR={p.mistake_recurrence_time:g} T_M={p.mistake_duration:g}"
        ),
        axes=(
            _TMR,
            _TM,
            Axis("flaky_monitor", 1, "observer of the flaky pair", "--flaky-monitor", int),
            Axis("flaky_target", 0, "observed process of the flaky pair", "--flaky-target", int),
        ),
    ),
    ScenarioKind(
        name="view-majority-loss",
        shorthand="majority-loss",
        summary="the GM view-majority-loss blocked state; time-to-reformation under gm-reform",
        params=ViewMajorityLossParams,
        run=_driver(run_view_majority_loss),
        validate=_validate_view_majority_loss,
        label=lambda p: f" T_D={p.detection_time:g}",
        axes=(
            _DETECTION_TIME,
            Axis(
                "crash_time",
                VML_CRASH_TIME,
                "blocking crash instant in ms, inside the suspicion window (50, 450)",
                "--crash-time",
            ),
        ),
    ),
    ScenarioKind(
        name="service-load",
        shorthand="service",
        summary="the replicated KV service under an open- or closed-loop client population",
        params=ServiceLoadParams,
        run=_driver(run_service_load, messages="num_requests"),
        validate=_validate_service_load,
        label=lambda p: (
            (f" clients={p.clients} think={p.think_time:g}ms" if p.clients > 0 else " open-loop")
            + (f" {p.consistency}" if p.consistency != "ordered" else "")
        ),
        axes=(
            Axis("clients", 0, "closed-loop client count, 0 = open loop", "--clients", int),
            Axis("think_time", 0.0, "mean client think time in ms (closed loop)", "--think-time"),
            Axis(
                "consistency",
                "ordered",
                "read path: totally ordered or local stale reads",
                "--consistency",
                str,
                ("ordered", "local"),
            ),
        ),
    ),
    ScenarioKind(
        name="partition-transient",
        shorthand="partition",
        summary="a symmetric split isolates a minority for a window, then heals",
        params=PartitionTransientParams,
        run=_driver(run_partition_transient),
        validate=_validate_partition,
        label=lambda p: f" T_D={p.detection_time:g} window={p.partition_duration:g}ms",
        axes=(
            Axis("partition_start", None, f"partition instant {_MID_WINDOW}", "--crash-time"),
            Axis("partition_duration", 2000.0, "length of the partition in ms", "--fault-duration"),
            _DETECTION_TIME,
        ),
    ),
    ScenarioKind(
        name="wan-steady",
        shorthand="wan",
        summary="steady state with the group spread across the datacenters of a WAN profile",
        params=WanSteadyParams,
        run=_driver(run_wan_steady, wan_profile="profile"),
        validate=_validate_wan,
        label=lambda p: f" profile={p.wan_profile}",
        axes=(
            Axis("wan_profile", "wan-3dc", "registered WAN topology name", "--wan-profile", str),
            _DETECTION_TIME,
        ),
    ),
    ScenarioKind(
        name="gray-degradation",
        shorthand="gray",
        summary="one process's CPU runs slower for a window, optionally with lossy links",
        params=GrayDegradationParams,
        run=_driver(run_gray_degradation),
        validate=_validate_gray,
        label=lambda p: (
            f" slow=p{p.degraded_pid} x{p.degrade_factor:g}"
            + (f" loss={p.link_loss:g}" if p.link_loss > 0 else "")
        ),
        axes=(
            Axis("degraded_pid", 0, "the degraded pid", "--crashed-process", int),
            Axis(
                "degrade_factor", 4.0, "CPU service-time multiplier while degraded",
                "--degrade-factor",
            ),
            Axis("degrade_start", None, f"degradation instant {_MID_WINDOW}", "--crash-time"),
            Axis("degrade_duration", 2000.0, "length of the degradation in ms", "--fault-duration"),
            Axis(
                "link_loss", 0.0, "frame loss probability on the degraded pid's links",
                "--link-loss",
            ),
            _DETECTION_TIME,
        ),
    ),
)

for _kind in _BUILTINS:
    register_kind(_kind)
