"""Registry of protocol stacks, failure detector kinds and their params.

The system assembler (:class:`repro.system.BroadcastSystem`) resolves its
layer composition here instead of hard-coding an ``if algorithm == ...``
chain: the paper's FD and GM algorithms (``"fd"``, ``"gm"``), the
non-uniform GM variant and the GM algorithm with group reformation
(``"gm-reform"``), over the ``"qos"``, ``"heartbeat"`` and ``"perfect"``
failure detector kinds, each combination selectable as ``stack=`` +
``fd_kind=`` or slash-qualified (``"fd/heartbeat"``).  Every system also
carries the request-batching layer (:data:`BATCHING`), off unless
``max_batch > 0``.

Each registration declares the params it reads (:mod:`repro.stacks.api`).
Their fields form one flat keyword namespace, and :func:`resolve_params` holds
its one rule: a keyword the selected stack, fd kind or batching layer
declares sets that field; one only other registrations declare is dropped
when it equals their default and raises otherwise.  Users extend the system
by registering their own stack or fd kind -- no core module needs to change.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.failure_detectors.heartbeat import HeartbeatConfig
from repro.failure_detectors.interface import DetectorFabric
from repro.stacks.api import (
    FabricFactory,
    FdKindSpec,
    LayerSpec,
    NoParams,
    Param,
    StackLayers,
    StackSpec,
    param,
    params_of,
)

_STACKS: Dict[str, StackSpec] = {}
_FD_KINDS: Dict[str, FdKindSpec] = {}

#: The stacks a campaign sweeps unless told otherwise: the paper's two.
DEFAULT_STACKS = ("fd", "gm")


@dataclass(frozen=True)
class BatchingParams:
    """The request-batching layer (:mod:`repro.load.batching`), on every stack."""

    max_batch: int = param(
        0, flag="--max-batch", help="request batching: payloads per ordering step, 0 = unbatched"
    )
    max_delay: float = param(
        0.0, flag="--max-delay", help="max batching delay in ms before a partial batch flushes"
    )

    def __post_init__(self) -> None:
        if self.max_batch < 0 or self.max_delay < 0:
            raise ValueError(f"negative max_batch / max_delay: {self.max_batch} / {self.max_delay}")
        if self.max_delay and not self.max_batch:
            raise ValueError("max_delay applies only with max_batch > 0")


#: The batching layer's registration (the system wraps each abcast in a
#: :class:`repro.load.batching.BatchingAtomicBroadcast` iff ``max_batch > 0``).
BATCHING = LayerSpec(name="batching", params=BatchingParams)


class SystemParams(NamedTuple):
    """The resolved params of the registrations one system is built from."""

    stack: Any
    detector: Any
    batching: BatchingParams


# ------------------------------------------------------------------ registration


def register_stack(spec: StackSpec) -> StackSpec:
    """Register ``spec`` under its name (an error if the name is taken)."""
    if spec.name in _STACKS:
        raise ValueError(f"stack {spec.name!r} is already registered")
    _STACKS[spec.name] = spec
    return spec


def register_fd_kind(name: str, factory: FabricFactory, params: type = NoParams) -> FdKindSpec:
    """Register a failure detector fabric factory under ``name``.

    The factory is called as ``factory(sim, network, rng, config)`` with the
    simulation kernel, the contention network, the system's random streams
    and the full :class:`~repro.system.SystemConfig`, whose
    ``params.detector`` is the resolved instance of ``params``.
    """
    if "/" in name:
        raise ValueError(f"fd kind names cannot contain '/': {name!r}")
    if name in _FD_KINDS:
        raise ValueError(f"fd kind {name!r} is already registered")
    spec = _FD_KINDS[name] = FdKindSpec(name, factory, params)
    return spec


def unregister_stack(name: str) -> None:
    """Remove a registered stack (testing hook; unknown names are a no-op)."""
    _STACKS.pop(name, None)


def unregister_fd_kind(name: str) -> None:
    """Remove a registered fd kind (testing hook; unknown names are a no-op)."""
    _FD_KINDS.pop(name, None)


# ------------------------------------------------------------------ lookup


def available_stacks() -> Tuple[str, ...]:
    """Registered base stack names, in registration order."""
    return tuple(_STACKS)


def available_fd_kinds() -> Tuple[str, ...]:
    """Registered failure detector kinds, in registration order."""
    return tuple(_FD_KINDS)


def stack_variants() -> Tuple[str, ...]:
    """Every selectable stack name, including the ``stack/fd_kind`` combos."""
    names = list(_STACKS)
    for stack in _STACKS:
        for kind in _FD_KINDS:
            if kind != _STACKS[stack].default_fd_kind:
                names.append(f"{stack}/{kind}")
    return tuple(names)


def get_stack(name: str) -> StackSpec:
    """The :class:`StackSpec` registered under ``name`` (base names only)."""
    try:
        return _STACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown stack {name!r}; expected one of {available_stacks()}"
        ) from None


def get_fd_kind(name: str) -> FdKindSpec:
    """The :class:`FdKindSpec` registered under ``name``."""
    try:
        return _FD_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown fd kind {name!r}; expected one of {available_fd_kinds()}"
        ) from None


def split_stack(name: str) -> Tuple[str, Optional[str]]:
    """Split a possibly slash-qualified stack name into ``(base, fd_kind)``.

    ``"fd"`` -> ``("fd", None)``; ``"fd/heartbeat"`` -> ``("fd", "heartbeat")``.
    Purely lexical -- validation happens in :func:`resolve`.
    """
    if "/" in name:
        base, _, kind = name.partition("/")
        return base, kind
    return name, None


def variant_name(stack: str, fd_kind: str) -> str:
    """``stack``, slash-qualified with ``fd_kind`` unless that is its default."""
    if fd_kind == get_stack(stack).default_fd_kind:
        return stack
    return f"{stack}/{fd_kind}"


def resolve(stack: str, fd_kind: Optional[str] = None) -> Tuple[StackSpec, str]:
    """Resolve a stack selection to ``(StackSpec, fd_kind)``.

    ``stack`` may embed an fd kind (``"fd/heartbeat"``); an explicitly passed
    ``fd_kind`` must then agree with it.  When neither names a kind, the
    stack's ``default_fd_kind`` applies.  Raises ``ValueError`` for unknown
    names or conflicting selections.
    """
    base, embedded = split_stack(stack)
    spec = get_stack(base)
    if embedded is not None:
        get_fd_kind(embedded)  # validate
        if fd_kind is not None and fd_kind != embedded:
            raise ValueError(
                f"conflicting failure detector selection: stack {stack!r} "
                f"embeds {embedded!r} but fd_kind={fd_kind!r} was passed"
            )
        return spec, embedded
    kind = fd_kind if fd_kind is not None else spec.default_fd_kind
    get_fd_kind(kind)  # validate
    return spec, kind


def create_fd_fabric(kind: str, sim, network, rng, config) -> DetectorFabric:
    """Instantiate the fabric of fd kind ``kind`` for one system."""
    return get_fd_kind(kind).factory(sim, network, rng, config)


# ------------------------------------------------------------------ params


def param_keywords() -> Dict[str, List[Tuple[str, str, Param]]]:
    """Every declared keyword -> its ``(axis, registration, param)`` declarations.

    ``axis`` is ``"stack"``, ``"fd kind"`` or ``"layer"``.
    """
    declared: Dict[str, List[Tuple[str, str, Param]]] = {}
    for axis, registrations in (
        ("stack", _STACKS.values()), ("fd kind", _FD_KINDS.values()), ("layer", (BATCHING,))
    ):
        for registration in registrations:
            for entry in params_of(registration.params):
                declared.setdefault(entry.keyword, []).append((axis, registration.name, entry))
    return declared


def param_owners(keyword: str) -> Dict[str, List[str]]:
    """``{axis: [registration, ...]}`` of the registrations declaring ``keyword``."""
    owners: Dict[str, List[str]] = {}
    for axis, name, _declared in param_keywords().get(keyword, ()):
        owners.setdefault(axis, []).append(name)
    return owners


def check_unread(keyword: str, value: Any) -> None:
    """Drop ``keyword`` silently if ``value`` is its default, else raise.

    For a keyword none of the selected registrations reads: the value of a
    knob nobody turns must not mint a second name for the same system.
    """
    declarations = param_keywords().get(keyword)
    if declarations is None:
        raise TypeError(
            f"unexpected keyword argument {keyword!r}: no stack, fd kind or layer declares it"
        )
    if any(value != declared.default for _axis, _name, declared in declarations):
        owners = param_owners(keyword)
        where = "; ".join(f"{axis} {', '.join(names)}" for axis, names in owners.items())
        raise ValueError(f"{keyword} applies to {where}")


def reads(spec: StackSpec, fd_kind: str) -> Dict[str, Tuple[int, str]]:
    """``keyword -> (index, field)`` of every param a system of ``spec`` +
    ``fd_kind`` reads; ``index`` orders stack, fd kind, batching."""
    return {
        declared.keyword: (index, declared.field)
        for index, registration in enumerate((spec, get_fd_kind(fd_kind), BATCHING))
        for declared in params_of(registration.params)
    }


def resolve_params(spec: StackSpec, fd_kind: str, given: Dict[str, Any]) -> SystemParams:
    """The params of stack ``spec`` + ``fd_kind`` + batching from flat keywords.

    Each keyword sets the field of the selected registration declaring it;
    the rest go through :func:`check_unread`.  Building each params instance
    runs its checks.
    """
    if not given:
        return _defaults(spec, get_fd_kind(fd_kind))
    routes = reads(spec, fd_kind)
    values: Tuple[Dict[str, Any], ...] = ({}, {}, {})
    for keyword, value in given.items():
        if keyword in routes:
            index, field = routes[keyword]
            values[index][field] = value
        else:
            check_unread(keyword, value)
    selected = (spec.params, get_fd_kind(fd_kind).params, BATCHING.params)
    return SystemParams(*(cls(**fields) for cls, fields in zip(selected, values)))


@functools.lru_cache(maxsize=None)
def _defaults(spec: StackSpec, kind: FdKindSpec) -> SystemParams:
    return SystemParams(spec.params(), kind.params(), BATCHING.params())


def flat_params(params: SystemParams) -> Dict[str, Any]:
    """``{keyword: value}`` of every field of ``params`` off its default."""
    return {
        declared.keyword: getattr(instance, declared.field)
        for instance in params
        for declared in params_of(type(instance))
        if getattr(instance, declared.field) != declared.default
    }


# ------------------------------------------------------------------ builtin stacks


def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class GmParams:
    #: Retry period, ms, of the join protocol of wrongly excluded processes.
    join_retry_interval: float = 500.0

    def __post_init__(self) -> None:
        _positive("join_retry_interval", self.join_retry_interval)


@dataclass(frozen=True)
class GmReformParams(GmParams):
    #: How long a view change may stall, ms, before a member proposes a group
    #: reformation over the full static process set.
    reformation_timeout: float = param(
        500.0, flag="--reformation-timeout", help="reformation trigger window in ms"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        _positive("reformation_timeout", self.reformation_timeout)


@dataclass(frozen=True)
class ScanParams:
    #: ``None``: exact clock-driven detection, each pair transition its own
    #: simulator event.  A tick, ms: the *batched scan*, which quantizes
    #: transitions to the tick (:mod:`repro.failure_detectors.fabric`).
    scan_interval: Optional[float] = param(
        None, "fd_scan_interval", "--fd-scan-interval",
        "batched FD scan tick in ms, unset = exact per-pair events",
    )

    def __post_init__(self) -> None:
        if self.scan_interval is not None:
            _positive("fd_scan_interval", self.scan_interval)


def _build_fd_stack(system, process, rbcast, consensus) -> StackLayers:
    """Layers of the FD algorithm: Chandra-Toueg atomic broadcast."""
    from repro.core.fd_broadcast import FDAtomicBroadcast

    return StackLayers(abcast=FDAtomicBroadcast(process, rbcast, consensus))


def _make_gm_builder(uniform: bool):
    """Layer builder of the GM algorithm (uniform or non-uniform delivery).

    Params with a ``reformation_timeout`` arm the group-reformation path: a
    stalled view change escalates to a full-static-set reformation consensus
    instead of blocking forever after view-majority loss.
    """

    def _build_gm_stack(system, process, rbcast, consensus) -> StackLayers:
        from repro.core.group_membership import GroupMembership
        from repro.core.sequencer_broadcast import SequencerAtomicBroadcast

        params = system.config.params.stack
        membership = GroupMembership(
            process,
            consensus,
            join_retry_interval=params.join_retry_interval,
            reformation_timeout=getattr(params, "reformation_timeout", None),
        )
        abcast = SequencerAtomicBroadcast(process, membership, uniform=uniform)
        return StackLayers(abcast=abcast, membership=membership)

    return _build_gm_stack


def _qos_fabric(sim, network, rng, config):
    from repro.failure_detectors.qos import QoSFailureDetectorFabric

    return QoSFailureDetectorFabric(
        sim, network, rng, config.fd, scan_interval=config.params.detector.scan_interval
    )


def _heartbeat_fabric(sim, network, rng, config):
    from repro.failure_detectors.heartbeat import HeartbeatFailureDetectorFabric

    return HeartbeatFailureDetectorFabric(sim, network, config.params.detector)


def _perfect_fabric(sim, network, rng, config):
    from repro.failure_detectors.perfect import PerfectFailureDetectorFabric

    return PerfectFailureDetectorFabric(
        sim,
        network,
        detection_time=config.fd.detection_time,
        scan_interval=config.params.detector.scan_interval,
    )


def _register_builtins() -> None:
    register_stack(StackSpec(name="fd", build=_build_fd_stack))
    register_stack(
        StackSpec(
            name="gm",
            build=_make_gm_builder(uniform=True),
            params=GmParams,
        )
    )
    register_stack(
        StackSpec(
            name="gm-nonuniform",
            build=_make_gm_builder(uniform=False),
            params=GmParams,
        )
    )
    register_stack(
        StackSpec(
            name="gm-reform",
            build=_make_gm_builder(uniform=True),
            params=GmReformParams,
        )
    )
    register_fd_kind("qos", _qos_fabric, params=ScanParams)
    register_fd_kind("heartbeat", _heartbeat_fabric, params=HeartbeatConfig)
    register_fd_kind("perfect", _perfect_fabric, params=ScanParams)


_register_builtins()
