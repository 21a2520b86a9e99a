"""Registry of protocol stacks and failure detector kinds.

The system assembler (:class:`repro.system.BroadcastSystem`) resolves its
layer composition here instead of hard-coding an ``if algorithm == ...``
chain.  Four stacks ship with the paper reproduction:

* ``"fd"``            -- reliable broadcast + consensus + Chandra-Toueg
  atomic broadcast (the *FD algorithm*),
* ``"gm"``            -- reliable broadcast + consensus + group membership +
  fixed-sequencer uniform atomic broadcast (the *GM algorithm*),
* ``"gm-nonuniform"`` -- the non-uniform variant of the GM algorithm
  (Section 8 extension),
* ``"gm-reform"``     -- the GM algorithm plus the timeout-gated group
  reformation layer, which restores liveness after an installed view loses
  its majority of alive members (beyond-paper extension).

and three failure detector kinds:

* ``"qos"``       -- the paper's abstract QoS model (Chen/Toueg/Aguilera),
* ``"heartbeat"`` -- a concrete, message-based heartbeat detector whose
  traffic loads the simulated network,
* ``"perfect"``   -- an idealised detector (no mistakes, constant detection).

A stack name may embed a failure detector variant after a slash
(``"fd/heartbeat"``, ``"gm/perfect"``): :func:`split_stack` normalises it to
the base stack plus an ``fd_kind``.  Users extend the system by registering
their own :class:`~repro.stacks.api.StackSpec` / fabric factory under a new
name -- no core module needs to change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.stacks.api import FabricFactory, StackLayers, StackSpec

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy/cycle-free
    from repro.stacks.api import FailureDetectorFabric

_STACKS: Dict[str, StackSpec] = {}
_FD_KINDS: Dict[str, FabricFactory] = {}


# ------------------------------------------------------------------ registration


def register_stack(spec: StackSpec, replace: bool = False) -> StackSpec:
    """Register ``spec`` under its name (error on collision unless ``replace``)."""
    if not replace and spec.name in _STACKS:
        raise ValueError(f"stack {spec.name!r} is already registered")
    _STACKS[spec.name] = spec
    return spec


def register_fd_kind(name: str, factory: FabricFactory, replace: bool = False) -> None:
    """Register a failure detector fabric factory under ``name``.

    The factory is called as ``factory(sim, network, rng, config)`` with the
    simulation kernel, the contention network, the system's random streams
    and the full :class:`~repro.system.SystemConfig`.
    """
    if "/" in name:
        raise ValueError(f"fd kind names cannot contain '/': {name!r}")
    if not replace and name in _FD_KINDS:
        raise ValueError(f"fd kind {name!r} is already registered")
    _FD_KINDS[name] = factory


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


def get_fd_kind(name: str) -> FabricFactory:
    """The fabric factory registered under fd kind ``name``."""
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


def create_fd_fabric(kind: str, sim, network, rng, config) -> "FailureDetectorFabric":
    """Instantiate the fabric of fd kind ``kind`` for one system."""
    return get_fd_kind(kind)(sim, network, rng, config)


# ------------------------------------------------------------------ builtin stacks


def _build_fd_stack(system, process, rbcast, consensus) -> StackLayers:
    """Layers of the FD algorithm: Chandra-Toueg atomic broadcast."""
    from repro.core.fd_broadcast import FDAtomicBroadcast

    return StackLayers(
        abcast=FDAtomicBroadcast(
            process,
            rbcast,
            consensus,
            renumber_coordinators=system.config.renumber_coordinators,
            pipeline_depth=system.config.pipeline_depth,
        )
    )


def _make_gm_builder(uniform: bool, reform: bool = False):
    """Layer builder of the GM algorithm (uniform or non-uniform delivery).

    ``reform`` arms the group-reformation path: the membership service is
    built with the configuration's ``reformation_timeout`` so a stalled view
    change escalates to a full-static-set reformation consensus instead of
    blocking forever after view-majority loss.
    """

    def _build_gm_stack(system, process, rbcast, consensus) -> StackLayers:
        from repro.core.group_membership import GroupMembership
        from repro.core.sequencer_broadcast import SequencerAtomicBroadcast

        membership = GroupMembership(
            process,
            consensus,
            join_retry_interval=system.config.join_retry_interval,
            reformation_timeout=(
                system.config.reformation_timeout if reform else None
            ),
        )
        abcast = SequencerAtomicBroadcast(
            process,
            membership,
            uniform=uniform,
            pipeline_depth=system.config.pipeline_depth,
        )
        return StackLayers(abcast=abcast, membership=membership)

    return _build_gm_stack


def _qos_fabric(sim, network, rng, config):
    from repro.failure_detectors.qos import QoSFailureDetectorFabric

    return QoSFailureDetectorFabric(
        sim, network, rng, config.fd, scan_interval=config.fd_scan_interval
    )


def _heartbeat_fabric(sim, network, rng, config):
    from repro.failure_detectors.heartbeat import HeartbeatFailureDetectorFabric

    return HeartbeatFailureDetectorFabric(sim, network, config.heartbeat)


def _perfect_fabric(sim, network, rng, config):
    from repro.failure_detectors.perfect import PerfectFailureDetectorFabric

    return PerfectFailureDetectorFabric(
        sim,
        network,
        rng,
        detection_time=config.fd.detection_time,
        scan_interval=config.fd_scan_interval,
    )


def _register_builtins() -> None:
    register_stack(
        StackSpec(
            name="fd",
            description=(
                "Chandra-Toueg atomic broadcast on consensus and unreliable "
                "failure detectors (the paper's FD algorithm)"
            ),
            build=_build_fd_stack,
        )
    )
    register_stack(
        StackSpec(
            name="gm",
            description=(
                "fixed-sequencer uniform atomic broadcast on a group "
                "membership service (the paper's GM algorithm)"
            ),
            build=_make_gm_builder(uniform=True),
            uses_membership=True,
        )
    )
    register_stack(
        StackSpec(
            name="gm-nonuniform",
            description=(
                "non-uniform variant of the GM algorithm (Section 8 extension)"
            ),
            build=_make_gm_builder(uniform=False),
            uses_membership=True,
        )
    )
    register_stack(
        StackSpec(
            name="gm-reform",
            description=(
                "GM algorithm with timeout-gated group reformation: a "
                "stalled view change escalates to a full-static-set "
                "consensus that rebuilds the group after view-majority loss"
            ),
            build=_make_gm_builder(uniform=True, reform=True),
            uses_membership=True,
            # Capability flag tooling keys on: campaign grids apply the
            # reformation-timeout sweep dimension to stacks carrying it.
            params=(("reformation", True),),
        )
    )
    register_fd_kind("qos", _qos_fabric)
    register_fd_kind("heartbeat", _heartbeat_fabric)
    register_fd_kind("perfect", _perfect_fabric)


_register_builtins()
