"""Public API of the pluggable protocol-stack layer.

The paper's whole point is comparing *interchangeable* protocol stacks under
identical conditions.  This module defines the contracts that make a stack a
first-class, swappable object instead of an ``if algorithm == ...`` chain:

* :class:`StackSpec` / :class:`FdKindSpec` / :class:`LayerSpec` -- named,
  frozen registrations of a layer composition, a failure detector kind and
  the batching layer, each with the params dataclass of what it reads
  (defaults live there only, its ``__post_init__`` checks them, and
  :func:`param` gives a field its flat keyword and CLI flag);
* :class:`StackLayers` -- the per-process layer bundle a stack's builder
  returns to the system assembler.

An ``fd_kind``'s factory returns a
:class:`~repro.failure_detectors.interface.DetectorFabric`: that base class
is the one contract of a failure detector implementation.

Faults are not part of this API: each :mod:`repro.scenarios.faults` event
posts the bound method that enacts it (a process's ``crash``, the network's
``partition``, the fabric's ``suspect_permanently``, ...), so every stack
and fd kind runs every fault schedule unchanged.

Concrete registrations live in :mod:`repro.stacks.registry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.consensus import ConsensusService
    from repro.core.group_membership import GroupMembership
    from repro.core.reliable_broadcast import ReliableBroadcast
    from repro.core.types import AtomicBroadcast
    from repro.failure_detectors.interface import DetectorFabric
    from repro.sim.process import SimProcess
    from repro.system import BroadcastSystem


@dataclass(frozen=True)
class NoParams:
    """The params of a registration that reads nothing of its own."""


def param(
    default: Any, keyword: Optional[str] = None, flag: Optional[str] = None, help: str = ""
) -> Any:
    """A params field with spellings besides its name.

    ``keyword`` is the flat name ``SystemConfig``, ``PointSpec`` and
    ``grid()`` take (default: the field name); ``flag`` the campaigns CLI
    option with its ``help``.
    """
    return field(default=default, metadata={"keyword": keyword, "flag": flag, "help": help})


class Param(NamedTuple):
    """One field of a params dataclass, as the flat namespace sees it."""

    keyword: str
    field: str
    default: Any
    flag: Optional[str]
    help: str


@functools.lru_cache(maxsize=None)
def params_of(cls: type) -> Tuple[Param, ...]:
    """The fields of a params dataclass, in declaration order."""
    return tuple(
        Param(
            spec.metadata.get("keyword") or spec.name,
            spec.name,
            spec.default,
            spec.metadata.get("flag"),
            spec.metadata.get("help", ""),
        )
        for spec in fields(cls)
    )


@dataclass(frozen=True)
class StackLayers:
    """The per-process protocol layers one stack builder assembles.

    ``abcast`` is mandatory (it is the service the workload drives);
    ``membership`` is only present for stacks built on a group membership
    service.  Further optional layers added by future stacks should extend
    this bundle rather than grow positional returns.
    """

    abcast: "AtomicBroadcast"
    membership: Optional["GroupMembership"] = None


#: A stack's per-process layer factory.  Called once per process, *after* the
#: process, its failure detector, the reliable broadcast and the consensus
#: service exist -- in exactly that order, which golden-value tests pin down.
LayerBuilder = Callable[
    ["BroadcastSystem", "SimProcess", "ReliableBroadcast", "ConsensusService"],
    StackLayers,
]


@dataclass(frozen=True)
class StackSpec:
    """A named, frozen descriptor of one protocol-stack composition.

    ``name`` is the registry key; ``build`` is the per-process layer factory
    (:data:`LayerBuilder`), whose :class:`StackLayers` say whether the stack
    runs a group membership service; ``default_fd_kind`` applies unless a
    configuration names another; ``params`` is the params dataclass of what
    the layers read, resolved into ``system.config.params.stack``.
    """

    name: str
    build: LayerBuilder
    default_fd_kind: str = "qos"
    params: type = NoParams

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a stack needs a non-empty name")
        if "/" in self.name:
            raise ValueError(
                f"stack names cannot contain '/': {self.name!r} "
                "(slashes select a failure detector variant, e.g. 'fd/heartbeat')"
            )


#: A failure detector fabric factory: called once per system, before any
#: process exists, with the simulation kernel, the network, the system's
#: random streams and the full configuration (its own params are
#: ``config.params.detector``).
FabricFactory = Callable[..., "DetectorFabric"]


class LayerSpec(NamedTuple):
    """A layer any stack can carry, declared by its name and params."""

    name: str
    params: type


class FdKindSpec(NamedTuple):
    """A named failure detector kind: its fabric factory and its params."""

    name: str
    factory: FabricFactory
    params: type = NoParams

