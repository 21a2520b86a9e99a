"""Registry of scenario kinds.

A *scenario kind* is one way of running and measuring a system: the paper's
four benchmark scenarios plus the beyond-paper fault-schedule, service-load
and network fault-injection scenarios.  Each kind is one
:class:`ScenarioKind` registration -- its name and CLI shorthand, a frozen
params dataclass holding exactly the fields that kind reads, a ``validate``
hook, a ``run(config, core, params)`` that performs the measurement, a label
fragment and its sweep axes (``grid()`` keywords and CLI flags, as plain
data).  The campaign layer (:mod:`repro.campaigns`) builds points, cache
keys, grids, dispatch and the command line from this table, and
:func:`run_kind` runs one point without it; adding a kind is one
:func:`register_kind` call and changes nobody else's cache keys.  The
built-in kinds register themselves from :mod:`repro.scenarios.kinds`.

``core`` is the part of a point every kind shares (see :data:`CORE_FIELDS`);
the built-ins only read ``core.throughput``, ``core.num_messages``,
``core.n``, ``core.fd_kind`` and ``core.kind``, so any object with those works.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.scenarios.runner import DEFAULT_MESSAGES
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


def run_kind(
    name: str,
    config: SystemConfig,
    throughput: float,
    num_messages: int = DEFAULT_MESSAGES,
    **params: Any,
) -> Any:
    """Run one point of the kind ``name`` on ``config``, without the campaign layer.

    The same three steps a ``PointSpec`` takes: build the kind's params
    dataclass from ``params`` (so an omitted parameter has the default a
    campaign point has), run the kind's ``validate``, call the kind's
    ``run``.  ``repro.scenarios.run_<kind>`` are this function bound to a
    built-in's name.
    """
    kind = get_kind(name)
    unknown = set(params) - set(kind.param_names)
    if unknown:
        raise ValueError(
            f"{name} points take no {sorted(unknown)}; besides config, throughput "
            f"and num_messages the kind declares {list(kind.param_names)}"
        )
    core = SimpleNamespace(
        kind=name, throughput=throughput, num_messages=num_messages,
        n=config.n, fd_kind=config.fd_kind,
    )
    kind_params = kind.params(**params)
    kind.validate(core, kind_params)
    return kind.run(config, core, kind_params)
