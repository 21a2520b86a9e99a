"""Registry of scenario kinds.

A *scenario kind* is one way of running and measuring a system: the paper's
four benchmark scenarios plus the beyond-paper fault-schedule, service-load
and network fault-injection scenarios.  Each kind is one
:class:`ScenarioKind` registration -- its name and CLI shorthand, a frozen
params dataclass holding exactly the fields that kind reads, a ``validate``
hook and a ``run(config, core, params)`` that performs the measurement;
each params field is also a ``grid()`` keyword and, declared with
:func:`~repro.stacks.api.param`, a CLI flag.  The campaign layer
(:mod:`repro.campaigns`) builds points, cache keys, grids, dispatch and the
command line from this table, and :func:`run_kind` runs one point without
it; adding a kind is one :func:`register_kind` call and changes nobody
else's cache keys.  The built-in kinds (:mod:`repro.scenarios.kinds`)
register on the first call into this table, so a program that never looks
a kind up never imports them, and a user's kind still registers after them.

``core`` is the part of a point every kind shares (a campaign
``PointSpec``); the built-ins only read ``core.throughput``,
``core.num_messages``, ``core.n``, ``core.fd_kind`` and ``core.kind``, so any
object with those works.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.scenarios.runner import DEFAULT_MESSAGES
from repro.stacks.api import Param, params_of
from repro.stacks.registry import param_keywords
from repro.system import SystemConfig

#: Names a point already gives a meaning to besides ``SystemConfig``'s
#: fields and the system params: a kind's params may not reuse them.
_POINT_NAMES = {"kind", "throughput", "num_messages", "params", "system"}


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
        kind reads besides the common core, each a ``grid()`` keyword and,
        declared with :func:`~repro.stacks.api.param`, a CLI flag.  Field
        types must be ones the cache key can canonicalise
        (:mod:`repro.campaigns.canonical`).
    run:
        ``run(config, core, params)`` -> ``ScenarioResult`` /
        ``TransientResult``; ``config`` is the point's ``SystemConfig``.
    validate:
        ``validate(core, params)`` raises ``ValueError`` for a point that
        could never run, at declaration time instead of mid-campaign.  A
        kind checks a point by building what it runs: a built-in's is the
        builder its ``run`` calls, so every constructor's check runs here.
    derived / expand:
        Values a grid gives instead of params fields (``crashes``), and
        ``expand(n, derived) -> params kwargs`` for a point of size ``n``;
        ``derived`` maps each to its value, given or its default.
    """

    name: str
    shorthand: str
    summary: str
    params: type
    run: Callable[[SystemConfig, Any, Any], Any]
    validate: Callable[[Any, Any], None] = lambda core, params: None
    derived: Tuple[Param, ...] = ()
    expand: Optional[Callable[[int, Dict[str, Any]], Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        if not self.name or not self.shorthand:
            raise ValueError("a scenario kind needs a name and a shorthand")
        taken = _POINT_NAMES | {field.name for field in dataclasses.fields(SystemConfig)}
        reserved = set(self.param_names) & (taken | set(param_keywords()))
        if reserved:
            raise ValueError(
                f"{self.name}: params fields {sorted(reserved)} shadow the common core"
            )

    @functools.cached_property
    def param_names(self) -> Tuple[str, ...]:
        """The kind's own settable point fields, in declaration order."""
        return tuple(field.name for field in dataclasses.fields(self.params))

    @functools.cached_property
    def settable(self) -> Tuple[Param, ...]:
        """Every value a grid of the kind takes: ``derived``, then its params fields."""
        return self.derived + params_of(self.params)

    def check(self, core: Any, params: Any) -> None:
        """Reject a point that could never run: the common core, then ``validate``."""
        if not (math.isfinite(core.throughput) and core.throughput > 0):
            raise ValueError(f"throughput must be finite and > 0, got {core.throughput}")
        if core.num_messages < 0:
            raise ValueError(f"num_messages must be >= 0, got {core.num_messages}")
        self.validate(core, params)

    def point_params(self, n: int, given: Dict[str, Any]) -> Any:
        """The params instance of a grid point of size ``n``: ``given`` over the defaults.

        A derived value is expanded unless the fields it derives are given
        instead; giving both raises.
        """
        names = [param.keyword for param in self.settable]
        unknown = set(given) - set(names)
        if unknown:
            raise ValueError(
                f"{self.name} has no axis {sorted(unknown)}; its axes are {sorted(names)}"
            )
        values = dict(given)
        derived = {p.keyword: values.pop(p.keyword, p.default) for p in self.derived}
        if self.expand:
            expanded = self.expand(n, derived)
            both, chosen = sorted(set(expanded) & set(values)), sorted(set(derived) & set(given))
            if both and chosen:
                raise ValueError(f"{self.name}: give {chosen} or {both}, not both")
            values = {**expanded, **values}
        return self.params(**values)


_KINDS: Dict[str, ScenarioKind] = {}
_builtins_registered = False


def _kinds() -> Dict[str, ScenarioKind]:
    """The registered kinds, the built-ins registered on the first call."""
    global _builtins_registered
    if not _builtins_registered:
        # Set first: the built-ins' own register_kind calls come back here.
        _builtins_registered = True
        from repro.scenarios import kinds  # noqa: F401  (registers the built-in kinds)
    return _KINDS


def register_kind(kind: ScenarioKind) -> ScenarioKind:
    """Register ``kind`` under its name (an error if the name is taken)."""
    kinds = _kinds()
    if kind.name in kinds:
        raise ValueError(f"scenario kind {kind.name!r} is already registered")
    taken = {
        spelling
        for other in kinds.values()
        if other.name != kind.name
        for spelling in (other.name, other.shorthand)
    }
    if kind.name in taken or kind.shorthand in taken:
        raise ValueError(
            f"scenario kind {kind.name!r} / shorthand {kind.shorthand!r} collides "
            "with a registered kind"
        )
    kinds[kind.name] = kind
    return kind


def unregister_kind(name: str) -> None:
    """Remove a registered kind (testing hook; unknown names are a no-op)."""
    _kinds().pop(name, None)


def available_kinds() -> Tuple[str, ...]:
    """Registered kind names, in registration order."""
    return tuple(_kinds())


def kind_shorthands() -> Dict[str, str]:
    """``shorthand -> canonical name`` of every registered kind."""
    return {kind.shorthand: kind.name for kind in _kinds().values()}


def get_kind(name: str) -> ScenarioKind:
    """The :class:`ScenarioKind` registered under the canonical ``name``."""
    try:
        return _kinds()[name]
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
    campaign point has), :meth:`ScenarioKind.check` the point, call the
    kind's ``run``.  ``repro.scenarios.run_<kind>`` are this function bound to a
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
    kind.check(core, kind_params)
    return kind.run(config, core, kind_params)
