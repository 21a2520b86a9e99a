"""Declarative campaign specifications.

A :class:`PointSpec` pins down *one* scenario run completely: the scenario
kind, the system under test, the operating point and the seed -- the common
core every kind shares -- plus the params of that kind, as declared by its
registration in :mod:`repro.scenarios.registry`, and those of its stack,
fd kind and batching layer (:mod:`repro.stacks.registry`).  Its
:meth:`PointSpec.key` is a stable content hash used to cache and deduplicate
runs: one simulated system has one key, across figures and sessions.

A :class:`CampaignSpec` groups points into the series of a figure (or an
ad-hoc sweep) and is the unit the :class:`repro.campaigns.runner.CampaignRunner`
executes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.campaigns.canonical import canonical_fields, canonical_system, from_canonical
from repro.scenarios.registry import get_kind
from repro.stacks import registry as stack_registry
from repro.stacks.registry import flat_params
from repro.system import SystemConfig

#: Bump when the meaning of a point's canonical dict changes, to invalidate
#: caches.  v8: a key covers the common core plus the params of the point's
#: own kind only.  v9: the core is eight fields, and the system part of a key
#: is :func:`~repro.campaigns.canonical.canonical_system` -- stack, fd-kind
#: and batching params only when off their declared defaults.  Migration from
#: v7 and from v8 is the same: version-prefixed keys never collide, so old
#: entries are never hit and re-simulate once; delete them or leave them.
SCHEMA_VERSION = 9

def derive_seed(root_seed: int, name: str) -> int:
    """Derive a per-point seed from ``root_seed`` and a stream ``name``.

    Uses the same Knuth-multiplicative + CRC32 mixing as
    :meth:`repro.sim.rng.RandomStreams._derive`, so campaign seeds follow the
    repo-wide convention: deterministic, independent across names, and stable
    across processes and sessions.
    """
    digest = zlib.crc32(name.encode("utf-8"))
    return (int(root_seed) * 2_654_435_761 + digest) & 0xFFFFFFFFFFFF


def replicate_seeds(root_seed: int, replicas: int) -> Tuple[int, ...]:
    """Seeds of a multi-seed replication of one operating point.

    Replica 0 keeps ``root_seed`` unchanged so that a single-replica campaign
    reproduces the legacy serial loops bit for bit; further replicas use
    :func:`derive_seed` with the replica index as the stream name.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    return (int(root_seed),) + tuple(
        derive_seed(root_seed, f"replica/{index}") for index in range(1, replicas)
    )


@dataclass(frozen=True, init=False)
class PointSpec:
    """One scenario run: the atom of a campaign.

    A point is the *common core* below plus the params its kind declares
    (:class:`repro.scenarios.registry.ScenarioKind`) and the params its
    stack, fd kind and batching layer declare (:mod:`repro.stacks`).
    Construction is keyword-flat -- ``PointSpec("crash-steady", n=7,
    crashed=(5, 6), max_batch=8)``; the kind's params read back as
    attributes (``point.crashed``), the system's from :meth:`config`.  A
    keyword nobody declares raises, and a system param is routed as
    ``SystemConfig`` routes it.  A slash-qualified ``stack`` is folded into
    ``stack`` + ``fd_kind`` so equivalent selections hash identically.
    """

    kind: str
    stack: str = SystemConfig.stack
    #: ``None`` selects the stack's default kind ("qos" for the built-ins).
    fd_kind: Optional[str] = None
    n: int = SystemConfig.n
    seed: int = SystemConfig.seed
    throughput: float = 10.0
    #: Measured messages (requests, for service-load) per run.
    num_messages: int = 100
    #: Run instrumented (:mod:`repro.obs`): the record gains a ``metrics``
    #: snapshot.  ``CampaignRunner(instrument=True)`` sets it on every point.
    instrument: bool = False
    #: The kind's params dataclass instance (built from the flat keywords).
    params: Any = None
    #: The ``SystemConfig`` the point simulates (built from the core and the
    #: flat system params).
    system: Any = None

    def __init__(self, kind: str, *, params: Any = None, system: Any = None, **given: Any) -> None:
        scenario = get_kind(kind)
        kind_params = {name: given.pop(name) for name in scenario.param_names if name in given}
        state = dict(_CORE_DEFAULTS, kind=kind)
        state.update((name, given.pop(name)) for name in _CORE_DEFAULTS if name in given)
        unknown = set(given) - set(stack_registry.param_keywords()) if given else ()
        if unknown:
            raise ValueError(
                f"{kind} points take no {sorted(unknown)}; besides the common core "
                f"and system params the kind declares {list(scenario.param_names)}"
            )
        if params is None:
            params = scenario.params(**kind_params)
        elif kind_params:
            params = dataclasses.replace(params, **kind_params)
        # Validates the names, folds "fd/heartbeat" variants and routes the
        # system params (an explicit fd_kind conflicting with an embedded one
        # raises, and so does a param the selection does not read).  A
        # ``system`` comes from ``dataclasses.replace``: its params carry over.
        system = SystemConfig(
            n=state["n"], stack=state["stack"], fd_kind=state["fd_kind"],
            seed=state["seed"], instrument=state["instrument"],
            params=None if system is None else system.params, **given,
        )
        state.update(stack=system.stack, fd_kind=system.fd_kind, instrument=system.instrument)
        # Frozen: fill the instance dict directly.
        self.__dict__.update(state, params=params, system=system)
        scenario.check(self, params)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not core fields: the kind's params.
        # (Private names and the two holders must fail fast: pickle probes
        # them on instances whose dict is still empty.)
        if name.startswith("_") or name in ("params", "system"):
            raise AttributeError(name)
        return getattr(self.params, name)

    def config(self) -> SystemConfig:
        """The ``SystemConfig`` this point simulates."""
        return self.system

    def as_dict(self) -> Dict[str, Any]:
        """A canonical, strictly-JSON-serialisable view of the point.

        The common core, the canonical system (its params off their
        defaults) and the kind's own params, flat, each value in the
        canonical form of its declared type (:mod:`repro.campaigns.canonical`).
        """
        data = canonical_fields(self)
        data.update(canonical_system(self.system))
        data.update(canonical_fields(self.params))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointSpec":
        """Rebuild a point from its :meth:`as_dict` form, preserving :meth:`key`.

        That is what lets a point travel through the work queue and commit
        its result under the key the submitting machine computed.  Keys the
        point's kind does not declare are rejected, not dropped.
        """
        return cls(**{name: from_canonical(raw) for name, raw in data.items()})

    def key(self) -> str:
        """Stable content hash of the point (the result-cache key).

        Covers the canonical point dict, the schema version and the package
        version, so a release that changes simulator behaviour invalidates
        old caches instead of mixing results.  Memoised: the key is read on
        every cache lookup, commit and aggregation step.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            payload = json.dumps(self.as_dict(), sort_keys=True)
            prefix = f"v{SCHEMA_VERSION}/repro-{__version__}"
            cached = hashlib.sha256(f"{prefix}:{payload}".encode("utf-8")).hexdigest()
            self.__dict__["_key"] = cached
        return cached

    def label(self) -> str:
        """Short human-readable description, for logs and error messages."""
        knobs = get_kind(self.kind).label(self.params) + "".join(
            f" {name}={value}" for name, value in flat_params(self.system.params).items()
        )
        return (
            f"{self.kind} {self.system.stack_label} "
            f"n={self.n} T={self.throughput:g}/s{knobs} seed={self.seed}"
        )


#: Core field -> default, read off the dataclass (``kind`` is required,
#: ``params`` and ``system`` are built from the flat keywords).
_CORE_DEFAULTS = {
    spec_field.name: spec_field.default
    for spec_field in dataclasses.fields(PointSpec)
    if spec_field.name not in ("kind", "params", "system")
}


@dataclass
class SeriesPointSpec:
    """One x position of a series: one point per seed replica.

    The replicas are merged (latencies pooled) when the series is
    aggregated, which is how multi-seed campaigns tighten the confidence
    intervals without touching the figure code.
    """

    x: float
    points: List[PointSpec]


@dataclass
class SeriesSpec:
    """One declared curve: a label, per-curve parameters and its points."""

    label: str
    points: List[SeriesPointSpec] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CampaignSpec:
    """A named grid of scenario runs, grouped into series."""

    name: str
    series: List[SeriesSpec] = field(default_factory=list)
    description: str = ""

    def add_series(self, series: SeriesSpec) -> None:
        """Append a curve to the campaign."""
        self.series.append(series)

    def points(self) -> List[PointSpec]:
        """All distinct points, in declaration order.

        Points shared by several series (or several figures writing to the
        same store) deduplicate by content key, so each operating point is
        simulated exactly once.
        """
        seen = set()
        ordered: List[PointSpec] = []
        for series in self.series:
            for series_point in series.points:
                for point in series_point.points:
                    key = point.key()
                    if key not in seen:
                        seen.add(key)
                        ordered.append(point)
        return ordered


def grid(
    kind: str,
    *,
    name: str = "adhoc",
    stacks: Sequence[str] = stack_registry.DEFAULT_STACKS,
    fd_kinds: Sequence[Optional[str]] = (None,),
    n_values: Sequence[int] = (3,),
    throughputs: Sequence[float] = (10.0, 100.0),
    seeds: Sequence[int] = (1,),
    num_messages: int = 100,
    description: str = "",
    **axes: Any,
) -> CampaignSpec:
    """Build an ad-hoc campaign over the cartesian product of the axes.

    One series per ``(stack, fd_kind, n)`` triple, one x position per
    throughput, one replica per seed.  ``stacks`` accepts slash-qualified
    names (``"fd/heartbeat"``); ``fd_kinds`` crosses every stack with every
    failure detector kind (the QoS-FD vs heartbeat-FD comparison sweeps).
    ``axes`` are the ones the kind declares
    (``grid("churn-steady", churn_rate=2.0)``, see
    :attr:`repro.scenarios.registry.ScenarioKind.axes`), each defaulting as
    on the command line, plus system params (``reformation_timeout=300``,
    ``max_batch=8``).  A system param goes to the points whose stack, fd
    kind or batching layer reads it; one no point reads raises unless it
    holds its default, and an axis of another kind raises.
    """
    scenario = get_kind(kind)
    declared = stack_registry.param_keywords()
    system = {keyword: axes.pop(keyword) for keyword in list(axes) if keyword in declared}
    values = scenario.axis_values(axes)
    # Duplicate seeds would pool the same simulation twice and shrink the
    # reported CI with zero new information; drop them, preserving order.
    seeds = list(dict.fromkeys(int(seed) for seed in seeds))
    # Same for duplicate (stack, fd_kind) combos, which slash-qualified
    # stack names crossed with an fd_kinds axis can produce (``None`` on the
    # axis = the stack's default kind; a conflicting explicit kind raises).
    combos = list(
        dict.fromkeys(
            stack_registry.resolve(stack, fd_kind)
            for stack in stacks
            for fd_kind in fd_kinds
        )
    )
    reads = {combo: set(stack_registry.reads(*combo)) for combo in combos}
    for keyword in set(system) - set().union(*reads.values()):
        stack_registry.check_unread(keyword, system[keyword])
    campaign = CampaignSpec(name=name, description=description)
    for n in n_values:
        params = scenario.point_params(n, values)
        for combo in combos:
            stack, fd_kind = combo[0].name, combo[1]
            common = dict(
                stack=stack,
                fd_kind=fd_kind,
                n=n,
                num_messages=num_messages,
                params=params,
                **{keyword: value for keyword, value in system.items() if keyword in reads[combo]},
            )
            series = SeriesSpec(
                label=f"{stack_registry.variant_name(stack, fd_kind)}, n={n}",
                params={"stack": stack, "fd_kind": fd_kind, "n": n, "kind": kind},
            )
            for throughput in throughputs:
                series.points.append(
                    SeriesPointSpec(
                        x=throughput,
                        points=[
                            PointSpec(kind, seed=seed, throughput=throughput, **common)
                            for seed in seeds
                        ],
                    )
                )
            campaign.add_series(series)
    return campaign
