"""Declarative campaign specifications.

A :class:`PointSpec` pins down *one* scenario run completely: the scenario
kind, the system under test, the operating point and the seed -- the common
core every kind shares -- plus the params of that kind, as declared by its
registration in :mod:`repro.scenarios.registry`.  Its :meth:`PointSpec.key`
is a stable content hash used to cache and deduplicate runs -- two points
with the same key simulate the same thing, even across figures and sessions.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import __version__
from repro.campaigns.canonical import canonical_fields, from_canonical
from repro.failure_detectors.heartbeat import HeartbeatConfig
from repro.scenarios.registry import get_kind
from repro.stacks import registry as stack_registry
from repro.system import SystemConfig

#: Bump when the meaning of a point's canonical dict changes, to invalidate
#: caches.  v8: a point's dict (and therefore its key) covers the common core
#: plus the params of *its own* kind only, so registering a new kind or adding
#: a param to one kind changes nobody else's keys -- the bump is only needed
#: again when the core itself changes.  Migration from v7 (every flat field in
#: every key) is the usual one: version-prefixed keys never collide, so old
#: caches are simply never hit again; delete them or leave them in place.
SCHEMA_VERSION = 8

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
    (:class:`repro.scenarios.registry.ScenarioKind`).  Construction is
    keyword-flat -- ``PointSpec("crash-steady", n=7, crashed=(5, 6))`` --
    and the kind's params read back as attributes (``point.crashed``); a
    keyword that is neither a core field nor declared by the kind raises.
    Only the core and the kind's own params enter :meth:`as_dict` and the
    cache key.  A slash-qualified ``stack`` (``"fd/heartbeat"``) is folded
    into ``stack`` + ``fd_kind`` so equivalent selections hash identically.
    """

    kind: str
    stack: str = "fd"
    #: ``None`` selects the stack's default kind ("qos" for the built-ins).
    fd_kind: Optional[str] = None
    n: int = 3
    seed: int = 1
    throughput: float = 10.0
    #: Measured messages (requests, for service-load) per run.
    num_messages: int = 100
    #: Reformation window of reformation-capable stacks, ms; 0 = config default.
    reformation_timeout: float = 0.0
    #: Heartbeat detector parameters, ms; 0 = ``HeartbeatConfig`` defaults.
    heartbeat_period: float = 0.0
    heartbeat_timeout: float = 0.0
    #: Requests coalesced per ordering step; 0 = the unbatched system.
    max_batch: int = 0
    #: Maximum batching delay, ms (``max_batch > 0`` only).
    max_delay: float = 0.0
    #: Batched failure-detector scan tick, ms; 0 = exact per-pair events
    #: (ignored by ``fd_kind="heartbeat"``).
    fd_scan_interval: float = 0.0
    #: Extra ``SystemConfig`` fields, e.g. ``(("lambda_cpu", 2.0),)``.
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Run instrumented (:mod:`repro.obs`): the record gains a ``metrics``
    #: snapshot.  ``CampaignRunner(instrument=True)`` sets it on every point.
    instrument: bool = False
    #: The kind's params dataclass instance (built from the flat keywords).
    params: Any = None

    def __init__(self, kind: str, *, params: Any = None, **given: Any) -> None:
        scenario = get_kind(kind)
        state = dict(_CORE_DEFAULTS, kind=kind)
        kind_params = {name: given.pop(name) for name in scenario.param_names if name in given}
        unknown = set(given) - set(state)
        if unknown:
            raise ValueError(
                f"{kind} points take no {sorted(unknown)}; besides the common "
                f"core the kind declares {list(scenario.param_names)}"
            )
        state.update(given)
        if params is None:
            params = scenario.params(**kind_params)
        elif kind_params:
            params = dataclasses.replace(params, **kind_params)
        # Validates both names and folds "fd/heartbeat" variants; an explicit
        # fd_kind conflicting with an embedded one raises (like SystemConfig).
        stack_spec, state["fd_kind"] = stack_registry.resolve(state["stack"], state["fd_kind"])
        state["stack"] = stack_spec.name
        for knob in _NON_NEGATIVE:
            if state[knob] < 0:
                raise ValueError(f"{knob} must be >= 0 (0 = default), got {state[knob]}")
        # Frozen: fill the instance dict directly.
        self.__dict__.update(state, params=params)
        scenario.validate(self, params)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not core fields: the kind's params.
        # (Private names and ``params`` itself must fail fast: pickle probes
        # them on instances whose dict is still empty.)
        if name.startswith("_") or name == "params":
            raise AttributeError(name)
        return getattr(self.params, name)

    def config(self) -> SystemConfig:
        """The ``SystemConfig`` this point simulates."""
        extras: Dict[str, Any] = dict(self.config_overrides)
        if self.reformation_timeout > 0:
            extras.setdefault("reformation_timeout", self.reformation_timeout)
        if self.heartbeat_period > 0 or self.heartbeat_timeout > 0:
            base = HeartbeatConfig()
            period = self.heartbeat_period or base.period
            timeout = self.heartbeat_timeout or base.timeout
            extras.setdefault("heartbeat", HeartbeatConfig(period=period, timeout=timeout))
        if self.max_batch > 0:
            extras.setdefault("max_batch", self.max_batch)
            extras.setdefault("max_delay", self.max_delay)
        if self.fd_scan_interval > 0:
            extras.setdefault("fd_scan_interval", self.fd_scan_interval)
        # ``instrument`` may also arrive via config_overrides; either wins.
        extras["instrument"] = bool(extras.pop("instrument", False)) or self.instrument
        return SystemConfig(
            n=self.n, stack=self.stack, fd_kind=self.fd_kind, seed=self.seed, **extras
        )

    def as_dict(self) -> Dict[str, Any]:
        """A canonical, strictly-JSON-serialisable view of the point.

        The common core plus the kind's own params, flat, each value in the
        canonical form of its declared type (:mod:`repro.campaigns.canonical`).
        """
        data = canonical_fields(self)
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
        knobs = get_kind(self.kind).label(self.params)
        if self.reformation_timeout > 0:
            knobs += f" reform={self.reformation_timeout:g}ms"
        if self.max_batch > 0:
            knobs += f" batch={self.max_batch}"
        return (
            f"{self.kind} {stack_registry.variant_name(self.stack, self.fd_kind)} "
            f"n={self.n} T={self.throughput:g}/s{knobs} seed={self.seed}"
        )


#: Core field -> default, read off the dataclass (``kind`` is required and
#: ``params`` is built from the flat keywords).
_CORE_DEFAULTS = {
    spec_field.name: spec_field.default
    for spec_field in dataclasses.fields(PointSpec)
    if spec_field.name not in ("kind", "params")
}
_NON_NEGATIVE = ("reformation_timeout", "heartbeat_period", "heartbeat_timeout") + (
    "max_batch", "max_delay", "fd_scan_interval",
)


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
    stacks: Sequence[str] = ("fd", "gm"),
    fd_kinds: Sequence[Optional[str]] = (None,),
    n_values: Sequence[int] = (3,),
    throughputs: Sequence[float] = (10.0, 100.0),
    seeds: Sequence[int] = (1,),
    num_messages: int = 100,
    reformation_timeout: float = 0.0,
    heartbeat_period: float = 0.0,
    heartbeat_timeout: float = 0.0,
    max_batch: int = 0,
    max_delay: float = 0.0,
    fd_scan_interval: float = 0.0,
    config_overrides: Iterable[Tuple[str, Any]] = (),
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
    on the command line; an axis of another kind raises.
    """
    scenario = get_kind(kind)
    values = scenario.axis_values(axes)
    overrides = tuple(config_overrides)
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
    # The heartbeat fabric reads its own period / timeout and ignores the
    # scan tick, the clock-driven fabrics the reverse; a knob a detector does
    # not read stays 0 so comparison sweeps mint no keys for identical runs.
    heartbeat_knobs = {"heartbeat_period": heartbeat_period, "heartbeat_timeout": heartbeat_timeout}
    detector_knobs = {"heartbeat": heartbeat_knobs}
    campaign = CampaignSpec(name=name, description=description)
    for n in n_values:
        params = scenario.point_params(n, values)
        for stack_spec, fd_kind in combos:
            stack = stack_spec.name
            common = dict(
                stack=stack,
                fd_kind=fd_kind,
                n=n,
                num_messages=num_messages,
                # Scoped by stack capability: a reformation-capable stack reads
                # the knob under every scenario (churn can trigger one too).
                reformation_timeout=(
                    reformation_timeout if dict(stack_spec.params).get("reformation") else 0.0
                ),
                max_batch=max_batch,
                max_delay=max_delay,
                config_overrides=overrides,
                params=params,
                **detector_knobs.get(fd_kind, {"fd_scan_interval": fd_scan_interval}),
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
