"""Named WAN latency profiles: multi-datacenter per-pair delay topologies.

A :class:`WanProfile` generalizes ``QoSConfig.pair_overrides`` into a
reusable, named object: a small datacenter-level latency matrix that is
expanded to a per-process ``n x n`` delay matrix (process ``pid`` lives in
datacenter ``pid % dc_count``, spreading every group evenly across sites).
The delays model pure propagation latency on the WAN backbone between
datacenters -- they occupy no contended resource and are added between the
shared-medium transmission and the receiving CPU
(:meth:`repro.sim.network.Network.set_wan_delays`).

Profiles are selected by *name* (``NetworkModel(wan_profile="wan-3dc")`` or
``--wan-profile`` on the CLIs) so they stay hashable campaign dimensions;
:func:`register_wan_profile` adds new topologies the same way
``register_stack`` adds protocol stacks.

All latencies are in the paper's time units (the LAN ``network_time`` is 1),
one-way, and symmetric in the built-in profiles -- asymmetric matrices are
allowed for custom profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class WanProfile:
    """A named datacenter topology: one-way latency between any two sites.

    Attributes
    ----------
    name:
        Registry key (also the campaign cache-key dimension value).
    latency_matrix:
        ``dc x dc`` one-way propagation delays; the diagonal must be zero
        (intra-datacenter traffic only pays the LAN contention model).
    """

    name: str
    latency_matrix: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.latency_matrix)
        if size < 2:
            raise ValueError("a WAN profile needs at least two datacenters")
        for row in self.latency_matrix:
            if len(row) != size:
                raise ValueError("the latency matrix must be square")
            if any(delay < 0 for delay in row):
                raise ValueError("WAN latencies must be >= 0")
        for index in range(size):
            if self.latency_matrix[index][index] != 0.0:
                raise ValueError("intra-datacenter latency must be zero")

    @property
    def dc_count(self) -> int:
        """Number of datacenters in the topology."""
        return len(self.latency_matrix)

    def dc_of(self, pid: int) -> int:
        """The datacenter hosting process ``pid`` (round-robin placement)."""
        return pid % self.dc_count

    def delay(self, src: int, dst: int) -> float:
        """One-way propagation delay between the hosts of two processes."""
        return self.latency_matrix[self.dc_of(src)][self.dc_of(dst)]

    def delays(self, n: int) -> List[List[float]]:
        """The expanded ``n x n`` per-process delay matrix."""
        return [[self.delay(src, dst) for dst in range(n)] for src in range(n)]

    def max_delay(self) -> float:
        """The largest one-way latency in the topology."""
        return max(delay for row in self.latency_matrix for delay in row)

    def derive_fd_config(self, base, n: int, slack: float = 2.0):
        """A per-pair failure detector config matched to this topology.

        Returns ``base`` (any config with ``QoSConfig``-style ``with_pair``)
        with the detection time of every cross-datacenter monitor pair
        raised by ``slack`` round trips of that pair's latency, so WAN lag
        alone never looks like a crash.  This is the ``pair_overrides``
        generalization: one profile derives the whole override table.
        """
        derived = base
        base_detection = base.detection_time
        for monitor in range(n):
            for monitored in range(n):
                if monitor == monitored:
                    continue
                extra = slack * 2.0 * self.delay(monitored, monitor)
                if extra > 0.0:
                    derived = derived.with_pair(
                        monitor, monitored, detection_time=base_detection + extra
                    )
        return derived


#: The registry of selectable profiles, keyed by name.
WAN_PROFILES: Dict[str, WanProfile] = {}


def register_wan_profile(profile: WanProfile) -> WanProfile:
    """Add ``profile`` to the registry (name collisions are an error)."""
    if profile.name in WAN_PROFILES:
        raise ValueError(f"WAN profile {profile.name!r} is already registered")
    WAN_PROFILES[profile.name] = profile
    return profile


def wan_profile(name: str) -> WanProfile:
    """Look up a registered profile by name."""
    try:
        return WAN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(WAN_PROFILES)) or "none"
        raise ValueError(f"unknown WAN profile {name!r} (registered: {known})") from None


# ---------------------------------------------------------------------- built-ins

#: Three sites in a line (e.g. two coastal regions plus one in between):
#: near pair at 20, far pair at 40 time units one way.
register_wan_profile(
    WanProfile(
        name="wan-3dc",
        latency_matrix=(
            (0.0, 20.0, 40.0),
            (20.0, 0.0, 30.0),
            (40.0, 30.0, 0.0),
        ),
    )
)

#: Five sites across two continents: a tight triangle (10-20) plus two
#: remote sites at 50-80 one way.
register_wan_profile(
    WanProfile(
        name="wan-5dc",
        latency_matrix=(
            (0.0, 10.0, 20.0, 50.0, 60.0),
            (10.0, 0.0, 15.0, 55.0, 65.0),
            (20.0, 15.0, 0.0, 60.0, 70.0),
            (50.0, 55.0, 60.0, 0.0, 30.0),
            (60.0, 65.0, 70.0, 30.0, 0.0),
        ),
    )
)
