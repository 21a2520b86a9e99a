"""System builder: wires a complete simulated atomic broadcast system.

:class:`BroadcastSystem` assembles the simulation kernel, the contention
network, the processes, the failure detectors and one protocol stack, all
resolved by name through the registry (:mod:`repro.stacks`): the paper's
``"fd"`` and ``"gm"`` stacks and their variants, each combinable with any
registered failure detector kind (``fd_kind=`` or ``"fd/heartbeat"``).
User registrations assemble through exactly the same path; there is no
privileged built-in wiring.

This is the main entry point of the library: workload generators, scenarios,
benchmarks and the example applications all operate on a
:class:`BroadcastSystem`.  Its fault methods act *now* (``crash``,
``recover``, ``suspect_permanently``) or declare a suspicion window
(``suspect_during``); a fault at a later time is a
:mod:`repro.scenarios.faults` event, which posts itself on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.consensus import ConsensusService
from repro.core.group_membership import GroupMembership
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.types import AtomicBroadcast, BroadcastID
from repro.failure_detectors.interface import DetectorFabric
from repro.failure_detectors.qos import QoSConfig
from repro.obs.instrumentation import Instrumentation
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.sim.wan import wan_profile as wan_registry_lookup
from repro.stacks import registry as stack_registry
from repro.stacks.api import StackSpec
from repro.stacks.registry import SystemParams

@dataclass(frozen=True)
class NetworkModel:
    """The network a system runs on.

    Attributes
    ----------
    lambda_cpu:
        The ``lambda`` parameter of the network model (CPU cost of sending or
        receiving one message, in network-time units).  The paper's published
        results use 1.
    network_time:
        Network transmission time of one message; the simulation time unit
        (interpreted as 1 ms).
    wan_profile:
        Name of a registered :class:`repro.sim.wan.WanProfile` spreading the
        processes over datacenters, or ``None`` for the paper's LAN.  Kept by
        name, and checked here, so a typo fails at configuration time.
    """

    lambda_cpu: float = 1.0
    network_time: float = 1.0
    wan_profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.wan_profile is not None:
            wan_registry_lookup(self.wan_profile)


@dataclass(frozen=True, init=False)
class SystemConfig:
    """Configuration of a simulated atomic broadcast system.

    Attributes
    ----------
    n:
        Number of processes.
    stack / fd_kind:
        Registered names of the protocol stack and failure detector kind;
        ``fd_kind`` defaults to the stack's ``default_fd_kind``.  A
        slash-qualified stack (``"fd/heartbeat"``) names both and is
        normalised into the two fields.
    seed:
        Root seed of all random streams of the run.
    instrument:
        Build the system with the instrumentation layer (:mod:`repro.obs`)
        on.  Off by default: the uninstrumented hot path pays nothing, and
        observation never perturbs a run (golden-neutrality tests pin it).
    fd:
        The QoS fault model scenarios drive the clock-driven detectors with
        (``fd_kind="qos"`` reads all of it, ``"perfect"`` only the detection
        time, ``"heartbeat"`` ignores it).
    network:
        The :class:`NetworkModel`.
    params:
        The resolved params of the stack, the fd kind and the batching layer
        (:class:`repro.stacks.registry.SystemParams`), given as flat keywords
        (``SystemConfig(stack="gm", join_retry_interval=50.0)``) or, for an fd
        kind, whole under its name (``heartbeat=HeartbeatConfig(...)``).  A
        keyword the selection does not read is dropped when it holds its
        default and raises otherwise: two spellings of a system, one config.
    """

    n: int = 3
    stack: str = "fd"
    fd_kind: str = "qos"
    seed: int = 1
    instrument: bool = False
    fd: QoSConfig = field(default_factory=QoSConfig)
    network: NetworkModel = field(default_factory=NetworkModel)
    params: SystemParams = None

    def __init__(
        self,
        n: int = 3,
        stack: str = "fd",
        fd_kind: Optional[str] = None,
        seed: int = 1,
        instrument: bool = False,
        fd: Optional[QoSConfig] = None,
        network: Optional[NetworkModel] = None,
        params: Optional[SystemParams] = None,
        **given: Any,
    ) -> None:
        # Validates both names and folds "fd/heartbeat"-style variants.
        spec, resolved_kind = stack_registry.resolve(stack, fd_kind)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        detector = stack_registry.get_fd_kind(resolved_kind).params
        if params is None or given or (type(params.stack), type(params.detector)) != (
            spec.params, detector
        ):
            # ``replace()`` hands the old params back: re-resolved against the
            # new selection they keep what it reads and reject what it cannot.
            flat = stack_registry.flat_params(params or ())
            for name in set(given) & set(stack_registry.available_fd_kinds()):
                flat.update(stack_registry.flat_params((given.pop(name),)))
            flat.update(given)
            params = stack_registry.resolve_params(spec, resolved_kind, flat)
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "stack", spec.name)
        set_field(self, "fd_kind", resolved_kind)
        set_field(self, "seed", seed)
        set_field(self, "instrument", bool(instrument))
        set_field(self, "fd", fd if fd is not None else QoSConfig())
        set_field(self, "network", network if network is not None else NetworkModel())
        set_field(self, "params", params)

    @property
    def stack_label(self) -> str:
        """The stack name, qualified with the fd kind when non-default."""
        return stack_registry.variant_name(self.stack, self.fd_kind)

    def stack_spec(self) -> StackSpec:
        """The registry descriptor this configuration resolves to."""
        return stack_registry.get_stack(self.stack)

    def with_seed(self, seed: int) -> "SystemConfig":
        """A copy of this configuration with a different seed."""
        return replace(self, seed=seed)

    def max_tolerated_crashes(self) -> int:
        """The ``f < n/2`` bound all built-in stacks share."""
        return (self.n - 1) // 2


class BroadcastSystem:
    """A fully wired simulated system running one registered protocol stack.

    Its parts point at each other (process and network, component and
    process, detector and fabric) but never back at the system: whatever is
    registered inside it -- listeners, callbacks, queued events -- captures
    the kernel or the parts it uses.  So dropping the last reference to a
    system frees it through reference counting alone (its finalizer calls
    :meth:`close`, which breaks the cycles among the parts), and
    :meth:`close` or a ``with`` block frees it early.  A part kept past its
    system -- a process, the kernel, a :class:`PoissonWorkload` -- is dead
    from then on: the kernel is empty and the other parts have no
    attributes.  An owner that wraps a system (a replicated service, its
    clients) holds it, and keeps it alive and runnable while held.
    """

    _closed = False

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stack_spec = config.stack_spec()
        self.sim = Simulator()
        self.rng = RandomStreams(config.seed)
        model = config.network
        self.network = Network(
            self.sim,
            NetworkConfig(n=config.n, lambda_cpu=model.lambda_cpu, network_time=model.network_time),
        )
        if model.wan_profile is not None:
            self.network.set_wan_delays(wan_registry_lookup(model.wan_profile).delays(config.n))
        # Gray links draw from their own named stream: installing it up
        # front costs nothing (streams are independent and it is only read
        # when a lossy/duplicating link exists).
        self.network.set_link_rng(self.rng.stream("net/gray"))
        self.fd_fabric: DetectorFabric = stack_registry.create_fd_fabric(
            config.fd_kind, self.sim, self.network, self.rng, config
        )
        self.processes: List[SimProcess] = []
        self.abcasts: List[AtomicBroadcast] = []
        self.rbcasts: List[ReliableBroadcast] = []
        self.consensus_services: List[ConsensusService] = []
        self.memberships: List[GroupMembership] = []
        self._started = False
        #: The instrumentation of this system, or ``None`` when tracing is
        #: off (every layer then holds ``None`` too, and skips its hooks).
        self.obs: Optional[Instrumentation] = None
        self._build()
        if config.instrument:
            self.enable_instrumentation()

    # ------------------------------------------------------------------ construction

    def _build(self) -> None:
        """Assemble every process through the stack's registered layer factory.

        The per-process order -- process, failure detector, reliable
        broadcast, consensus, then the stack's layers -- is part of the
        stack contract: golden-value tests pin it down because it fixes the
        random-stream and listener-registration order of a run.

        With the batching layer on (``max_batch > 0``) each process's abcast
        is wrapped in a request batcher, whatever the stack; off, no wrapper
        exists at all.  The import is deferred: :mod:`repro.load` builds on
        the replication service, which imports this module.
        """
        wrap = None
        batching = self.config.params.batching
        if batching.max_batch > 0:
            from repro.load.batching import BatchingAtomicBroadcast

            wrap = BatchingAtomicBroadcast
        for pid in range(self.config.n):
            process = SimProcess(self.sim, self.network, pid)
            process.failure_detector = self.fd_fabric.attach(process)
            rbcast = ReliableBroadcast(process)
            consensus = ConsensusService(process, rbcast)
            layers = self.stack_spec.build(self, process, rbcast, consensus)
            if layers.membership is not None:
                self.memberships.append(layers.membership)
            self.processes.append(process)
            self.rbcasts.append(rbcast)
            self.consensus_services.append(consensus)
            abcast = layers.abcast
            if wrap is not None:
                abcast = wrap(process, abcast, batching.max_batch, batching.max_delay)
            self.abcasts.append(abcast)

    # ------------------------------------------------------------------ instrumentation

    def enable_instrumentation(
        self, obs: Optional[Instrumentation] = None
    ) -> Instrumentation:
        """Switch the instrumentation layer on for this system (idempotent).

        Creates (or adopts) an :class:`~repro.obs.Instrumentation` and wires
        it into the kernel, the network, every component's hook sink and
        each failure detector's suspicion listeners; a second call returns
        it.  Purely observational: it changes no delivery, latency or event.
        """
        if self.obs is not None:
            return self.obs
        if obs is None:
            obs = Instrumentation()
        self.obs = obs
        self.sim.set_instrumentation(obs)
        self.network.set_instrumentation(obs)
        for process in self.processes:
            process.obs = obs
            for component in process.components():
                component._obs = obs
        for monitor, detector in self.fd_fabric.detectors().items():
            detector.add_listener(_suspicion_hook(self.sim, monitor, obs))
        return obs

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start all components and the failure detector fabric (idempotent)."""
        if self._started:
            return
        self._started = True
        for process in self.processes:
            process.start()
        self.fd_fabric.start()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Start (if needed) and run the simulation; returns the end time."""
        if self._closed:
            raise RuntimeError("run() on a closed BroadcastSystem")
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def close(self) -> None:
        """Free this finished system (idempotent); ``run()`` then raises.

        Empties the kernel queue and clears the attributes of the system,
        the network, the fabric, its detectors, the processes and their
        components: every cycle among them goes, nothing of the run
        survives, so read the results first.  Dropping the system calls it.
        A system whose constructor raised before it had processes has
        nothing to free.
        """
        if self._closed or "processes" not in vars(self):
            return
        self.sim.reset()
        parts = [self, self.network, self.fd_fabric, *self.fd_fabric.detectors().values()]
        for process in self.processes:
            parts += [process, *process.components()]
        for part in parts:
            vars(part).clear()
        self._closed = True

    def __enter__(self) -> "BroadcastSystem":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    # ------------------------------------------------------------------ operations

    def process(self, pid: int) -> SimProcess:
        """The simulated process with id ``pid``."""
        return self.processes[pid]

    def abcast(self, pid: int) -> AtomicBroadcast:
        """The atomic broadcast component of process ``pid``."""
        return self.abcasts[pid]

    def membership(self, pid: int) -> GroupMembership:
        """The group membership component of ``pid`` (GM stacks only)."""
        if not self.memberships:
            raise ValueError(
                f"the {self.config.stack!r} stack has no group membership service"
            )
        return self.memberships[pid]

    def broadcast(self, sender: int, payload: Any) -> BroadcastID:
        """A-broadcast ``payload`` from process ``sender`` (at the current time)."""
        return self.abcasts[sender].broadcast(payload)

    def broadcast_at(self, time: float, sender: int, payload: Any) -> None:
        """Schedule an A-broadcast of ``payload`` by ``sender`` at ``time``."""
        self.sim.post_at(time, self.abcasts[sender].broadcast, payload)

    # ------------------------------------------------------------------ fault injection

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` at the current simulation time."""
        self.processes[pid].crash()

    def recover(self, pid: int) -> None:
        """Recover process ``pid`` at the current simulation time.

        The process comes back with its pre-crash protocol state and
        reconciles with the group: under the FD stack it requests the
        consensus decisions it missed from its peers; under the GM stacks
        it restarts the join protocol and is re-admitted through a view
        change with a state transfer.
        """
        self.processes[pid].recover()

    def suspect_permanently(self, pid: int) -> None:
        """Make every failure detector suspect ``pid`` from now until it recovers."""
        self.fd_fabric.suspect_permanently(pid)

    def suspect_during(
        self,
        target: int,
        start: float,
        duration: float,
        monitors: Optional[Iterable[int]] = None,
    ) -> None:
        """Force a wrong suspicion of ``target`` during ``[start, start + duration]``."""
        self.fd_fabric.suspect_during(target, start, duration, monitors=monitors)

    def correct_processes(self) -> List[int]:
        """Ids of processes that have not crashed."""
        return self.network.correct_processes()

    # ------------------------------------------------------------------ inspection

    def delivery_sequences(self) -> Dict[int, List[BroadcastID]]:
        """Delivery order observed by every process (for invariant checks)."""
        return {pid: self.abcasts[pid].delivered_ids() for pid in range(self.config.n)}

    def add_delivery_listener(self, listener: Callable[[int, BroadcastID, Any], None]) -> None:
        """Subscribe to deliveries on every process: ``listener(pid, id, payload)``."""
        for pid, abcast in enumerate(self.abcasts):
            abcast.add_delivery_listener(partial(listener, pid))

    def message_stats(self) -> Dict[str, int]:
        """Traffic counters of the underlying network."""
        return self.network.stats.as_dict()

    def metrics_snapshot(self, **extra: Any) -> Dict[str, Any]:
        """The run's ``metrics.json`` payload (instrumented systems only).

        Convenience wrapper of :func:`repro.obs.metrics_snapshot`; ``extra``
        keys are folded into the provenance block.
        """
        from repro.obs import export as obs_export

        return obs_export.metrics_snapshot(self, **extra)


def _suspicion_hook(sim: Simulator, monitor: int, obs: Instrumentation):
    """A detector listener forwarding to the suspicion hook with time/owner."""

    def _listener(target: int, suspected: bool) -> None:
        obs.suspicion(sim.now, monitor, target, suspected)

    return _listener


def build_system(config: Optional[SystemConfig] = None, **overrides: Any) -> BroadcastSystem:
    """Convenience constructor: ``build_system(n=5, stack="gm", seed=7)``."""
    if config is None:
        config = SystemConfig(**overrides)
    elif overrides:
        if "/" in overrides.get("stack", ""):
            # A slash-qualified stack ("fd/heartbeat") names its own fd kind,
            # where replace() would re-pass the existing one.
            overrides.setdefault("fd_kind", None)
        config = replace(config, **overrides)
    return BroadcastSystem(config)
