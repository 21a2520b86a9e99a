"""System builder: wires a complete simulated atomic broadcast system.

:class:`BroadcastSystem` assembles the simulation kernel, the contention
network, the processes, the failure detectors and one protocol stack
resolved through the **stack registry** (:mod:`repro.stacks`):

* ``"fd"``            -- reliable broadcast + consensus + Chandra-Toueg atomic
  broadcast (the *FD algorithm*),
* ``"gm"``            -- reliable broadcast + consensus + group membership +
  fixed-sequencer uniform atomic broadcast (the *GM algorithm*),
* ``"gm-nonuniform"`` -- the non-uniform variant of the GM algorithm
  (extension discussed in Section 8 of the paper),
* ``"gm-reform"``     -- the GM algorithm with the timeout-gated group
  reformation layer (recovers from view-majority loss),

each combinable with any registered failure detector kind (``"qos"``,
``"heartbeat"``, ``"perfect"``) -- either via ``fd_kind=`` or a slash-
qualified stack name such as ``"fd/heartbeat"``.  User-registered stacks
and fd kinds (:func:`repro.stacks.register_stack`,
:func:`repro.stacks.register_fd_kind`) assemble through exactly the same
path; there is no privileged built-in wiring.

This is the main entry point of the library: workload generators, scenarios,
benchmarks and the example applications all operate on a
:class:`BroadcastSystem`, which satisfies the
:class:`repro.stacks.FaultInjectable` capability protocol fault schedules
compile against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.consensus import ConsensusService
from repro.core.group_membership import GroupMembership
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.types import AtomicBroadcast, BroadcastID
from repro.failure_detectors.heartbeat import HeartbeatConfig
from repro.failure_detectors.qos import QoSConfig
from repro.obs.instrumentation import Instrumentation
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.sim.wan import wan_profile as wan_registry_lookup
from repro.stacks import registry as stack_registry
from repro.stacks.api import FailureDetectorFabric, StackSpec

@dataclass(frozen=True, init=False)
class SystemConfig:
    """Configuration of a simulated atomic broadcast system.

    Attributes
    ----------
    n:
        Number of processes.
    stack:
        Name of the protocol stack in the registry (``"fd"``, ``"gm"``,
        ``"gm-nonuniform"``, or any user-registered stack).  A slash-
        qualified name (``"fd/heartbeat"``) selects a failure detector kind
        at the same time and is normalised: ``stack`` stores the base name,
        ``fd_kind`` the variant.
    fd_kind:
        Failure detector kind (``"qos"``, ``"heartbeat"``, ``"perfect"``,
        or any user-registered kind).  Defaults to the stack's
        ``default_fd_kind`` (``"qos"`` for all built-in stacks).
    lambda_cpu:
        The ``lambda`` parameter of the network model (CPU cost of sending or
        receiving one message, in network-time units).  The paper's published
        results use 1.
    network_time:
        Network transmission time of one message; the simulation time unit
        (interpreted as 1 ms).
    seed:
        Root seed of all random streams of the run.
    fd:
        Quality-of-service parameters of the clock-driven failure detectors
        (``fd_kind="qos"`` reads all of it, ``"perfect"`` only the
        detection time, ``"heartbeat"`` ignores it).
    heartbeat:
        Parameters of the message-based heartbeat detector
        (``fd_kind="heartbeat"`` only).
    renumber_coordinators:
        Enable the coordinator re-numbering optimisation of the FD algorithm.
    join_retry_interval:
        Retry period of the join protocol of wrongly excluded processes
        (GM stacks only).
    reformation_timeout:
        How long a view change may stall (ms) before a member proposes a
        group *reformation* -- a consensus over the full static process set
        deciding the successor view, restoring liveness after an installed
        view loses its majority of alive members.  Only stacks built with
        reformation support read it (``"gm-reform"``); the paper's stacks
        ignore it and keep the paper's blocking behaviour.
    pipeline_depth:
        How many ordering rounds (consensus instances / sequencer batches)
        may be in flight at once.  The same value is applied to every stack
        so that their message patterns stay identical in suspicion-free
        runs; 1 gives the strictly sequential textbook behaviour.
    instrument:
        Build the system with the instrumentation layer enabled
        (:mod:`repro.obs`): per-layer counters, the A-broadcast lifecycle,
        suspicion/consensus/view-change hooks and simulator event-loop
        stats, exportable as ``metrics.json`` / event traces.  Off by
        default: the uninstrumented hot path pays nothing.  Observation
        never perturbs the run -- delivered sequences, latencies and event
        counts are bit-identical either way (golden-neutrality tests pin
        this).
    max_batch:
        ``0`` (the default) exposes each stack's atomic broadcast directly --
        the pre-batching system, bit-identical to every golden baseline.  A
        positive value wraps every process's abcast in a
        :class:`repro.load.batching.BatchingAtomicBroadcast` that coalesces
        up to ``max_batch`` client payloads into one inner A-broadcast,
        amortizing the per-message dissemination and sequencing cost over
        the batch.  Works uniformly for every registered stack (the wrapper
        sits above the registry's layers).
    max_delay:
        Maximum time (ms) a pending payload may wait for its batch to fill
        before the batcher flushes anyway (``max_batch > 0`` only).  ``0``
        still coalesces payloads arriving at the same simulation instant.
    fd_scan_interval:
        ``None`` (the default) keeps the exact clock-driven failure detector
        semantics: every pair transition is its own simulator event, and all
        golden baselines are pinned against this mode.  A positive value
        switches the qos/perfect fabrics to the **batched scan**: pair
        transitions are kept on a fabric-local calendar and drained by one
        simulator event per scan tick, firing each transition at the next
        multiple of the interval.  This turns the O(n^2) per-pair timer
        events into O(1) armed events -- the throughput lane for large-n
        sweeps -- at the cost of quantizing detector transitions to the
        tick (the same approximation the heartbeat detector's
        ``check_interval`` already makes; heartbeat ignores this knob).
    """

    n: int = 3
    stack: str = "fd"
    fd_kind: str = "qos"
    lambda_cpu: float = 1.0
    network_time: float = 1.0
    seed: int = 1
    fd: QoSConfig = field(default_factory=QoSConfig)
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    renumber_coordinators: bool = True
    join_retry_interval: float = 500.0
    reformation_timeout: float = 500.0
    pipeline_depth: int = 2
    instrument: bool = False
    fd_scan_interval: Optional[float] = None
    max_batch: int = 0
    max_delay: float = 0.0
    wan_profile: Optional[str] = None

    def __init__(
        self,
        n: int = 3,
        stack: str = "fd",
        fd_kind: Optional[str] = None,
        lambda_cpu: float = 1.0,
        network_time: float = 1.0,
        seed: int = 1,
        fd: Optional[QoSConfig] = None,
        heartbeat: Optional[HeartbeatConfig] = None,
        renumber_coordinators: bool = True,
        join_retry_interval: float = 500.0,
        reformation_timeout: float = 500.0,
        pipeline_depth: int = 2,
        instrument: bool = False,
        fd_scan_interval: Optional[float] = None,
        max_batch: int = 0,
        max_delay: float = 0.0,
        wan_profile: Optional[str] = None,
    ) -> None:
        # Validates both names and folds "fd/heartbeat"-style variants.
        spec, resolved_kind = stack_registry.resolve(stack, fd_kind)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if reformation_timeout <= 0:
            raise ValueError(
                f"reformation_timeout must be > 0 ms, got {reformation_timeout}"
            )
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "stack", spec.name)
        set_field(self, "fd_kind", resolved_kind)
        set_field(self, "lambda_cpu", lambda_cpu)
        set_field(self, "network_time", network_time)
        set_field(self, "seed", seed)
        set_field(self, "fd", fd if fd is not None else QoSConfig())
        set_field(self, "heartbeat", heartbeat if heartbeat is not None else HeartbeatConfig())
        set_field(self, "renumber_coordinators", renumber_coordinators)
        set_field(self, "join_retry_interval", join_retry_interval)
        set_field(self, "reformation_timeout", reformation_timeout)
        if fd_scan_interval is not None and fd_scan_interval <= 0:
            raise ValueError(
                f"fd_scan_interval must be > 0 (or None), got {fd_scan_interval}"
            )
        if max_batch < 0:
            raise ValueError(f"max_batch must be >= 0 (0 = batching off), got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0 ms, got {max_delay}")
        if wan_profile is not None:
            # Validates the name eagerly (typos fail at configuration time,
            # not mid-campaign); the profile stays referenced by name so the
            # config remains hashable and cache-key friendly.
            wan_registry_lookup(wan_profile)
        set_field(self, "pipeline_depth", pipeline_depth)
        set_field(self, "instrument", bool(instrument))
        set_field(self, "fd_scan_interval", fd_scan_interval)
        set_field(self, "max_batch", int(max_batch))
        set_field(self, "max_delay", float(max_delay))
        set_field(self, "wan_profile", wan_profile)

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
    """A fully wired simulated system running one registered protocol stack."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stack_spec = config.stack_spec()
        self.sim = Simulator()
        self.rng = RandomStreams(config.seed)
        self.network = Network(
            self.sim,
            NetworkConfig(
                n=config.n,
                lambda_cpu=config.lambda_cpu,
                network_time=config.network_time,
            ),
        )
        if config.wan_profile is not None:
            self.network.set_wan_delays(
                wan_registry_lookup(config.wan_profile).delays(config.n)
            )
        # Gray links draw from their own named stream: installing it up
        # front costs nothing (streams are independent and it is only read
        # when a lossy/duplicating link exists).
        self.network.set_link_rng(self.rng.stream("net/gray"))
        self.fd_fabric: FailureDetectorFabric = stack_registry.create_fd_fabric(
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

        With ``max_batch > 0`` each process's abcast is additionally wrapped
        in a request batcher (every registered stack gets it, with zero
        per-stack code); with the default ``max_batch=0`` no wrapper exists
        at all, keeping the off path architecturally identical to the
        golden-pinned system.  The import is deferred: :mod:`repro.load`
        builds on the replication service, which imports this module.
        """
        wrap = None
        if self.config.max_batch > 0:
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
                abcast = wrap(
                    process, abcast, self.config.max_batch, self.config.max_delay
                )
            self.abcasts.append(abcast)

    # ------------------------------------------------------------------ instrumentation

    def enable_instrumentation(
        self, obs: Optional[Instrumentation] = None
    ) -> Instrumentation:
        """Switch the instrumentation layer on for this system (idempotent).

        Creates (or adopts) an :class:`~repro.obs.Instrumentation`, attaches
        it to the simulation kernel and the network, rewires every process
        and protocol component's hook sink, and taps each failure detector's
        suspicion listeners.  Safe to call any time before :meth:`run`,
        and a second call returns the existing object.  Purely
        observational: enabling it changes no delivered sequence, latency
        or event count.
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
            detector.add_listener(self._suspicion_hook(monitor, obs))
        return obs

    def _suspicion_hook(self, monitor: int, obs: Instrumentation):
        """A detector listener forwarding to the suspicion hook with time/owner."""

        def _listener(target: int, suspected: bool) -> None:
            obs.suspicion(self.sim.now, monitor, target, suspected)

        return _listener

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
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------ operations

    def process(self, pid: int) -> SimProcess:
        """The simulated process with id ``pid``."""
        return self.processes[pid]

    def abcast(self, pid: int) -> AtomicBroadcast:
        """The atomic broadcast component of process ``pid``."""
        return self.abcasts[pid]

    def membership(self, pid: int) -> GroupMembership:
        """The group membership component of ``pid`` (GM stacks only)."""
        if not self.stack_spec.uses_membership:
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
    #
    # Together these satisfy the :class:`repro.stacks.FaultInjectable`
    # capability protocol: fault schedules compile against them instead of
    # reaching into the failure detector fabric.

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` at the current simulation time."""
        self.processes[pid].crash()

    def crash_at(self, time: float, pid: int) -> None:
        """Schedule the crash of ``pid`` at ``time``."""
        self.sim.post_at(time, self.processes[pid].crash)

    def recover(self, pid: int) -> None:
        """Recover process ``pid`` at the current simulation time.

        The process comes back with its pre-crash protocol state and
        reconciles with the group: under the FD stack it requests the
        consensus decisions it missed from its peers; under the GM stacks
        it restarts the join protocol and is re-admitted through a view
        change with a state transfer.
        """
        self.processes[pid].recover()

    def recover_at(self, time: float, pid: int) -> None:
        """Schedule the recovery of ``pid`` at ``time``."""
        self.sim.post_at(time, self.processes[pid].recover)

    def suspect_permanently(self, pid: int, delay: float = 0.0) -> None:
        """Make every failure detector suspect ``pid`` permanently."""
        self.fd_fabric.suspect_permanently(pid, delay)

    def suspect_permanently_at(self, time: float, pid: int) -> None:
        """Schedule :meth:`suspect_permanently` of ``pid`` at ``time``."""
        self.sim.post_at(time, self.fd_fabric.suspect_permanently, pid)

    def suspect_during(
        self,
        target: int,
        start: float,
        duration: float,
        monitors: Optional[Iterable[int]] = None,
    ) -> None:
        """Force a wrong suspicion of ``target`` during ``[start, start + duration]``."""
        self.fd_fabric.suspect_during(target, start, duration, monitors=monitors)

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network symmetrically into ``groups`` (now)."""
        self.network.partition([tuple(group) for group in groups])

    def partition_at(self, time: float, groups: Iterable[Iterable[int]]) -> None:
        """Schedule a symmetric partition at ``time``."""
        self.sim.post_at(
            time, self.network.partition, [tuple(group) for group in groups]
        )

    def block_links(self, links: Iterable[Any]) -> None:
        """Block individual directed links (asymmetric partition, now)."""
        self.network.block_links([tuple(link) for link in links])

    def block_links_at(self, time: float, links: Iterable[Any]) -> None:
        """Schedule an asymmetric partition at ``time``."""
        self.sim.post_at(
            time, self.network.block_links, [tuple(link) for link in links]
        )

    def heal(self) -> None:
        """Heal every partition and blocked link (now)."""
        self.network.heal()

    def heal_at(self, time: float) -> None:
        """Schedule the healing of every partition at ``time``."""
        self.sim.post_at(time, self.network.heal)

    def degrade_cpu(self, pid: int, factor: float) -> None:
        """Gray failure: slow ``pid``'s CPU by ``factor`` (now)."""
        self.network.degrade_cpu(pid, factor)

    def degrade_cpu_at(self, time: float, pid: int, factor: float) -> None:
        """Schedule a gray CPU degradation of ``pid`` at ``time``."""
        self.sim.post_at(time, self.network.degrade_cpu, pid, factor)

    def restore_cpu(self, pid: int) -> None:
        """End ``pid``'s gray CPU degradation (now)."""
        self.network.restore_cpu(pid)

    def restore_cpu_at(self, time: float, pid: int) -> None:
        """Schedule the end of ``pid``'s gray degradation at ``time``."""
        self.sim.post_at(time, self.network.restore_cpu, pid)

    def degrade_link(
        self,
        src: int,
        dst: int,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        """Make the directed link ``src -> dst`` lossy/duplicating (now)."""
        self.network.degrade_link(src, dst, loss_probability, duplicate_probability)

    def degrade_link_at(
        self,
        time: float,
        src: int,
        dst: int,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        """Schedule a gray link fault on ``src -> dst`` at ``time``."""
        self.sim.post_at(
            time,
            self.network.degrade_link,
            src,
            dst,
            loss_probability,
            duplicate_probability,
        )

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


def build_system(config: Optional[SystemConfig] = None, **overrides: Any) -> BroadcastSystem:
    """Convenience constructor: ``build_system(n=5, stack="gm", seed=7)``."""
    if config is None:
        config = SystemConfig(**overrides)
    elif overrides:
        stack_override = overrides.get("stack")
        if stack_override:
            # Fold a slash-qualified override ("fd/heartbeat") into the two
            # fields, since replace() re-passes the existing fd_kind.
            base, embedded = stack_registry.split_stack(stack_override)
            if embedded is not None:
                if overrides.get("fd_kind", embedded) != embedded:
                    raise ValueError(
                        f"conflicting failure detector selection: stack "
                        f"{stack_override!r} vs fd_kind={overrides['fd_kind']!r}"
                    )
                overrides["stack"] = base
                overrides["fd_kind"] = embedded
        config = replace(config, **overrides)
    return BroadcastSystem(config)
