"""Contention-aware network model (Fig. 2 of the paper).

A message sent from process ``p_i`` to process ``p_j`` successively occupies

1. ``CPU_i`` for ``lambda`` time units (emission processing),
2. the single shared ``network`` resource for 1 time unit (transmission),
3. ``CPU_j`` for ``lambda`` time units (reception processing),

with a FIFO waiting queue in front of every resource.  The parameter
``lambda`` captures the relative cost of host processing versus the network
transmission; the paper's published results use ``lambda = 1``.

A multicast occupies the sending CPU and the network once (Ethernet-like
broadcast medium) and each receiving CPU once.  A destination equal to the
sender is delivered locally, without occupying any resource.

Crashes follow the paper's *software crash* semantics: once ``p_i`` crashes,
no message passes between ``p_i`` and ``CPU_i`` any more, but messages that
were already handed to ``CPU_i`` (queued or in service) are still emitted.

The emission -> transmission -> reception pipeline dispatches through bound
methods with the message passed as an event argument: the seed allocated
three closures per remote destination per send, which dominated allocation
counts on multicast-heavy workloads.  The event sequence itself is
unchanged, so simulation results stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.resources import FIFOResource

DeliverCallback = Callable[[int, Message], None]
CrashListener = Callable[[int, float], None]
RecoveryListener = Callable[[int, float], None]
#: Called on every partition change with the new set of blocked directed
#: ``(src, dst)`` links (``None`` = fully healed) and the current time.
PartitionListener = Callable[[Optional[Set[tuple]], float], None]


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the contention model.

    Attributes
    ----------
    n:
        Number of processes (ids ``0 .. n-1``).
    lambda_cpu:
        Time units spent on a host CPU to emit or to receive one message
        (``lambda`` in the paper).
    network_time:
        Time units one message occupies the shared network; the paper's time
        unit, fixed to 1 in all published experiments.
    """

    n: int
    lambda_cpu: float = 1.0
    network_time: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one process, got n={self.n}")
        if self.lambda_cpu < 0:
            raise ValueError(f"lambda_cpu must be >= 0, got {self.lambda_cpu}")
        if self.network_time <= 0:
            raise ValueError(f"network_time must be > 0, got {self.network_time}")


class NetworkStats:
    """Counters describing the traffic a simulation produced."""

    __slots__ = (
        "messages_sent",
        "unicasts_sent",
        "multicasts_sent",
        "deliveries",
        "dropped_sender_crashed",
        "dropped_receiver_crashed",
        "dropped_partitioned",
        "dropped_lossy_link",
        "duplicated_link",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.unicasts_sent = 0
        self.multicasts_sent = 0
        self.deliveries = 0
        self.dropped_sender_crashed = 0
        self.dropped_receiver_crashed = 0
        self.dropped_partitioned = 0
        self.dropped_lossy_link = 0
        self.duplicated_link = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters, keyed by counter name."""
        return {name: getattr(self, name) for name in self.__slots__}


class Network:
    """The shared transmission medium plus one CPU resource per process.

    Deliberately *not* slotted: there is one network per run (slots would
    save nothing) and tests monkeypatch ``send`` to trace traffic.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig) -> None:
        self._sim = sim
        self.config = config
        # Scalars the per-message pipeline reads, hoisted out of the frozen
        # dataclass (immutable for the lifetime of the network).
        self._n = config.n
        self._lambda_cpu = config.lambda_cpu
        self._network_time = config.network_time
        self._network = FIFOResource(sim, "network")
        self._cpus: List[FIFOResource] = [
            FIFOResource(sim, f"cpu[{pid}]") for pid in range(config.n)
        ]
        # Indexed by pid (``None`` until attached): the delivery fan-out is
        # the hottest consumer, and a list index beats a dict probe there.
        self._deliver_callbacks: List[Optional[DeliverCallback]] = [None] * config.n
        self._crashed: Set[int] = set()
        self._crash_times: Dict[int, float] = {}
        self._crash_listeners: List[CrashListener] = []
        self._recovery_listeners: List[RecoveryListener] = []
        self._partition_listeners: List[PartitionListener] = []
        # Link-fault state (partitions / WAN delays / gray links).  All three
        # stay ``None``/empty on the no-fault path; ``_link_faults_active``
        # folds them into the single branch ``_transmitted`` checks, so the
        # hot path of an unfaulted run is untouched.
        self._unreachable: Optional[Set[tuple]] = None
        self._wan_delays: Optional[List[List[float]]] = None
        self._gray_links: Dict[tuple, tuple] = {}
        self._link_rng = None
        self._link_faults_active = False
        self.stats = NetworkStats()
        #: Instrumentation, or ``None`` (checked with one branch per send /
        #: delivery so the uninstrumented hot path stays hook-free).
        self._obs = None

    def set_instrumentation(self, obs) -> None:
        """Attach an :class:`repro.obs.Instrumentation` (``None`` detaches)."""
        self._obs = obs

    # ------------------------------------------------------------------ wiring

    @property
    def sim(self) -> Simulator:
        """The simulation kernel this network is attached to."""
        return self._sim

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    def attach(self, pid: int, callback: DeliverCallback) -> None:
        """Register the delivery callback of process ``pid``."""
        self._check_pid(pid)
        self._deliver_callbacks[pid] = callback

    def add_crash_listener(self, listener: CrashListener) -> None:
        """Register a callback invoked as ``listener(pid, time)`` on crashes."""
        self._crash_listeners.append(listener)

    def add_recovery_listener(self, listener: RecoveryListener) -> None:
        """Register a callback invoked as ``listener(pid, time)`` on recoveries."""
        self._recovery_listeners.append(listener)

    def add_partition_listener(self, listener: PartitionListener) -> None:
        """Register a callback invoked on every partition change / heal."""
        self._partition_listeners.append(listener)

    def set_link_rng(self, rng) -> None:
        """Attach the random stream that drives lossy/duplicating links."""
        self._link_rng = rng

    def cpu(self, pid: int) -> FIFOResource:
        """The CPU resource of process ``pid`` (useful for tests and stats)."""
        self._check_pid(pid)
        return self._cpus[pid]

    @property
    def network_resource(self) -> FIFOResource:
        """The shared network resource."""
        return self._network

    # ------------------------------------------------------------------ crashes

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` at the current simulation time.

        Idempotent.  Messages already handed to ``CPU_pid`` keep flowing
        (software-crash semantics); everything submitted afterwards is
        dropped, and nothing is delivered up to the crashed process.
        """
        self._check_pid(pid)
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        self._crash_times[pid] = self._sim.now
        for listener in list(self._crash_listeners):
            listener(pid, self._sim.now)

    def recover(self, pid: int) -> None:
        """Bring a crashed process back up at the current simulation time.

        Idempotent.  The recovered process sends and receives again from this
        instant on; messages dropped while it was down stay lost (the protocol
        layers are responsible for any catch-up / state transfer).  The crash
        time of the last crash is kept for inspection.
        """
        self._check_pid(pid)
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        for listener in list(self._recovery_listeners):
            listener(pid, self._sim.now)

    def is_crashed(self, pid: int) -> bool:
        """Whether ``pid`` has crashed."""
        self._check_pid(pid)
        return pid in self._crashed

    def crash_time(self, pid: int) -> Optional[float]:
        """Time at which ``pid`` crashed, or ``None`` if it did not."""
        self._check_pid(pid)
        return self._crash_times.get(pid)

    def correct_processes(self) -> List[int]:
        """Process ids that have not crashed, in increasing order."""
        return [pid for pid in range(self._n) if pid not in self._crashed]

    # ------------------------------------------------------------------ link faults

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Partition the network symmetrically into ``groups``.

        Frames between different groups are dropped after transmission (they
        still occupy the sender CPU and the shared network -- the medium
        does not know the receiver is unreachable -- but never load the
        receiving CPU).  Pids not listed in any group become singletons.
        A new partition replaces the previous mask.
        """
        group_of: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                self._check_pid(pid)
                if pid in group_of:
                    raise ValueError(f"pid {pid} appears in more than one group")
                group_of[pid] = index
        blocked: Set[tuple] = set()
        for src in range(self._n):
            side = group_of.get(src, -1 - src)  # unlisted pids are singletons
            for dst in range(self._n):
                if src != dst and side != group_of.get(dst, -1 - dst):
                    blocked.add((src, dst))
        self._set_unreachable(blocked if blocked else None)

    def block_links(self, links: Sequence[tuple]) -> None:
        """Block individual *directed* links (an asymmetric partition).

        Replaces the current partition mask, like :meth:`partition`.
        """
        blocked: Set[tuple] = set()
        for src, dst in links:
            self._check_pid(src)
            self._check_pid(dst)
            if src != dst:
                blocked.add((src, dst))
        self._set_unreachable(blocked if blocked else None)

    def heal(self) -> None:
        """Remove the partition mask: every link carries frames again."""
        self._set_unreachable(None)

    def _set_unreachable(self, blocked: Optional[Set[tuple]]) -> None:
        self._unreachable = blocked
        self._update_link_fault_flag()
        now = self._sim.now
        if self._obs is not None:
            self._obs.partition_changed(now, len(blocked) if blocked else 0)
        for listener in list(self._partition_listeners):
            listener(blocked, now)

    def is_link_blocked(self, src: int, dst: int) -> bool:
        """Whether the directed link ``src -> dst`` is partitioned away."""
        return self._unreachable is not None and (src, dst) in self._unreachable

    def set_wan_delays(self, matrix: Optional[Sequence[Sequence[float]]]) -> None:
        """Install an ``n x n`` per-pair extra propagation delay (``None`` clears).

        The delay is added between the shared-medium transmission and the
        receiving CPU -- pure propagation latency that occupies no resource,
        which is how a WAN backbone behaves between contended endpoints.
        """
        if matrix is None:
            self._wan_delays = None
        else:
            rows = [list(row) for row in matrix]
            if len(rows) != self._n or any(len(row) != self._n for row in rows):
                raise ValueError(f"the WAN delay matrix must be {self._n}x{self._n}")
            if any(delay < 0 for row in rows for delay in row):
                raise ValueError("WAN delays must be >= 0")
            self._wan_delays = rows
        self._update_link_fault_flag()

    def degrade_link(
        self,
        src: int,
        dst: int,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        """Make the directed link ``src -> dst`` lossy and/or duplicating.

        Both probabilities zero restores the link.  Needs a random stream
        (:meth:`set_link_rng`) when either probability is positive.
        """
        self._check_pid(src)
        self._check_pid(dst)
        for name, value in (
            ("loss_probability", loss_probability),
            ("duplicate_probability", duplicate_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if loss_probability == 0.0 and duplicate_probability == 0.0:
            self._gray_links.pop((src, dst), None)
        else:
            if self._link_rng is None:
                raise RuntimeError("gray links need a random stream (set_link_rng)")
            self._gray_links[(src, dst)] = (loss_probability, duplicate_probability)
        self._update_link_fault_flag()

    def degrade_cpu(self, pid: int, factor: float) -> None:
        """Gray failure: scale the service time of ``CPU_pid`` by ``factor``."""
        self._check_pid(pid)
        self._cpus[pid].set_rate_factor(factor)
        if self._obs is not None:
            self._obs.process_degraded(self._sim.now, pid, factor)

    def restore_cpu(self, pid: int) -> None:
        """End a gray CPU degradation: ``CPU_pid`` runs at full speed again."""
        self._check_pid(pid)
        self._cpus[pid].set_rate_factor(1.0)
        if self._obs is not None:
            self._obs.process_degraded(self._sim.now, pid, 1.0)

    def _update_link_fault_flag(self) -> None:
        self._link_faults_active = (
            self._unreachable is not None
            or self._wan_delays is not None
            or bool(self._gray_links)
        )

    # ------------------------------------------------------------------ sending

    def send(self, message: Message) -> None:
        """Inject ``message`` into the network model.

        The sender pays the CPU emission cost once, the message occupies the
        network once (even for multicasts) and every remote destination pays
        the CPU reception cost.  Local (self) destinations are delivered at
        the current time without using any resource.
        """
        sender = message.sender
        n = self._n
        if sender < 0 or sender >= n:
            self._check_pid(sender)
        destinations = message.destinations
        for dest in destinations:
            if dest < 0 or dest >= n:
                self._check_pid(dest)

        dropped = sender in self._crashed
        if self._obs is not None:
            self._obs.message_send(self._sim.now, message, dropped)
        if dropped:
            self.stats.dropped_sender_crashed += 1
            return

        stats = self.stats
        stats.messages_sent += 1
        remote = message._remote  # the slot behind remote_destinations()
        if len(remote) > 1:
            stats.multicasts_sent += 1
        elif remote:
            stats.unicasts_sent += 1

        if sender in destinations:
            # Local delivery bypasses the resources but still goes through the
            # event queue so that callers never see re-entrant callbacks.
            self._sim.post(0.0, self._deliver_local, sender, message)

        if remote:
            self._cpus[sender].submit(self._lambda_cpu, self._emitted, message)

    def _deliver_local(self, pid: int, message: Message) -> None:
        # Same body as ``_received``, kept as a method of its own: the event
        # loop profile buckets events by the callback's qualified name.
        if pid in self._crashed:
            self.stats.dropped_receiver_crashed += 1
            return
        callback = self._deliver_callbacks[pid]
        if callback is None:
            raise RuntimeError(f"no process attached for destination {pid}")
        self.stats.deliveries += 1
        if self._obs is not None:
            self._obs.message_deliver(self._sim.now, pid, message)
        callback(pid, message)

    def _emitted(self, message: Message) -> None:
        # The sending CPU finished the emission processing; the message now
        # occupies the shared network once, regardless of fan-out.
        self._network.submit(self._network_time, self._transmitted, message)

    def _transmitted(self, message: Message) -> None:
        if self._link_faults_active:
            self._transmitted_faulted(message)
            return
        cpus = self._cpus
        lambda_cpu = self._lambda_cpu
        received = self._received
        for dest in message._remote:
            cpus[dest].submit(lambda_cpu, received, dest, message)

    def _transmitted_faulted(self, message: Message) -> None:
        """Per-destination fan-out with partitions / gray links / WAN delays.

        Split from :meth:`_transmitted` so the no-fault path keeps its tight
        loop; this path only runs while some link fault is installed.
        """
        sender = message.sender
        unreachable = self._unreachable
        gray = self._gray_links
        wan = self._wan_delays
        stats = self.stats
        for dest in message._remote:
            if unreachable is not None and (sender, dest) in unreachable:
                # The frame crossed the medium but the link is cut: it never
                # loads the receiving CPU.
                stats.dropped_partitioned += 1
                continue
            copies = 1
            if gray:
                fault = gray.get((sender, dest))
                if fault is not None:
                    loss, duplicate = fault
                    if loss and self._link_rng.random() < loss:
                        stats.dropped_lossy_link += 1
                        continue
                    if duplicate and self._link_rng.random() < duplicate:
                        stats.duplicated_link += 1
                        copies = 2
            delay = wan[sender][dest] if wan is not None else 0.0
            for _copy in range(copies):
                if delay > 0.0:
                    self._sim.post(delay, self._wan_arrived, dest, message)
                else:
                    self._cpus[dest].submit(
                        self._lambda_cpu, self._received, dest, message
                    )

    def _wan_arrived(self, dest: int, message: Message) -> None:
        # The frame finished its WAN propagation; it now loads the receiving
        # CPU exactly as a local frame would.
        self._cpus[dest].submit(self._lambda_cpu, self._received, dest, message)

    def _received(self, dest: int, message: Message) -> None:
        if dest in self._crashed:
            # The CPU processed the frame but the crashed process never sees it.
            self.stats.dropped_receiver_crashed += 1
            return
        callback = self._deliver_callbacks[dest]
        if callback is None:
            raise RuntimeError(f"no process attached for destination {dest}")
        self.stats.deliveries += 1
        if self._obs is not None:
            self._obs.message_deliver(self._sim.now, dest, message)
        callback(dest, message)

    # ------------------------------------------------------------------ helpers

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self._n:
            raise ValueError(f"process id {pid} out of range 0..{self._n - 1}")
