"""A replicated service driven by atomic broadcast (active replication).

Every process of a :class:`~repro.system.BroadcastSystem` hosts one replica
of a deterministic state machine.  Client requests are A-broadcast; each
replica applies them in delivery order and produces a reply.  The response
time seen by the client is modelled, as in Section 5.1 of the paper, as the
time of the *first* reply -- which, assuming identical processing and reply
times across replicas, is the first A-delivery plus a constant.  The
constant is irrelevant for comparisons, so the recorded response time runs
from the submission to the first delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.types import BroadcastID
from repro.replication.state_machine import Command, KeyValueStore
from repro.system import BroadcastSystem


@dataclass
class ServiceRequest:
    """One client request as the service saw it, with its outcome."""

    index: int
    command: Command
    sender: int
    submitted_at: float
    #: ``"admitted"``, ``"queued"``, ``"shed"`` or ``"local"``.
    status: str = "admitted"
    completed_at: Optional[float] = None
    reply: Any = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time incl. queueing (``None`` if open/shed)."""
        if self.completed_at is None or self.shed:
            return None
        return self.completed_at - self.submitted_at


class ReplicatedService:
    """Active replication of a state machine over atomic broadcast.

    Each submission is one :class:`ServiceRequest` in :attr:`requests`.  The
    one delivery listener the service hangs on each abcast applies the
    command at that replica and completes the request at its first
    A-delivery anywhere; every completion then goes to the service-wide
    completion listeners.

    The service keeps the parts of ``system`` it uses -- the kernel, the
    processes, their abcasts and the random streams its client populations
    draw from -- and not ``system`` itself: the delivery listeners it hangs
    on the abcasts never reach back to the system, so the caller's last
    reference to the system still decides when it is freed.  Hold the
    system for as long as the service runs.
    """

    def __init__(self, system: BroadcastSystem) -> None:
        self.sim = system.sim
        self.rng = system.rng
        self.processes = system.processes
        self.abcasts = system.abcasts
        n = len(self.processes)
        self.replicas: Dict[int, KeyValueStore] = {pid: KeyValueStore() for pid in range(n)}
        #: Commands applied by each replica, in application order.
        self.applied_log: Dict[int, List[Command]] = {pid: [] for pid in range(n)}
        #: Every request ever submitted, in submission order.
        self.requests: List[ServiceRequest] = []
        #: A-broadcast requests awaiting their first delivery.
        self._pending: Dict[BroadcastID, ServiceRequest] = {}
        self._completion_listeners: List[Callable[[ServiceRequest], None]] = []
        for pid, abcast in enumerate(self.abcasts):
            abcast.add_delivery_listener(
                lambda bid, payload, _pid=pid: self._on_delivery(_pid, bid, payload)
            )

    def add_completion_listener(self, listener: Callable[[ServiceRequest], None]) -> None:
        """Subscribe to every request completion (shed requests included)."""
        self._completion_listeners.append(listener)

    def remove_completion_listener(self, listener: Callable[[ServiceRequest], None]) -> None:
        """Undo one :meth:`add_completion_listener` of ``listener``."""
        self._completion_listeners.remove(listener)

    # ------------------------------------------------------------------ client API

    def submit(self, sender: int, command: Command) -> ServiceRequest:
        """A-broadcast ``command`` through replica ``sender`` (at the current time)."""
        request = self._record(sender, command, "admitted")
        self._broadcast(request)
        return request

    def read_local(self, pid: int, command: Command) -> Any:
        """Serve a read from replica ``pid``'s local state, bypassing broadcast.

        The weak-consistency read path (``consistency="local"`` in the load
        subsystem): the reply reflects replica ``pid``'s applied prefix, so
        it may be stale relative to the totally-ordered log -- the classic
        latency-vs-consistency trade.  Only non-mutating operations are
        allowed; the read is not appended to the replicated log.
        """
        if command.operation != "get":
            raise ValueError(
                f"only 'get' commands may be served locally, got {command.operation!r}"
            )
        return self.replicas[pid].apply(command)

    # ------------------------------------------------------------------ internals

    def _record(self, sender: int, command: Command, status: str) -> ServiceRequest:
        request = ServiceRequest(len(self.requests), command, sender, self.sim.now, status)
        self.requests.append(request)
        return request

    def _broadcast(self, request: ServiceRequest) -> None:
        self._pending[self.abcasts[request.sender].broadcast(request.command)] = request

    def _on_delivery(self, pid: int, broadcast_id: BroadcastID, payload: Any) -> None:
        if not isinstance(payload, Command):
            return
        reply = self.replicas[pid].apply(payload)
        self.applied_log[pid].append(payload)
        request = self._pending.pop(broadcast_id, None)
        if request is not None:
            self._complete(request, reply)

    def _complete(self, request: ServiceRequest, reply: Any) -> None:
        request.completed_at = self.sim.now
        request.reply = reply
        obs = self.processes[request.sender].obs
        if obs is not None and not request.shed:
            obs.service_reply(self.sim.now, request.command.client, request.response_time)
        for listener in list(self._completion_listeners):
            listener(request)

    # ------------------------------------------------------------------ inspection

    def response_times(self) -> List[float]:
        """Response times of every completed (non-shed) request."""
        return [
            request.response_time
            for request in self.requests
            if request.response_time is not None
        ]

    def replicas_consistent(self) -> bool:
        """Whether all *correct* replicas applied the same command prefix."""
        logs = [
            self.applied_log[pid]
            for pid, process in enumerate(self.processes)
            if not process.crashed
        ]
        if not logs:
            return True
        shortest = min(len(log) for log in logs)
        reference = logs[0][:shortest]
        return all(log[:shortest] == reference for log in logs)
