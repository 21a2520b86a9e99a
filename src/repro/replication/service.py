"""A replicated service driven by atomic broadcast (active replication).

Every process of a :class:`~repro.system.BroadcastSystem` hosts one replica
of a deterministic state machine.  Client requests are A-broadcast; each
replica applies them in delivery order and produces a reply.  The response
time seen by the client is modelled, as in Section 5.1 of the paper, as the
time of the *first* reply -- which, assuming identical processing and reply
times across replicas, is the first A-delivery plus a constant.  The
constant is irrelevant for comparisons, so the recorded response time is the
first-delivery latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.types import BroadcastID
from repro.replication.state_machine import Command, KeyValueStore
from repro.system import BroadcastSystem


@dataclass
class ClientRequest:
    """Book-keeping for one submitted request."""

    command: Command
    broadcast_id: BroadcastID
    submitted_at: float
    first_reply_at: Optional[float] = None
    reply: Any = None

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time (``None`` until a reply exists)."""
        if self.first_reply_at is None:
            return None
        return self.first_reply_at - self.submitted_at


class ReplicatedService:
    """Active replication of a state machine over atomic broadcast.

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
        self.requests: Dict[BroadcastID, ClientRequest] = {}
        for pid, abcast in enumerate(self.abcasts):
            abcast.add_delivery_listener(
                lambda bid, payload, _pid=pid: self._on_delivery(_pid, bid, payload)
            )

    # ------------------------------------------------------------------ client API

    def submit(self, sender: int, command: Command) -> ClientRequest:
        """Submit ``command`` through replica ``sender`` (at the current time)."""
        broadcast_id = self.abcasts[sender].broadcast(command)
        request = ClientRequest(
            command=command,
            broadcast_id=broadcast_id,
            submitted_at=self.sim.now,
        )
        self.requests[broadcast_id] = request
        return request

    def submit_at(self, time: float, sender: int, command: Command) -> None:
        """Schedule a command submission at an absolute simulation time."""
        self.sim.post_at(time, self.submit, sender, command)

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

    # ------------------------------------------------------------------ replica side

    def _on_delivery(self, pid: int, broadcast_id: BroadcastID, payload: Any) -> None:
        if not isinstance(payload, Command):
            return
        replica = self.replicas[pid]
        reply = replica.apply(payload)
        self.applied_log[pid].append(payload)
        request = self.requests.get(broadcast_id)
        if request is not None and request.first_reply_at is None:
            request.first_reply_at = self.sim.now
            request.reply = reply
            obs = self.processes[pid].obs
            if obs is not None:
                obs.service_reply(self.sim.now, payload.client, request.response_time)

    # ------------------------------------------------------------------ inspection

    def response_times(self) -> List[float]:
        """Response times of all requests that got a reply."""
        return [
            request.response_time
            for request in self.requests.values()
            if request.response_time is not None
        ]

    def replica_states(self) -> Dict[int, Any]:
        """Snapshot of every replica's state (for consistency checks)."""
        return {pid: replica.snapshot() for pid, replica in self.replicas.items()}

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
