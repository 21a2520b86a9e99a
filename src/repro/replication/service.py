"""A replicated service driven by atomic broadcast (active replication).

Every process of a :class:`~repro.system.BroadcastSystem` hosts one replica
of a deterministic state machine.  Client requests are A-broadcast; each
replica applies them in delivery order and produces a reply.  The response
time seen by the client is modelled, as in Section 5.1 of the paper, as the
time of the *first* reply -- which, assuming identical processing and reply
times across replicas, is the first A-delivery plus a constant.  The
constant is irrelevant for comparisons, so the recorded response time is the
first-delivery latency plus the configured processing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.types import BroadcastID
from repro.replication.state_machine import Command, KeyValueStore, StateMachine
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


#: Called when a submitted request gets its first reply.
ReplyListener = Callable[[ClientRequest], None]


class ReplicatedService:
    """Active replication of a state machine over atomic broadcast."""

    def __init__(
        self,
        system: BroadcastSystem,
        state_machine_factory: Callable[[], StateMachine] = KeyValueStore,
        processing_time: float = 0.0,
    ) -> None:
        self.system = system
        self.processing_time = processing_time
        self.replicas: Dict[int, StateMachine] = {
            pid: state_machine_factory() for pid in range(system.config.n)
        }
        #: Commands applied by each replica, in application order.
        self.applied_log: Dict[int, List[Command]] = {
            pid: [] for pid in range(system.config.n)
        }
        self.requests: Dict[BroadcastID, ClientRequest] = {}
        self._reply_listeners: List[ReplyListener] = []
        self._wire()

    # ------------------------------------------------------------------ wiring

    def _wire(self) -> None:
        for pid in range(self.system.config.n):
            self.system.abcast(pid).add_delivery_listener(
                lambda bid, payload, _pid=pid: self._on_delivery(_pid, bid, payload)
            )

    def add_reply_listener(self, listener: ReplyListener) -> None:
        """Subscribe to first replies: ``listener(request)`` once per request.

        The listener fires at the first A-delivery of the request anywhere
        in the group (the client-perceived completion instant); the load
        layer's closed-loop clients and admission window drain on it.
        """
        self._reply_listeners.append(listener)

    # ------------------------------------------------------------------ client API

    def submit(self, sender: int, command: Command) -> ClientRequest:
        """Submit ``command`` through replica ``sender`` (at the current time)."""
        broadcast_id = self.system.broadcast(sender, command)
        request = ClientRequest(
            command=command,
            broadcast_id=broadcast_id,
            submitted_at=self.system.sim.now,
        )
        self.requests[broadcast_id] = request
        return request

    def submit_at(self, time: float, sender: int, command: Command) -> None:
        """Schedule a command submission at an absolute simulation time."""
        self.system.sim.post_at(time, self.submit, sender, command)

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
            request.first_reply_at = self.system.sim.now + self.processing_time
            request.reply = reply
            obs = self.system.obs
            if obs is not None:
                obs.service_reply(
                    self.system.sim.now, payload.client, request.response_time
                )
            for listener in list(self._reply_listeners):
                listener(request)

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
        correct = self.system.correct_processes()
        logs = [
            [cmd for cmd in self.applied_log[pid]] for pid in correct
        ]
        if not logs:
            return True
        shortest = min(len(log) for log in logs)
        reference = logs[0][:shortest]
        return all(log[:shortest] == reference for log in logs)
