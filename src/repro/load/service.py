"""The load-tested service: admission control and backpressure over replication.

:class:`LoadTestedService` wraps a :class:`repro.replication.service.ReplicatedService`
with the serving-stack concerns a real deployment has and the demo lacked:

* **admission window** -- at most ``max_inflight`` requests may be inside the
  broadcast layer at once (0 = unbounded, the demo behaviour);
* **bounded queue** -- up to ``max_queue`` further requests park in a FIFO
  queue and are admitted as replies free the window;
* **load shedding** -- a request arriving with window and queue both full is
  rejected immediately (its completion callback fires with ``shed=True``),
  so saturation shows up as shed load and bounded queueing delay instead of
  unbounded broadcast backlog;
* **consistency axis** -- ``"ordered"`` sends every command (reads included)
  through the total order; ``"local"`` serves ``get`` requests from the
  ingress replica's local state machine immediately, bypassing broadcast
  *and* the admission window (the lease-style weak-read trade-off).

Every request is tracked as a :class:`ServiceRequest` with its outcome and
client-perceived response time (queueing delay included), and the
``service.request`` / ``service.reply`` / ``service.batch`` instrumentation
hooks expose counters, queue-depth high-water marks and the response-time
histogram through the standard ``metrics.json`` snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.replication.service import ClientRequest, ReplicatedService
from repro.replication.state_machine import Command, KeyValueStore, StateMachine

#: Consistency modes of the read path.
CONSISTENCY_MODES = ("ordered", "local")


@dataclass(frozen=True)
class AdmissionConfig:
    """Backpressure policy of the service ingress.

    ``max_inflight = 0`` disables the window entirely (and with it the
    queue): every request is admitted, reproducing the bare replicated
    service.  With a window, ``max_queue`` bounds the FIFO overflow queue;
    ``max_queue = 0`` sheds immediately once the window is full.
    """

    max_inflight: int = 0
    max_queue: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")


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
    shed: bool = False
    #: Set once the request is A-broadcast (admitted or de-queued).
    client_request: Optional[ClientRequest] = None
    #: Completion callbacks (closed-loop clients hang their loop here).
    callbacks: List[Callable[["ServiceRequest"], None]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time incl. queueing (``None`` if open/shed)."""
        if self.completed_at is None or self.shed:
            return None
        return self.completed_at - self.submitted_at


class LoadTestedService:
    """Admission-controlled, consistency-aware front of the replicated KV store."""

    def __init__(
        self,
        system,
        consistency: str = "ordered",
        admission: Optional[AdmissionConfig] = None,
        processing_time: float = 0.0,
        state_machine_factory: Callable[[], StateMachine] = KeyValueStore,
    ) -> None:
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"unknown consistency mode {consistency!r}; expected one of {CONSISTENCY_MODES}"
            )
        self.system = system
        self.consistency = consistency
        self.admission = admission if admission is not None else AdmissionConfig()
        self.replicated = ReplicatedService(
            system,
            state_machine_factory=state_machine_factory,
            processing_time=processing_time,
        )
        self.replicated.add_reply_listener(self._on_reply)
        #: Every request ever submitted, in submission order.
        self.requests: List[ServiceRequest] = []
        self._by_broadcast: Dict[Any, ServiceRequest] = {}
        self._queue: Deque[ServiceRequest] = deque()
        self._inflight = 0
        self._completion_listeners: List[Callable[[ServiceRequest], None]] = []
        # Outcome counters (mirrored by the service.* instrumentation).
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.local_reads = 0
        self.queue_depth_hwm = 0
        self.inflight_hwm = 0

    def add_completion_listener(
        self, listener: Callable[[ServiceRequest], None]
    ) -> None:
        """Subscribe to every request completion (shed requests included)."""
        self._completion_listeners.append(listener)

    # ------------------------------------------------------------------ client API

    def submit(
        self,
        sender: int,
        command: Command,
        on_complete: Optional[Callable[[ServiceRequest], None]] = None,
    ) -> ServiceRequest:
        """Submit ``command`` through ingress replica ``sender``.

        Returns the tracked :class:`ServiceRequest`; its ``status`` tells the
        caller what the admission layer decided.  ``on_complete`` fires when
        the request finishes -- immediately for shed requests and local
        reads, at the first A-delivery for ordered commands.
        """
        now = self.system.sim.now
        request = ServiceRequest(
            index=len(self.requests),
            command=command,
            sender=sender,
            submitted_at=now,
        )
        if on_complete is not None:
            request.callbacks.append(on_complete)
        self.requests.append(request)

        if self.consistency == "local" and command.operation == "get":
            request.status = "local"
            self.local_reads += 1
            self._observe_request(now, command.client, "local")
            reply = self.replicated.read_local(sender, command)
            self._complete(request, reply, shed=False)
            return request

        if self.admission.max_inflight <= 0 or self._inflight < self.admission.max_inflight:
            self._admit(request)
            return request
        if len(self._queue) < self.admission.max_queue:
            request.status = "queued"
            self.queued += 1
            self._queue.append(request)
            if len(self._queue) > self.queue_depth_hwm:
                self.queue_depth_hwm = len(self._queue)
            self._observe_request(now, command.client, "queued")
            obs = self.system.obs
            if obs is not None:
                obs.gauge_max("service.queue_depth_hwm", len(self._queue))
            return request
        request.status = "shed"
        self.shed += 1
        self._observe_request(now, command.client, "shed")
        self._complete(request, reply=None, shed=True)
        return request

    def submit_at(
        self,
        time: float,
        sender: int,
        command: Command,
        on_complete: Optional[Callable[[ServiceRequest], None]] = None,
    ) -> None:
        """Schedule a submission at an absolute simulation time."""
        self.system.sim.post_at(time, self.submit, sender, command, on_complete)

    # ------------------------------------------------------------------ internals

    def _observe_request(self, now: float, client: int, status: str) -> None:
        obs = self.system.obs
        if obs is not None:
            obs.service_request(now, client, status)

    def _admit(self, request: ServiceRequest) -> None:
        self._inflight += 1
        if self._inflight > self.inflight_hwm:
            self.inflight_hwm = self._inflight
        if request.status != "queued":
            self.admitted += 1
            self._observe_request(self.system.sim.now, request.command.client, "admitted")
        obs = self.system.obs
        if obs is not None:
            obs.gauge_max("service.inflight_hwm", self._inflight)
        request.client_request = self.replicated.submit(request.sender, request.command)
        self._by_broadcast[request.client_request.broadcast_id] = request

    def _on_reply(self, client_request: ClientRequest) -> None:
        request = self._by_broadcast.pop(client_request.broadcast_id, None)
        if request is None:
            # A request submitted directly on the replicated layer
            # (mixed use is legal); the window never accounted for it.
            return
        self._inflight -= 1
        self._complete(request, client_request.reply, shed=False)
        while self._queue and (
            self.admission.max_inflight <= 0 or self._inflight < self.admission.max_inflight
        ):
            self._admit(self._queue.popleft())

    def _complete(self, request: ServiceRequest, reply: Any, shed: bool) -> None:
        request.completed_at = self.system.sim.now
        request.reply = reply
        request.shed = shed
        if request.status == "local":
            obs = self.system.obs
            if obs is not None:
                # Ordered commands are reported by the replication layer at
                # first A-delivery; the local read path never gets there.
                obs.service_reply(
                    self.system.sim.now, request.command.client, request.response_time
                )
        for callback in list(request.callbacks):
            callback(request)
        for listener in list(self._completion_listeners):
            listener(request)

    # ------------------------------------------------------------------ inspection

    @property
    def inflight(self) -> int:
        """Requests currently inside the broadcast layer."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Requests currently parked in the admission queue."""
        return len(self._queue)

    def response_times(self) -> List[float]:
        """Response times of every completed (non-shed) request."""
        return [
            request.response_time
            for request in self.requests
            if request.response_time is not None
        ]

    def outcome_counts(self) -> Dict[str, int]:
        """Admission outcomes: admitted / queued / shed / local_reads."""
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "local_reads": self.local_reads,
        }

    def replicas_consistent(self) -> bool:
        """Delegate of :meth:`ReplicatedService.replicas_consistent`."""
        return self.replicated.replicas_consistent()


__all__ = [
    "AdmissionConfig",
    "CONSISTENCY_MODES",
    "LoadTestedService",
    "ServiceRequest",
]
