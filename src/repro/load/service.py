"""The load-tested service: admission control and backpressure over replication.

:class:`LoadTestedService` is the :class:`repro.replication.service.ReplicatedService`
with the serving-stack concerns a real deployment has:

* **admission window** -- at most ``max_inflight`` requests may be inside the
  broadcast layer at once (0 = unbounded, the bare replicated service);
* **bounded queue** -- up to ``max_queue`` further requests park in a FIFO
  queue and are admitted as replies free the window;
* **load shedding** -- a request arriving with window and queue both full is
  rejected immediately (it completes at once, with ``shed`` set), so
  saturation shows up as shed load and bounded queueing delay instead of
  unbounded broadcast backlog;
* **consistency axis** -- ``"ordered"`` sends every command (reads included)
  through the total order; ``"local"`` serves ``get`` requests from the
  ingress replica's local state machine immediately, bypassing broadcast
  *and* the admission window (the lease-style weak-read trade-off).

Requests, their completion and their response time (queueing delay
included) are the replicated service's own.  The ``service.request`` /
``service.reply`` / ``service.batch`` instrumentation hooks expose counters,
queue-depth high-water marks and the response-time histogram through the
standard ``metrics.json`` snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro.core.types import BroadcastID
from repro.replication.service import ReplicatedService, ServiceRequest
from repro.replication.state_machine import Command
from repro.sim.process import live_sender

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


class LoadTestedService(ReplicatedService):
    """The replicated KV service behind an admission window, with local reads.

    Like the :class:`ReplicatedService` it extends, it keeps the parts of
    ``system`` it uses, not ``system``: hold the system for as long as the
    service runs.
    """

    def __init__(
        self,
        system,
        consistency: str = "ordered",
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"unknown consistency mode {consistency!r}; expected one of {CONSISTENCY_MODES}"
            )
        super().__init__(system)
        self.consistency = consistency
        self.admission = admission if admission is not None else AdmissionConfig()
        self._queue: Deque[ServiceRequest] = deque()
        # Outcome counters (mirrored by the service.* instrumentation).
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.local_reads = 0
        self.queue_depth_hwm = 0
        self.inflight_hwm = 0

    # ------------------------------------------------------------------ client API

    def submit(self, sender: int, command: Command) -> ServiceRequest:
        """Submit ``command`` through ingress replica ``sender``.

        Returns the tracked :class:`ServiceRequest`; its ``status`` tells the
        caller what the admission layer decided.  Shed requests and local
        reads complete before this returns, ordered commands at their first
        A-delivery.
        """
        if self.consistency == "local" and command.operation == "get":
            status = "local"
        elif self._window_open():
            status = "admitted"
        elif len(self._queue) < self.admission.max_queue:
            status = "queued"
        else:
            status = "shed"
        obs = self.processes[sender].obs
        if obs is not None:
            obs.service_request(self.sim.now, command.client, status)
        if status == "admitted":
            self.admitted += 1
            return super().submit(sender, command)
        request = self._record(sender, command, status)
        if status == "local":
            self.local_reads += 1
            self._complete(request, self.read_local(sender, command))
        elif status == "queued":
            self.queued += 1
            self._queue.append(request)
            self.queue_depth_hwm = max(self.queue_depth_hwm, len(self._queue))
            if obs is not None:
                obs.gauge_max("service.queue_depth_hwm", len(self._queue))
        else:
            self.shed += 1
            self._complete(request, None)
        return request

    # ------------------------------------------------------------------ internals

    def _window_open(self) -> bool:
        return self.admission.max_inflight <= 0 or len(self._pending) < self.admission.max_inflight

    def _broadcast(self, request: ServiceRequest) -> None:
        super()._broadcast(request)
        self.inflight_hwm = max(self.inflight_hwm, len(self._pending))
        obs = self.processes[request.sender].obs
        if obs is not None:
            obs.gauge_max("service.inflight_hwm", len(self._pending))

    def _on_delivery(self, pid: int, broadcast_id: BroadcastID, payload: Any) -> None:
        super()._on_delivery(pid, broadcast_id, payload)
        # A first delivery frees a slot of the window: admit the queue's head,
        # through a live replica (a crashed one would lose the broadcast).
        while self._queue and self._window_open():
            request = self._queue.popleft()
            pids = range(len(self.processes))
            request.sender = live_sender(self.processes, pids, request.sender)
            self._broadcast(request)

    # ------------------------------------------------------------------ inspection

    @property
    def inflight(self) -> int:
        """Requests currently inside the broadcast layer."""
        return len(self._pending)

    @property
    def queue_depth(self) -> int:
        """Requests currently parked in the admission queue."""
        return len(self._queue)

    def outcome_counts(self) -> Dict[str, int]:
        """Admission outcomes: admitted / queued / shed / local_reads."""
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "local_reads": self.local_reads,
        }


__all__ = ["AdmissionConfig", "CONSISTENCY_MODES", "LoadTestedService"]
