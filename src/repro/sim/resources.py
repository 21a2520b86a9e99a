"""FIFO contention resources.

The network model of the paper (Fig. 2) is built from resources that serve
one message at a time: one CPU resource per host and one shared network
resource.  A message that finds the resource busy waits in a FIFO queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from repro.sim.engine import Simulator


class FIFOResource:
    """A resource that serves jobs one at a time in arrival order.

    Jobs are submitted with :meth:`submit`; when a job finishes its service
    time the ``on_done`` callback fires and the next queued job (if any)
    starts immediately.  Callback arguments can be passed through ``submit``
    directly, which lets hot callers dispatch to a preallocated bound method
    instead of allocating a closure per job.
    """

    __slots__ = (
        "_sim",
        "name",
        "_busy",
        "_queue",
        "_jobs_served",
        "_busy_time",
        "_rate_factor",
    )

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self._busy = False
        self._queue: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()
        self._jobs_served = 0
        self._busy_time = 0.0
        self._rate_factor = 1.0

    @property
    def rate_factor(self) -> float:
        """Current service-time multiplier (1.0 = full speed)."""
        return self._rate_factor

    def set_rate_factor(self, factor: float) -> None:
        """Scale every *subsequently submitted* job's service time by ``factor``.

        Models a gray failure: the resource stays alive and correct, just
        slower.  Jobs already queued keep the factor they were submitted
        under (their service demand was fixed at submission).
        """
        if factor <= 0:
            raise ValueError(f"rate factor must be > 0, got {factor}")
        self._rate_factor = factor

    @property
    def busy(self) -> bool:
        """Whether a job is currently in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def jobs_served(self) -> int:
        """Total number of jobs that completed service."""
        return self._jobs_served

    @property
    def busy_time(self) -> float:
        """Cumulative time the resource spent serving jobs."""
        return self._busy_time

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` the resource was busy (for diagnostics)."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    def submit(
        self, service_time: float, on_done: Callable[..., Any], *args: Any
    ) -> None:
        """Request ``service_time`` units of service, then ``on_done(*args)``.

        A ``service_time`` of zero is served immediately when the resource is
        idle (and still respects FIFO order when it is not).
        """
        if not service_time >= 0:  # also rejects NaN
            raise ValueError(f"service time must be non-negative, got {service_time}")
        if self._rate_factor != 1.0:  # gray-degraded: off path stays branch-only
            service_time = service_time * self._rate_factor
        # A job is one tuple from here on: queued, handed to the kernel and
        # unpacked by ``_finish`` without being taken apart in between.
        job = (service_time, on_done, args)
        if self._busy:
            self._queue.append(job)
        else:
            # Start inlined: every message pays this path three times (emit,
            # transmit, receive), so the extra call frame is measurable.
            self._busy = True
            self._sim.post(service_time, self._finish, job)

    def _finish(self, job: Tuple[float, Callable[..., Any], tuple]) -> None:
        service_time, on_done, args = job
        self._busy_time += service_time
        self._jobs_served += 1
        on_done(*args)
        queue = self._queue
        if queue:
            job = queue.popleft()
            self._sim.post(job[0], self._finish, job)
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FIFOResource({self.name!r}, busy={self._busy}, queued={len(self._queue)})"
