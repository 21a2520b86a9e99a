"""The ``service-load`` scenario: load-test the replicated KV service.

A client population (open- or closed-loop, :mod:`repro.load.clients`)
submits KV commands to an admission-controlled
:class:`repro.load.service.LoadTestedService`; the measured quantity is the
client-perceived response time, queueing and batching delay included.  The
result is a :class:`~repro.scenarios.results.ScenarioResult` whose
``latencies`` are the response times of completed measured requests and
whose ``undelivered`` counts the shed or unanswered ones, so a saturated
point reads like a non-working one in the paper's figures; ``params`` adds
admission outcomes, goodput / offered rates and response-time percentiles.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.load.clients import ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import AdmissionConfig, LoadTestedService
from repro.metrics.stats import latency_percentiles
from repro.scenarios.faults import FaultSchedule
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_MESSAGES,
    DEFAULT_WARMUP_FRACTION,
    arrival_horizon,
    finish_run,
)
from repro.system import SystemConfig, build_system

#: Default admission window / queue bound of the scenario.
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_QUEUE = 128


def run_service_load(
    config: SystemConfig,
    offered_load: float,
    clients: int = 0,
    think_time: float = 0.0,
    num_requests: int = DEFAULT_MESSAGES,
    consistency: str = "ordered",
    arrival: str = "poisson",
    mix: Optional[CommandMix] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_queue: int = DEFAULT_MAX_QUEUE,
    faults: Optional[FaultSchedule] = None,
) -> ScenarioResult:
    """Run one service-load operating point.

    ``clients = 0`` (the default) runs an *open-loop* population arriving at
    ``offered_load`` requests/s with the given ``arrival`` discipline;
    ``clients > 0`` runs a *closed-loop* population of that many clients
    with exponential ``think_time`` (ms), and ``offered_load`` is recorded
    but does not drive generation.  Request batching and the failure
    detector come from ``config`` (its batching and fd-kind params), so a
    campaign sweeps them like any other system dimension.
    """
    faults = faults if faults is not None else FaultSchedule()
    with build_system(config) as system:
        faults.apply_pre(system)

        service = LoadTestedService(
            system,
            consistency=consistency,
            admission=AdmissionConfig(max_inflight=max_inflight, max_queue=max_queue),
        )

        warmup_count = int(math.ceil(num_requests * DEFAULT_WARMUP_FRACTION))
        total = warmup_count + num_requests
        # Each request completes once, so the last measured completion means
        # every request was issued.  The listener holds the kernel's stop and
        # a counter: nothing of the service or the clients.
        stop, outstanding = system.sim.stop, [num_requests]

        def on_complete(request) -> None:
            if request.index >= warmup_count:
                outstanding[0] -= 1
                if outstanding[0] == 0:
                    stop()

        service.add_completion_listener(on_complete)

        if clients > 0:
            population = ClosedLoopClients(service, clients, think_time, mix=mix)
            population.start(total)
            # Serial worst case per client chain, with generous slack per
            # round trip; closed loops self-throttle, so this rarely binds.
            max_time = 20_000.0 + math.ceil(total / clients) * (think_time + 500.0)
        else:
            population = OpenLoopClients(
                service, offered_load, num_clients=max(1, config.n), arrival=arrival, mix=mix
            )
            last_arrival = population.schedule_requests(total, start_time=0.0)
            max_time = arrival_horizon(last_arrival, offered_load)

        faults.schedule(system)
        system.run(until=max_time, max_events=DEFAULT_MAX_EVENTS)

        measured = service.requests[warmup_count:]
        latencies = [
            request.response_time
            for request in measured
            if request.response_time is not None
        ]
        duration = system.sim.now
        completed_total = sum(1 for r in service.requests if r.response_time is not None)

        params: Dict[str, Any] = {
            "clients": clients,
            "think_time": think_time,
            "consistency": consistency,
            "arrival": arrival,
            "max_inflight": max_inflight,
            "max_queue": max_queue,
            "max_batch": config.params.batching.max_batch,
            "max_delay": config.params.batching.max_delay,
            "outcomes": service.outcome_counts(),
            "queue_depth_hwm": service.queue_depth_hwm,
            "inflight_hwm": service.inflight_hwm,
            # Rates over the whole run, in requests/s.
            "offered_rate": 1000.0 * len(service.requests) / duration if duration else 0.0,
            "goodput": 1000.0 * completed_total / duration if duration else 0.0,
            "replicas_consistent": service.replicas_consistent(),
            **latency_percentiles(latencies),
        }
        return finish_run(system, "service-load", offered_load, num_requests, latencies, params)


__all__ = ["DEFAULT_MAX_INFLIGHT", "DEFAULT_MAX_QUEUE", "run_service_load"]
