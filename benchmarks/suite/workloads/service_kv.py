"""``service_kv``: the replicated KV service under open- and closed-loop clients."""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional

from checks import require
from harness import PassContext
from workloads.base import Workload, derived_seed, finish_pass

from repro.load.clients import ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import AdmissionConfig, LoadTestedService
from repro.metrics.stats import interarrival_from_throughput
from repro.scenarios.runner import DEFAULT_WARMUP_FRACTION
from repro.system import SystemConfig, build_system

#: Simulated p99 response time a rate must meet to count as sustainable (ms).
LATENCY_LIMIT_MS = 100.0
READ_HEAVY = CommandMix(put=0.1, get=0.8, increment=0.05, delete=0.05)


def p99_with_missing(response_times: List[float], measured: int) -> float:
    """Nearest-rank p99 over all measured requests.

    A shed or unanswered request has no response time and counts as missing
    any limit: it enters the ranking as infinity.
    """
    values = sorted(response_times) + [math.inf] * (measured - len(response_times))
    return values[min(len(values) - 1, math.ceil(0.99 * len(values)) - 1)]


class ServiceKV(Workload):
    name = "service_kv"
    setup_imports = ("repro.load", "repro.scenarios.runner")
    SIZES = {
        "full": {"stacks": ["fd", "gm"], "n": 3, "requests": 1500, "max_inflight": 64, "max_queue": 128,
                 "batched_rates": [500.0, 1000.0, 2000.0, 4000.0], "unbatched_rates": [500.0, 4000.0],
                 "overload_rate": 4000.0, "max_batch": 8, "max_delay_ms": 2.0,
                 "closed_clients": 32, "think_time_ms": 5.0, "local_read_rate": 1000.0},
        "smoke": {"stacks": ["fd", "gm"], "n": 3, "requests": 500, "max_inflight": 64, "max_queue": 128,
                  "batched_rates": [500.0, 1000.0, 2000.0, 4000.0], "unbatched_rates": [500.0, 4000.0],
                  "overload_rate": 4000.0, "max_batch": 8, "max_delay_ms": 2.0,
                  "closed_clients": 32, "think_time_ms": 5.0, "local_read_rate": 1000.0},
    }

    def run_pass(self, seed, sizes, tracer, instrument):
        ctx = PassContext(tracer, instrument)
        started = time.perf_counter()
        completed = 0
        exact: Dict[str, float] = {}
        for stack in sizes["stacks"]:
            batching = {"max_batch": sizes["max_batch"], "max_delay": sizes["max_delay_ms"]}
            points: List[Dict[str, Any]] = []
            for rate in sizes["batched_rates"]:
                points.append({"label": f"open-batched/{rate:g}", "rate": rate, **batching})
            for rate in sizes["unbatched_rates"]:
                points.append({"label": f"open-unbatched/{rate:g}", "rate": rate})
            points.append({"label": "closed-batched", "clients": sizes["closed_clients"], **batching})
            points.append({"label": "closed-unbatched", "clients": sizes["closed_clients"]})
            points.append({"label": "local-reads", "rate": sizes["local_read_rate"],
                           "consistency": "local", "mix": READ_HEAVY, **batching})
            sustainable = 0.0
            for point in points:
                outcome = self._run_point(ctx, seed, stack, sizes, point)
                completed += len(outcome["response_times"])
                rate = point.get("rate")
                if point["label"].startswith("open-batched/"):
                    p99 = p99_with_missing(outcome["response_times"], sizes["requests"])
                    if p99 <= LATENCY_LIMIT_MS and outcome["shed"] == 0:
                        sustainable = max(sustainable, rate)
                    if stack == sizes["stacks"][0] and rate == 1000.0:
                        exact["sim_p99_ms"] = p99
                        times = outcome["response_times"]
                        exact["sim_latency_ms"] = sum(times) / len(times)
            if stack == sizes["stacks"][0]:
                exact["sim_max_rate_rps"] = sustainable
        require("sim_p99_ms" in exact, "service_kv sizes must include the batched 1000 req/s point")
        return finish_pass(ctx, started, exact, ops=completed)

    def _run_point(
        self, ctx: PassContext, seed: int, stack: str, sizes: Dict[str, Any], point: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One operating point: the open or closed loop of ``run_service_load``,
        on a system the suite builds so its delivery order can be checked."""
        label = f"{point['label']}/{stack}"
        requests = sizes["requests"]
        began = time.perf_counter()
        system = build_system(SystemConfig(
            n=sizes["n"], stack=stack, seed=derived_seed(seed, label), instrument=ctx.instrument,
            max_batch=point.get("max_batch", 0), max_delay=point.get("max_delay", 0.0),
        ))
        service = LoadTestedService(
            system,
            consistency=point.get("consistency", "ordered"),
            admission=AdmissionConfig(sizes["max_inflight"], sizes["max_queue"]),
        )
        warmup = int(math.ceil(requests * DEFAULT_WARMUP_FRACTION))
        total = warmup + requests
        outstanding = [requests]
        population: Optional[Any] = None

        def on_complete(request) -> None:
            if request.index >= warmup:
                outstanding[0] -= 1
                if outstanding[0] <= 0 and population.issued >= total:
                    system.sim.stop()

        service.add_completion_listener(on_complete)
        clients = point.get("clients", 0)
        if clients:
            think = sizes["think_time_ms"]
            population = ClosedLoopClients(service, clients, think, mix=point.get("mix"))
            population.start(total)
            horizon = 20_000.0 + math.ceil(total / clients) * (think + 500.0)
        else:
            rate = point["rate"]
            population = OpenLoopClients(
                service, rate, num_clients=sizes["n"], mix=point.get("mix")
            )
            last_arrival = population.schedule_requests(total, start_time=0.0)
            horizon = last_arrival + max(20_000.0, 20 * interarrival_from_throughput(rate))
        system.run(until=horizon)
        ctx.event_wall_s += time.perf_counter() - began
        ctx.events += system.sim.events_processed

        measured = service.requests[warmup:]
        # Response time runs from the scheduled arrival, in simulated time.
        response_times = [r.response_time for r in measured if r.response_time is not None]
        shed = sum(1 for r in measured if r.shed)
        unanswered = len(measured) - len(response_times) - shed
        # Above capacity the service sheds on purpose: there a refusal is the
        # correct outcome of the operation, not a failure of it.
        overloaded = point.get("rate") == sizes["overload_rate"]
        ctx.attempted += requests
        ctx.failed += (requests - len(measured)) + unanswered + (0 if overloaded else shed)
        ctx.fold(label, system.sim.events_processed, response_times)
        if ctx.instrument:
            ctx.fold_metrics(system.metrics_snapshot())
        with ctx.checking():
            require(not system.sim.run_exhausted, f"{label}: the run hit its event budget")
            require(service.replicas_consistent(), f"{label}: replicas diverged")
            if overloaded:
                require(service.shed > 0, f"{label}: the overload point must shed")
        ctx.finish_system(system, label)
        return {"response_times": response_times, "shed": shed}

    def check_layers(self, values, tracer):
        super().check_layers(values, tracer)
        require(values["load.service.shed"] > 0 and values["load.service.queued"] > 0,
                "service_kv: admission control did no work")
        require(values["load.batching.requests_per_batch"] > 1,
                "service_kv: batching coalesced nothing")
        require(values["failure_detectors.event_share"] == 0,
                "service_kv: the failure detector fabric must be idle")
