#!/usr/bin/env python3
"""Load-testing the replicated key-value store (active replication).

This is the scenario Section 5.1 of the paper uses to motivate the latency
metric -- clients A-broadcast their requests to all server replicas, every
replica executes them in the agreed order, and the client keeps the first
reply -- promoted to a *service*: a closed-loop population of clients drives
an admission-controlled front end (:mod:`repro.load`), one replica crashes
and recovers mid-run, and the run is repeated with sequencer request
batching on to show the throughput lever.

The example prints, for batching off and on:

* the client-perceived response time distribution (p50/p99),
* the goodput and the admission outcomes (admitted/queued/shed),
* proof that the surviving replicas stayed byte-for-byte identical.

Usage::

    python examples/replicated_kv_store.py [fd|gm]
"""

import sys

from repro import QoSConfig, SystemConfig, build_system
from repro.load import (
    AdmissionConfig,
    ClosedLoopClients,
    CommandMix,
    LoadTestedService,
)
from repro.metrics.stats import latency_percentiles, summarize
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt

CLIENTS = 12
THINK_TIME = 4.0  # ms: aggressive interactive users
TOTAL_REQUESTS = 600


def run_once(algorithm: str, max_batch: int) -> dict:
    """One closed-loop load test; returns the service read-outs."""
    config = SystemConfig(
        n=5,
        stack=algorithm,
        seed=7,
        fd=QoSConfig(detection_time=20.0),
        max_batch=max_batch,
        # The flush delay is a batching param: it exists only with batching on.
        max_delay=2.0 if max_batch else 0.0,
    )
    with build_system(config) as system:
        service = LoadTestedService(
            system,
            admission=AdmissionConfig(max_inflight=32, max_queue=64),
        )
        population = ClosedLoopClients(
            service,
            num_clients=CLIENTS,
            think_time=THINK_TIME,
            mix=CommandMix(put=0.45, get=0.3, increment=0.2, delete=0.05),
            senders=[1, 2, 3, 4],  # process 0 crashes; keep it off the ingress path
        )
        done = {"count": 0}

        def on_complete(_request) -> None:
            done["count"] += 1
            if done["count"] >= TOTAL_REQUESTS:
                system.sim.stop()

        service.add_completion_listener(on_complete)
        population.start(TOTAL_REQUESTS)

        # One replica (the sequencer / round-1 coordinator) crashes mid-run and
        # rejoins later; the service keeps answering from the survivors.
        FaultSchedule([CrashAt(150.0, 0), RecoverAt(900.0, 0)]).apply(system)
        system.run(until=120_000.0)
        finish_time = system.sim.now
        # Let the in-flight deliveries drain so every replica applies the tail
        # of the log (the client stopped at its *first* reply).
        system.run(until=finish_time + 1_000.0)

        response_times = service.response_times()
        correct = system.correct_processes()
        snapshots = {pid: service.replicas[pid].snapshot() for pid in correct}
        return {
            "summary": summarize(response_times),
            "percentiles": latency_percentiles(response_times),
            "goodput": 1000.0 * len(response_times) / finish_time,
            "outcomes": service.outcome_counts(),
            "identical": len(set(snapshots.values())) == 1,
            "survivors": len(correct),
            "consistent": service.replicas_consistent(),
        }


def main() -> None:
    algorithm = sys.argv[1] if len(sys.argv) > 1 else "gm"
    print(
        f"algorithm: {algorithm}   replicas: 5   clients: {CLIENTS} "
        f"(closed loop, think={THINK_TIME:g} ms)"
    )
    print("fault schedule: process 0 crashes at t=150 ms, recovers at t=900 ms")
    print()

    results = {}
    for max_batch in (0, 8):
        label = "batching off" if max_batch == 0 else f"batching on (k={max_batch})"
        outcome = run_once(algorithm, max_batch)
        results[max_batch] = outcome
        summary = outcome["summary"]
        pct = outcome["percentiles"]
        print(f"[{label}]")
        print(
            f"  response time over {summary.count} requests: "
            f"{summary.mean:.2f} ms +/- {summary.ci_halfwidth:.2f} (95% CI), "
            f"p50 {pct['p50']:.2f} ms, p99 {pct['p99']:.2f} ms"
        )
        print(
            f"  goodput: {outcome['goodput']:.0f} req/s   outcomes: "
            f"{outcome['outcomes']}"
        )
        print(
            f"  all {outcome['survivors']} surviving replicas identical: "
            f"{outcome['identical']}   applied logs consistent: "
            f"{outcome['consistent']}"
        )
        print()

    gain = results[8]["goodput"] / results[0]["goodput"]
    print(
        f"closed-loop goodput gain from batching: {gain:.2f}x "
        "(closed loops self-throttle; open-loop saturation gains are larger -- "
        "see the capacity curve in README.md)"
    )


if __name__ == "__main__":
    main()
