"""``suspicion_n15``: wrong suspicions, churn and a message-based detector at n = 15."""

from __future__ import annotations

import math
import time

from checks import require
from harness import PassContext
from workloads.base import Workload, finish_pass, run_steady

from repro.failure_detectors.heartbeat import HeartbeatConfig
from repro.failure_detectors.qos import QoSConfig
from repro.metrics.stats import interarrival_from_throughput
from repro.scenarios.faults import FaultSchedule, PoissonChurn
from repro.scenarios.runner import DEFAULT_WARMUP_FRACTION, SteadyStateSpec
from repro.system import SystemConfig


class SuspicionN15(Workload):
    name = "suspicion_n15"
    setup_imports = ("repro.scenarios.runner", "repro.scenarios.faults")
    SIZES = {
        "full": {"stacks": ["fd", "gm"], "n": 15, "throughput": 20.0,
                 "suspicion_messages": 150, "mistake_recurrence_ms": 200.0, "mistake_duration_ms": 5.0,
                 "churn_messages": 300, "churn_rate": 2.0, "churn_downtime_ms": 300.0,
                 "churn_detection_ms": 10.0,
                 "heartbeat_messages": 100, "heartbeat_period_ms": 50.0, "heartbeat_timeout_ms": 200.0},
        "smoke": {"stacks": ["fd", "gm"], "n": 7, "throughput": 20.0,
                  "suspicion_messages": 30, "mistake_recurrence_ms": 200.0, "mistake_duration_ms": 5.0,
                  "churn_messages": 40, "churn_rate": 2.0, "churn_downtime_ms": 300.0,
                  "churn_detection_ms": 10.0,
                  "heartbeat_messages": 20, "heartbeat_period_ms": 50.0, "heartbeat_timeout_ms": 200.0},
    }

    def run_pass(self, seed, sizes, tracer, instrument):
        ctx = PassContext(tracer, instrument)
        started = time.perf_counter()
        n = sizes["n"]
        throughput = sizes["throughput"]
        latencies = []
        for stack in sizes["stacks"]:
            def config(**overrides):
                return SystemConfig(n=n, stack=stack, instrument=instrument, **overrides)

            latencies += run_steady(
                ctx, seed,
                SteadyStateSpec(
                    "suspicion-steady",
                    config(fd=QoSConfig(
                        detection_time=0.0,
                        mistake_recurrence_time=sizes["mistake_recurrence_ms"],
                        mistake_duration=sizes["mistake_duration_ms"],
                    )),
                    throughput,
                    sizes["suspicion_messages"],
                ),
                f"suspicion/{stack}",
            ).latencies
            # The churn generator runs past the arrival window, like
            # repro.scenarios.extended.run_churn_steady declares it.
            messages = sizes["churn_messages"]
            total = int(math.ceil(messages * DEFAULT_WARMUP_FRACTION)) + messages
            window = total * interarrival_from_throughput(throughput)
            latencies += run_steady(
                ctx, seed,
                SteadyStateSpec(
                    "churn-steady",
                    config(fd=QoSConfig(detection_time=sizes["churn_detection_ms"])),
                    throughput,
                    messages,
                    faults=FaultSchedule([PoissonChurn(
                        rate=sizes["churn_rate"],
                        mean_downtime=sizes["churn_downtime_ms"],
                        until=1.5 * window + 10_000.0,
                    )]),
                    senders=list(range(n)),
                    reassign_crashed_senders=True,
                ),
                f"churn/{stack}",
            ).latencies
            latencies += run_steady(
                ctx, seed,
                SteadyStateSpec(
                    "normal-steady",
                    config(fd_kind="heartbeat", heartbeat=HeartbeatConfig(
                        period=sizes["heartbeat_period_ms"], timeout=sizes["heartbeat_timeout_ms"],
                    )),
                    throughput,
                    sizes["heartbeat_messages"],
                ),
                f"heartbeat/{stack}",
            ).latencies
        return finish_pass(ctx, started, {"sim_latency_ms": sum(latencies) / len(latencies)})

    def check_layers(self, values, tracer):
        super().check_layers(values, tracer)
        require(values["failure_detectors.event_share"] > 0,
                "suspicion_n15: the failure detector fabric did no work")
        require(values["core.group_membership.views_installed"] > 0,
                "suspicion_n15: no view was installed")
