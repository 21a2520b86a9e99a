"""``steady_paper``: the paper's own operating region (Figs. 4-5)."""

from __future__ import annotations

import time

from checks import require
from harness import PassContext
from workloads.base import Workload, finish_pass, run_steady

from repro.analysis.model import predicted_latency
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.faults import FaultSchedule
from repro.scenarios.runner import SteadyStateSpec
from repro.system import SystemConfig


class SteadyPaper(Workload):
    name = "steady_paper"
    setup_imports = ("repro.scenarios.runner", "repro.scenarios.faults", "repro.analysis.model")
    SIZES = {
        "full": {"stacks": ["fd", "gm"], "n_values": [3, 7], "throughput": 300.0,
                 "messages": 1000, "low_throughput": 10.0, "low_messages": 300},
        "smoke": {"stacks": ["fd", "gm"], "n_values": [3, 7], "throughput": 300.0,
                  "messages": 60, "low_throughput": 10.0, "low_messages": 40},
    }

    def run_pass(self, seed, sizes, tracer, instrument):
        ctx = PassContext(tracer, instrument)
        started = time.perf_counter()
        throughput = sizes["throughput"]
        reference = None
        views_per_process = 0.0

        def config(stack: str, n: int) -> SystemConfig:
            return SystemConfig(n=n, stack=stack, fd=QoSConfig(), instrument=instrument)

        for stack in sizes["stacks"]:
            for n in sizes["n_values"]:
                normal = run_steady(
                    ctx, seed,
                    SteadyStateSpec("normal-steady", config(stack, n), throughput, sizes["messages"]),
                    f"normal/{stack}/n{n}",
                )
                crashed = (n - 1,)  # the highest pid: never coordinator or sequencer
                crash = run_steady(
                    ctx, seed,
                    SteadyStateSpec(
                        "crash-steady", config(stack, n), throughput, sizes["messages"],
                        faults=FaultSchedule.pre_crashed(crashed),
                        params={"crashed": crashed},
                    ),
                    f"crash/{stack}/n{n}",
                )
                if stack == "fd" and n == 3:
                    reference = normal
                for result in (normal, crash):
                    if result.metrics is not None:
                        installed = result.metrics["counters"].get("gm.views_installed", 0)
                        views_per_process = max(views_per_process, installed / n)
        low = run_steady(
            ctx, seed,
            SteadyStateSpec("normal-steady", config("fd", 3),
                            sizes["low_throughput"], sizes["low_messages"]),
            "low-load/fd/n3",
        )
        require(reference is not None, "steady_paper sizes must include stack fd at n=3")
        predicted = predicted_latency(3)
        exact = {
            "sim_latency_ms": reference.mean_latency,
            "model_err_pct": abs(low.mean_latency - predicted) / predicted * 100.0,
        }
        result = finish_pass(ctx, started, exact)
        if instrument:  # what check_layers needs beyond the declared rows
            result.counts["views_per_process_max"] = views_per_process
            result.counts["crash_detections"] = len(sizes["stacks"]) * sum(
                n - 1 for n in sizes["n_values"]
            )
        return result

    def check_layers(self, values, tracer):
        super().check_layers(values, tracer)
        # The only failure-detector events are the n-1 detections of the
        # process each crash-steady run starts without.
        fd_events = values["failure_detectors.event_share"] * values["sim.engine.events"]
        require(
            round(fd_events) <= values["crash_detections"],
            "steady_paper: the failure detector fabric must be idle "
            f"({fd_events:.0f} events, {values['crash_detections']:.0f} crash detections)",
        )
        require(
            values["views_per_process_max"] <= 1,
            "steady_paper: more than one view per process in a run",
        )
