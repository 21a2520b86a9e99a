"""Scenario-engine throughput benchmark: simulator events/sec per scenario.

Runs a fixed grid of scenario kinds (including the fault-injection
scenarios: transient partitions, WAN topologies, gray failures) through the shared
:class:`repro.scenarios.runner.ScenarioRunner` and reports how many simulated
events per wall-clock second the hot path sustains.  CI runs it in smoke mode
(``REPRO_BENCH_SMOKE=1``, tiny workloads) on every PR so that performance
regressions in the scenario engine show up in the job logs.

Usage::

    python benchmarks/bench_scenarios.py          # full grid
    REPRO_BENCH_SMOKE=1 python benchmarks/bench_scenarios.py
    python -m pytest benchmarks/bench_scenarios.py -q -s
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Tuple

from repro.scenarios import (
    run_asymmetric_qos,
    run_churn_steady,
    run_correlated_crash,
    run_crash_steady,
    run_crash_transient,
    run_gray_degradation,
    run_normal_steady,
    run_partition_transient,
    run_suspicion_steady,
    run_view_majority_loss,
    run_wan_steady,
)
from repro.system import SystemConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")

#: Measured messages per steady point / runs per transient point.
MESSAGES = 20 if SMOKE else 200
RUNS = 2 if SMOKE else 10
THROUGHPUT = 100.0
OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def scenario_grid() -> List[Tuple[str, Callable[[str], object]]]:
    """The fixed benchmark grid: one callable per scenario kind."""

    def cfg(algorithm: str, n: int = 3) -> SystemConfig:
        return SystemConfig(n=n, stack=algorithm, seed=1)

    return [
        (
            "normal-steady",
            lambda a: run_normal_steady(cfg(a), THROUGHPUT, num_messages=MESSAGES),
        ),
        (
            "crash-steady",
            lambda a: run_crash_steady(
                cfg(a), THROUGHPUT, crashed=[2], num_messages=MESSAGES
            ),
        ),
        (
            "suspicion-steady",
            lambda a: run_suspicion_steady(
                cfg(a), THROUGHPUT, mistake_recurrence_time=500.0, num_messages=MESSAGES
            ),
        ),
        (
            "crash-transient",
            lambda a: run_crash_transient(
                cfg(a), THROUGHPUT, detection_time=10.0, num_runs=RUNS
            ),
        ),
        (
            "correlated-crash",
            lambda a: run_correlated_crash(
                cfg(a, n=5), THROUGHPUT, crashed=[3, 4], num_messages=MESSAGES
            ),
        ),
        (
            "churn-steady",
            lambda a: run_churn_steady(
                cfg(a),
                THROUGHPUT,
                churn_rate=2.0,
                mean_downtime=150.0,
                detection_time=10.0,
                num_messages=MESSAGES,
            ),
        ),
        (
            "asymmetric-qos",
            lambda a: run_asymmetric_qos(
                cfg(a), THROUGHPUT, mistake_recurrence_time=300.0, num_messages=MESSAGES
            ),
        ),
        (
            "view-majority-loss",
            # The GM slot runs the reformation stack: the plain GM algorithm
            # deadlocks in this scenario by design (that is the point of the
            # scenario), which would only benchmark an idle simulator.
            lambda a: run_view_majority_loss(
                cfg("gm-reform" if a == "gm" else a),
                THROUGHPUT,
                detection_time=10.0,
                num_messages=MESSAGES,
            ),
        ),
        (
            "partition-transient",
            # Same stack mapping: healing a minority split exercises the
            # reformation path, which plain GM cannot complete.
            lambda a: run_partition_transient(
                cfg("gm-reform" if a == "gm" else a),
                THROUGHPUT,
                partition_duration=500.0,
                detection_time=10.0,
                num_messages=MESSAGES,
            ),
        ),
        (
            "wan-steady",
            lambda a: run_wan_steady(
                cfg(a), THROUGHPUT, wan_profile="wan-3dc", num_messages=MESSAGES
            ),
        ),
        (
            "gray-degradation",
            lambda a: run_gray_degradation(
                cfg(a),
                THROUGHPUT,
                degrade_factor=4.0,
                link_loss=0.1,
                num_messages=MESSAGES,
            ),
        ),
    ]


def run_benchmark() -> str:
    """Run the grid for both algorithms; return the formatted report."""
    mode = "smoke" if SMOKE else "full"
    lines = [
        f"scenario engine benchmark ({mode}: {MESSAGES} msgs/point, {RUNS} transient runs)",
        f"{'scenario':<18} {'algo':<6} {'events':>9} {'wall s':>8} {'events/s':>12}",
    ]
    total_events = 0
    total_elapsed = 0.0
    for name, runner in scenario_grid():
        for algorithm in ("fd", "gm"):
            started = time.perf_counter()
            result = runner(algorithm)
            elapsed = time.perf_counter() - started
            events = getattr(result, "events", None)
            if events is None:
                # TransientResult carries no event counter; report runs instead.
                events = len(result.latencies) + result.failed_runs
                rate = f"{events / max(elapsed, 1e-9):>9.0f} runs"
            else:
                rate = f"{events / max(elapsed, 1e-9):>12.0f}"
                total_events += events
                total_elapsed += elapsed
            lines.append(f"{name:<18} {algorithm:<6} {events:>9} {elapsed:>8.3f} {rate}")
    if total_elapsed:
        lines.append(
            f"{'steady total':<18} {'':<6} {total_events:>9} {total_elapsed:>8.3f} "
            f"{total_events / total_elapsed:>12.0f}"
        )
    return "\n".join(lines)


def test_scenario_engine_throughput():
    """Pytest entry point: run the grid once and persist/print the report."""
    report = run_benchmark()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "bench_scenarios.txt"), "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print()
    print(report)


if __name__ == "__main__":
    print(run_benchmark())
