"""Reformation micro-benchmark: time-to-reformation and simulator throughput.

Drives the canonical view-majority-loss blocked state (wrong-suspicion
shrink + blocking crash) under the ``gm-reform`` stack across a batch of
seeds and group sizes, reporting

* **ttr** -- simulated time from the blocking crash to the first installed
  reformed view (the recovery-latency metric the scenario exists for), and
* **events/s** -- wall-clock simulator throughput of the recovery runs, so
  a performance regression in the reformation path (timer churn, the
  full-set consensus, the rejoin state transfers) shows up in CI logs.

CI runs it in smoke mode (``REPRO_BENCH_SMOKE=1``) on every PR, alongside
``bench_scenarios`` and ``bench_stack_dispatch``.

Usage::

    python benchmarks/bench_reformation.py
    REPRO_BENCH_SMOKE=1 python benchmarks/bench_reformation.py
    python -m pytest benchmarks/bench_reformation.py -q -s
"""

from __future__ import annotations

import os
import time

from repro.scenarios import run_view_majority_loss
from repro.system import SystemConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")

SEEDS = range(1, 4) if SMOKE else range(1, 21)
MESSAGES = 20 if SMOKE else 120
THROUGHPUT = 100.0
GROUP_SIZES = (3,) if SMOKE else (3, 5, 7)
REFORMATION_TIMEOUTS = (500.0,) if SMOKE else (250.0, 500.0, 1000.0)
OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def run_benchmark() -> str:
    """Run the seed batch per (n, timeout) cell; return the formatted report."""
    mode = "smoke" if SMOKE else "full"
    lines = [
        f"reformation benchmark ({mode}: {len(list(SEEDS))} seeds, "
        f"{MESSAGES} msgs/run)",
        f"{'n':>3} {'reform ms':>10} {'recovered':>10} {'ttr ms':>9} "
        f"{'events':>9} {'wall s':>8} {'events/s':>11}",
    ]
    for n in GROUP_SIZES:
        for timeout in REFORMATION_TIMEOUTS:
            ttrs = []
            events = 0
            recovered = 0
            started = time.perf_counter()
            for seed in SEEDS:
                result = run_view_majority_loss(
                    SystemConfig(n=n, stack="gm-reform", seed=seed, reformation_timeout=timeout),
                    THROUGHPUT,
                    detection_time=10.0,
                    num_messages=MESSAGES,
                )
                events += result.events
                if result.params["reformed"]:
                    recovered += 1
                    ttrs.append(result.params["time_to_reformation"])
            elapsed = time.perf_counter() - started
            mean_ttr = sum(ttrs) / len(ttrs) if ttrs else float("nan")
            lines.append(
                f"{n:>3} {timeout:>10.0f} {recovered:>7}/{len(list(SEEDS)):<2} "
                f"{mean_ttr:>9.1f} {events:>9} {elapsed:>8.3f} "
                f"{events / max(elapsed, 1e-9):>11.0f}"
            )
    return "\n".join(lines)


def test_reformation_throughput():
    """Pytest entry point: run the batch once and persist/print the report."""
    report = run_benchmark()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, "bench_reformation.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print()
    print(report)


if __name__ == "__main__":
    print(run_benchmark())
