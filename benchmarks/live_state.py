"""Live protocol state per message of one long steady run.

Runs, per stack, a ``normal-steady`` point (n = 3) and a ``churn-steady``
point (n = 5, 4 crashes/s of mean downtime 200 ms, so recovered processes
catch up), both at 100 messages/s and seed 1, under ``tracemalloc`` and
prints the traced peak divided by the number of measured messages.  What
every message must leave behind -- its place in the decided log, its
delivery records, its latency -- sets a floor; any other protocol state a
process keeps per message adds to it.  Exits 1 when a run is above its
target::

    python benchmarks/live_state.py                      # 32 000 messages, every run
    python benchmarks/live_state.py --messages 2000 8000
    python benchmarks/live_state.py --wall               # untraced wall per message

``--wall`` times the same runs without ``tracemalloc`` and checks nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.scenarios.registry import run_kind  # noqa: E402
from repro.system import SystemConfig  # noqa: E402

#: The runs: kind -> (n, kind params).
RUNS = {
    "normal-steady": (3, {}),
    "churn-steady": (5, {"churn_rate": 4.0, "mean_downtime": 200.0}),
}

#: Traced peak per message, KB, that a run must not exceed.
TARGET_KB = {
    ("normal-steady", "fd"): 3.0,
    ("normal-steady", "gm"): 1.6,
    ("churn-steady", "fd"): 2.9,
    ("churn-steady", "gm"): 2.3,
}


def run_point(kind: str, stack: str, messages: int) -> None:
    n, params = RUNS[kind]
    config = SystemConfig(n=n, stack=stack, seed=1)
    result = run_kind(kind, config, 100.0, messages, **params)
    if result.undelivered:
        raise SystemExit(f"{kind} {stack}: {result.undelivered} of {messages} messages undelivered")


def traced_kb_per_message(kind: str, stack: str, messages: int) -> float:
    run_point(kind, stack, 20)  # import what the run loads before tracing it
    tracemalloc.start()
    try:
        run_point(kind, stack, messages)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024 / messages


def wall_us_per_message(kind: str, stack: str, messages: int) -> float:
    started = time.perf_counter()
    run_point(kind, stack, messages)
    return (time.perf_counter() - started) * 1e6 / messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, nargs="+", default=[32_000])
    parser.add_argument("--wall", action="store_true", help="untraced wall per message, no check")
    args = parser.parse_args(argv)
    over = []
    for (kind, stack), target in TARGET_KB.items():
        for messages in args.messages:
            run = f"{kind} {stack} {messages} messages"
            if args.wall:
                print(f"{run}: {wall_us_per_message(kind, stack, messages):.0f} us/message")
                continue
            kb = traced_kb_per_message(kind, stack, messages)
            verdict = "ok" if kb <= target else "OVER"
            print(f"{run}: {kb:.2f} KB/message traced peak (target {target} KB) {verdict}")
            if kb > target:
                over.append(f"{kind} {stack}@{messages}")
    if over:
        print("above target: " + ", ".join(over))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
