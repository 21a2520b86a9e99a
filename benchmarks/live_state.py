"""Live protocol state per message of one long steady run.

Runs a ``normal-steady`` point per stack (n = 3, 100 messages/s, seed 1)
under ``tracemalloc`` and prints the traced peak divided by the number of
measured messages.  What every message must leave behind -- its place in
the decided log, its delivery records, its latency -- sets a floor; any
other protocol state a process keeps per message adds to it.  Exits 1 when
a stack is above its target::

    python benchmarks/live_state.py                      # 32 000 messages, fd and gm
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

from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec  # noqa: E402
from repro.system import SystemConfig  # noqa: E402

#: Traced peak per message, KB, that a stack must not exceed.
TARGET_KB = {"fd": 3.0, "gm": 1.6}


def run_point(stack: str, messages: int) -> None:
    config = SystemConfig(n=3, stack=stack, seed=1)
    result = ScenarioRunner().run_steady(SteadyStateSpec("normal-steady", config, 100.0, messages))
    if result.undelivered:
        raise SystemExit(f"{stack}: {result.undelivered} of {messages} messages undelivered")


def traced_kb_per_message(stack: str, messages: int) -> float:
    tracemalloc.start()
    try:
        run_point(stack, messages)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024 / messages


def wall_us_per_message(stack: str, messages: int) -> float:
    started = time.perf_counter()
    run_point(stack, messages)
    return (time.perf_counter() - started) * 1e6 / messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, nargs="+", default=[32_000])
    parser.add_argument("--wall", action="store_true", help="untraced wall per message, no check")
    args = parser.parse_args(argv)
    over = []
    for stack in sorted(TARGET_KB):
        for messages in args.messages:
            if args.wall:
                print(f"{stack} {messages} messages: {wall_us_per_message(stack, messages):.0f} us/message")
                continue
            kb = traced_kb_per_message(stack, messages)
            verdict = "ok" if kb <= TARGET_KB[stack] else "OVER"
            print(f"{stack} {messages} messages: {kb:.2f} KB/message traced peak "
                  f"(target {TARGET_KB[stack]} KB) {verdict}")
            if kb > TARGET_KB[stack]:
                over.append(f"{stack}@{messages}")
    if over:
        print("above target: " + ", ".join(over))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
