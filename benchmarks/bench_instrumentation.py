"""Instrumentation overhead benchmark: what switching observation on costs.

The instrumentation layer (:mod:`repro.obs`) has an off path that is off:
with tracing off, every layer holds ``None`` and every hook site -- the
simulator's run loop, the network and the protocol layers alike -- tests
``self._obs is not None`` before it evaluates a hook's arguments.  This
benchmark reports the other side, the cost of the on path:

* **kernel** -- the 20k-chained-ticks microbenchmark of
  ``bench_simulator_micro``, run two ways: the *off* path
  (``Simulator.run()`` with no instrumentation) and the *on* path (with an
  :class:`~repro.obs.Instrumentation` attached).
* **end-to-end fd / gm** -- 300 messages ordered by each algorithm, off vs
  on, reporting the full-stack cost of enabling metrics + event recording.

The absolute speed of the off path is the benchmark suite's business
(``sim.engine.chain_events_per_s`` / ``timer_churn_events_per_s`` in
``benchmarks/suite``); its shape is pinned clock-free by
``tests/sim/test_call_budget.py``.

Artifacts land in ``benchmarks/output/``: the human-readable report, one
``instrumentation-{off,on}.metrics.json`` timing payload per mode (the on
payload embeds the instrumented end-to-end runs' counter snapshots) and
``BENCH_instrumentation.json``, the first point of the perf trajectory.

Usage::

    python benchmarks/bench_instrumentation.py
    REPRO_BENCH_SMOKE=1 python benchmarks/bench_instrumentation.py
    python -m pytest benchmarks/bench_instrumentation.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Tuple

from repro import SystemConfig, build_system
from repro.obs import Instrumentation, metrics_snapshot
from repro.sim.engine import Simulator

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")

#: Chained kernel events per measurement.
TICKS = 4_000 if SMOKE else 20_000
#: End-to-end messages per measurement.
MESSAGES = 60 if SMOKE else 300
#: Interleaved measurement rounds; the best (minimum) time of each mode is
#: compared, which damps scheduler noise far better than averaging.
ROUNDS = 3 if SMOKE else 5

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


# ------------------------------------------------------------------ kernel


def _chain(simulator: Simulator, ticks: int) -> None:
    remaining = [ticks]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            simulator.schedule(0.1, tick)

    simulator.schedule(0.1, tick)


def kernel_off() -> int:
    simulator = Simulator()
    _chain(simulator, TICKS)
    simulator.run()
    return simulator.events_processed


def kernel_on() -> int:
    simulator = Simulator()
    simulator.set_instrumentation(Instrumentation())
    _chain(simulator, TICKS)
    simulator.run()
    return simulator.events_processed


# ------------------------------------------------------------------ end to end


def end_to_end(stack: str, instrument: bool):
    system = build_system(
        SystemConfig(n=3, stack=stack, seed=1, instrument=instrument)
    )
    system.start()
    for i in range(MESSAGES):
        system.broadcast_at(1.0 + i * 2.0, i % 3, i)
    system.run(until=1_000_000.0)
    return system


# ------------------------------------------------------------------ harness


def measure_interleaved(cases: Dict[str, Callable[[], object]]) -> Dict[str, float]:
    """Best wall time per case over ``ROUNDS`` interleaved rounds.

    Every round times each case once, in order, so slow drift of the
    machine (thermal, background load) hits all cases equally instead of
    biasing whichever mode happened to run last; the per-case minimum then
    discards the noisy rounds.
    """
    for fn in cases.values():  # warm-up round, untimed
        fn()
    best = {name: float("inf") for name in cases}
    for _ in range(ROUNDS):
        for name, fn in cases.items():
            started = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def run_benchmark() -> Tuple[str, Dict[str, object]]:
    """Measure every case; return (report text, machine-readable payload)."""
    mode = "smoke" if SMOKE else "full"

    times = measure_interleaved(
        {
            "kernel_off": kernel_off,
            "kernel_on": kernel_on,
            "fd_off": lambda: end_to_end("fd", False),
            "fd_on": lambda: end_to_end("fd", True),
            "gm_off": lambda: end_to_end("gm", False),
            "gm_on": lambda: end_to_end("gm", True),
        }
    )

    instrumented = end_to_end("fd", True)
    snapshot = metrics_snapshot(instrumented, scenario="bench-instrumentation")

    lines = [
        f"instrumentation benchmark ({mode}: {TICKS} ticks, "
        f"{MESSAGES} messages, best of {ROUNDS})",
        f"{'case':<22} {'off s':>9} {'on s':>9} {'on/off':>8}",
        (
            f"{'kernel':<22} {times['kernel_off']:>9.4f} "
            f"{times['kernel_on']:>9.4f} "
            f"{times['kernel_on'] / times['kernel_off']:>7.2f}x"
        ),
        (
            f"{'end-to-end fd':<22} {times['fd_off']:>9.4f} "
            f"{times['fd_on']:>9.4f} {times['fd_on'] / times['fd_off']:>7.2f}x"
        ),
        (
            f"{'end-to-end gm':<22} {times['gm_off']:>9.4f} "
            f"{times['gm_on']:>9.4f} {times['gm_on'] / times['gm_off']:>7.2f}x"
        ),
    ]
    payload: Dict[str, object] = {
        "mode": mode,
        "ticks": TICKS,
        "messages": MESSAGES,
        "rounds": ROUNDS,
        "times_s": times,
        "counters": snapshot["counters"],
        "provenance": snapshot["provenance"],
    }
    return "\n".join(lines), payload


def _write_artifacts(report: str, payload: Dict[str, object]) -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUTPUT_DIR, "bench_instrumentation.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(report + "\n")
    times = payload["times_s"]
    off = {key: value for key, value in times.items() if key.endswith("_off")}
    on = {key: value for key, value in times.items() if key.endswith("_on")}
    for name, body in (
        ("instrumentation-off.metrics.json", {"mode": payload["mode"], "times_s": off}),
        (
            "instrumentation-on.metrics.json",
            {
                "mode": payload["mode"],
                "times_s": on,
                "counters": payload["counters"],
                "provenance": payload["provenance"],
            },
        ),
        ("BENCH_instrumentation.json", payload),
    ):
        with open(os.path.join(OUTPUT_DIR, name), "w", encoding="utf-8") as handle:
            json.dump(body, handle, indent=2, sort_keys=True)
            handle.write("\n")


def test_instrumentation_on_path_overhead():
    """Pytest entry point: run, persist artifacts and bound the on path."""
    report, payload = run_benchmark()
    _write_artifacts(report, payload)
    print()
    print(report)
    # Sanity on the instrumented runs: correct counters, bounded cost.
    assert payload["counters"]["abcast.broadcasts"] == MESSAGES
    times = payload["times_s"]
    assert times["kernel_on"] / times["kernel_off"] < 10.0
    assert times["fd_on"] / times["fd_off"] < 10.0


if __name__ == "__main__":
    report, payload = run_benchmark()
    _write_artifacts(report, payload)
    print(report)
