"""Stack-registry dispatch benchmark: system assembly overhead vs inline wiring.

The pluggable-stack redesign routes every ``BroadcastSystem`` through the
stack registry (name lookup + layer factory) instead of the seed's inline
``if algorithm == ...`` chain.  This benchmark measures what that costs: it
assembles systems in a tight loop through (a) an inline baseline replicating
the seed wiring by hand and (b) the registry path for every built-in
(stack, fd kind) combination, and reports assemblies per second plus the
registry overhead relative to the baseline.  CI runs it in smoke mode
(``REPRO_BENCH_SMOKE=1``) on every PR so dispatch-path regressions show up
in the job logs.

Usage::

    python benchmarks/bench_stack_dispatch.py
    REPRO_BENCH_SMOKE=1 python benchmarks/bench_stack_dispatch.py
    python -m pytest benchmarks/bench_stack_dispatch.py -q -s
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

from repro.core.consensus import ConsensusService
from repro.core.fd_broadcast import FDAtomicBroadcast
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.failure_detectors.qos import QoSFailureDetectorFabric
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.stacks import available_stacks
from repro.system import SystemConfig, build_system

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")

#: Assemblies per measured case.
ITERATIONS = 50 if SMOKE else 500
N = 3
OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


#: Built once, outside the measured loops: the pre-registry seed wiring never
#: paid any name resolution per assembly, so the baseline must not either
#: (only the seed differs between iterations, and it feeds RandomStreams).
BASELINE_CONFIG = SystemConfig(n=N, stack="fd", seed=1)


def assemble_inline_fd(seed: int = 1) -> None:
    """The seed repository's hand-wired FD assembly (the pre-registry path)."""
    config = BASELINE_CONFIG
    sim = Simulator()
    rng = RandomStreams(seed)
    network = Network(sim, NetworkConfig(n=N, lambda_cpu=1.0, network_time=1.0))
    fabric = QoSFailureDetectorFabric(sim, network, rng, config.fd)
    for pid in range(N):
        process = SimProcess(sim, network, pid)
        process.failure_detector = fabric.detector(pid)
        rbcast = ReliableBroadcast(process)
        consensus = ConsensusService(process, rbcast)
        FDAtomicBroadcast(
            process,
            rbcast,
            consensus,
            renumber_coordinators=config.params.stack.renumber_coordinators,
            pipeline_depth=config.params.stack.pipeline_depth,
        )


def measure(label: str, assemble) -> Tuple[str, float, float]:
    """Assemble ``ITERATIONS`` systems; return (label, wall seconds, rate)."""
    started = time.perf_counter()
    for i in range(ITERATIONS):
        assemble(i + 1)
    elapsed = time.perf_counter() - started
    return label, elapsed, ITERATIONS / max(elapsed, 1e-9)


def run_benchmark() -> str:
    """Measure the baseline and every registry combination; format a report."""
    mode = "smoke" if SMOKE else "full"
    cases = [("inline fd (seed baseline)", assemble_inline_fd)]
    for stack in available_stacks():
        for fd_kind in ("qos", "heartbeat", "perfect"):
            label = f"registry {stack}" + ("" if fd_kind == "qos" else f"/{fd_kind}")
            cases.append(
                (
                    label,
                    lambda seed, stack=stack, fd_kind=fd_kind: build_system(
                        n=N, stack=stack, fd_kind=fd_kind, seed=seed
                    ),
                )
            )

    rows: List[Tuple[str, float, float]] = [measure(label, fn) for label, fn in cases]
    baseline_rate = rows[0][2]
    lines = [
        f"stack dispatch benchmark ({mode}: {ITERATIONS} assemblies/case, n={N})",
        f"{'case':<28} {'wall s':>8} {'asm/s':>10} {'vs inline':>10}",
    ]
    for label, elapsed, rate in rows:
        relative = baseline_rate / rate if rate else float("inf")
        lines.append(f"{label:<28} {elapsed:>8.3f} {rate:>10.0f} {relative:>9.2f}x")
    return "\n".join(lines)


def test_stack_dispatch_overhead():
    """Pytest entry point: run once, persist/print, and sanity-bound the cost.

    The registry adds one dict lookup and one function call per process; it
    must stay within a small constant factor of the inline baseline (the
    generous bound guards against accidental per-assembly pathologies, not
    micro-variance).
    """
    report = run_benchmark()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUTPUT_DIR, "bench_stack_dispatch.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(report + "\n")
    print()
    print(report)
    lines = report.splitlines()
    qos_row = next(line for line in lines if line.startswith("registry fd "))
    overhead = float(qos_row.rsplit(None, 1)[-1].rstrip("x"))
    assert overhead < 5.0, f"registry fd assembly is {overhead:.2f}x the inline baseline"


if __name__ == "__main__":
    print(run_benchmark())
