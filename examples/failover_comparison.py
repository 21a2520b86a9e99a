#!/usr/bin/env python3
"""Compare how the two algorithms ride through a coordinator/sequencer crash.

Reproduces the crash-transient experiment of the paper (Fig. 8) in miniature:
the system runs under a steady Poisson load, process p1 (the round-1
coordinator of the FD algorithm and the sequencer of the GM algorithm)
crashes, and a message is A-broadcast at exactly that instant.  The script
prints, for both algorithms and several failure detection times, the latency
of that message and its overhead over the detection time.

Usage::

    python examples/failover_comparison.py [throughput_per_s]
"""

import sys

from repro import SystemConfig
from repro.scenarios import run_crash_transient


def main() -> None:
    throughput = float(sys.argv[1]) if len(sys.argv) > 1 else 50.0
    detection_times = (0.0, 10.0, 100.0)
    runs = 10

    print(
        f"crash-transient comparison: n=3, throughput={throughput:g}/s, "
        f"{runs} runs per point, crash of p1, tagged message from p3"
    )
    print()
    header = f"{'T_D [ms]':>10} | {'algorithm':>10} | {'latency [ms]':>18} | {'overhead [ms]':>18}"
    print(header)
    print("-" * len(header))
    for detection_time in detection_times:
        for algorithm in ("fd", "gm"):
            config = SystemConfig(n=3, stack=algorithm, seed=123)
            result = run_crash_transient(
                config,
                throughput,
                detection_time=detection_time,
                crashed_process=0,
                num_runs=runs,
            )
            latency = result.latency_summary()
            overhead = result.overhead_summary()
            print(
                f"{detection_time:>10g} | {algorithm.upper():>10} | "
                f"{latency.mean:9.2f} ± {latency.ci_halfwidth:5.2f} | "
                f"{overhead.mean:9.2f} ± {overhead.ci_halfwidth:5.2f}"
            )
    print()
    print("Reading: the latency always exceeds T_D (nothing can be ordered before")
    print("the crash is detected); the overhead is what the recovery itself costs --")
    print("one extra consensus round for the FD algorithm, a full view change for")
    print("the GM algorithm.")


if __name__ == "__main__":
    main()
