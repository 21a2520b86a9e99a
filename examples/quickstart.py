#!/usr/bin/env python3
"""Quickstart: atomically broadcast a handful of messages and inspect the run.

Builds a three-process system (choose the protocol stack on the command
line), A-broadcasts a few messages from different senders, then prints the
delivery order observed by every process, the per-message latency and the
traffic the contention-aware network model carried.

Usage::

    python examples/quickstart.py               # FD stack (Chandra-Toueg)
    python examples/quickstart.py gm            # fixed sequencer + group membership
    python examples/quickstart.py gm-nonuniform
    python examples/quickstart.py fd/heartbeat  # FD stack on a real heartbeat detector
"""

import sys

from repro import SystemConfig, build_system
from repro.metrics.latency import LatencyRecorder


def main() -> None:
    algorithm = sys.argv[1] if len(sys.argv) > 1 else "fd"
    config = SystemConfig(n=3, stack=algorithm, seed=42)
    system = build_system(config)

    recorder = LatencyRecorder()
    recorder.attach(system)

    # Three processes broadcast interleaved messages.
    messages = [
        (1.0, 0, "alpha"),
        (2.5, 1, "bravo"),
        (3.0, 2, "charlie"),
        (9.0, 1, "delta"),
        (9.4, 0, "echo"),
    ]
    system.start()
    for time, sender, payload in messages:
        system.broadcast_at(time, sender, payload)
    system.run(until=1_000.0)

    print(f"algorithm: {algorithm}   processes: {config.n}   lambda: {config.network.lambda_cpu}")
    print()
    print("Delivery order (identical on every process -- that is the point):")
    for pid in range(config.n):
        sequence = [payload for _bid, payload in system.abcast(pid).delivered]
        print(f"  p{pid}: {sequence}")

    print()
    print("Latency of each message (A-broadcast to first A-delivery):")
    for broadcast_id, latency in sorted(recorder.latencies().items()):
        print(f"  {str(broadcast_id):>8}: {latency:6.2f} ms")

    print()
    stats = system.message_stats()
    print(
        "Network traffic: "
        f"{stats['multicasts_sent']} multicasts, {stats['unicasts_sent']} unicasts, "
        f"{stats['deliveries']} deliveries"
    )


if __name__ == "__main__":
    main()
