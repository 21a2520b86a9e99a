#!/usr/bin/env python3
"""How failure detector quality affects each algorithm (and how to tune one).

Part 1 sweeps the mistake recurrence time T_MR of the abstract QoS failure
detector model (as in Fig. 6 of the paper) and prints the latency of both
algorithms: the GM algorithm needs a much better-behaved failure detector
than the FD algorithm to stay usable.

Part 2 runs the concrete heartbeat failure detector (an extension of this
library) for a few period/timeout settings and reports the detection time it
actually achieves, which is how one maps implementation parameters onto the
paper's T_D metric.

Usage::

    python examples/failure_detector_tuning.py
"""

from repro import SystemConfig
from repro.failure_detectors.heartbeat import HeartbeatConfig, HeartbeatFailureDetector
from repro.scenarios import run_suspicion_steady
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess


def sweep_mistake_rate() -> None:
    print("Part 1 -- wrong suspicions (QoS model, T_M = 0, n = 3, T = 10/s)")
    print()
    header = f"{'T_MR [ms]':>10} | {'FD latency [ms]':>18} | {'GM latency [ms]':>18}"
    print(header)
    print("-" * len(header))
    for tmr in (20.0, 100.0, 1000.0, 10000.0):
        cells = []
        for algorithm in ("fd", "gm"):
            config = SystemConfig(n=3, stack=algorithm, seed=9)
            result = run_suspicion_steady(
                config,
                throughput=10.0,
                mistake_recurrence_time=tmr,
                mistake_duration=0.0,
                num_messages=80,
            )
            summary = result.summary()
            cell = f"{summary.mean:8.2f} ± {summary.ci_halfwidth:5.2f}"
            if not result.completed:
                cell += " (!)"
            cells.append(cell)
        print(f"{tmr:>10g} | {cells[0]:>18} | {cells[1]:>18}")
    print()
    print("The FD algorithm barely notices frequent mistakes; the GM algorithm pays")
    print("a view change for every one of them.")
    print()


def measure_heartbeat_detection_time(period: float, timeout: float) -> float:
    """Measure the crash detection time a heartbeat detector achieves."""
    sim = Simulator()
    network = Network(sim, NetworkConfig(n=3))
    processes = [SimProcess(sim, network, pid) for pid in range(3)]
    detectors = [
        HeartbeatFailureDetector(p, HeartbeatConfig(period=period, timeout=timeout))
        for p in processes
    ]
    for process in processes:
        process.start()
    detection = {}
    detectors[0].add_listener(
        lambda pid, suspected: detection.setdefault(pid, sim.now) if suspected else None
    )
    crash_time = 500.0
    sim.schedule_at(crash_time, processes[2].crash)
    sim.run(until=5_000.0)
    return detection.get(2, float("nan")) - crash_time


def sweep_heartbeat_settings() -> None:
    print("Part 2 -- mapping a real heartbeat detector onto the QoS metric T_D")
    print()
    header = f"{'period [ms]':>12} | {'timeout [ms]':>13} | {'measured T_D [ms]':>18}"
    print(header)
    print("-" * len(header))
    for period, timeout in ((5.0, 15.0), (10.0, 30.0), (20.0, 60.0), (50.0, 150.0)):
        detection_time = measure_heartbeat_detection_time(period, timeout)
        print(f"{period:>12g} | {timeout:>13g} | {detection_time:>18.1f}")
    print()
    print("The measured detection time is what you would plug into the crash-transient")
    print("scenario (T_D) when deciding how aggressively to tune the detector for the")
    print("group membership service versus the consensus layer, as Section 8 of the")
    print("paper recommends.")


def main() -> None:
    sweep_mistake_rate()
    sweep_heartbeat_settings()


if __name__ == "__main__":
    main()
