"""[iso] drivers: each calls one layer's public API in isolation.

A driver takes the host seconds one sample may use and returns the sample's
value in the metric's unit.  It repeats a fixed chunk of work until the
budget is used and times only the calls into the layer, never its own
set-up.  The values do not depend on the workload: a traced run of any
workload makes them.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, Tuple

import paths
from harness import measure_subprocess

from repro.campaigns.records import record_to_result, result_to_record
from repro.campaigns.spec import grid
from repro.core.consensus import ConsensusService
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.failure_detectors.heartbeat import HeartbeatConfig, HeartbeatFailureDetectorFabric
from repro.failure_detectors.perfect import PerfectFailureDetectorFabric
from repro.failure_detectors.qos import QoSConfig, QoSFailureDetectorFabric
from repro.metrics.stats import summarize
from repro.replication.state_machine import Command, KeyValueStore
from repro.scenarios.faults import FaultSchedule, PoissonChurn
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import Network, NetworkConfig
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.system import SystemConfig, build_system
from repro.workload.generator import PoissonWorkload

_clock = time.perf_counter

#: A chunk returns (units of work done, host seconds inside the layer).
Chunk = Callable[[], Tuple[float, float]]


def _repeat(budget_s: float, chunk: Chunk) -> Tuple[float, float]:
    units = seconds = 0.0
    while seconds < budget_s:
        done, spent = chunk()
        units += done
        seconds += spent
    return units, seconds


def _rate(chunk: Chunk) -> Callable[[float], float]:
    def driver(budget_s: float) -> float:
        units, seconds = _repeat(budget_s, chunk)
        return units / seconds

    return driver


def _cost(chunk: Chunk, scale: float) -> Callable[[float], float]:
    """Host time per unit of work, in ``1/scale`` seconds (1e6: microseconds)."""

    def driver(budget_s: float) -> float:
        units, seconds = _repeat(budget_s, chunk)
        return seconds / units * scale

    return driver


def _timed_run(simulator: Simulator, **run_arguments) -> Tuple[float, float]:
    before = simulator.events_processed
    started = _clock()
    simulator.run(**run_arguments)
    return simulator.events_processed - before, _clock() - started


# ------------------------------------------------------------------ sim.engine


def _chain_chunk() -> Tuple[float, float]:
    """20 000 self-rescheduling events: schedule, pop, dispatch."""
    simulator = Simulator()
    remaining = [20_000]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            simulator.schedule(0.1, tick)

    simulator.schedule(0.1, tick)
    return _timed_run(simulator)


def _timer_churn_chunk() -> Tuple[float, float]:
    """210 pairs x 100 cancel/re-arm cycles of a far timeout (heap compaction)."""
    simulator = Simulator()
    handles: Dict[int, object] = {}
    armed = [0]
    limit = 210 * 100

    def rearm(pair: int) -> None:
        old = handles.get(pair)
        if old is not None:
            old.cancel()
        handles[pair] = simulator.schedule(500.0, _nothing)
        armed[0] += 1
        if armed[0] < limit:
            simulator.schedule(1.0, rearm, pair)

    for pair in range(210):
        simulator.schedule(0.01 * pair, rearm, pair)
    return _timed_run(simulator)


def _nothing(*_args) -> None:
    return None


# ------------------------------------------------------------------ sim.network


def _bare_network(n: int) -> Tuple[Simulator, Network]:
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(n=n))
    for pid in range(n):
        network.attach(pid, _nothing)
    return simulator, network


def _multicast_chunk() -> Tuple[float, float]:
    """500 full-group multicasts at n=15 through the contention pipeline."""
    simulator, network = _bare_network(15)
    destinations = tuple(range(15))
    started = _clock()
    for index in range(500):
        network.send(Message(index % 15, destinations, "p", index))
    sending = _clock() - started
    events, running = _timed_run(simulator)
    return events, sending + running


# ------------------------------------------------------------------ failure_detectors


def _qos_fabric_chunk(scan_interval) -> Chunk:
    def chunk() -> Tuple[float, float]:
        simulator, network = _bare_network(15)
        arguments = {} if scan_interval is None else {"scan_interval": scan_interval}
        fabric = QoSFailureDetectorFabric(
            simulator, network, RandomStreams(7),
            QoSConfig(mistake_recurrence_time=50.0, mistake_duration=5.0), **arguments,
        )
        fabric.start()
        return _timed_run(simulator, until=1_000.0)

    return chunk


def _heartbeat_chunk() -> Tuple[float, float]:
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(n=15))
    fabric = HeartbeatFailureDetectorFabric(
        simulator, network, HeartbeatConfig(period=50.0, timeout=200.0)
    )
    processes = [SimProcess(simulator, network, pid) for pid in range(15)]
    for process in processes:
        process.failure_detector = fabric.attach(process)
    for process in processes:
        process.start()
    fabric.start()
    return _timed_run(simulator, until=2_000.0)


# ------------------------------------------------------------------ core


def _rbcast_chunk() -> Tuple[float, float]:
    """400 R-broadcasts among five processes carrying only the rbcast component."""
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(n=5))
    components = [ReliableBroadcast(SimProcess(simulator, network, pid)) for pid in range(5)]
    for index in range(400):
        simulator.schedule_at(10.0 * index, components[index % 5].broadcast, index)
    _events, seconds = _timed_run(simulator)
    return 400, seconds


def _consensus_chunk() -> Tuple[float, float]:
    """100 sequential consensus instances, n=5, perfect detector."""
    simulator = Simulator()
    network = Network(simulator, NetworkConfig(n=5))
    fabric = PerfectFailureDetectorFabric(simulator, network)
    services = []
    for pid in range(5):
        process = SimProcess(simulator, network, pid)
        process.failure_detector = fabric.attach(process)
        services.append(ConsensusService(process, ReliableBroadcast(process)))
        process.start()
    fabric.start()
    decided = [0]

    def propose_all(instance: int) -> None:
        for service in services:
            service.propose(("iso", instance), service.pid)

    def on_decision(cid, _value) -> None:
        decided[0] += 1
        if cid[1] + 1 < 100:
            simulator.schedule(0.0, propose_all, cid[1] + 1)

    services[0].add_decision_listener(on_decision)
    simulator.schedule(0.0, propose_all, 0)
    _events, seconds = _timed_run(simulator)
    if decided[0] != 100:
        raise RuntimeError(f"consensus driver decided {decided[0]} of 100 instances")
    return 100, seconds


def _view_change_chunk() -> Tuple[float, float]:
    """A gm system, n=5, whose last member is wrongly suspected ten times:
    each cycle excludes it and lets it rejoin."""
    system = build_system(SystemConfig(n=5, stack="gm", seed=3, join_retry_interval=50.0))
    installed = [0]
    for membership in system.memberships:
        membership.add_view_listener(lambda _view: installed.__setitem__(0, installed[0] + 1))
    for cycle in range(10):
        system.suspect_during(4, 100.0 + 400.0 * cycle, 50.0)
    started = _clock()
    system.run(until=4_500.0)
    seconds = _clock() - started
    if installed[0] == 0:
        raise RuntimeError("view-change driver installed no view")
    return installed[0], seconds


# ------------------------------------------------------------------ system, workload, metrics, scenarios


def _build_chunk(config: SystemConfig, repeats: int) -> Chunk:
    def chunk() -> Tuple[float, float]:
        started = _clock()
        for _ in range(repeats):
            build_system(config).start()
        return repeats, _clock() - started

    return chunk


def _schedule_chunk() -> Tuple[float, float]:
    system = build_system(SystemConfig(n=3, seed=5))
    workload = PoissonWorkload(system, 300.0)
    started = _clock()
    workload.schedule_messages(5_000)
    return 5_000, _clock() - started


_LATENCIES = [8.0 + 0.01 * index for index in range(400)]


def _summarize_chunk() -> Tuple[float, float]:
    started = _clock()
    for _ in range(50):
        summarize(_LATENCIES)
    return 50, _clock() - started


def _fault_compile_chunk() -> Tuple[float, float]:
    system = build_system(SystemConfig(n=15, stack="gm", seed=5))
    schedule = FaultSchedule([PoissonChurn(rate=2.0, mean_downtime=300.0, until=30_000.0)])
    started = _clock()
    schedule.apply_pre(system)
    schedule.schedule(system)
    return 1, _clock() - started


# ------------------------------------------------------------------ replication, campaigns


def applies_per_s(budget_s: float) -> float:
    """KeyValueStore.apply over a put/get/increment/delete mix, 64 keys."""
    commands = [
        Command(operation, f"{'ctr' if operation == 'increment' else 'key'}-{index % 64}",
                f"v{index}" if operation == "put" else None, index % 8, index)
        for index, operation in enumerate(("put", "get", "increment", "put", "delete") * 400)
    ]

    def chunk() -> Tuple[float, float]:
        store = KeyValueStore()
        started = _clock()
        for command in commands:
            store.apply(command)
        return len(commands), _clock() - started

    return _rate(chunk)(budget_s)


def _grid() -> object:
    return grid("normal-steady", stacks=("fd", "gm"), n_values=(3, 5),
                throughputs=tuple(10.0 * (index + 1) for index in range(5)),
                seeds=tuple(range(5)), num_messages=20)


def _grid_chunk() -> Tuple[float, float]:
    started = _clock()
    campaign = _grid()
    seconds = _clock() - started
    return sum(len(sp.points) for series in campaign.series for sp in series.points), seconds


def _key_chunk() -> Tuple[float, float]:
    campaign = _grid()
    started = _clock()
    points = campaign.points()
    return len(points), _clock() - started


_RESULT = ScenarioResult(
    scenario="normal-steady", algorithm="fd", n=3, throughput=100.0,
    latencies=[8.0 + 0.01 * index for index in range(100)], measured=100, duration=1000.0, events=4000,
)


def _record_chunk() -> Tuple[float, float]:
    started = _clock()
    for _ in range(100):
        record_to_result(json.loads(json.dumps(result_to_record(_RESULT), sort_keys=True)))
    return 100, _clock() - started


# ------------------------------------------------------------------ experiments, obs


def import_experiments_s(budget_s: float) -> float:
    """Fresh-interpreter import of the figure CLI, one start per sample."""
    code = f"import sys; sys.path.insert(0, {paths.SRC_DIR!r}); import repro.experiments.__main__"
    return measure_subprocess([sys.executable, "-c", code], 1)[0]


def _steady_spec(instrument: bool) -> SteadyStateSpec:
    config = SystemConfig(n=3, stack="fd", seed=9, fd=QoSConfig(), instrument=instrument)
    return SteadyStateSpec("normal-steady", config, 300.0, 300)


def _steady_seconds(instrument: bool) -> float:
    spec = _steady_spec(instrument)
    started = _clock()
    ScenarioRunner().run_steady_on(build_system(spec.config), spec)
    return _clock() - started


def obs_on_overhead_pct(budget_s: float) -> float:
    """instrument=True against off, alternating, on one fd n=3 T=300/s run.

    A ratio of two short timings is twice as noisy as either, so this driver
    takes four times the budget.
    """
    off = on = 0.0
    while off < 4 * budget_s:
        off += _steady_seconds(False)
        on += _steady_seconds(True)
    return (on / off - 1.0) * 100.0


def snapshot_ms(budget_s: float) -> float:
    """metrics_snapshot of one finished instrumented run, in milliseconds."""
    spec = _steady_spec(True)
    system = build_system(spec.config)
    ScenarioRunner().run_steady_on(system, spec)

    def chunk() -> Tuple[float, float]:
        started = _clock()
        for _ in range(20):
            system.metrics_snapshot()
        return 20, _clock() - started

    return _cost(chunk, 1e3)(budget_s)


DRIVERS: Dict[str, Callable[[float], float]] = {
    "sim.engine.chain_events_per_s": _rate(_chain_chunk),
    "sim.engine.timer_churn_events_per_s": _rate(_timer_churn_chunk),
    "sim.network.multicast_events_per_s": _rate(_multicast_chunk),
    "failure_detectors.qos.exact_events_per_s": _rate(_qos_fabric_chunk(None)),
    "failure_detectors.qos.batch_events_per_s": _rate(_qos_fabric_chunk(1.0)),
    "failure_detectors.heartbeat.events_per_s": _rate(_heartbeat_chunk),
    "core.reliable_broadcast.rbcasts_per_s": _rate(_rbcast_chunk),
    "core.consensus.decisions_per_s": _rate(_consensus_chunk),
    "core.group_membership.view_changes_per_s": _rate(_view_change_chunk),
    "system.build_ms.n3": _cost(_build_chunk(SystemConfig(n=3, stack="fd"), 20), 1e3),
    "system.build_ms.n15": _cost(_build_chunk(SystemConfig(n=15, stack="gm"), 4), 1e3),
    "workload.schedule_us_per_msg": _cost(_schedule_chunk, 1e6),
    "metrics.stats.summarize_us": _cost(_summarize_chunk, 1e6),
    "scenarios.faults.compile_us": _cost(_fault_compile_chunk, 1e6),
    "replication.state_machine.applies_per_s": applies_per_s,
    "campaigns.spec.grid_us_per_point": _cost(_grid_chunk, 1e6),
    "campaigns.spec.key_us_per_point": _cost(_key_chunk, 1e6),
    "campaigns.records.roundtrip_us": _cost(_record_chunk, 1e6),
    "experiments.import_s": import_experiments_s,
    "obs.on_overhead_pct": obs_on_overhead_pct,
    "obs.snapshot_ms": snapshot_ms,
}
