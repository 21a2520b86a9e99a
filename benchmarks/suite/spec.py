"""What the suite measures: the workload and metric names everybody cites.

This module is the single declaration of the five workloads, the end-to-end
metrics and the per-layer metrics.  ``BENCHMARK.json`` at the repository root
and the glossary tables of ``README.md`` are generated from it
(``run.py --manifest`` / ``run.py --glossary``) and ``test_suite.py`` fails
when either drifts.

Two clocks exist and every metric names its own: *host* time is what Python
takes to run the simulator, *sim* time is what the modelled cluster takes
(milliseconds of simulated time, deterministic for a seed).  Metrics prefixed
``sim_`` are simulated; all others are host-side unless their unit is a count
or a ratio.

Three tiers of metric:

* ``driver`` -- the end-to-end metrics of ``BENCHMARK.json``.  The benchmark
  contract makes every workload report every one of them, so they are the
  ones defined on all five workloads.
* ``suite``  -- end-to-end rows that exist on some workloads only (the
  store's query time, the service's highest sustainable rate, ...).  They
  are printed, stored in ``BENCH_<workload>.json`` and judged by
  ``run.py --compare``, but the contract leaves no place for them in
  ``BENCHMARK.json``.
* ``layer``  -- per-layer metrics from the traced run (``per_layer`` in
  ``BENCHMARK.json``); a layer a workload never enters reads 0 there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ALL = ("steady_paper", "suspicion_n15", "figures_quick", "service_kv", "campaign_store")

#: How long one driver run measures (``run_seconds`` of ``BENCHMARK.json``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line (<= 200 characters) for ``BENCHMARK.json``: sizes and purpose.
    why: str
    #: Host side every workload is a closed loop of passes in one thread;
    #: this states the *simulated* arrival process.
    arrivals: str
    #: What one operation (``attempted`` / ``failed`` / ``ops_per_s``) is.
    operation: str
    #: The longer reason the workload exists (README).
    reason: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "steady_paper",
        "fd,gm x n=3,7 normal- and crash-steady at T=300/s, 1000 msgs each, plus a "
        "T=10/s model point: the paper's region, kernel+network+ordering do the work, FD fabric idle",
        "open loop, Poisson, T = 300 msg/s (one point at 10 msg/s)",
        "one measured A-broadcast",
        "The paper's own operating region (Figs. 4-5).  The kernel, sim.network / "
        "sim.resources and the ordering protocols do all the work; the failure detector "
        "fabric is idle and no campaign code runs.  A kernel, network, consensus or "
        "sequencer gain must show here.",
    ),
    Workload(
        "suspicion_n15",
        "fd,gm at n=15, T=20/s: suspicion-steady (T_MR=200ms,T_M=5ms, 150 msgs), churn "
        "(2 crashes/s, 300 msgs), heartbeat FD (100 msgs): timers, view changes, FD fabric do the work",
        "open loop, Poisson, T = 20 msg/s",
        "one measured A-broadcast",
        "The same kernel used differently: O(n^2) timer cancel/re-arm, round abandonment, "
        "view changes, rejoin with state transfer, and a message-based detector that loads "
        "the network instead of the timer heap.  A fabric gain that costs the steady loop "
        "(or the reverse) shows as one row up here and one row down on steady_paper.",
    ),
    Workload(
        "figures_quick",
        "figure4..8.run(quick=True) in-process, 153 points (fig6 T_MR from 30ms, fig8 2 runs/point), "
        "format_figure + 29 shape checks, one cold pass: what users run; workload scheduling dominates",
        "open loop, Poisson, per figure grid (10-500 msg/s)",
        "one campaign point",
        "The thing users actually run.  Figure 8 pre-schedules a minute of background "
        "arrivals per probe run and fires almost none, so PoissonWorkload.schedule_messages "
        "and per-run set-up dominate and the steady event loop does little; the campaign "
        "runner's serial path, aggregate and report ride along.",
    ),
    Workload(
        "service_kv",
        "n=3 fd,gm KV service, 64 in flight/128 queued, 1500 reqs/point: open loop 500-4000 "
        "req/s batched (8,2ms), unbatched 500 and 4000, closed loop 32 clients, local reads: load+replication",
        "open loop Poisson at fixed rates 500/1000/2000/4000 req/s; closed loop 32 clients, 5 ms think time",
        "one measured client request",
        "The only workload where load (admission, batching, client populations) and "
        "replication (state machine, reply path) do the work.  Reads beside writes and "
        "batched beside unbatched use the same layer differently, so a gain for one that "
        "costs the other shows.  The 4000 req/s points exceed capacity on purpose.",
    ),
    Workload(
        "campaign_store",
        "192 tiny points cold, serially then via 2 workers, into fsync stores; 5 warm reruns; 6000-record "
        "bulk put/close/reopen/compact/query; 60 points via the work queue: campaign code, not simulation",
        "open loop, Poisson, T = 10-100 msg/s, 20 messages per point",
        "one campaign point executed cold (serially, then again through the pool)",
        "Simulation is small; campaigns (spec and key hashing, chunked dispatch, warm pool, "
        "store append, columnar mirror, aggregation, queue leases) does the work.  Append "
        "sits beside read, so a store change that speeds one and slows the other shows.",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    tier: str  # "driver" | "suite" | "layer"
    #: Share of the baseline median by which the metric may worsen before
    #: ``--compare`` calls it a regression (``None``: per-layer, no bound).
    bound: Optional[float]
    #: Deterministic for a seed (simulated values, counts, pass ratios):
    #: compared by equality.
    exact: bool
    #: Workloads the metric is reported on.
    workloads: Tuple[str, ...]
    #: The repo module the number belongs to (``end-to-end`` for the first two tiers).
    layer: str
    #: ``wall`` (host timing of passes), ``sim`` (simulated), ``iso`` (isolated
    #: driver), ``span`` (self time from the traced run), ``count`` (exact counter).
    source: str
    meaning: str
    #: Which end-to-end metric the row should move, on which workload.
    moves: str = ""
    #: Absolute bound, for metrics whose natural tolerance is not a share.
    bound_abs: Optional[float] = None


def _e2e(name, unit, better, tier, bound, exact, workloads, source, meaning, bound_abs=None):
    return Metric(name, unit, better, tier, bound, exact, tuple(workloads), "end-to-end",
                  source, meaning, "", bound_abs)


END_TO_END: Tuple[Metric, ...] = (
    _e2e("wall_s", "s", "lower", "driver", 0.25, False, ALL, "wall",
         "host wall-clock of one pass (median over the timed passes), correctness checks excluded"),
    _e2e("events_per_s", "1/s", "higher", "driver", 0.25, False, ALL, "wall",
         "simulated events counted by the pass's runs / host seconds of those runs "
         "(figures_quick: figures 4-7, transient records carry no event count; "
         "campaign_store: the serial cold phase)"),
    _e2e("ops_per_s", "1/s", "higher", "driver", 0.25, False, ALL, "wall",
         "operations / host seconds: measured A-broadcasts (steady_paper, suspicion_n15), "
         "campaign points executed cold and in-process (figures_quick, campaign_store's serial "
         "phase -- the issue's points_per_s), simulated client requests completed (service_kv -- "
         "the issue's requests_per_s)"),
    _e2e("sim_latency_ms", "ms", "lower", "driver", 0.25, True, ALL, "sim",
         "simulated mean latency at the workload's reference point: A-broadcast fd n=3 T=300/s "
         "(steady_paper, the paper's y-axis; figures_quick: the same point of Figure 4), every "
         "measured A-broadcast of the pass pooled (suspicion_n15), request response time at "
         "1000 req/s batched (service_kv), all cold records pooled (campaign_store)"),
    _e2e("setup_s", "s", "lower", "driver", 0.25, False, ALL, "wall",
         "fresh interpreter: import of everything the workload needs + first build_system "
         "(median of 3 subprocess starts)"),
    _e2e("peak_rss_mb", "MB", "lower", "driver", 0.10, False, ALL, "wall",
         "ru_maxrss of the workload's process (campaign_store: plus its largest child)"),
    _e2e("failed_share", "ratio", "lower", "suite", None, True, ALL, "sim",
         "failed operations / attempted (0 at the seed on every workload)", bound_abs=0.0),
    _e2e("pooled_points_per_s", "1/s", "higher", "suite", 0.25, False, ("campaign_store",), "wall",
         "campaign points executed cold through min(2, nproc) pool workers and the fsync store / "
         "host seconds (phase a; the issue's points_per_s -- two workers and their parent on "
         "two cores are too exposed to the box's noise for the driver's gate)"),
    _e2e("cached_points_per_s", "1/s", "higher", "suite", 0.25, False, ("campaign_store",), "wall",
         "points served from a reopened store / host seconds, grid build + key hashing + "
         "JSONL load included (phase b)"),
    _e2e("query_s", "s", "lower", "suite", 0.25, False, ("campaign_store",), "wall",
         "load_store_table + cross_campaign_summary over the bulk store (phase c)"),
    _e2e("shape_checks_pass_share", "ratio", "higher", "suite", None, True, ("figures_quick",), "sim",
         "paper claims of experiments/shape_checks.py that PASS / 29", bound_abs=0.0),
    _e2e("model_err_pct", "%", "lower", "suite", None, True, ("steady_paper",), "sim",
         "|simulated mean latency - analysis.model.predicted_latency(3)| / prediction at the "
         "low-load point (n=3, T=10/s)", bound_abs=0.5),
    _e2e("sim_failover_ms", "ms", "lower", "suite", 0.01, True, ("figures_quick",), "sim",
         "simulated latency overhead of the message broadcast at the coordinator's crash, "
         "fd n=3 T_D=0 at the lowest throughput (time without service)"),
    _e2e("sim_max_rate_rps", "req/s", "higher", "suite", None, True, ("service_kv",), "sim",
         "highest of the fixed offered rates with batching on whose simulated p99 <= 100 ms "
         "and nothing shed", bound_abs=0.0),
    _e2e("sim_p99_ms", "ms", "lower", "suite", 0.01, True, ("service_kv",), "sim",
         "simulated p99 response time at 1000 req/s, batched; a shed or unanswered request "
         "counts as missing the limit"),
)


def _layer(name, unit, better, layer, source, meaning, moves, exact=None):
    if exact is None:
        exact = source == "count"
    return Metric(name, unit, better, "layer", None, exact, ALL, layer, source, meaning, moves)


_KERNEL_MOVES = "events_per_s@steady_paper; not query_s, cached_points_per_s"
_NET_MOVES = "events_per_s@steady_paper (largest share), heartbeat rows of suspicion_n15; not campaign_store phases b-d"
_FD_MOVES = "events_per_s@suspicion_n15; not steady_paper (only the crash detections of its crash-steady runs, asserted)"
_RB_MOVES = "events_per_s@steady_paper fd rows; not gm rows without faults"
_CONS_MOVES = "events_per_s@steady_paper fd rows; rounds_per_decision rises only on suspicion_n15"
_GM_MOVES = "events_per_s@suspicion_n15 gm rows; not steady_paper (<= 1 view per process per run)"
_ABCAST_MOVES = "events_per_s and sim_latency_ms@steady_paper; sim_max_rate_rps@service_kv"
_SYSTEM_MOVES = "ops_per_s@campaign_store, wall_s@figures_quick; not steady_paper"
_WORKLOAD_MOVES = "wall_s and ops_per_s@figures_quick (the Figure 8 hot spot); not steady_paper"
_SCEN_MOVES = "wall_s@figures_quick, events_per_s@suspicion_n15 (churn schedule)"
_LOAD_MOVES = "ops_per_s, sim_p99_ms, sim_max_rate_rps@service_kv; no other workload"
_CAMP_APPEND = "ops_per_s@campaign_store"
_CAMP_KEY = "cached_points_per_s@campaign_store"
_CAMP_QUERY = "query_s@campaign_store"
_EXP_MOVES = "wall_s@figures_quick"

PER_LAYER: Tuple[Metric, ...] = (
    # sim.engine
    _layer("sim.engine.chain_events_per_s", "1/s", "higher", "sim.engine", "iso",
           "self-rescheduling event chain: schedule, pop, dispatch", _KERNEL_MOVES),
    _layer("sim.engine.timer_churn_events_per_s", "1/s", "higher", "sim.engine", "iso",
           "210 pairs cancelling and re-arming far timers (heap compaction)",
           "events_per_s@suspicion_n15"),
    _layer("sim.engine.run_self_s", "s", "lower", "sim.engine", "span",
           "Simulator.run minus the component spans inside it: kernel, resources, timers",
           _KERNEL_MOVES),
    _layer("sim.engine.events", "count", "lower", "sim.engine", "count",
           "events executed by the traced pass", "wall_s without events_per_s when fewer are simulated"),
    _layer("sim.engine.queue_depth_hwm", "count", "lower", "sim.engine", "count",
           "largest event-queue depth of any run of the pass", "wall_s@figures_quick (pre-scheduled arrivals)"),
    # sim.network (+ sim.resources)
    _layer("sim.network.multicast_events_per_s", "1/s", "higher", "sim.network", "iso",
           "n=15 multicast flood through Network.send and the FIFO resources", _NET_MOVES),
    _layer("sim.network.send_self_s", "s", "lower", "sim.network", "span",
           "self time of Network.send", _NET_MOVES),
    _layer("sim.network.messages_sent", "count", "lower", "sim.network", "count",
           "messages handed to the network", _NET_MOVES),
    _layer("sim.network.messages_delivered", "count", "lower", "sim.network", "count",
           "deliveries to processes", _NET_MOVES),
    _layer("sim.network.cpu_busy_share", "ratio", "lower", "sim.network", "count",
           "simulated utilisation of the busiest CPU of any system the suite built",
           "near 1 the modelled CPUs saturate: sim latency rises before sim_max_rate_rps falls"),
    # failure_detectors
    _layer("failure_detectors.qos.exact_events_per_s", "1/s", "higher", "failure_detectors", "iso",
           "QoS mistake generator alone, n=15, one event per pair transition", _FD_MOVES),
    _layer("failure_detectors.qos.batch_events_per_s", "1/s", "higher", "failure_detectors", "iso",
           "the same under the batched scan, interval 1.0", _FD_MOVES),
    _layer("failure_detectors.heartbeat.events_per_s", "1/s", "higher", "failure_detectors", "iso",
           "heartbeat fabric alone, n=15, period 50 timeout 200", _FD_MOVES),
    _layer("failure_detectors.event_share", "ratio", "lower", "failure_detectors", "count",
           "failure-detector events / all events", _FD_MOVES),
    _layer("failure_detectors.suspicions", "count", "lower", "failure_detectors", "count",
           "suspicion transitions raised", _FD_MOVES),
    # core.reliable_broadcast
    _layer("core.reliable_broadcast.rbcasts_per_s", "1/s", "higher", "core.reliable_broadcast", "iso",
           "processes carrying only the rbcast component, n=5", _RB_MOVES),
    _layer("core.reliable_broadcast.self_s", "s", "lower", "core.reliable_broadcast", "span",
           "self time of ReliableBroadcast.on_message / broadcast", _RB_MOVES),
    _layer("core.reliable_broadcast.messages_sent", "count", "lower", "core.reliable_broadcast", "count",
           "messages sent under the rbcast protocol", _RB_MOVES),
    # core.consensus
    _layer("core.consensus.decisions_per_s", "1/s", "higher", "core.consensus", "iso",
           "perfect FD + rbcast + ConsensusService.propose, sequential instances, n=5", _CONS_MOVES),
    _layer("core.consensus.self_s", "s", "lower", "core.consensus", "span",
           "self time of ConsensusService.on_message / propose", _CONS_MOVES),
    _layer("core.consensus.rounds", "count", "lower", "core.consensus", "count",
           "consensus rounds entered", _CONS_MOVES),
    _layer("core.consensus.decisions", "count", "lower", "core.consensus", "count",
           "local decisions", _CONS_MOVES),
    _layer("core.consensus.rounds_per_decision", "ratio", "lower", "core.consensus", "count",
           "wasted-work ratio: rounds / decisions", _CONS_MOVES),
    # core.group_membership
    _layer("core.group_membership.view_changes_per_s", "1/s", "higher", "core.group_membership", "iso",
           "gm system, n=5, under forced suspect_during cycles: views installed per host second", _GM_MOVES),
    _layer("core.group_membership.self_s", "s", "lower", "core.group_membership", "span",
           "self time of GroupMembership.on_message", _GM_MOVES),
    _layer("core.group_membership.views_installed", "count", "lower", "core.group_membership", "count",
           "view installations summed over processes", _GM_MOVES),
    # core.fd_broadcast, core.sequencer_broadcast
    _layer("core.fd_broadcast.self_s", "s", "lower", "core.fd_broadcast", "span",
           "self time of the FD algorithm's abcast component", _ABCAST_MOVES),
    _layer("core.sequencer_broadcast.self_s", "s", "lower", "core.sequencer_broadcast", "span",
           "self time of the GM algorithm's abcast component", _ABCAST_MOVES),
    _layer("core.fd_broadcast.msgs_per_abcast", "ratio", "lower", "core.fd_broadcast", "count",
           "messages sent / A-broadcasts on fd systems (CostModel.messages_per_broadcast: n+2)", _ABCAST_MOVES),
    _layer("core.sequencer_broadcast.msgs_per_abcast", "ratio", "lower", "core.sequencer_broadcast", "count",
           "messages sent / A-broadcasts on gm systems (CostModel.messages_per_broadcast: n+2)", _ABCAST_MOVES),
    # system + stacks
    _layer("system.build_ms.n3", "ms", "lower", "system", "iso",
           "build_system + start, fd, n=3", _SYSTEM_MOVES),
    _layer("system.build_ms.n15", "ms", "lower", "system", "iso",
           "build_system + start, gm, n=15", _SYSTEM_MOVES),
    _layer("system.build_share", "ratio", "lower", "system", "span",
           "pass wall inside BroadcastSystem construction and start", _SYSTEM_MOVES),
    # workload, metrics
    _layer("workload.schedule_us_per_msg", "us", "lower", "workload", "iso",
           "PoissonWorkload.schedule_messages per pre-scheduled arrival", _WORKLOAD_MOVES),
    _layer("workload.schedule_share", "ratio", "lower", "workload", "span",
           "pass wall inside PoissonWorkload.schedule_messages", _WORKLOAD_MOVES),
    _layer("metrics.stats.summarize_us", "us", "lower", "metrics", "iso",
           "metrics.stats.summarize over 400 latencies", _WORKLOAD_MOVES),
    # scenarios
    _layer("scenarios.runner.overhead_share", "ratio", "lower", "scenarios", "span",
           "pass wall outside system construction and Simulator.run", _SCEN_MOVES),
    _layer("scenarios.transient.probes_per_s", "1/s", "higher", "scenarios", "span",
           "ScenarioRunner.run_probe calls per host second spent in them", _SCEN_MOVES),
    _layer("scenarios.faults.compile_us", "us", "lower", "scenarios", "iso",
           "FaultSchedule.apply_pre + schedule of a churn schedule on a built n=15 system", _SCEN_MOVES),
    # load, replication
    _layer("load.service.submit_self_s", "s", "lower", "load", "span",
           "self time of LoadTestedService.submit (admission)", _LOAD_MOVES),
    _layer("load.clients.self_s", "s", "lower", "load", "span",
           "self time of the client populations' schedule_requests / start", _LOAD_MOVES),
    _layer("replication.service.self_s", "s", "lower", "replication", "span",
           "self time of ReplicatedService.submit / read_local", _LOAD_MOVES),
    _layer("load.service.shed", "count", "lower", "load", "count",
           "requests refused by admission control", _LOAD_MOVES),
    _layer("load.service.queued", "count", "lower", "load", "count",
           "requests parked in the admission queue", _LOAD_MOVES),
    _layer("load.service.queue_depth_hwm", "count", "lower", "load", "count",
           "largest admission-queue depth", _LOAD_MOVES),
    _layer("load.batching.requests_per_batch", "ratio", "higher", "load", "count",
           "payloads per inner A-broadcast where batching is on", _LOAD_MOVES),
    _layer("replication.state_machine.applies_per_s", "1/s", "higher", "replication", "iso",
           "KeyValueStore.apply over a put/get/increment/delete mix", _LOAD_MOVES),
    # campaigns
    _layer("campaigns.spec.grid_us_per_point", "us", "lower", "campaigns", "iso",
           "campaigns.spec.grid per declared point", _CAMP_KEY),
    _layer("campaigns.spec.key_us_per_point", "us", "lower", "campaigns", "iso",
           "CampaignSpec.points: key hashing and de-duplication per point", _CAMP_KEY),
    _layer("campaigns.records.roundtrip_us", "us", "lower", "campaigns", "iso",
           "result_to_record + json + record_to_result of a 100-latency result", _CAMP_APPEND),
    _layer("campaigns.runner.dispatch_overhead_s", "s", "lower", "campaigns", "span",
           "pooled cold phase wall x workers - serial cold phase wall", _CAMP_APPEND),
    _layer("campaigns.pool.spinup_s", "s", "lower", "campaigns", "span",
           "first round trip through a fresh WarmPool", _CAMP_APPEND),
    _layer("campaigns.runner.cache_hit_share", "ratio", "higher", "campaigns", "count",
           "points served from the store / points asked for, over the pass", _CAMP_KEY),
    _layer("campaigns.store.put_us.fsync", "us", "lower", "campaigns", "span",
           "ResultStore.put, durability fsync", _CAMP_APPEND),
    _layer("campaigns.store.put_us.batch", "us", "lower", "campaigns", "span",
           "ResultStore.put, durability batch", _CAMP_APPEND),
    _layer("campaigns.store.load_s", "s", "lower", "campaigns", "span",
           "reopening the bulk store (JSONL parse)", _CAMP_KEY),
    _layer("campaigns.store.compact_s", "s", "lower", "campaigns", "span",
           "ResultStore.compact of the bulk store", _CAMP_APPEND),
    _layer("campaigns.columnar.write_s", "s", "lower", "campaigns", "span",
           "columnar.write_mirror (on close)", _CAMP_APPEND),
    _layer("campaigns.columnar.read_s", "s", "lower", "campaigns", "span",
           "columnar.read_mirror", _CAMP_QUERY),
    _layer("campaigns.aggregate.summary_s", "s", "lower", "campaigns", "span",
           "cross_campaign_summary minus the mirror read inside it", _CAMP_QUERY),
    _layer("campaigns.aggregate.figure_s", "s", "lower", "campaigns", "span",
           "figure_from_campaign", _EXP_MOVES),
    _layer("campaigns.queue.cycle_ms", "ms", "lower", "campaigns", "span",
           "WorkQueue.enqueue + QueueWorker.run per point, simulation included", _CAMP_APPEND),
    # experiments
    _layer("experiments.figure4.wall_s", "s", "lower", "experiments", "span", "figure4.run", _EXP_MOVES),
    _layer("experiments.figure5.wall_s", "s", "lower", "experiments", "span", "figure5.run", _EXP_MOVES),
    _layer("experiments.figure6.wall_s", "s", "lower", "experiments", "span", "figure6.run", _EXP_MOVES),
    _layer("experiments.figure7.wall_s", "s", "lower", "experiments", "span", "figure7.run", _EXP_MOVES),
    _layer("experiments.figure8.wall_s", "s", "lower", "experiments", "span", "figure8.run", _EXP_MOVES),
    _layer("experiments.report.format_ms", "ms", "lower", "experiments", "span",
           "format_figure over the five figures", _EXP_MOVES),
    _layer("experiments.import_s", "s", "lower", "experiments", "iso",
           "fresh-interpreter import of repro.experiments.__main__",
           "setup_s everywhere; ops_per_s@campaign_store where pool workers import"),
    # obs + the suite itself
    _layer("obs.on_overhead_pct", "%", "lower", "obs", "iso",
           "instrument=True vs off on one fd n=3 T=300/s steady run",
           "with tracing off: nothing (the claim PR 5 made, now a row)"),
    _layer("obs.snapshot_ms", "ms", "lower", "obs", "iso",
           "metrics_snapshot of a finished instrumented run", "nothing end to end"),
    _layer("bench.trace_overhead_pct", "%", "lower", "bench", "span",
           "traced pass wall / untraced pass wall - 1", "nothing: end-to-end metrics are never taken from the traced run",
           exact=False),
)

#: layer name -> the ``*.self_s`` metric that reports its self time.
SELF_TIME_METRICS: Dict[str, str] = {
    "sim.engine": "sim.engine.run_self_s",
    "sim.network": "sim.network.send_self_s",
    "core.reliable_broadcast": "core.reliable_broadcast.self_s",
    "core.consensus": "core.consensus.self_s",
    "core.group_membership": "core.group_membership.self_s",
    "core.fd_broadcast": "core.fd_broadcast.self_s",
    "core.sequencer_broadcast": "core.sequencer_broadcast.self_s",
    "load.service": "load.service.submit_self_s",
    "load.clients": "load.clients.self_s",
    "replication.service": "replication.service.self_s",
}

#: Each row the 13 legacy ``benchmarks/bench_*.py`` scripts print, and the
#: suite metric that supersedes it -- the checklist of a later deletion pass.
LEGACY_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("bench_simulator_micro.py", "kernel-chain events_per_s", "sim.engine.chain_events_per_s"),
    ("bench_simulator_micro.py", "timer-churn events_per_s", "sim.engine.timer_churn_events_per_s"),
    ("bench_simulator_micro.py", "multicast-flood events_per_s", "sim.network.multicast_events_per_s"),
    ("bench_simulator_micro.py", "fd-fabric-exact / fd-fabric-batch events_per_s",
     "failure_detectors.qos.exact_events_per_s / .batch_events_per_s"),
    ("bench_simulator_micro.py", "hot_scenarios n=15 wall_s", "wall_s, events_per_s @ suspicion_n15"),
    ("bench_simulator_micro.py", "end_to_end_broadcast_rate fd / gm", "events_per_s, ops_per_s @ steady_paper"),
    ("bench_scenarios.py", "per scenario kind wall_s / events_per_s",
     "events_per_s @ steady_paper, suspicion_n15, service_kv"),
    ("bench_instrumentation.py", "instrumentation off/on overhead", "obs.on_overhead_pct, obs.snapshot_ms"),
    ("bench_stack_dispatch.py", "registry build vs direct wiring", "system.build_ms.n3, system.build_ms.n15"),
    ("bench_reformation.py", "view-majority-loss wall / time_to_reformation",
     "core.group_membership.view_changes_per_s (gm-reform itself: no suite row yet)"),
    ("bench_ablations.py", "pipeline_depth / renumbering ablations (simulated latency)",
     "sim_latency_ms @ steady_paper (the ablation axes themselves: no suite row)"),
    ("bench_service_load.py", "goodput, p99 per offered rate, batched vs unbatched",
     "ops_per_s, sim_p99_ms, sim_max_rate_rps @ service_kv; load.* rows"),
    ("bench_campaign_runner.py", "dispatch legacy vs current, warm_pool",
     "ops_per_s @ campaign_store; campaigns.runner.dispatch_overhead_s, campaigns.pool.spinup_s"),
    ("bench_campaign_runner.py", "heavy grid serial vs jobs=4", "ops_per_s @ figures_quick (serial path only)"),
    ("bench_campaign_runner.py", "aggregation JSONL vs columnar",
     "query_s @ campaign_store; campaigns.store.load_s, campaigns.columnar.read_s, campaigns.aggregate.summary_s"),
    ("bench_fig4_normal_steady.py .. bench_fig8_crash_transient.py", "figure regeneration wall-clock + shape checks",
     "wall_s, shape_checks_pass_share @ figures_quick; experiments.figureN.wall_s"),
)


def metrics(tier: Optional[str] = None) -> List[Metric]:
    every = list(END_TO_END) + list(PER_LAYER)
    return every if tier is None else [m for m in every if m.tier == tier]


def metric(name: str) -> Metric:
    for candidate in metrics():
        if candidate.name == name:
            return candidate
    raise KeyError(f"undeclared metric {name!r}")


def end_to_end_for(workload_name: str) -> List[Metric]:
    """The end-to-end rows (both tiers) an untraced run of the workload emits."""
    return [m for m in END_TO_END if workload_name in m.workloads]


# ------------------------------------------------------------------ generated files


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics("driver")
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics("layer")
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def _bound_text(m: Metric) -> str:
    if m.bound_abs is not None:
        return "exactly equal" if m.bound_abs == 0 else f"{m.bound_abs:g} {m.unit} absolute"
    if m.bound is None:
        return "-"
    return f"{m.bound * 100:g} %"


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def glossary(sizes: Dict[str, Dict[str, object]]) -> str:
    """The generated tables of ``README.md`` (between its GLOSSARY markers)."""
    lines: List[str] = []
    lines.append("### Workloads")
    lines.append("")
    lines.append("| workload | simulated arrivals | one operation | full-mode sizes | why it exists |")
    lines.append("| --- | --- | --- | --- | --- |")
    for w in WORKLOADS:
        size_text = ", ".join(f"{key}={value}" for key, value in sizes[w.name].items())
        lines.append(
            f"| `{w.name}` | {_cell(w.arrivals)} | {_cell(w.operation)} | "
            f"{_cell(size_text)} | {_cell(w.reason)} |"
        )
    lines.append("")
    lines.append("### End-to-end metrics (measured with tracing off)")
    lines.append("")
    lines.append("| metric | unit | better | bound | tier | clock | reported on | meaning |")
    lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for m in END_TO_END:
        where = "all" if m.workloads == ALL else ", ".join(f"`{w}`" for w in m.workloads)
        clock = "sim (exact for a seed)" if m.exact else "host"
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.better} | {_bound_text(m)} | {m.tier} | "
            f"{clock} | {where} | {_cell(m.meaning)} |"
        )
    lines.append("")
    lines.append("### Per-layer metrics (from the traced run; no bound)")
    lines.append("")
    lines.append("| metric | unit | better | layer | source | meaning | should move |")
    lines.append("| --- | --- | --- | --- | --- | --- | --- |")
    for m in PER_LAYER:
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.better} | `{m.layer}` | {m.source} | "
            f"{_cell(m.meaning)} | {_cell(m.moves)} |"
        )
    lines.append("")
    lines.append("### Legacy rows and the suite metric that supersedes each")
    lines.append("")
    lines.append("| legacy script | row it prints | superseded by |")
    lines.append("| --- | --- | --- |")
    for script, row, replacement in LEGACY_ROWS:
        lines.append(f"| `{script}` | {_cell(row)} | {_cell(replacement)} |")
    return "\n".join(lines) + "\n"
