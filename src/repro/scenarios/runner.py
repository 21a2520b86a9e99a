"""The single scenario driver.

Every benchmark scenario -- the paper's four and the beyond-paper ones -- is
"a Poisson workload plus a declarative :class:`~repro.scenarios.faults.FaultSchedule`
plus a measurement".  :class:`ScenarioRunner` owns system construction, fault
compilation, workload scheduling, warm-up accounting, latency recording,
stop conditions and result assembly; a scenario kind
(:mod:`repro.scenarios.kinds`) only builds a *spec*:

* :class:`SteadyStateSpec` measures the latency of ``num_messages`` workload
  messages after a warm-up window (every kind but ``crash-transient`` and
  ``service-load``: the ``*-steady`` kinds, the fault-window kinds that
  span a crash, a partition or a gray failure, and ``view-majority-loss``,
  whose ``watch`` hook adds time-to-reformation);
* :class:`ProbeSpec` measures one tagged message injected at a fault instant
  (the crash-transient scenario), returning its latency.

Every steady-state result carries :attr:`ScenarioResult.observed_digest`,
the one answer to "did the simulated behaviour change?".  What the runner
simulates is pinned by ``tests/scenarios/test_runner_golden.py`` (that digest
per paper scenario and stack) and the committed JSON pins under
``tests/*/data/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.types import BroadcastID
from repro.metrics.latency import LatencyRecorder, observed_digest
from repro.metrics.stats import interarrival_from_throughput
from repro.scenarios.faults import FaultSchedule
from repro.scenarios.results import ScenarioResult
from repro.system import SystemConfig, build_system
from repro.workload.generator import PoissonWorkload

#: Default number of measured messages per point.
DEFAULT_MESSAGES = 400
#: Fraction of extra messages sent before the measured ones to warm the
#: system up.
DEFAULT_WARMUP_FRACTION = 0.2
#: Hard cap on simulated events, to bound runs where the algorithm thrashes.
DEFAULT_MAX_EVENTS = 4_000_000
#: How long a probe run waits for its tagged message, in ms past the probe.
PROBE_MAX_WAIT = 60_000.0
#: The payload of a probe run's tagged message.
PROBE_PAYLOAD = "tagged-transient-message"


@dataclass
class SteadyStateSpec:
    """One steady-state measurement: workload + faults + measured window."""

    scenario: str
    config: SystemConfig
    throughput: float
    num_messages: int = DEFAULT_MESSAGES
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Workload senders; default: the processes alive after the pre-run faults.
    senders: Optional[Sequence[int]] = None
    #: Redirect arrivals whose chosen sender is down to the next live process
    #: (used by scenarios whose fault schedule crashes processes mid-run).
    reassign_crashed_senders: bool = False
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ProbeSpec:
    """One transient measurement: background workload + faults + tagged probe."""

    config: SystemConfig
    throughput: float
    probe_sender: int
    probe_time: float
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Shared :class:`repro.obs.Instrumentation` to attach to the fresh
    #: system (the transient driver passes one object across its runs so a
    #: point's counters aggregate over all independent executions).
    obs: Any = None


def warmup_count(num_messages: int) -> int:
    """How many messages precede the ``num_messages`` measured ones."""
    return int(math.ceil(num_messages * DEFAULT_WARMUP_FRACTION))


def arrival_horizon(last_arrival: float, throughput: float) -> float:
    """When a run gives up: generous slack beyond the end of the arrival window."""
    return last_arrival + max(20_000.0, 20 * interarrival_from_throughput(throughput))


def finish_run(
    system,
    scenario: str,
    throughput: float,
    measured: int,
    latencies: List[float],
    params: Dict[str, Any],
) -> ScenarioResult:
    """Assemble the result of a finished run: the tail every measurement shares."""
    config = system.config
    if system.sim.run_exhausted:
        # The run hit the event budget rather than draining/stopping --
        # the point must be read as "gave up", not "finished".
        params["run_exhausted"] = True
    metrics = None
    if system.obs is not None:
        from repro.obs import export as obs_export

        metrics = obs_export.metrics_snapshot(system, scenario=scenario, throughput=throughput)
        obs_export.maybe_write_traces(
            system,
            f"{scenario}-{config.stack_label.replace('/', '-')}"
            f"-n{config.n}-s{config.seed}-T{throughput:g}",
        )
    return ScenarioResult(
        scenario=scenario,
        algorithm=config.stack_label,
        n=config.n,
        throughput=throughput,
        latencies=latencies,
        undelivered=measured - len(latencies),
        measured=measured,
        duration=system.sim.now,
        events=system.sim.events_processed,
        params=params,
        metrics=metrics,
        observed_digest=observed_digest(system, latencies),
    )


class ScenarioRunner:
    """Executes scenario specs on freshly built systems."""

    def run_steady(
        self,
        spec: SteadyStateSpec,
        verify: Optional[Callable[[Any, ScenarioResult], None]] = None,
        watch: Optional[Callable[[Any], Callable[[ScenarioResult], None]]] = None,
    ) -> ScenarioResult:
        """Run one steady-state scenario point and return its result.

        ``watch(system)`` runs before the measurement: it may subscribe
        listeners (capturing parts, never ``system``) and returns
        ``read(result)``, which runs after it and adds its read-outs to
        ``result.params``; it records no script.

        ``verify(system, result)`` inspects the finished system (did the
        fault take effect, did it heal) and may add read-outs to
        ``result.params``.  It reports a violated invariant by raising
        ``AssertionError``, which is recorded under ``params["script"]``
        (``failed_stage`` / ``error`` beside the ``stages`` that completed)
        instead of raised: a violated invariant is a datum the sweep should
        keep, not an exception that discards the point.  Errors while
        building or measuring propagate.
        """
        with build_system(spec.config) as system:
            read = watch(system) if watch is not None else None
            result = self._measure_steady(system, spec)
            if read is not None:
                read(result)
            if verify is not None:
                trace: Dict[str, Any] = {"stages": ["build", "measure"]}
                try:
                    verify(system, result)
                except AssertionError as exc:
                    trace.update(failed_stage="verify", error=str(exc))
                else:
                    trace["stages"].append("verify")
                result.params["script"] = trace
        return result

    def run_steady_on(self, system, spec: SteadyStateSpec) -> ScenarioResult:
        """Run one steady-state point on a system the caller built
        (``build_system(spec.config)``) and still owns: the caller inspects
        it afterwards, and dropping it (or closing it) frees it."""
        return self._measure_steady(system, spec)

    def _measure_steady(self, system, spec: SteadyStateSpec) -> ScenarioResult:
        """The shared steady-state measurement loop on a prepared system.

        The listeners and callbacks it registers capture the kernel, never
        ``system``: no part of a system refers back to it, so the caller's
        last reference decides when it is freed.
        """
        spec.faults.apply_pre(system)

        recorder = LatencyRecorder()
        recorder.attach(system)

        senders = (
            list(spec.senders) if spec.senders is not None else system.correct_processes()
        )
        workload = PoissonWorkload(
            system,
            spec.throughput,
            senders=senders,
            reassign_crashed=spec.reassign_crashed_senders,
        )

        warmup = warmup_count(spec.num_messages)
        total = warmup + spec.num_messages
        measured_ids: Set[BroadcastID] = set()
        outstanding = {"count": spec.num_messages, "all_sent": False}
        stop = system.sim.stop

        def on_sent(index: int, broadcast_id: BroadcastID, _time: float) -> None:
            if index >= warmup:
                measured_ids.add(broadcast_id)
                if recorder.is_delivered(broadcast_id):
                    outstanding["count"] -= 1
            if index == total - 1:
                outstanding["all_sent"] = True
            _maybe_stop()

        def on_delivery(_pid: int, broadcast_id: BroadcastID, _payload) -> None:
            if broadcast_id in measured_ids and recorder.delivery_count(broadcast_id) == 1:
                outstanding["count"] -= 1
                _maybe_stop()

        def _maybe_stop() -> None:
            if outstanding["all_sent"] and outstanding["count"] <= 0:
                stop()

        workload.add_sent_callback(on_sent)
        system.add_delivery_listener(on_delivery)

        last_arrival = workload.schedule_messages(total, start_time=0.0)
        spec.faults.schedule(system)

        system.run(
            until=arrival_horizon(last_arrival, spec.throughput), max_events=DEFAULT_MAX_EVENTS
        )

        return finish_run(
            system,
            spec.scenario,
            spec.throughput,
            spec.num_messages,
            list(recorder.latencies(measured_ids).values()),
            dict(spec.params),
        )

    def run_probe(self, spec: ProbeSpec) -> Optional[float]:
        """Run one probe execution; return the tagged latency (or ``None``)."""
        with build_system(spec.config) as system:
            if spec.obs is not None:
                system.enable_instrumentation(spec.obs)
            spec.faults.apply_pre(system)
            recorder = LatencyRecorder()
            recorder.attach(system)

            # Background traffic before and after the fault, from every process
            # (a crashed sender's post-crash messages are dropped by the network,
            # which matches "crashed processes do not send any further messages").
            workload = PoissonWorkload(
                system, spec.throughput, senders=list(range(spec.config.n))
            )
            horizon = spec.probe_time + PROBE_MAX_WAIT
            background_count = int(spec.throughput * horizon / 1000.0) + 1
            workload.schedule_messages(background_count, start_time=0.0)

            tagged: Dict[str, Any] = {}
            stop = system.sim.stop
            probe_abcast = system.abcast(spec.probe_sender)

            def on_delivery(_pid, broadcast_id, _payload) -> None:
                if tagged.get("id") == broadcast_id:
                    stop()

            def emit_probe() -> None:
                tagged["id"] = probe_abcast.broadcast(PROBE_PAYLOAD)

            system.add_delivery_listener(on_delivery)
            # The fault events are scheduled first so that, at the probe instant,
            # the fault fires before the probe is A-broadcast -- the paper's
            # "p crashes and q A-broadcasts m at the same time t".
            spec.faults.schedule(system)
            system.sim.post_at(spec.probe_time, emit_probe)
            system.run(until=horizon, max_events=DEFAULT_MAX_EVENTS)

        tagged_id = tagged.get("id")
        if tagged_id is None:
            return None
        return recorder.latency(tagged_id)
