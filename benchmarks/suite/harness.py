"""One timing core for every workload.

Warm-up, timed passes with ``gc.collect()`` between them, median / min / max /
MAD, fresh-subprocess ``setup_s``, ``ru_maxrss``, a provenance stamp in every
result file, and one row schema::

    {workload, layer, metric, unit, better, samples, median, mad, min, max}

Host timings are reported as the median over the timed passes.  Five or fewer
samples support no higher percentile, so none is reported; simulated
latencies have thousands of samples and report p99 where a metric asks for it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import paths
import spec
from checks import check_total_order, require
from tracing import Tracer

#: Fresh-interpreter starts behind ``setup_s`` (the median is reported).
SETUP_SAMPLES = 3
#: Samples of each isolated layer driver.
ISO_SAMPLES = 3


# ------------------------------------------------------------------ one pass


@dataclass
class PassResult:
    """What one pass of a workload hands back to the harness."""

    #: Host seconds of the pass, correctness checks excluded.
    wall_s: float
    #: Simulated events the pass counted, and the host seconds of the runs
    #: they came from (``events_per_s``).
    events: int
    event_wall_s: float
    #: Operations of the rate metric and their host seconds (``ops_per_s``).
    ops: int
    ops_wall_s: float
    attempted: int
    failed: int
    #: Metrics that are deterministic for a seed (``sim_*``, pass shares).
    exact: Dict[str, float]
    #: Hash of every run's event count and latency vector.
    sim_digest: str
    #: Further host-timed end-to-end metrics of this workload.
    host: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics that are host timings of the workload's own phases.
    #: A traced run reads them from its untraced pass: tracing inflates them.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Summed instrumentation counters (traced pass only).
    counts: Dict[str, float] = field(default_factory=dict)


class PassContext:
    """Accumulates what the runs of one pass produce."""

    def __init__(self, tracer: Tracer, instrument: bool) -> None:
        self.tracer = tracer
        self.instrument = instrument
        self.events = 0
        self.event_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self._digest = hashlib.sha256()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: stack name -> [messages sent, A-broadcasts]
        self.by_stack: Dict[str, List[float]] = {}
        self._batch = [0.0, 0.0]  # payloads, batches
        self.cpu_busy_share = 0.0

    @contextlib.contextmanager
    def checking(self) -> Iterator[None]:
        """Run correctness checks off the pass's clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - started

    def fold(self, label: str, events: int, latencies: Iterable[float]) -> None:
        """Add one run to the pass's ``sim_digest``."""
        self._digest.update(repr((label, int(events), list(latencies))).encode("ascii"))

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def fold_metrics(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Sum the counters of one instrumented run's ``metrics`` snapshot."""
        if not snapshot:
            return
        counters = snapshot.get("counters", {})
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            if value > self.gauges.get(name, 0):
                self.gauges[name] = value
        stack = snapshot.get("provenance", {}).get("stack")
        if stack:
            cell = self.by_stack.setdefault(stack, [0, 0])
            cell[0] += counters.get("messages.sent", 0)
            cell[1] += counters.get("abcast.broadcasts", 0)
        batches = snapshot.get("histograms", {}).get("service.batch_size")
        if batches and batches.get("count"):
            self._batch[0] += batches["mean"] * batches["count"]
            self._batch[1] += batches["count"]

    def finish_system(self, system, label: str) -> None:
        """Check a finished system the suite built (off the clock)."""
        with self.checking():
            check_total_order(system.delivery_sequences(), label)
            if self.instrument and system.sim.now > 0:
                busiest = max(
                    system.network.cpu(pid).utilization(system.sim.now)
                    for pid in range(system.config.n)
                )
                self.cpu_busy_share = max(self.cpu_busy_share, busiest)

    def count_rows(self) -> Dict[str, float]:
        """The [count] per-layer metrics, from the summed counters."""
        c = self.counters
        events = c.get("sim.events", 0)
        fd_events = sum(
            value for name, value in c.items()
            if name.startswith("sim.events.") and _is_fd_category(name[len("sim.events."):])
        )
        decisions = c.get("consensus.decisions", 0)

        def per_abcast(stack: str) -> float:
            sent, broadcasts = self.by_stack.get(stack, (0, 0))
            return sent / broadcasts if broadcasts else 0.0

        return {
            "sim.engine.events": events,
            "sim.engine.queue_depth_hwm": self.gauges.get("sim.queue_depth_hwm", 0),
            "sim.network.messages_sent": c.get("messages.sent", 0),
            "sim.network.messages_delivered": c.get("messages.delivered", 0),
            "sim.network.cpu_busy_share": self.cpu_busy_share,
            "failure_detectors.event_share": fd_events / events if events else 0.0,
            "failure_detectors.suspicions": c.get("fd.suspicions", 0),
            "core.reliable_broadcast.messages_sent": c.get("messages.sent.rbcast", 0),
            "core.consensus.rounds": c.get("consensus.rounds", 0),
            "core.consensus.decisions": decisions,
            "core.consensus.rounds_per_decision": (
                c.get("consensus.rounds", 0) / decisions if decisions else 0.0
            ),
            "core.group_membership.views_installed": c.get("gm.views_installed", 0),
            "core.fd_broadcast.msgs_per_abcast": per_abcast("fd"),
            "core.sequencer_broadcast.msgs_per_abcast": per_abcast("gm"),
            "load.service.shed": c.get("service.requests.shed", 0),
            "load.service.queued": c.get("service.requests.queued", 0),
            "load.service.queue_depth_hwm": self.gauges.get("service.queue_depth_hwm", 0),
            "load.batching.requests_per_batch": (
                self._batch[0] / self._batch[1] if self._batch[1] else 0.0
            ),
        }


@functools.lru_cache(maxsize=None)
def _fd_classes() -> frozenset:
    """Names of the classes the failure detector modules define."""
    import inspect

    from repro.failure_detectors import fabric, heartbeat, interface, perfect, qos

    return frozenset(
        name
        for module in (fabric, heartbeat, interface, perfect, qos)
        for name, value in vars(module).items()
        if inspect.isclass(value) and value.__module__ == module.__name__
    )


def _is_fd_category(category: str) -> bool:
    """Whether an event-loop category (``Class.method``) is failure detector work."""
    return category.split(".", 1)[0] in _fd_classes()


# ------------------------------------------------------------------ statistics


def robust(samples: Sequence[float]) -> Dict[str, float]:
    """Median, MAD, min, max and count of ``samples``."""
    median = statistics.median(samples)
    return {
        "samples": len(samples),
        "median": median,
        "mad": statistics.median(abs(value - median) for value in samples),
        "min": min(samples),
        "max": max(samples),
    }


def make_row(workload: str, metric: spec.Metric, samples: Sequence[float]) -> Dict[str, Any]:
    return {
        "workload": workload,
        "layer": metric.layer,
        "metric": metric.name,
        "unit": metric.unit,
        "better": metric.better,
        **robust(samples),
    }


def print_rows(rows: Sequence[Dict[str, Any]]) -> None:
    """``workload metric value unit`` per row, spread beside it."""
    for row in rows:
        line = f"{row['workload']} {row['metric']} {row['median']:.6g} {row['unit']}"
        if row["samples"] > 1:
            line += (
                f"   (median of {row['samples']}: min {row['min']:.6g}, "
                f"max {row['max']:.6g}, MAD {row['mad']:.3g})"
            )
        print(line)


# ------------------------------------------------------------------ timing


def timed_passes(
    run_pass: Callable[[], PassResult], seconds: float, warmup: bool
) -> List[PassResult]:
    """The closed loop of passes: one after another until ``seconds`` is used.

    A further pass starts only while that brings the measured time closer to
    ``seconds`` than stopping would, so a pass about as long as the whole
    budget runs once.  The warm-up pass is returned first when asked for (its
    ``sim_digest`` takes part in the determinism check) and is not timed.
    """
    results: List[PassResult] = []
    if warmup:
        results.append(run_pass())
    used = 0.0
    while True:
        gc.collect()
        started = time.perf_counter()
        results.append(run_pass())
        last = time.perf_counter() - started
        used += last
        if used + last / 2 >= seconds:
            return results


def setup_command(imports: Sequence[str], seed: int) -> List[str]:
    """A fresh interpreter that imports what a workload needs and builds a system."""
    lines = [f"import sys; sys.path.insert(0, {paths.SRC_DIR!r})"]
    lines += [f"import {module}" for module in imports]
    lines.append("from repro.system import SystemConfig, build_system")
    lines.append(f"build_system(SystemConfig(n=3, seed={int(seed)})).start()")
    return [sys.executable, "-c", "\n".join(lines)]


def measure_subprocess(command: Sequence[str], samples: int) -> List[float]:
    """Wall-clock of ``samples`` runs of ``command``, start to exit."""
    values = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=paths.REPO_ROOT, stdout=subprocess.DEVNULL)
        values.append(time.perf_counter() - started)
    return values


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process (Linux: KiB), plus its largest child's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# ------------------------------------------------------------------ result files


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def provenance(seed: int, mode: str, sizes: Dict[str, Any], sim_digest: str) -> Dict[str, Any]:
    from repro.obs.export import git_revision

    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "seed": seed,
        "mode": mode,
        "sizes": sizes,
        "sim_digest": sim_digest,
    }


def write_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def result_line(attempted: int, failed: int, rows: Sequence[Dict[str, Any]]) -> str:
    """The benchmark contract's last line of standard output.

    A failed correctness check never gets here: it ends the run non-zero.
    """
    return json.dumps(
        {
            "correct": True,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                row["metric"]: {"value": row["median"], "unit": row["unit"]} for row in rows
            },
        }
    )


def same_digest(results: Sequence[PassResult]) -> str:
    """The passes' common ``sim_digest``; every pass ran the same seed."""
    digests = {result.sim_digest for result in results}
    require(
        len(digests) == 1,
        f"the same seed gave different sim_digest values in one invocation: {sorted(digests)}",
    )
    exact = {json.dumps(result.exact, sort_keys=True) for result in results}
    require(len(exact) == 1, "the same seed gave different simulated metrics in one invocation")
    return results[0].sim_digest
