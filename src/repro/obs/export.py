"""Exporters: ``metrics.json`` snapshots, JSONL event traces, Chrome traces.

Three views of one instrumented run:

* :func:`metrics_snapshot` -- a JSON-ready dict of every counter, gauge and
  summarised histogram, stamped with provenance (config hash, stack, fd
  kind, seed, package version, best-effort git revision) so a snapshot read
  months later still identifies the run that produced it;
* :func:`write_event_trace` -- the structured event records as JSON Lines,
  one hook invocation per line, for ad-hoc ``jq``-style analysis;
* :func:`chrome_trace` -- the message lifecycle (A-broadcast ->
  sequenced -> A-deliveries), failure detector suspicion intervals, view
  installations and reformations as a Chrome trace event file, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev for visual debugging of
  scenarios like ``view-majority-loss``.

The module also keeps the *process-wide trace sink* campaign execution
uses: :func:`set_trace_dir` arms it for the duration of one point (in
whichever process runs the point) and the scenario runner calls
:func:`maybe_write_traces` after every measured run, so per-point trace
files land beside the campaign's result records.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.obs.instrumentation import Instrumentation

#: Bump when the shape of the metrics snapshot changes.
METRICS_SCHEMA = 1

_git_rev_cache: List[Optional[str]] = []

# Process-wide trace sink (armed for one campaign point via set_trace_dir).
_trace_dir: Optional[str] = None
_trace_prefix: str = ""


def git_revision() -> Optional[str]:
    """Best-effort git revision of the working tree (None outside a repo)."""
    if not _git_rev_cache:
        rev: Optional[str] = None
        try:
            rev = (
                subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"],
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                    capture_output=True,
                    timeout=5,
                    check=True,
                )
                .stdout.decode("ascii", "replace")
                .strip()
                or None
            )
        except Exception:
            rev = None
        _git_rev_cache.append(rev)
    return _git_rev_cache[0]


def config_fingerprint(config) -> str:
    """Stable short hash of a ``SystemConfig`` (covers every field)."""
    import hashlib

    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def summarize_histogram(values: List[float]) -> Dict[str, Any]:
    """Compact summary of one histogram: count, extrema, mean, p50/p95."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    count = len(ordered)

    def percentile(q: float) -> float:
        return ordered[min(count - 1, int(q * count))]

    return {
        "count": count,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / count,
        "p50": percentile(0.50),
        "p95": percentile(0.95),
    }


def metrics_snapshot_from_obs(obs: Instrumentation, config, **extra: Any) -> Dict[str, Any]:
    """Snapshot a bare :class:`Instrumentation` with provenance from ``config``.

    The building block behind :func:`metrics_snapshot`; also used directly
    when one instrumentation object aggregates several systems (the
    crash-transient driver shares one across its independent runs), in
    which case there is no single ``sim`` section to report.
    """
    provenance: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "config_hash": config_fingerprint(config),
        "stack": config.stack,
        "fd_kind": config.fd_kind,
        "stack_label": config.stack_label,
        "n": config.n,
        "seed": config.seed,
        "repro_version": __version__,
        "git_rev": git_revision(),
    }
    provenance.update(extra)
    return {
        "provenance": provenance,
        "counters": dict(sorted(obs.counters.items())),
        "gauges": dict(sorted(obs.gauges.items())),
        "histograms": {
            name: summarize_histogram(values)
            for name, values in sorted(obs.histograms.items())
        },
    }


def metrics_snapshot(system, **extra: Any) -> Dict[str, Any]:
    """The per-run ``metrics.json`` payload of an instrumented system.

    ``extra`` keys (e.g. ``scenario=...``, ``throughput=...``) are folded
    into the provenance block.  Raises if the system is not instrumented --
    an empty snapshot would silently read as "nothing happened".
    """
    obs = system.obs
    if obs is None:
        raise ValueError(
            "system is not instrumented; build it with instrument=True or "
            "call enable_instrumentation() before snapshotting"
        )
    snapshot = metrics_snapshot_from_obs(obs, system.config, **extra)
    snapshot["sim"] = {
        "now": system.sim.now,
        "events_processed": system.sim.events_processed,
        "run_exhausted": system.sim.run_exhausted,
    }
    return snapshot


def write_metrics(path: str, system, **extra: Any) -> Dict[str, Any]:
    """Write :func:`metrics_snapshot` to ``path``; returns the snapshot."""
    snapshot = metrics_snapshot(system, **extra)
    _write_json(path, snapshot)
    return snapshot


def write_event_trace(path: str, obs: Instrumentation) -> int:
    """Write the structured event records as JSON Lines; returns the count."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        for event in obs.events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return len(obs.events)


# ------------------------------------------------------------------ Chrome trace


def _us(time_ms: float) -> float:
    """Simulation time (ms by convention) to Chrome trace microseconds."""
    return time_ms * 1000.0


def chrome_trace(obs: Instrumentation) -> Dict[str, Any]:
    """The run as a Chrome trace event object (``chrome://tracing`` format).

    Message lifecycles become async spans (``b``/``n``/``e``) named after
    the broadcast id: the span opens at the A-broadcast, carries a
    ``sequenced`` instant when the message gets its place in the total
    order, and closes at the *first* A-delivery (the latency the paper
    plots); later per-process deliveries appear as thread instants.
    Suspicion intervals are async spans on the monitor's row, and view
    installations / reformation proposals are instant markers.
    """
    events: List[Dict[str, Any]] = []
    pids = set()
    delivered = set()
    suspicion_open = set()
    for record in obs.events:
        kind = record["ev"]
        time = _us(record["t"])
        if kind == "broadcast":
            bid = tuple(record["bid"])
            name = f"m({bid[0]}.{bid[1]})"
            pids.add(record["pid"])
            events.append(
                {
                    "ph": "b",
                    "cat": "abcast",
                    "id": name,
                    "name": name,
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 0,
                }
            )
        elif kind == "sequenced":
            bid = tuple(record["bid"])
            name = f"m({bid[0]}.{bid[1]})"
            pids.add(record["pid"])
            events.append(
                {
                    "ph": "n",
                    "cat": "abcast",
                    "id": name,
                    "name": "sequenced",
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 0,
                }
            )
        elif kind == "adeliver":
            bid = tuple(record["bid"])
            name = f"m({bid[0]}.{bid[1]})"
            pids.add(record["pid"])
            if bid not in delivered:
                delivered.add(bid)
                events.append(
                    {
                        "ph": "e",
                        "cat": "abcast",
                        "id": name,
                        "name": name,
                        "ts": time,
                        "pid": record["pid"],
                        "tid": 0,
                    }
                )
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": "abcast",
                    "name": f"A-deliver {name}",
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 0,
                }
            )
        elif kind == "suspicion":
            monitor, target = record["monitor"], record["target"]
            pids.add(monitor)
            span = f"suspect p{target} @p{monitor}"
            if record["suspected"]:
                if (monitor, target) in suspicion_open:
                    continue
                suspicion_open.add((monitor, target))
                phase = "b"
            else:
                if (monitor, target) not in suspicion_open:
                    continue
                suspicion_open.discard((monitor, target))
                phase = "e"
            events.append(
                {
                    "ph": phase,
                    "cat": "fd",
                    "id": span,
                    "name": span,
                    "ts": time,
                    "pid": monitor,
                    "tid": 1,
                }
            )
        elif kind == "view_installed":
            pids.add(record["pid"])
            era = f"@e{record['epoch']}" if record["epoch"] else ""
            events.append(
                {
                    "ph": "i",
                    "s": "p",
                    "cat": "gm",
                    "name": f"install view#{record['view_id']}{era}",
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 2,
                    "args": {"members": record["members"]},
                }
            )
        elif kind == "reformation_proposed":
            pids.add(record["pid"])
            events.append(
                {
                    "ph": "i",
                    "s": "p",
                    "cat": "gm",
                    "name": f"propose reformation e{record['epoch']}",
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 2,
                }
            )
        elif kind == "view_change":
            pids.add(record["pid"])
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": "gm",
                    "name": f"view change {tuple(record['vid'])}",
                    "ts": time,
                    "pid": record["pid"],
                    "tid": 2,
                }
            )
    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"p{pid}"},
        }
        for pid in sorted(pids)
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, obs: Instrumentation) -> int:
    """Write :func:`chrome_trace` to ``path``; returns the event count."""
    trace = chrome_trace(obs)
    _write_json(path, trace)
    return len(trace["traceEvents"])


# ------------------------------------------------------------------ trace sink


def set_trace_dir(path: Optional[str], prefix: str = "") -> None:
    """Arm (or, with ``None``, disarm) the process-wide per-run trace sink.

    :func:`repro.campaigns.records.execute_point` arms it for exactly one
    point (with the point's cache-key prefix, so trace files written by
    different points never collide) and disarms it when the point ends.
    """
    global _trace_dir, _trace_prefix
    _trace_dir = path
    _trace_prefix = prefix


def maybe_write_traces(system, label: str) -> List[str]:
    """Write the JSONL + Chrome traces of ``system`` if the sink is armed.

    Returns the written paths (empty when the sink is disarmed or the
    system carries no instrumentation).  ``label`` should identify the run
    (scenario, stack, operating point); it is sanitised for the filesystem.
    """
    if _trace_dir is None or system.obs is None:
        return []
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in label)
    if _trace_prefix:
        safe = f"{_trace_prefix}-{safe}"
    os.makedirs(_trace_dir, exist_ok=True)
    jsonl = os.path.join(_trace_dir, safe + ".trace.jsonl")
    chrome = os.path.join(_trace_dir, safe + ".chrome.json")
    write_event_trace(jsonl, system.obs)
    write_chrome_trace(chrome, system.obs)
    return [jsonl, chrome]


def export_metrics_records(records: Dict[str, Dict[str, Any]], out_dir: str) -> int:
    """Write the metrics snapshot of every record that carries one.

    ``records`` is a campaign run's ``{cache_key: record}`` mapping; each
    snapshot lands in ``out_dir/<key>.metrics.json`` (cache hits included,
    which is what makes ``--metrics-out`` work on fully warm caches).
    Returns how many files were written.
    """
    written = 0
    for key, record in sorted(records.items()):
        metrics = record.get("metrics")
        if not metrics:
            continue
        _write_json(os.path.join(out_dir, f"{key}.metrics.json"), dict(metrics, key=key))
        written += 1
    return written


# ------------------------------------------------------------------ helpers


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
