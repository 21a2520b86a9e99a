"""Exporters: ``metrics.json`` snapshots, JSONL event traces, Chrome traces.

Three views of one instrumented run:

* :func:`metrics_snapshot` -- every counter, gauge and summarised histogram,
  stamped with provenance (config hash, stack, fd kind, seed, package
  version, git revision) that identifies the run months later;
* :func:`write_event_trace` -- the structured event records as JSON Lines;
* :func:`chrome_trace` -- message lifecycles, suspicion intervals, view
  installations and reformations for ``chrome://tracing`` / Perfetto.

The module also keeps the *process-wide trace sink* campaign execution
uses: :func:`repro.campaigns.records.execute_point` arms it with
:func:`set_trace_dir` for the duration of one traced point (in whichever
process runs the point; an untraced point never loads this module) and the
scenario runner calls :func:`maybe_write_traces` after every measured run,
so per-point trace files land beside the campaign's result records.  The
work queue loads the module only for :func:`git_revision`, so it names
:class:`~repro.obs.instrumentation.Instrumentation` in annotations only.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro import __version__

if TYPE_CHECKING:
    from repro.obs.instrumentation import Instrumentation

#: Bump when the shape of the metrics snapshot changes.
METRICS_SCHEMA = 1

_git_rev_cache: List[Optional[str]] = []

# Process-wide trace sink (armed for one campaign point via set_trace_dir).
_trace_dir: Optional[str] = None
_trace_prefix: str = ""


def git_revision() -> Optional[str]:
    """Best-effort git revision of this package's checkout (None outside a repo), read once."""
    if not _git_rev_cache:
        _git_rev_cache.append(_rev_parse(os.path.dirname(os.path.abspath(__file__))))
    return _git_rev_cache[0]


def _rev_parse(directory: str) -> Optional[str]:
    """``git rev-parse --short HEAD`` run in ``directory`` (None when it fails)."""
    # Imported here: only an instrumented run stamps a revision, once per process.
    import subprocess

    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=directory,
                capture_output=True,
                timeout=5,
                check=True,
            )
            .stdout.decode("ascii", "replace")
            .strip()
            or None
        )
    except Exception:
        return None


def config_fingerprint(config) -> str:
    """Stable short hash of a ``SystemConfig``: of its canonical form, the one
    a campaign point key hashes too (two spellings of a system, one hash)."""
    import hashlib

    # Deferred: the campaign package imports this module.
    from repro.campaigns.canonical import canonical_system

    payload = json.dumps(canonical_system(config), sort_keys=True)
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


def _event(ph: str, cat: str, name: str, ts: float, pid: int, tid: int, **extra: Any) -> Dict:
    """One Chrome trace event."""
    return {"ph": ph, "cat": cat, "name": name, "ts": ts, "pid": pid, "tid": tid, **extra}


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
        if kind in ("broadcast", "sequenced", "adeliver"):
            bid = tuple(record["bid"])
            name = f"m({bid[0]}.{bid[1]})"
            pids.add(record["pid"])
            if kind == "broadcast":
                events.append(_event("b", "abcast", name, time, record["pid"], 0, id=name))
            elif kind == "sequenced":
                events.append(_event("n", "abcast", "sequenced", time, record["pid"], 0, id=name))
            else:
                if bid not in delivered:
                    delivered.add(bid)
                    events.append(_event("e", "abcast", name, time, record["pid"], 0, id=name))
                events.append(
                    _event("i", "abcast", f"A-deliver {name}", time, record["pid"], 0, s="t")
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
            events.append(_event(phase, "fd", span, time, monitor, 1, id=span))
        elif kind in ("view_installed", "reformation_proposed", "view_change"):
            pids.add(record["pid"])
            if kind == "view_installed":
                era = f"@e{record['epoch']}" if record["epoch"] else ""
                name = f"install view#{record['view_id']}{era}"
                extra = {"s": "p", "args": {"members": record["members"]}}
            elif kind == "reformation_proposed":
                name, extra = f"propose reformation e{record['epoch']}", {"s": "p"}
            else:
                name, extra = f"view change {tuple(record['vid'])}", {"s": "t"}
            events.append(_event("i", "gm", name, time, record["pid"], 2, **extra))
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
