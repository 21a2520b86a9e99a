"""JSON-serialisable records of scenario results, and the executor that makes them.

The runner always normalises results through these records -- whether a point
was simulated in-process, in a worker process or read back from the JSONL
cache -- so every execution mode hands the aggregation layer exactly the same
bytes.  Floats round-trip losslessly through ``json`` (shortest-repr), which
is what makes warm-cache reruns bit-identical to cold runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.campaigns.spec import PointSpec
from repro.scenarios.registry import get_kind
from repro.scenarios.results import ScenarioResult, TransientResult


def execute_point(point: PointSpec, trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Simulate one point and return its serialised record.

    The one executor under every execution mode: the runner's own process,
    a pool worker and a queue worker all call it.  ``trace_dir`` arms the
    process-wide trace sink (:func:`repro.obs.export.set_trace_dir`) for this
    point only, prefixed by the point's cache key to stay collision-free,
    and disarms it however the point ends.  Only a traced point loads the
    exporters.
    """
    if trace_dir is not None:
        from repro.obs.export import set_trace_dir

        set_trace_dir(trace_dir, prefix=point.key()[:12])
    try:
        result = get_kind(point.kind).run(point.config(), point, point.params)
    finally:
        if trace_dir is not None:
            set_trace_dir(None)
    return result_to_record(result)


def result_to_record(result: Any) -> Dict[str, Any]:
    """Serialise a ``ScenarioResult`` or ``TransientResult`` to a JSON dict."""
    if isinstance(result, ScenarioResult):
        record = {
            "type": "scenario",
            "scenario": result.scenario,
            "algorithm": result.algorithm,
            "n": result.n,
            "throughput": result.throughput,
            "latencies": list(result.latencies),
            "undelivered": result.undelivered,
            "measured": result.measured,
            "duration": result.duration,
            "events": result.events,
            "params": _jsonable_params(result.params),
        }
    elif isinstance(result, TransientResult):
        record = {
            "type": "transient",
            "algorithm": result.algorithm,
            "n": result.n,
            "throughput": result.throughput,
            "detection_time": result.detection_time,
            "crashed_process": result.crashed_process,
            "sender": result.sender,
            "latencies": list(result.latencies),
            "failed_runs": result.failed_runs,
            "params": _jsonable_params(result.params),
        }
    else:
        raise TypeError(f"cannot serialise {type(result).__name__} as a campaign record")
    # Uninstrumented runs carry no "metrics" key at all, so records (and the
    # JSONL cache lines) of the common case are byte-identical to pre-v5 ones.
    if result.metrics is not None:
        record["metrics"] = result.metrics
    return record


def record_to_result(record: Dict[str, Any]):
    """Rebuild the result object a record was serialised from."""
    data = dict(record)
    record_type = data.pop("type", None)
    if record_type == "scenario":
        return ScenarioResult(**data)
    if record_type == "transient":
        return TransientResult(**data)
    raise ValueError(f"unknown campaign record type {record_type!r}")


def _jsonable_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a params dict, turning tuples into lists so JSON round-trips."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in params.items()
    }
