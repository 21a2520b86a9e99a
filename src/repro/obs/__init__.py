"""Unified instrumentation layer: per-layer metrics, traces and profiling.

The subsystem has two halves:

* :mod:`repro.obs.instrumentation` -- the :class:`Instrumentation` object a
  :class:`repro.system.BroadcastSystem` owns when tracing is on and its
  named hook points (message send/receive, the A-broadcast lifecycle,
  failure detector suspicions, consensus rounds, view changes, simulator
  event-loop stats).  It is the one recorder of a run: its ``events`` list
  holds the timestamped records, and :meth:`Instrumentation.subscribe`
  attaches any further observer to a hook.  Off is ``None``: every layer
  holds ``None`` until the system enables instrumentation, and every hook
  site tests for it;
* :mod:`repro.obs.export` -- the per-run ``metrics.json`` snapshot (with
  provenance), the structured JSONL event trace and the Chrome-trace span
  export of the message lifecycle.

Enable it per system (``SystemConfig(instrument=True)`` or
``system.enable_instrumentation()``), per campaign
(``CampaignRunner(instrument=True)``) or from the CLIs
(``--trace`` / ``--metrics-out``).
"""

from repro.obs.instrumentation import HOOKS, Instrumentation
from repro.obs.export import (
    chrome_trace,
    metrics_snapshot,
    metrics_snapshot_from_obs,
    set_trace_dir,
    write_chrome_trace,
    write_event_trace,
    write_metrics,
)

__all__ = [
    "HOOKS",
    "Instrumentation",
    "chrome_trace",
    "metrics_snapshot",
    "metrics_snapshot_from_obs",
    "set_trace_dir",
    "write_chrome_trace",
    "write_event_trace",
    "write_metrics",
]
