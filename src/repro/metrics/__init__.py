"""Performance metrics: latency recording, summary statistics, the run digest."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.metrics.latency": ("LatencyRecorder", "observed_digest"),
        "repro.metrics.stats": ("Summary", "summarize"),
    },
)
