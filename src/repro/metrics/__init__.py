"""Performance metrics: latency recording, summary statistics, the run digest."""

from repro.metrics.latency import LatencyRecorder, observed_digest
from repro.metrics.stats import Summary, summarize

__all__ = ["LatencyRecorder", "Summary", "observed_digest", "summarize"]
