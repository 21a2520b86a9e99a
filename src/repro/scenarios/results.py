"""Result containers of the benchmark scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.metrics.stats import Summary, summarize


@dataclass
class ScenarioResult:
    """Result of one steady-state scenario run (one plotted point).

    ``latencies`` holds the latency of every *measured* message that was
    delivered; ``undelivered`` counts measured messages that were never
    delivered anywhere before the simulation gave up.  A large undelivered
    count means the algorithm "does not work" at this operating point, which
    is how the missing points of Figs. 6-7 of the paper should be read.
    """

    scenario: str
    algorithm: str
    n: int
    throughput: float
    latencies: List[float] = field(default_factory=list)
    undelivered: int = 0
    measured: int = 0
    duration: float = 0.0
    events: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    #: ``metrics.json`` snapshot of the run (instrumented runs only).
    metrics: Optional[Dict[str, Any]] = None
    #: :func:`repro.metrics.observed_digest` of the finished run.  ``None`` on
    #: a result rebuilt from a campaign record (records do not carry it) and
    #: on a merge of several replicas.
    observed_digest: Optional[str] = None

    def summary(self) -> Summary:
        """Mean latency and confidence interval of the measured messages."""
        return summarize(self.latencies)

    @property
    def mean_latency(self) -> float:
        """Mean latency (NaN when nothing was delivered)."""
        return self.summary().mean

    @property
    def delivery_ratio(self) -> float:
        """Fraction of measured messages that were delivered."""
        if self.measured == 0:
            return 0.0
        return len(self.latencies) / self.measured

    @property
    def completed(self) -> bool:
        """Whether the operating point is usable (>= 95 % delivered)."""
        return self.measured > 0 and self.delivery_ratio >= 0.95

    def describe(self) -> str:
        """One-line human-readable description of the point."""
        summary = self.summary()
        status = "" if self.completed else "  [DID NOT COMPLETE]"
        return (
            f"{self.scenario:<18} {self.algorithm:<14} n={self.n} "
            f"T={self.throughput:g}/s  latency={summary}{status}"
        )


@dataclass
class TransientResult:
    """Result of the crash-transient scenario (aggregated over many runs)."""

    algorithm: str
    n: int
    throughput: float
    detection_time: float
    crashed_process: int
    sender: int
    latencies: List[float] = field(default_factory=list)
    failed_runs: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    #: Aggregated metrics snapshot over all runs (instrumented points only).
    metrics: Optional[Dict[str, Any]] = None

    def latency_summary(self) -> Summary:
        """Summary of the latency of the tagged message across runs."""
        return summarize(self.latencies)

    def overhead_summary(self) -> Summary:
        """Summary of the latency *overhead* (latency minus detection time)."""
        return summarize([latency - self.detection_time for latency in self.latencies])

    @property
    def runs(self) -> int:
        """Number of successful runs aggregated in this result."""
        return len(self.latencies)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"crash-transient     {self.algorithm:<14} n={self.n} "
            f"T={self.throughput:g}/s TD={self.detection_time:g}ms  "
            f"overhead={self.overhead_summary()}"
        )
