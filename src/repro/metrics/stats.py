"""Summary statistics with confidence intervals.

The paper reports the mean latency with its 95 % confidence interval for
every plotted point; :func:`summarize` computes the same quantities.  The
Student-t quantile is computed here, exactly and from the standard library
alone, so importing the package pulls in no numerical dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List

#: Level of the confidence interval of every :func:`summarize` (the paper's).
CONFIDENCE = 0.95


@dataclass(frozen=True)
class Summary:
    """Mean, spread and confidence interval of a sample.

    ``ci_halfwidth`` is the half-width of the two-sided confidence interval
    at level ``confidence``; the interval is ``mean +/- ci_halfwidth``.
    """

    count: int
    mean: float
    std: float
    ci_halfwidth: float
    minimum: float
    maximum: float
    confidence: float = CONFIDENCE

    def __str__(self) -> str:
        if self.count == 0:
            return "no samples"
        return f"{self.mean:.2f} +/- {self.ci_halfwidth:.2f} (n={self.count})"


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 100_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return result


def _beta_inc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``; ``y`` is ``1 - x``, passed exactly."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


@lru_cache(maxsize=1024)
def _t_quantile(confidence: float, dof: int) -> float:
    """``t`` with ``P(|T| <= t) = confidence`` for Student's t with ``dof`` degrees."""
    if dof <= 0:
        return float("nan")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")

    def two_sided(t: float) -> float:
        # P(|T| <= t) = I_{t^2 / (dof + t^2)}(1/2, dof/2)
        total = dof + t * t
        return _beta_inc(0.5, dof / 2.0, t * t / total, dof / total)

    low, high = 0.0, 1.0
    while two_sided(high) < confidence:
        low, high = high, 2.0 * high
    while True:
        middle = 0.5 * (low + high)
        if middle <= low or middle >= high:
            return high
        if two_sided(middle) < confidence:
            low = middle
        else:
            high = middle


def summarize(values: Iterable[float]) -> Summary:
    """Compute the mean and its :data:`CONFIDENCE` interval for ``values``."""
    data: List[float] = [float(v) for v in values]
    count = len(data)
    if count == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, CONFIDENCE)
    mean = sum(data) / count
    if count == 1:
        return Summary(1, mean, 0.0, float("inf"), mean, mean, CONFIDENCE)
    variance = sum((v - mean) ** 2 for v in data) / (count - 1)
    std = math.sqrt(variance)
    halfwidth = _t_quantile(CONFIDENCE, count - 1) * std / math.sqrt(count)
    return Summary(count, mean, std, halfwidth, min(data), max(data), CONFIDENCE)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation (NaN if empty).

    ``q`` is a fraction in ``[0, 1]``; the estimator interpolates between
    order statistics (the same convention as ``numpy.percentile``'s default),
    so small service-latency samples still give stable p99/p999 readings.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def latency_percentiles(values: Iterable[float]) -> dict:
    """The service-level latency quantiles (p50/p90/p99/p999) of ``values``.

    Returns NaN entries for an empty sample so downstream tables can render
    "no data" uniformly instead of special-casing missing keys.
    """
    ordered = sorted(float(v) for v in values)
    return {
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
        "p999": percentile(ordered, 0.999),
    }


def interarrival_from_throughput(throughput_per_s: float) -> float:
    """Convert a throughput in messages/s to a mean inter-arrival time in ms."""
    if throughput_per_s <= 0:
        raise ValueError("throughput must be positive")
    return 1000.0 / throughput_per_s
