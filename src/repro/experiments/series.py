"""Result containers of the figure-regeneration experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class FigurePoint:
    """One plotted point: an x value, a mean latency and its 95 % CI."""

    x: float
    mean: float
    ci: float
    samples: int
    completed: bool = True

    def formatted(self) -> str:
        """Render the point the way the tables print it."""
        if not self.completed or math.isnan(self.mean):
            return "      --      "
        return f"{self.mean:8.2f} ±{self.ci:5.2f}"


@dataclass
class Series:
    """One curve of a figure (e.g. "FD, 1 crash" or "GM, n=7")."""

    label: str
    points: List[FigurePoint] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)

    def add(self, point: FigurePoint) -> None:
        """Append a point to the curve."""
        self.points.append(point)

    def xs(self) -> List[float]:
        """The x values of the curve."""
        return [p.x for p in self.points]

    def point_at(self, x: float) -> Optional[FigurePoint]:
        """The point with the given x value, if any."""
        for point in self.points:
            if point.x == x:
                return point
        return None


@dataclass
class FigureResult:
    """All series of one figure, plus metadata used by the report module."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, series: Series) -> None:
        """Append a curve to the figure."""
        self.series.append(series)

    def get_series(self, label: str) -> Optional[Series]:
        """Find a curve by label."""
        for candidate in self.series:
            if candidate.label == label:
                return candidate
        return None
