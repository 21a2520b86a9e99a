"""Experiment harness regenerating every figure of the paper's evaluation.

:mod:`repro.experiments.figures` declares the five figures, one block each;
``figure4`` ... ``figure8`` here are those declarations, and
``figure4.run(quick=...)`` returns a
:class:`~repro.experiments.series.FigureResult` that the shared
:mod:`repro.experiments.report` module renders as a text table (the same
rows/series the paper plots).
"""

from repro.experiments.report import format_figure, format_markdown_table
from repro.experiments.series import FigurePoint, FigureResult, Series

__all__ = [
    "FigurePoint",
    "FigureResult",
    "Series",
    "format_figure",
    "format_markdown_table",
]


def __getattr__(name: str):
    # ``figureN`` resolves on first use: the figures declare their grids
    # through repro.campaigns, which folds results into the containers above,
    # so either package may be imported first.
    number = name[len("figure"):] if name.startswith("figure") else ""
    if number.isdigit():
        from repro.experiments.figures import FIGURES

        if number in FIGURES:
            return FIGURES[number]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
