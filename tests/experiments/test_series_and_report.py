"""Unit tests for the experiment result containers and text reports."""

import math

from repro.experiments.report import format_figure, format_markdown_table
from repro.experiments.series import FigurePoint, FigureResult, Series


def make_figure():
    figure = FigureResult(
        figure="4",
        title="Latency vs throughput",
        x_label="throughput [1/s]",
        y_label="latency [ms]",
    )
    fd = Series(label="FD, n=3")
    fd.add(FigurePoint(x=10, mean=8.0, ci=0.5, samples=100))
    fd.add(FigurePoint(x=100, mean=11.0, ci=0.7, samples=100))
    gm = Series(label="GM, n=3")
    gm.add(FigurePoint(x=10, mean=8.0, ci=0.5, samples=100))
    gm.add(FigurePoint(x=300, mean=float("nan"), ci=0.0, samples=0, completed=False))
    figure.add_series(fd)
    figure.add_series(gm)
    figure.notes.append("expected: curves coincide")
    return figure


class TestSeries:
    def test_point_lookup(self):
        figure = make_figure()
        series = figure.get_series("FD, n=3")
        assert series.point_at(10).mean == 8.0
        assert series.point_at(999) is None

    def test_xs(self):
        assert make_figure().get_series("FD, n=3").xs() == [10, 100]

    def test_incomplete_point_mean_is_nan(self):
        series = make_figure().get_series("GM, n=3")
        assert math.isnan(series.point_at(300).mean)

    def test_get_series_unknown_label(self):
        assert make_figure().get_series("nope") is None

    def test_point_formatting(self):
        assert "±" in FigurePoint(x=1, mean=5.0, ci=0.1, samples=10).formatted()
        assert "--" in FigurePoint(x=1, mean=float("nan"), ci=0.0, samples=0, completed=False).formatted()


class TestTextReport:
    def test_contains_title_and_labels(self):
        text = format_figure(make_figure())
        assert "Figure 4" in text
        assert "throughput [1/s]" in text
        assert "FD, n=3" in text

    def test_contains_all_x_values(self):
        text = format_figure(make_figure())
        for x in ("10", "100", "300"):
            assert x in text

    def test_empty_figure(self):
        empty = FigureResult(figure="9", title="t", x_label="x", y_label="y")
        assert "(no data)" in format_figure(empty)

    def test_notes_rendered(self):
        assert "expected: curves coincide" in format_figure(make_figure())


class TestMarkdownReport:
    def test_markdown_table_structure(self):
        text = format_markdown_table(make_figure())
        assert text.count("|") > 10
        assert "did not complete" in text
        assert "**Figure 4" in text
