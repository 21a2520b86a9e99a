"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures:

* effect of the ``lambda`` parameter of the network model (the paper's
  published plots use lambda = 1; its extended version studies other values),
* effect of the ordering pipeline depth (aggregation vs responsiveness),
* the coordinator re-numbering optimisation of the FD algorithm in the
  crash-steady scenario with a *coordinator* crash,
* uniform vs non-uniform variant of the GM algorithm (Section 8 discussion).
"""

from benchmarks.conftest import save_and_print
from repro import NetworkModel, SystemConfig
from repro.experiments.series import FigurePoint, FigureResult, Series
from repro.scenarios import run_crash_steady, run_normal_steady

MESSAGES = 120


def _point(x, result):
    summary = result.summary()
    return FigurePoint(
        x=x,
        mean=summary.mean,
        ci=summary.ci_halfwidth,
        samples=summary.count,
        completed=result.completed,
    )


def test_lambda_sweep(run_once):
    """Latency vs throughput for different host-speed ratios (lambda)."""

    def sweep():
        figure = FigureResult(
            figure="A1",
            title="Ablation: effect of lambda (host CPU cost) on normal-steady latency",
            x_label="throughput [1/s]",
            y_label="min latency [ms]",
        )
        for lambda_cpu in (0.5, 1.0, 2.0):
            series = Series(label=f"FD, n=3, lambda={lambda_cpu:g}")
            for throughput in (10, 100, 300):
                config = SystemConfig(
                    n=3, stack="fd", seed=1, network=NetworkModel(lambda_cpu=lambda_cpu)
                )
                series.add(
                    _point(throughput, run_normal_steady(config, throughput, num_messages=MESSAGES))
                )
            figure.add_series(series)
        return figure

    figure = run_once(sweep)
    save_and_print(figure)
    # Higher lambda means more expensive hosts, hence higher latency.
    low = figure.get_series("FD, n=3, lambda=0.5").point_at(100).mean
    high = figure.get_series("FD, n=3, lambda=2").point_at(100).mean
    assert high > low


def test_pipeline_depth(run_once):
    """Aggregation depth: latency under load for pipeline depths 1, 2 and 4."""

    def sweep():
        figure = FigureResult(
            figure="A2",
            title="Ablation: ordering pipeline depth vs latency (normal-steady, n=3)",
            x_label="throughput [1/s]",
            y_label="min latency [ms]",
        )
        for depth in (1, 2, 4):
            series = Series(label=f"FD, depth={depth}")
            for throughput in (100, 500):
                config = SystemConfig(n=3, stack="fd", seed=1, pipeline_depth=depth)
                series.add(
                    _point(throughput, run_normal_steady(config, throughput, num_messages=MESSAGES))
                )
            figure.add_series(series)
        return figure

    figure = run_once(sweep)
    save_and_print(figure)
    # Deeper pipelines aggregate less and cost more under load.
    assert (
        figure.get_series("FD, depth=4").point_at(500).mean
        >= figure.get_series("FD, depth=1").point_at(500).mean
    )


def test_coordinator_renumbering(run_once):
    """Crash-steady latency with a *coordinator* crash, with and without re-numbering."""

    def sweep():
        figure = FigureResult(
            figure="A3",
            title="Ablation: coordinator re-numbering after a coordinator crash (crash-steady)",
            x_label="throughput [1/s]",
            y_label="min latency [ms]",
        )
        for renumber in (True, False):
            label = "FD, renumbering on" if renumber else "FD, renumbering off"
            series = Series(label=label)
            for throughput in (50, 200):
                config = SystemConfig(
                    n=3, stack="fd", seed=1, renumber_coordinators=renumber
                )
                result = run_crash_steady(
                    config, throughput, crashed=[0], num_messages=MESSAGES
                )
                series.add(_point(throughput, result))
            figure.add_series(series)
        return figure

    figure = run_once(sweep)
    save_and_print(figure)
    with_renumbering = figure.get_series("FD, renumbering on").point_at(200).mean
    without = figure.get_series("FD, renumbering off").point_at(200).mean
    # The optimisation must make the steady state after a coordinator crash
    # at least as fast as without it.
    assert with_renumbering <= without * 1.05


def test_uniform_vs_non_uniform_gm(run_once):
    """The non-uniform GM variant trades guarantees for two multicasts per message."""

    def sweep():
        figure = FigureResult(
            figure="A4",
            title="Ablation: uniform vs non-uniform GM algorithm (normal-steady, n=3)",
            x_label="throughput [1/s]",
            y_label="min latency [ms]",
        )
        for algorithm, label in (("gm", "GM (uniform)"), ("gm-nonuniform", "GM (non-uniform)")):
            series = Series(label=label)
            for throughput in (10, 100, 300):
                config = SystemConfig(n=3, stack=algorithm, seed=1)
                series.add(
                    _point(throughput, run_normal_steady(config, throughput, num_messages=MESSAGES))
                )
            figure.add_series(series)
        return figure

    figure = run_once(sweep)
    save_and_print(figure)
    uniform = figure.get_series("GM (uniform)").point_at(100).mean
    non_uniform = figure.get_series("GM (non-uniform)").point_at(100).mean
    assert non_uniform < uniform
