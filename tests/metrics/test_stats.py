"""Unit tests for summary statistics."""

import math
import os
import subprocess
import sys

import pytest

from repro.metrics.stats import (
    _t_quantile,
    interarrival_from_throughput,
    summarize,
    throughput_from_interarrival,
)


class TestSummarize:
    def test_empty_sample(self):
        summary = summarize([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.count == 1
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.ci_halfwidth == float("inf")

    def test_mean_and_std(self):
        summary = summarize([2.0, 4.0, 6.0, 8.0])
        assert summary.mean == pytest.approx(5.0)
        assert summary.std == pytest.approx(2.581988897)

    def test_min_max(self):
        summary = summarize([3.0, 1.0, 7.0])
        assert summary.minimum == 1.0
        assert summary.maximum == 7.0

    def test_confidence_interval_contains_mean(self):
        summary = summarize(range(100))
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_identical_values_have_zero_interval(self):
        summary = summarize([4.0] * 20)
        assert summary.ci_halfwidth == pytest.approx(0.0)

    def test_interval_shrinks_with_more_samples(self):
        small = summarize([1.0, 2.0, 3.0, 4.0, 5.0] * 2)
        large = summarize([1.0, 2.0, 3.0, 4.0, 5.0] * 50)
        assert large.ci_halfwidth < small.ci_halfwidth

    def test_string_rendering(self):
        assert "no samples" in str(summarize([]))
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))

    def test_known_t_interval(self):
        # For n=5 samples [1..5]: mean 3, std sqrt(2.5), t_{0.975,4} = 2.776.
        summary = summarize([1, 2, 3, 4, 5])
        expected = 2.7764451052 * math.sqrt(2.5) / math.sqrt(5)
        assert summary.ci_halfwidth == pytest.approx(expected, rel=1e-9)

    def test_confidence_level_is_honoured(self):
        # Four samples, three degrees of freedom: the 99 % interval is 1.84x
        # the 95 % one (t = 5.841 against 3.182), not the same interval.
        data = [2.0, 4.0, 6.0, 8.0]
        narrow, default, wide = (summarize(data, c) for c in (0.90, 0.95, 0.99))
        assert summarize(data).ci_halfwidth == default.ci_halfwidth
        assert narrow.ci_halfwidth < default.ci_halfwidth < wide.ci_halfwidth
        assert wide.ci_halfwidth / default.ci_halfwidth == pytest.approx(
            5.840909309733 / 3.182446305284, rel=1e-9
        )
        assert wide.confidence == 0.99

    def test_two_samples_use_the_one_degree_quantile(self):
        # Figure 8 averages as few as two runs per point: t_{0.975,1} = 12.71,
        # 6.5x the normal quantile a small-sample interval must not use.
        summary = summarize([10.0, 12.0])  # std sqrt(2), so the half-width is t itself
        assert summary.ci_halfwidth == pytest.approx(12.706204736175, rel=1e-9)

    def test_confidence_outside_the_unit_interval_is_rejected(self):
        for confidence in (0.0, 1.0, 95.0):
            with pytest.raises(ValueError):
                summarize([1.0, 2.0, 3.0], confidence)


#: Two-sided Student-t quantiles (standard tables, 13 significant digits).
T_TABLE = {
    0.90: {1: 6.313751514675, 2: 2.919985580354, 4: 2.131846786327, 10: 1.812461122812,
           30: 1.697260886594, 399: 1.648681533555},
    0.95: {1: 12.70620473617, 2: 4.302652729749, 4: 2.776445105198, 10: 2.228138851986,
           30: 2.042272456301, 399: 1.965927295921},
    0.99: {1: 63.65674116287, 2: 9.924843200918, 4: 4.604094871350, 10: 3.169272672617,
           30: 2.749995653567, 399: 2.588207164031},
}


class TestStudentTQuantile:
    @pytest.mark.parametrize("confidence", sorted(T_TABLE))
    def test_reference_table(self, confidence):
        for dof, expected in T_TABLE[confidence].items():
            assert _t_quantile(confidence, dof) == pytest.approx(expected, rel=1e-9)

    def test_tends_to_the_normal_quantile(self):
        assert _t_quantile(0.95, 10**7) == pytest.approx(1.959963984540, rel=1e-6)
        assert _t_quantile(0.95, 10**7) > 1.959963984540

    def test_decreases_with_the_degrees_of_freedom(self):
        values = [_t_quantile(0.95, dof) for dof in range(1, 200)]
        assert values == sorted(values, reverse=True)

    def test_no_degrees_of_freedom(self):
        assert math.isnan(_t_quantile(0.95, 0))

    def test_agrees_with_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        dofs = list(range(1, 120)) + [150, 250, 399, 1000, 2500, 5000, 10_000]
        for confidence in (0.90, 0.95, 0.99):
            for dof in dofs:
                expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
                assert _t_quantile(confidence, dof) == pytest.approx(expected, rel=1e-9)


def test_the_package_imports_no_numerical_dependency():
    """Every CLI call, pool worker and test process pays the import."""
    program = (
        "import sys\n"
        "import repro.experiments.__main__, repro.campaigns, repro.load\n"
        "import repro.scenarios.runner\n"
        "heavy = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not heavy, heavy\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
    subprocess.run([sys.executable, "-c", program], check=True, env=env)


class TestConversions:
    def test_round_trip(self):
        assert throughput_from_interarrival(interarrival_from_throughput(250.0)) == pytest.approx(250.0)

    def test_throughput_to_interarrival(self):
        assert interarrival_from_throughput(100.0) == pytest.approx(10.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            interarrival_from_throughput(0.0)
        with pytest.raises(ValueError):
            throughput_from_interarrival(-1.0)
