"""Property-based tests for the statistics helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import summarize

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=200,
)


class TestSummaryProperties:
    @given(values=samples)
    @settings(max_examples=100, deadline=None)
    def test_mean_within_min_max(self, values):
        summary = summarize(values)
        assert summary.minimum - 1e-9 <= summary.mean <= summary.maximum + 1e-9

    @given(values=samples)
    @settings(max_examples=100, deadline=None)
    def test_interval_contains_mean(self, values):
        assert summarize(values).ci_halfwidth >= 0

    @given(values=samples)
    @settings(max_examples=100, deadline=None)
    def test_count_and_nonnegative_std(self, values):
        summary = summarize(values)
        assert summary.count == len(values)
        assert summary.std >= 0.0

    @given(values=samples, shift=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_of_interval_width(self, values, shift):
        base = summarize(values)
        shifted = summarize([v + shift for v in values])
        assert abs(base.ci_halfwidth - shifted.ci_halfwidth) < 1e-6 or (
            base.ci_halfwidth == shifted.ci_halfwidth
        )

    @given(values=samples)
    @settings(max_examples=60, deadline=None)
    def test_duplicating_the_sample_keeps_the_mean(self, values):
        once = summarize(values)
        twice = summarize(values + values)
        assert abs(once.mean - twice.mean) < 1e-9
        assert twice.ci_halfwidth <= once.ci_halfwidth + 1e-9
