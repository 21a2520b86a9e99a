"""Unit tests for the shape checks (fed with hand-built figure data)."""

from repro.experiments import figure4, figure5, figure6, figure7, figure8
from repro.experiments.series import FigurePoint, FigureResult, Series
from repro.experiments.shape_checks import ALL_CHECKS


def series(label, points):
    built = Series(label=label)
    for x, mean in points:
        built.add(FigurePoint(x=x, mean=mean, ci=0.1, samples=10))
    return built


def figure(*all_series):
    result = FigureResult(figure="t", title="t", x_label="x", y_label="y")
    for one in all_series:
        result.add_series(one)
    return result


class TestCheckFigure4:
    def test_passes_on_identical_increasing_curves(self):
        fd3 = series("FD, n=3", [(10, 8.0), (300, 20.0)])
        gm3 = series("GM, n=3", [(10, 8.0), (300, 20.0)])
        fd7 = series("FD, n=7", [(10, 12.0), (300, 40.0)])
        gm7 = series("GM, n=7", [(10, 12.0), (300, 40.0)])
        checks = figure4.check(figure(fd3, gm3, fd7, gm7))
        assert checks == {
            "fd_equals_gm_n3": True,
            "latency_increases_with_T_n3": True,
            "fd_equals_gm_n7": True,
            "latency_increases_with_T_n7": True,
            "n7_slower_than_n3": True,
        }

    def test_fails_when_curves_differ(self):
        fd3 = series("FD, n=3", [(10, 8.0), (300, 20.0)])
        gm3 = series("GM, n=3", [(10, 16.0), (300, 40.0)])
        checks = figure4.check(figure(fd3, gm3))
        assert not checks["fd_equals_gm_n3"]

    def test_fails_when_latency_decreases(self):
        fd3 = series("FD, n=3", [(10, 20.0), (300, 8.0)])
        gm3 = series("GM, n=3", [(10, 20.0), (300, 8.0)])
        checks = figure4.check(figure(fd3, gm3))
        assert not checks["latency_increases_with_T_n3"]


class TestCheckFigure5:
    def crash_figure(self, gm1_n3=(9.0, 10.0), fd3_n7=(10.0, 11.0)):
        return figure(
            series("FD and GM, no crash, n=3", [(10, 10.0), (300, 12.0)]),
            series("FD, 1 crash(es), n=3", [(10, 9.5), (300, 11.0)]),
            series("GM, 1 crash(es), n=3", list(zip((10, 300), gm1_n3))),
            series("FD and GM, no crash, n=7", [(10, 14.0), (300, 20.0)]),
            series("FD, 1 crash(es), n=7", [(10, 13.0), (300, 18.0)]),
            series("GM, 1 crash(es), n=7", [(10, 12.0), (300, 16.0)]),
            series("FD, 3 crash(es), n=7", list(zip((10, 300), fd3_n7))),
            series("GM, 3 crash(es), n=7", [(10, 9.0), (300, 10.0)]),
        )

    def test_paper_shape_passes_every_check(self):
        assert figure5.check(self.crash_figure()) == {
            "crash_reduces_latency_n3": True,
            "gm_not_worse_than_fd_n3": True,
            "crash_reduces_latency_n7": True,
            "gm_not_worse_than_fd_n7": True,
            "more_crashes_lower_latency_n7": True,
            "gm_beats_fd_with_3_crashes_n7": True,
        }

    def test_gm_above_fd_and_the_no_crash_curve_fails(self):
        checks = figure5.check(self.crash_figure(gm1_n3=(12.0, 14.0)))
        assert not checks["gm_not_worse_than_fd_n3"]
        assert not checks["crash_reduces_latency_n3"]
        assert checks["gm_not_worse_than_fd_n7"]

    def test_more_crashes_slower_fails(self):
        checks = figure5.check(self.crash_figure(fd3_n7=(15.0, 20.0)))
        assert not checks["more_crashes_lower_latency_n7"]
        assert checks["gm_beats_fd_with_3_crashes_n7"]

    def test_missing_curves_skip_their_checks(self):
        checks = figure5.check(figure(*self.crash_figure().series[:3]))
        assert set(checks) == {"crash_reduces_latency_n3", "gm_not_worse_than_fd_n3"}


class TestCheckFigure6:
    def test_detects_gm_blowup_and_joining(self):
        fd = series("FD, n=3, T=10/s", [(10, 10.0), (10000, 9.0)])
        gm = series("GM, n=3, T=10/s", [(10, 80.0), (10000, 9.2)])
        checks = figure6.check(figure(fd, gm))
        assert checks["gm_much_worse_at_small_tmr_n3_T10"]
        assert checks["curves_join_at_large_tmr_n3_T10"]

    def test_incomplete_gm_point_counts_as_blowup(self):
        fd = series("FD, n=3, T=10/s", [(10, 10.0)])
        gm = Series(label="GM, n=3, T=10/s")
        gm.add(FigurePoint(x=10, mean=float("nan"), ci=0.0, samples=0, completed=False))
        checks = figure6.check(figure(fd, gm))
        assert checks["gm_much_worse_at_small_tmr_n3_T10"]

    def test_small_tmr_option_moves_the_probe(self):
        fd = series("FD, n=7, T=300/s", [(10, 10.0), (30, 10.0)])
        gm = series("GM, n=7, T=300/s", [(10, 10.0), (30, 40.0)])
        assert not figure6.check(figure(fd, gm))["gm_much_worse_at_small_tmr_n7_T300"]
        assert ALL_CHECKS["6"](figure(fd, gm), small_tmr=30)["gm_much_worse_at_small_tmr_n7_T300"]


class TestCheckFigure7:
    def test_gm_growing_faster_than_fd_passes(self):
        fd = series("FD, n=3, T=10/s, T_MR=1000ms", [(1, 20.0), (1000, 20.5)])
        gm = series("GM, n=3, T=10/s, T_MR=1000ms", [(1, 20.0), (1000, 60.0)])
        assert figure7.check(figure(fd, gm)) == {"gm_more_sensitive_to_tm_n3_T10": True}

    def test_identical_columns_fail(self):
        # No mistake fired in the window: FD and GM coincide for every T_M.
        fd = series("FD, n=7, T=300/s, T_MR=100000ms", [(1, 19.3), (1000, 19.3)])
        gm = series("GM, n=7, T=300/s, T_MR=100000ms", [(1, 19.3), (1000, 19.3)])
        assert figure7.check(figure(fd, gm)) == {"gm_more_sensitive_to_tm_n7_T300": False}

    def test_one_completed_point_gives_no_verdict(self):
        fd = series("FD, n=3, T=300/s, T_MR=10000ms", [(1, 20.0), (1000, 25.0)])
        gm = Series(label="GM, n=3, T=300/s, T_MR=10000ms")
        gm.add(FigurePoint(x=1, mean=20.0, ci=0.0, samples=10))
        gm.add(FigurePoint(x=1000, mean=float("nan"), ci=0.0, samples=0, completed=False))
        assert figure7.check(figure(fd, gm)) == {}

    def test_a_curve_off_the_declared_panels_is_ignored(self):
        fd = series("FD, n=3, T=10/s, T_MR=5000ms", [(1, 20.0), (1000, 20.5)])
        gm = series("GM, n=3, T=10/s, T_MR=5000ms", [(1, 20.0), (1000, 60.0)])
        assert figure7.check(figure(fd, gm)) == {}


class TestCheckFigure8:
    def test_fd_at_or_below_gm_passes(self):
        fd = series("FD, n=3, T_D=0ms", [(10, 10.0), (100, 20.0)])
        gm = series("GM, n=3, T_D=0ms", [(10, 25.0), (100, 30.0)])
        checks = figure8.check(figure(fd, gm))
        assert checks["fd_not_worse_than_gm_td0_n3"]
        assert checks["fd_wins_at_low_T_n3"]
        assert checks["overhead_moderate_n3"]

    def test_huge_overhead_flagged(self):
        fd = series("FD, n=3, T_D=0ms", [(10, 900.0)])
        gm = series("GM, n=3, T_D=0ms", [(10, 950.0)])
        checks = figure8.check(figure(fd, gm))
        assert not checks["overhead_moderate_n3"]


class TestRegistry:
    def test_all_checks_registered(self):
        assert set(ALL_CHECKS) == {"4", "5", "6", "7", "8"}
