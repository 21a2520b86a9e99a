"""Smoke tests of the figure experiments with tiny parameters.

The full sweeps run through ``python -m repro.experiments``; these tests only
check that every figure module produces well-formed series and that the
headline shape of the cheap figures holds even at very small message counts.
"""


from repro.experiments import figure4, figure5, figure6, figure7, figure8


class TestFigure4:
    def test_small_run_produces_expected_series(self):
        result = figure4.run(
            quick=True, n_values=(3,), throughputs=(10, 200), num_messages=40
        )
        assert {series.label for series in result.series} == {"FD, n=3", "GM, n=3"}
        assert all(len(series.points) == 2 for series in result.series)

    def test_fd_equals_gm_even_in_small_runs(self):
        result = figure4.run(
            quick=True, n_values=(3,), throughputs=(50, 300), num_messages=50
        )
        checks = figure4.check(result)
        assert checks["fd_equals_gm_n3"]
        assert checks["latency_increases_with_T_n3"]


class TestFigure5:
    def test_series_labels(self):
        result = figure5.run(
            quick=True, n_values=(3,), throughputs=(100,), num_messages=30
        )
        labels = {series.label for series in result.series}
        assert "FD and GM, no crash, n=3" in labels
        assert "FD, 1 crash(es), n=3" in labels
        assert "GM, 1 crash(es), n=3" in labels

    def test_crash_does_not_increase_latency(self):
        result = figure5.run(
            quick=True, n_values=(3,), throughputs=(400,), num_messages=60
        )
        checks = figure5.check(result)
        assert checks.get("crash_reduces_latency_n3", True)


class TestFigure6:
    def test_gm_worse_at_small_tmr(self):
        result = figure6.run(
            quick=True,
            panels=((3, 10.0),),
            tmr_values=(20.0, 10000.0),
            num_messages=40,
        )
        checks = figure6.check(result, small_tmr=20.0)
        assert checks["gm_much_worse_at_small_tmr_n3_T10"]
        assert checks["curves_join_at_large_tmr_n3_T10"]


class TestFigure7:
    def test_gm_more_sensitive_to_mistake_duration(self):
        result = figure7.run(
            quick=True,
            panels=((3, 10.0, 1000.0),),
            tm_values=(1.0, 500.0),
            num_messages=40,
        )
        checks = figure7.check(result)
        assert checks["gm_more_sensitive_to_tm_n3_T10"]


class TestFigure8:
    def test_series_and_moderate_overhead(self):
        result = figure8.run(
            quick=True,
            n_values=(3,),
            detection_times=(0.0,),
            throughputs=(10,),
            num_runs=3,
        )
        assert {series.label for series in result.series} == {
            "FD, n=3, T_D=0ms",
            "GM, n=3, T_D=0ms",
        }
        checks = figure8.check(result)
        assert checks["overhead_moderate_n3"]
        assert checks["fd_wins_at_low_T_n3"]
