"""Tests for the ``python -m repro.campaigns`` ad-hoc grid CLI."""

import re

import pytest

from repro.campaigns.__main__ import main
from repro.campaigns.store import ResultStore
from repro.scenarios.registry import available_kinds, get_kind


class TestCampaignsCLI:
    def test_adhoc_grid_runs_and_reports(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        code = main(
            [
                "--scenario",
                "normal-steady",
                "--stack",
                "fd",
                "--n",
                "3",
                "--throughputs",
                "25",
                "--messages",
                "10",
                "-o",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "campaign 'adhoc': 1 points (1 simulated, 0 from cache)" in text
        assert "normal-steady" in text
        assert capsys.readouterr().out.strip() == text.strip()

    @pytest.mark.usefixtures("wall_clock_stepping_back")
    def test_reported_seconds_ignore_wall_clock_steps(self, capsys):
        assert main(["--scenario", "normal-steady", "--stack", "fd", "--throughputs", "25",
                     "--messages", "10"]) == 0
        seconds = float(re.search(r"\) in (\S+) s$", capsys.readouterr().out, re.M).group(1))
        assert 0.0 <= seconds < 600.0

    def test_cache_dir_makes_second_run_free(self, tmp_path, capsys):
        argv = [
            "--scenario",
            "normal-steady",
            "--stack",
            "fd",
            "--n",
            "3",
            "--throughputs",
            "25",
            "--messages",
            "10",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(1 simulated, 0 from cache)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 1 from cache)" in second
        # identical point lines, only the header timing differs
        assert first.splitlines()[1:] == second.splitlines()[1:]

    @pytest.mark.parametrize(
        "scenario_args",
        [
            ["--scenario", "churn-steady", "--churn-rate", "4", "--downtime", "100",
             "--detection-time", "5"],
            ["--scenario", "correlated-crash", "--crashes", "1", "--detection-time", "5"],
            ["--scenario", "asymmetric-qos", "--tmr", "300"],
        ],
        ids=["churn", "correlated", "asymmetric"],
    )
    def test_new_scenario_kinds_run_and_resume(self, scenario_args, tmp_path, capsys):
        argv = scenario_args + [
            "--stack",
            "fd",
            "gm",
            "--n",
            "3",
            "--throughputs",
            "25",
            "--messages",
            "10",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(2 simulated, 0 from cache)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 2 from cache)" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_stack_and_fd_flags_run_heartbeat_churn_resumably(self, tmp_path, capsys):
        """The acceptance scenario: a heartbeat-FD stack, unreachable before
        the registry redesign, sweeps churn end-to-end through the cache."""
        argv = [
            "--scenario",
            "churn-steady",
            "--stack",
            "fd",
            "--fd",
            "heartbeat",
            "--n",
            "3",
            "--throughputs",
            "25",
            "--messages",
            "10",
            "--churn-rate",
            "2",
            "--downtime",
            "100",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(1 simulated, 0 from cache)" in first
        assert "fd/heartbeat" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 1 from cache)" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_fd_axis_sweeps_kinds_across_stacks(self, capsys):
        assert (
            main(
                [
                    "--scenario",
                    "normal-steady",
                    "--stack",
                    "fd",
                    "--fd",
                    "qos",
                    "perfect",
                    "--n",
                    "3",
                    "--throughputs",
                    "25",
                    "--messages",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "series: fd, n=3" in out
        assert "series: fd/perfect, n=3" in out

    def test_algorithms_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["--algorithms", "fd", "--throughputs", "25", "--messages", "10"])
        assert "unrecognized arguments: --algorithms" in capsys.readouterr().err

    def test_axis_of_another_kind_is_an_error_naming_its_kinds(self, capsys):
        """Used to run and silently ignore both flags (grid() zeroed them)."""
        with pytest.raises(SystemExit):
            main(["--scenario", "normal-steady", "--tmr", "50", "--churn-rate", "9"])
        error = capsys.readouterr().err
        assert "--tmr is not an axis of normal-steady" in error
        assert "suspicion-steady, asymmetric-qos" in error
        with pytest.raises(SystemExit):
            main(["--scenario", "wan", "--fault-duration=100"])
        error = capsys.readouterr().err
        assert "--fault-duration is not an axis of wan-steady" in error
        assert "partition-transient, gray-degradation" in error

    def test_help_lists_every_kind_with_its_own_axis_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scenario", "gray", "--help"])
        text = capsys.readouterr().out
        assert "axes of gray-degradation" in text
        for name in available_kinds():
            kind = get_kind(name)
            assert f"{kind.name} ({kind.shorthand}): {kind.summary}" in text
        # One spelling, owned by two kinds, documented by each.
        assert "the pid that crashes" in text
        assert "the degraded pid" in text
        # --detection-time is no longer documented as a crash-transient flag.
        assert text.count("constant crash detection time T_D in ms") >= 6

    def test_shared_spellings_reach_the_selected_kinds_own_axis(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--scenario", "gray", "--stack", "fd", "--crashed-process", "1",
                    "--crash-time", "40", "--fault-duration", "80", "--degrade-factor", "3",
                    "--throughputs", "50", "--messages", "10", "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "gray-degradation" in capsys.readouterr().out
        ((_key, point, _record),) = ResultStore(str(tmp_path)).entries()
        assert (point["degraded_pid"], point["degrade_start"]) == (1, 40.0)
        assert (point["degrade_duration"], point["degrade_factor"]) == (80.0, 3.0)

    def test_scenario_alias_resolves(self, capsys):
        assert (
            main(
                [
                    "--scenario",
                    "churn",
                    "--stack",
                    "fd",
                    "--n",
                    "3",
                    "--throughputs",
                    "25",
                    "--messages",
                    "10",
                ]
            )
            == 0
        )
        assert "churn-steady" in capsys.readouterr().out

    def test_experiments_cli_delegates_scenario_grids(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        assert (
            experiments_main(
                [
                    "--scenario",
                    "asymmetric",
                    "--stack",
                    "fd",
                    "--n",
                    "3",
                    "--throughputs",
                    "25",
                    "--messages",
                    "10",
                    "--tmr",
                    "300",
                ]
            )
            == 0
        )
        assert "asymmetric-qos" in capsys.readouterr().out
