"""Tests for the experiments command-line interface."""

import json

import pytest

from repro.campaigns.queue import WorkQueue
from repro.experiments import figure4, figure6, figure7, figure8
from repro.experiments.__main__ import build_parser, main


def patch_tiny_figure4(monkeypatch, throughputs=(50,), num_messages=20):
    """Shrink figure 4 to a tiny sweep so CLI tests stay fast."""
    patch_grid(
        monkeypatch, figure4, n_values=(3,), throughputs=throughputs, num_messages=num_messages
    )


def patch_grid(monkeypatch, figure, **grid):
    """Make the CLI run ``figure`` with ``grid`` on top of its own arguments."""
    run = figure.run
    monkeypatch.setattr(figure, "run", lambda **options: run(**options, **grid))


def table_lines(out):
    """The table rows of a report, without the timing/cache status lines."""
    return [line for line in out.splitlines() if line and not line.startswith("(")]


class TestExperimentsCLI:
    def test_single_quick_figure_to_file(self, tmp_path, capsys):
        output = tmp_path / "figure4.txt"
        code = main(
            [
                "--figure",
                "4",
                "--quick",
                "--seed",
                "3",
                "-o",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "Figure 4" in text
        assert "FD, n=3" in text
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out

    def test_markdown_output_with_checks(self, capsys, monkeypatch, tmp_path):
        patch_tiny_figure4(monkeypatch)
        code = main(["--figure", "4", "--quick", "--markdown", "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| throughput [1/s] |" in out
        assert "check" in out

    def test_jobs_and_cache_reproduce_serial_tables(self, capsys, monkeypatch, tmp_path):
        patch_tiny_figure4(monkeypatch, throughputs=(30, 60), num_messages=15)
        cache_dir = str(tmp_path / "cache")

        assert main(["--figure", "4"]) == 0
        serial = table_lines(capsys.readouterr().out)

        assert main(["--figure", "4", "--jobs", "2", "--cache-dir", cache_dir]) == 0
        parallel_out = capsys.readouterr().out
        assert table_lines(parallel_out) == serial
        assert "4 points simulated, 0 from cache" in parallel_out

        # A second run against the same cache re-simulates nothing.
        assert main(["--figure", "4", "--jobs", "2", "--cache-dir", cache_dir]) == 0
        warm_out = capsys.readouterr().out
        assert table_lines(warm_out) == serial
        assert "0 points simulated, 4 from cache" in warm_out

    def test_replicas_flag_pools_more_samples(self, capsys, monkeypatch):
        patch_tiny_figure4(monkeypatch, throughputs=(30,), num_messages=10)
        assert main(["--figure", "4", "--replicas", "2", "--markdown"]) == 0
        assert "Figure 4" in capsys.readouterr().out


class TestSharedExecutionOptions:
    """The options of ``campaigns/execution.py``, as the figures CLI uses them."""

    def test_figure4_quick_through_the_queue_prints_the_serial_table(self, tmp_path, capsys):
        assert main(["--figure", "4", "--quick"]) == 0
        serial = capsys.readouterr().out
        queue_dir = str(tmp_path / "queue")
        assert main(["--figure", "4", "--quick", "--queue-dir", queue_dir]) == 0
        queued = capsys.readouterr().out
        assert table_lines(queued) == table_lines(serial)
        assert "Figure 4" in serial and "14 points simulated, 0 from cache" in queued
        # The points really went through the shared directory.
        queue = WorkQueue(queue_dir)
        assert (queue.result_count(), queue.pending_count()) == (14, 0)

    def test_metrics_catalog_and_output_file_reach_the_figures_cli(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        argv = [
            "--figure", "4", "--quick", "--metrics-out", str(tmp_path / "metrics"),
            "--catalog", str(tmp_path / "catalog"), "--cache-dir", str(tmp_path / "cache"),
            "-o", str(report),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert report.read_text() == out
        assert f"  wrote 14 metrics snapshots to {tmp_path / 'metrics'}" in out.splitlines()
        assert "trace files in" not in out
        summary = tmp_path / "catalog" / "figure4-quick" / "summary.json"
        assert json.loads(summary.read_text())["store_path"] == str(
            tmp_path / "cache" / "results.jsonl"
        )


class TestFigureOptions:
    def test_quick_and_full_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--figure", "4", "--quick", "--full"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_one_store_serves_figure5_its_no_crash_points_from_figure4(
        self, tmp_path, capsys, monkeypatch
    ):
        """Quick Figs. 4 and 5 both measure 150 messages, so Figure 5's
        no-crash curves (4 + 3 throughputs) are Figure 4's cached points."""
        patch_grid(monkeypatch, figure6, panels=())
        patch_grid(monkeypatch, figure7, panels=())
        patch_grid(monkeypatch, figure8, n_values=())
        argv = ["--figure", "all", "--quick", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        status = [line for line in capsys.readouterr().out.splitlines() if line.startswith("(")]
        assert [line.split(";")[1] for line in status] == [
            " 14 points simulated, 0 from cache)",
            " 26 points simulated, 7 from cache)",
            " 0 points simulated, 0 from cache)",
            " 0 points simulated, 0 from cache)",
            " 0 points simulated, 0 from cache)",
        ]
