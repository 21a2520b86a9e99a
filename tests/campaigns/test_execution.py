"""The execution front-end both command lines share (``campaigns/execution.py``).

One declaration of the execution options, reached by both parsers; the
campaign CLI's option table pinned against what it accepted before the
options moved; the objects opened and closed in the order the two ``main()``
functions used to hand-copy.  (What reaching the work queue means for the
figures CLI is in ``tests/experiments/test_cli.py``.)
"""

import argparse

import pytest

from repro.campaigns import execution
from repro.campaigns.__main__ import build_parser as campaigns_parser
from repro.campaigns.__main__ import main as campaigns_main
from repro.experiments.__main__ import build_parser as experiments_parser
from repro.experiments.__main__ import main as experiments_main
from repro.scenarios.registry import get_kind
from tests import goldens


def options(parser):
    """``{flags: action}`` of every option of ``parser`` (``--help`` aside)."""
    return {
        tuple(action.option_strings): action
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def shared_options():
    parser = argparse.ArgumentParser()
    execution.add_execution_arguments(parser)
    return options(parser)


class TestOneDeclaration:
    def test_both_parsers_expose_every_execution_option_identically(self):
        shared = shared_options()
        assert {"--jobs", "--cache-dir", "--durability", "--force", "--force-kind",
                "--metrics-out", "--trace", "--output", "--queue-dir", "--lease-ttl",
                "--queue-timeout"} == {flags[-1] for flags in shared}
        campaigns = options(campaigns_parser(get_kind("normal-steady")))
        experiments = options(experiments_parser())
        for flags, declared in shared.items():
            for parser_options in (campaigns, experiments):
                action = parser_options[flags]
                assert type(action) is type(declared)
                for field in ("dest", "default", "help", "type", "choices", "metavar", "nargs"):
                    assert getattr(action, field) == getattr(declared, field), (flags, field)

    def test_what_is_not_shared_stays_with_its_cli(self):
        shared = set(shared_options())
        campaigns = set(options(campaigns_parser(get_kind("normal-steady")))) - shared
        experiments = set(options(experiments_parser())) - shared
        assert campaigns & experiments == set()
        assert ("--queue-worker",) in campaigns
        assert {("--figure",), ("--replicas",), ("--check",)} <= experiments

    def test_the_campaign_cli_accepts_what_it_accepted_but_for_chunk_size(self):
        """``data/cli_options.json`` is the option table of the campaign CLI
        before the execution options moved out of it, less ``--chunk-size``
        and ``--catalog``."""
        before = {tuple(row["flags"]): row for row in goldens.load("cli_options.json")}
        now = options(campaigns_parser(get_kind("normal-steady")))
        assert set(now) == set(before)
        for flags, row in before.items():
            default = now[flags].default
            default = list(default) if isinstance(default, tuple) else default
            assert (default, now[flags].help) == (row["default"], row["help"]), flags

    def test_chunk_size_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            campaigns_main(["--chunk-size", "4"])
        assert exit_info.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err

    @pytest.mark.parametrize("cli", ["campaigns", "experiments"])
    def test_catalog_is_gone(self, capsys, cli):
        main = {"campaigns": campaigns_main, "experiments": experiments_main}[cli]
        with pytest.raises(SystemExit) as exit_info:
            main(["--catalog", "DIR"])
        assert exit_info.value.code == 2
        assert "--catalog" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cli, flag",
        [
            ("campaigns", "--jobs"),
            ("campaigns", "--lease-ttl"),
            ("campaigns", "--queue-timeout"),
            ("experiments", "--jobs"),
            ("experiments", "--lease-ttl"),
            ("experiments", "--queue-timeout"),
            ("experiments", "--replicas"),
        ],
    )
    def test_an_out_of_range_count_is_a_usage_error(self, capsys, cli, flag):
        main = {"campaigns": campaigns_main, "experiments": experiments_main}[cli]
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "0"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be > 0, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "nan"])
    @pytest.mark.parametrize("cli", ["campaigns", "experiments"])
    def test_a_negative_or_nan_queue_timeout_is_a_usage_error(self, capsys, cli, value):
        """Both used to parse, leaving a deadline already past or never compared."""
        main = {"campaigns": campaigns_main, "experiments": experiments_main}[cli]
        with pytest.raises(SystemExit) as exit_info:
            main(["--queue-timeout", value])
        assert exit_info.value.code == 2
        assert f"argument --queue-timeout: must be > 0, got {value}" in capsys.readouterr().err


def parse(*argv):
    parser = argparse.ArgumentParser()
    execution.add_execution_arguments(parser)
    return parser.parse_args(list(argv))


class TestOpenExecution:
    def test_defaults_open_a_plain_serial_runner(self):
        with execution.open_execution(parse()) as runner:
            assert (runner.jobs, runner.store, runner.queue) == (1, None, None)
            assert not runner.instrument and not runner.force

    def test_an_unset_queue_timeout_waits(self, tmp_path):
        with execution.open_execution(parse("--queue-dir", str(tmp_path))) as runner:
            assert runner.queue is not None and runner.queue.queue_timeout is None

    def test_every_option_reaches_the_object_it_configures(self, tmp_path):
        args = parse(
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"), "--durability", "batch",
            "--force-kind", "churn-steady", "--queue-dir", str(tmp_path / "queue"),
            "--lease-ttl", "7", "--queue-timeout", "3", "--trace", str(tmp_path / "trace"),
        )
        with execution.open_execution(args) as runner:
            assert runner.jobs == 2
            assert runner.store.path == str(tmp_path / "cache" / "results.jsonl")
            assert runner.store.durability == "batch"
            assert runner.force_kinds == {"churn-steady"} and not runner.force
            assert runner.queue.directory == str(tmp_path / "queue")
            assert (runner.queue.lease_ttl, runner.queue.queue_timeout) == (7.0, 3.0)
            assert runner.instrument and runner.trace_dir == str(tmp_path / "trace")

    def test_the_runner_closes_before_the_store_even_on_error(self, tmp_path, monkeypatch):
        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.store import ResultStore

        closed = []
        real_runner_close, real_store_close = CampaignRunner.close, ResultStore.close
        monkeypatch.setattr(
            CampaignRunner, "close", lambda self: (closed.append("runner"), real_runner_close(self))
        )
        monkeypatch.setattr(
            ResultStore, "close", lambda self: (closed.append("store"), real_store_close(self))
        )
        with pytest.raises(RuntimeError):
            with execution.open_execution(parse("--cache-dir", str(tmp_path))):
                raise RuntimeError("mid-campaign")
        assert closed[:2] == ["runner", "store"]
