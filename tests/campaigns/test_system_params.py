"""Stack, fd-kind and batching params: one declaration each, one key per system.

Every param lives in the params dataclass of the registration that reads it
(:mod:`repro.stacks.registry`).  One rule holds for ``SystemConfig``,
``PointSpec``, ``grid()`` and the campaigns CLI: a param the selected stack,
fd kind and batching layer do not read raises unless it holds its default,
and then it is dropped -- so no spelling of a system mints a second key.
"""

import ast
import dataclasses
import os

import pytest

import repro.campaigns.__main__ as campaigns_cli
from repro import HeartbeatConfig, SystemConfig
from repro.campaigns.spec import PointSpec, grid
from repro.obs.export import config_fingerprint
from repro.scenarios.registry import get_kind
from repro.stacks import available_fd_kinds, available_stacks

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

POINT = dict(kind="normal-steady", n=3, throughput=50.0, num_messages=20)

#: A plain point and spellings of the very same system: each must either
#: raise at declaration or have the plain point's key.
NO_OP_SPELLINGS = [
    ("fd", dict(reformation_timeout=123.0)),
    ("fd", dict(heartbeat_period=7.0)),
    ("fd", dict(max_delay=5.0)),
    ("fd", dict(config_overrides=(("lambda_cpu", 1.0),))),
    ("fd", dict(config_overrides=(("max_batch", 0),))),
    ("fd/heartbeat", dict(fd_scan_interval=5.0)),
    ("gm", dict(config_overrides=(("join_retry_interval", 500.0),))),
]

#: Spellings of a default value: dropped, so they have the plain key.
DEFAULT_SPELLINGS = [
    ("fd", dict(reformation_timeout=500.0)),
    ("fd", dict(heartbeat_period=10.0, heartbeat_timeout=30)),
    ("fd", dict(max_batch=0, max_delay=0.0)),
    ("gm-reform", dict(join_retry_interval=500.0, reformation_timeout=500.0)),
    ("fd/heartbeat", dict(fd_scan_interval=None)),
    ("gm", dict(join_retry_interval=500)),
]


def spelling_id(case):
    stack, given = case
    return f"{stack}:{','.join(sorted(given))}"


class TestOneSystemOneKey:
    @pytest.mark.parametrize("case", NO_OP_SPELLINGS, ids=spelling_id)
    def test_a_no_op_spelling_raises_or_keeps_the_plain_key(self, case):
        stack, given = case
        plain = PointSpec(stack=stack, **POINT)
        try:
            spelled = PointSpec(stack=stack, **POINT, **given)
        except (TypeError, ValueError):
            return
        assert spelled.key() == plain.key()

    @pytest.mark.parametrize("case", DEFAULT_SPELLINGS, ids=spelling_id)
    def test_a_default_value_is_dropped(self, case):
        stack, given = case
        plain = PointSpec(stack=stack, **POINT)
        spelled = PointSpec(stack=stack, **POINT, **given)
        assert spelled.key() == plain.key()
        assert spelled.as_dict() == plain.as_dict()
        assert spelled.config() == plain.config()

    def test_the_rule_is_the_same_on_every_path(self):
        message = "reformation_timeout applies to stack gm-reform"
        with pytest.raises(ValueError, match=message):
            SystemConfig(stack="gm", reformation_timeout=300.0)
        with pytest.raises(ValueError, match=message):
            PointSpec(stack="gm", reformation_timeout=300.0, **POINT)
        with pytest.raises(ValueError, match=message):
            grid("normal-steady", stacks=("fd", "gm"), reformation_timeout=300.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'lambda_cpu'"):
            SystemConfig(lambda_cpu=2.0)
        with pytest.raises(ValueError, match="normal-steady points take no"):
            PointSpec(lambda_cpu=2.0, **POINT)

    def test_the_removed_ablation_knobs_are_unexpected_keywords(self):
        # Not even their old defaults are dropped: no registration declares them.
        for keyword, old_default in dict(renumber_coordinators=True, pipeline_depth=2).items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                SystemConfig(**{keyword: old_default})

    def test_a_stack_swap_keeps_what_the_new_stack_reads(self):
        swapped = dataclasses.replace(SystemConfig(stack="gm", join_retry_interval=250.0), stack="gm-reform")
        assert (swapped.params.stack.join_retry_interval, swapped.params.stack.reformation_timeout) == (250.0, 500.0)
        reform = SystemConfig(stack="gm-reform", reformation_timeout=300.0)
        with pytest.raises(ValueError, match="reformation_timeout applies to stack gm-reform"):
            dataclasses.replace(reform, stack="gm")

    def test_an_fd_kinds_params_may_be_given_whole(self):
        whole = SystemConfig(fd_kind="heartbeat", heartbeat=HeartbeatConfig(period=50.0, timeout=200.0))
        flat = SystemConfig(fd_kind="heartbeat", heartbeat_period=50.0, heartbeat_timeout=200.0)
        assert whole == flat
        assert SystemConfig(heartbeat=HeartbeatConfig()) == SystemConfig()
        with pytest.raises(ValueError, match="heartbeat_period applies to fd kind heartbeat"):
            SystemConfig(heartbeat=HeartbeatConfig(period=50.0))

    def test_the_metrics_fingerprint_hashes_the_same_canonical_system(self):
        assert config_fingerprint(SystemConfig(stack="gm", join_retry_interval=500)) == (
            config_fingerprint(SystemConfig(stack="gm"))
        )
        assert config_fingerprint(SystemConfig(stack="gm", join_retry_interval=50)) != (
            config_fingerprint(SystemConfig(stack="gm"))
        )


def code_strings(path):
    """String constants of a module, docstrings excluded."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    }


class TestStructure:
    def test_system_config_is_eight_fields(self):
        assert [field.name for field in dataclasses.fields(SystemConfig)] == [
            "n", "stack", "fd_kind", "seed", "instrument", "fd", "network", "params",
        ]

    def test_no_override_back_door_remains(self):
        for directory, _dirs, names in os.walk(SRC):
            for name in names:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name), encoding="utf-8") as handle:
                        assert "config_overrides" not in handle.read(), name

    @pytest.mark.parametrize("module", ["spec.py", "__main__.py"])
    def test_campaign_code_names_no_stack_and_no_fd_kind(self, module):
        names = set(available_stacks()) | set(available_fd_kinds())
        assert not code_strings(os.path.join(SRC, "campaigns", module)) & names


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--stack", "fd", "gm", "--reformation-timeout", "300"],
             "--reformation-timeout applies to --stack gm-reform"),
            (["--hb-period", "5"], "--hb-period applies to --fd heartbeat"),
            (["--fd", "heartbeat", "--fd-scan-interval", "5"],
             "--fd-scan-interval applies to --fd qos perfect"),
            (["--max-delay", "2"], "max_delay applies only with max_batch > 0"),
        ],
    )
    def test_a_flag_nothing_selected_reads_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            campaigns_cli.main(argv + ["--messages", "5"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_flags_reach_the_points_that_read_them(self):
        parser = campaigns_cli.build_parser(get_kind("normal-steady"))
        args = parser.parse_args(["--reformation-timeout", "300"])
        assert args.reformation_timeout == 300.0 and args.heartbeat_period == 10.0

    def test_help_lists_every_stack_and_fd_kind_with_its_params(self):
        epilog = campaigns_cli.build_parser(get_kind("normal-steady")).epilog
        for name in available_stacks():
            assert f"  stack {name}: " in epilog
        for name in available_fd_kinds():
            assert f"  fd kind {name}: " in epilog
        assert "reformation_timeout=500.0 (--reformation-timeout)" in epilog
        assert "heartbeat_period=10.0 (--hb-period)" in epilog
        assert "join_retry_interval=500.0" in epilog
