"""The command-line surface of the built-in scenario kinds, pinned as a table.

For every built-in kind: each option ``--scenario KIND`` adds to the campaign
CLI, the ``grid()`` keyword it sets, the type it parses with and its default.
A flag the table does not list, or one that moved to another field, type or
default, fails here -- so a refactor of how kinds declare their values cannot
change what a command line means.
"""

import pytest

import repro.campaigns.__main__ as campaigns_cli
from repro.scenarios.registry import available_kinds, get_kind

_T_D = ("detection_time", float, 0.0)
_TMR = ("mistake_recurrence_time", float, 1000.0)
_TM = ("mistake_duration", float, 0.0)

#: kind -> {flag: (grid() keyword, type, default)}.
KIND_FLAGS = {
    "normal-steady": {},
    "crash-steady": {"--crashes": ("crashes", int, 1)},
    "suspicion-steady": {"--tmr": _TMR, "--tm": _TM},
    "crash-transient": {
        "--runs": ("num_runs", int, 8),
        "--detection-time": _T_D,
        "--crashed-process": ("crashed_process", int, 0),
    },
    "correlated-crash": {
        "--crashes": ("crashes", int, 1),
        "--crash-time": ("crash_time", float, None),
        "--detection-time": _T_D,
    },
    "churn-steady": {
        "--churn-rate": ("churn_rate", float, 1.0),
        "--downtime": ("mean_downtime", float, 200.0),
        "--detection-time": _T_D,
    },
    "asymmetric-qos": {
        "--tmr": _TMR,
        "--tm": _TM,
        "--flaky-monitor": ("flaky_monitor", int, 1),
        "--flaky-target": ("flaky_target", int, 0),
    },
    "view-majority-loss": {
        "--detection-time": _T_D,
        "--crash-time": ("crash_time", float, 300.0),
    },
    "service-load": {
        "--clients": ("clients", int, 0),
        "--think-time": ("think_time", float, 0.0),
        "--consistency": ("consistency", str, "ordered"),
    },
    "partition-transient": {
        "--crash-time": ("partition_start", float, None),
        "--fault-duration": ("partition_duration", float, 2000.0),
        "--detection-time": _T_D,
    },
    "wan-steady": {
        "--wan-profile": ("wan_profile", str, "wan-3dc"),
        "--detection-time": _T_D,
    },
    "gray-degradation": {
        "--crashed-process": ("degraded_pid", int, 0),
        "--degrade-factor": ("degrade_factor", float, 4.0),
        "--crash-time": ("degrade_start", float, None),
        "--fault-duration": ("degrade_duration", float, 2000.0),
        "--link-loss": ("link_loss", float, 0.0),
        "--detection-time": _T_D,
    },
}

#: A value off the default for each type (strings: one the kind accepts).
SAMPLES = {int: "2", float: "7.5", "--consistency": "local", "--wan-profile": "wan-5dc"}


class GridCalled(Exception):
    """Raised by the stand-in ``grid`` once it has recorded its keywords."""


@pytest.fixture
def grid_keywords(monkeypatch):
    """The keywords the CLI passes to ``grid()``, recorded instead of run."""
    seen = {}

    def record(kind, **keywords):
        seen.update(keywords, kind=kind)
        raise GridCalled

    monkeypatch.setattr(campaigns_cli, "grid", record)
    return seen


def options(kind):
    return campaigns_cli.build_parser(get_kind(kind))._option_string_actions


def kind_flags(kind):
    """The options selecting ``kind`` adds (normal-steady declares none)."""
    return set(options(kind)) - set(options("normal-steady"))


def test_the_table_covers_every_builtin_kind():
    assert tuple(KIND_FLAGS) == available_kinds()


@pytest.mark.parametrize("kind", list(KIND_FLAGS))
def test_each_flag_parses_as_pinned(kind):
    actions = options(kind)
    assert kind_flags(kind) == set(KIND_FLAGS[kind])
    for flag, (_keyword, parse, default) in KIND_FLAGS[kind].items():
        assert actions[flag].type is parse, flag
        assert actions[flag].default == default and type(actions[flag].default) is type(default)


@pytest.mark.parametrize(
    "kind, flag",
    [(kind, flag) for kind, flags in KIND_FLAGS.items() for flag in flags],
)
def test_each_flag_sets_its_keyword_and_only_it(kind, flag, grid_keywords):
    keyword, parse, _default = KIND_FLAGS[kind][flag]
    raw = SAMPLES.get(flag, SAMPLES.get(parse))
    with pytest.raises(GridCalled):
        campaigns_cli.main(["--scenario", get_kind(kind).shorthand, flag, raw])
    expected = {name: default for name, _type, default in KIND_FLAGS[kind].values()}
    expected[keyword] = parse(raw)
    assert grid_keywords["kind"] == kind
    assert {name: grid_keywords[name] for name in expected} == expected


def test_shared_spellings_name_each_kinds_own_field():
    def owners(flag):
        return {kind: flags[flag][0] for kind, flags in KIND_FLAGS.items() if flag in flags}

    assert owners("--crash-time") == {
        "correlated-crash": "crash_time",
        "view-majority-loss": "crash_time",
        "partition-transient": "partition_start",
        "gray-degradation": "degrade_start",
    }
    assert owners("--crashed-process") == {
        "crash-transient": "crashed_process",
        "gray-degradation": "degraded_pid",
    }
    assert owners("--fault-duration") == {
        "partition-transient": "partition_duration",
        "gray-degradation": "degrade_duration",
    }
