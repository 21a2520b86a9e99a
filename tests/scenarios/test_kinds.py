"""The built-in kinds behave the same on the direct path and the campaign path.

``run_kind`` and ``PointSpec`` take the same three steps (build the kind's
params, ``ScenarioKind.check``, ``run``), so the same stated parameters simulate the
same system and the same bad input is rejected with the same message.
"""

import math

import pytest

import repro.scenarios as scenarios
from repro import SystemConfig
from repro.campaigns.records import result_to_record
from repro.campaigns.runner import execute_point
from repro.campaigns.spec import PointSpec
from repro.scenarios.registry import available_kinds, get_kind, run_kind

#: The parameters a kind cannot default (its ``validate`` rejects the default).
REQUIRED = {
    "crash-steady": {"crashed": (2,)},
    "suspicion-steady": {"mistake_recurrence_time": 200.0},
    "correlated-crash": {"crashed": (2,)},
    "churn-steady": {"churn_rate": 2.0, "mean_downtime": 150.0},
    "asymmetric-qos": {"mistake_recurrence_time": 200.0},
}


class TestOneDefaultPerParameter:
    @pytest.mark.parametrize("name", available_kinds())
    def test_direct_and_campaign_paths_simulate_the_same_system(self, name, algorithm):
        params = REQUIRED.get(name, {})
        direct = run_kind(
            name, SystemConfig(n=3, stack=algorithm, seed=7), 100.0, num_messages=20, **params
        )
        point = PointSpec(
            name, stack=algorithm, n=3, seed=7, throughput=100.0, num_messages=20, **params
        )
        assert result_to_record(direct) == execute_point(point)

    def test_every_builtin_has_a_bound_entry_point(self):
        for name in available_kinds():
            assert "run_" + name.replace("-", "_") in scenarios.__all__
        config = SystemConfig(n=3, stack="fd", seed=7)
        bound = scenarios.run_churn_steady(
            config, throughput=100.0, churn_rate=2.0, mean_downtime=150.0, num_messages=20
        )
        direct = run_kind(
            "churn-steady", config, 100.0, num_messages=20, churn_rate=2.0, mean_downtime=150.0
        )
        assert result_to_record(bound) == result_to_record(direct)
        assert bound.params["detection_time"] == 0.0


#: (kind, core fields, kind params, message): every input a kind rejects.
INVALID = [
    ("crash-steady", {}, {}, "non-empty crashed"),
    ("crash-steady", {"n": 3}, {"crashed": (1, 2)}, "2 crashes exceed the f < n/2 bound for n=3"),
    ("crash-steady", {"n": 3}, {"crashed": (7,)}, "names process 7"),
    ("suspicion-steady", {}, {"mistake_recurrence_time": math.inf}, "finite mistake_recurrence"),
    ("suspicion-steady", {"fd_kind": "heartbeat"}, {"mistake_recurrence_time": 100.0}, "fd_kind"),
    ("crash-transient", {"fd_kind": "heartbeat"}, {}, r"period \+ timeout"),
    ("crash-transient", {}, {"crashed_process": 1, "sender": 1}, "must differ"),
    ("crash-transient", {"n": 3}, {"crashed_process": 7}, "names process 7"),
    ("crash-transient", {"n": 3}, {"sender": 3}, "sender 3 out of range"),
    ("crash-transient", {"n": 1}, {}, "n >= 2"),
    ("correlated-crash", {}, {}, r"needs at least one process, got pids=\(\)"),
    ("correlated-crash", {"n": 5}, {"crashed": (2, 3, 4)}, "3 crashes exceed the f < n/2 bound"),
    ("churn-steady", {}, {"churn_rate": 0.0}, "churn rate must be > 0 crashes/s, got 0.0"),
    ("churn-steady", {}, {"churn_rate": 1.0, "mean_downtime": 0.0}, "mean_downtime must be > 0"),
    ("asymmetric-qos", {}, {"mistake_recurrence_time": math.inf}, "finite mistake_recurrence"),
    ("asymmetric-qos", {"fd_kind": "perfect"}, {"mistake_recurrence_time": 100.0}, "fd_kind"),
    (
        "asymmetric-qos", {},
        {"mistake_recurrence_time": 100.0, "flaky_monitor": 1, "flaky_target": 1},
        r"does not monitor itself: pair \(1, 1\)",
    ),
    (
        "asymmetric-qos", {"n": 3}, {"mistake_recurrence_time": 100.0, "flaky_target": 9},
        "flaky pair process 9 out of range",
    ),
    ("view-majority-loss", {"n": 2}, {}, "n >= 3"),
    ("view-majority-loss", {}, {"crash_time": 500.0}, "suspicion window"),
    ("service-load", {}, {"clients": -1}, "clients must be >= 0"),
    ("service-load", {}, {"think_time": -1.0}, "think_time must be >= 0"),
    ("service-load", {}, {"consistency": "eventual"}, "consistency must be"),
    ("partition-transient", {"n": 2}, {}, "n >= 3"),
    ("partition-transient", {}, {"partition_duration": 0.0}, "partition_duration must be > 0"),
    ("wan-steady", {}, {"wan_profile": "wan-nope"}, "unknown WAN profile"),
    ("gray-degradation", {}, {"degrade_factor": 1.0}, "degrade_factor > 1"),
    ("gray-degradation", {"n": 3}, {"degraded_pid": 9}, "degraded_pid 9 out of range"),
    ("gray-degradation", {}, {"link_loss": 1.0}, "link_loss must be in"),
    ("gray-degradation", {}, {"degrade_duration": 0.0}, "degrade_duration must be > 0"),
    ("normal-steady", {}, {"crashed": (1,)}, "normal-steady points take no"),
    ("wan-steady", {}, {"profile": "wan-5dc"}, r"declares \['wan_profile', 'detection_time'\]"),
    ("normal-steady", {"throughput": 0.0}, {}, "throughput must be finite and > 0"),
    ("service-load", {"throughput": -1.0}, {}, "throughput must be finite and > 0"),
    ("wan-steady", {"throughput": math.inf}, {}, "throughput must be finite and > 0"),
    ("view-majority-loss", {"num_messages": -1}, {}, "num_messages must be >= 0"),
    # Rules a constructor owns, reached at declaration because validate builds the run.
    ("crash-transient", {}, {"detection_time": -5.0}, "detection_time must be >= 0, got -5"),
    ("crash-transient", {}, {"num_runs": 0}, "num_runs must be >= 1, got 0"),
    ("suspicion-steady", {}, {"mistake_duration": -1.0}, "mistake_duration must be >= 0, got -1"),
    ("suspicion-steady", {}, {"mistake_recurrence_time": 0.0}, "mistake_recurrence_time must be > 0"),
    ("asymmetric-qos", {}, {"mistake_recurrence_time": -3.0}, "mistake_recurrence_time must be > 0"),
    ("churn-steady", {}, {"detection_time": -1.0}, "detection_time must be >= 0, got -1"),
    ("wan-steady", {}, {"detection_time": -1.0}, "detection_time must be >= 0, got -1"),
    ("view-majority-loss", {}, {"detection_time": -1.0}, "detection_time must be >= 0, got -1"),
    ("gray-degradation", {}, {"degrade_start": -10.0}, "cannot predate the run, got time=-10"),
    ("partition-transient", {}, {"partition_start": -5.0}, "cannot predate the run, got time=-5"),
    ("correlated-crash", {"n": 5}, {"crash_time": -1.0}, "cannot predate the run, got time=-1"),
]

#: Former driver keywords no caller set: constants now, on every path.
REMOVED_KEYWORDS = (
    "warmup_fraction", "max_time", "max_events", "max_wait", "suspect_start",
    "suspect_duration", "fd_slack",
)


class TestInvalidInputIsRejectedAtDeclaration:
    @pytest.mark.parametrize(
        "kind, core, params, message",
        INVALID,
        ids=[f"{row[0]}-{'-'.join({**row[1], **row[2]}) or 'defaults'}" for row in INVALID],
    )
    def test_on_both_paths_with_one_message(self, kind, core, params, message):
        with pytest.raises(ValueError, match=message):
            PointSpec(kind, **core, **params)
        system = dict(core)
        throughput = system.pop("throughput", 50.0)
        num_messages = system.pop("num_messages", 10)
        with pytest.raises(ValueError, match=message):
            run_kind(kind, SystemConfig(**system), throughput, num_messages=num_messages, **params)

    @pytest.mark.parametrize("name", available_kinds())
    def test_no_entry_point_takes_a_removed_keyword(self, name):
        entry = getattr(scenarios, "run_" + name.replace("-", "_"))
        for keyword in REMOVED_KEYWORDS:
            assert keyword not in get_kind(name).param_names
            with pytest.raises(ValueError, match=f"{name} points take no"):
                run_kind(name, SystemConfig(), 50.0, **{keyword: 1.0})
            with pytest.raises((ValueError, TypeError), match=keyword):
                entry(SystemConfig(), 50.0, **{keyword: 1.0})
