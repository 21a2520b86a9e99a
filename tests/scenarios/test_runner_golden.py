"""Golden-value tests: the ScenarioRunner reproduces the legacy drivers.

The values below were captured from the seed repository's hand-written
scenario drivers (``scenarios/steady.py`` / ``scenarios/transient.py``
before the fault-schedule refactor).  The refactored drivers must keep
construction order, listener registration order and random-stream usage
identical, so every number matches bit for bit.
"""

import hashlib
import json

import pytest

from repro import SystemConfig
from repro.scenarios import (
    run_crash_steady,
    run_normal_steady,
    run_suspicion_steady,
)
from repro.scenarios import run_crash_transient

#: (mean latency, undelivered, duration, events, sha256 prefix of latencies).
GOLDEN_STEADY = {
    ("normal-steady", "fd"): (11.413199718013795, 0, 768.821849452246, 1460, "2b0063a941aa1017"),
    ("normal-steady", "gm"): (11.413199718013795, 0, 768.821849452246, 1392, "2b0063a941aa1017"),
    ("crash-steady", "fd"): (9.627147225463041, 0, 751.7707303878062, 1281, "08872b3cb8dbe753"),
    ("crash-steady", "gm"): (9.627147225463041, 0, 751.7707303878062, 1030, "08872b3cb8dbe753"),
    ("suspicion-steady", "fd"): (8.88605195060407, 0, 5188.85601135372, 1162, "9cce3be47913a585"),
    ("suspicion-steady", "gm"): (12.393748769369768, 0, 5188.85601135372, 3574, "7107422ba56e637f"),
}

#: (latencies, failed runs, sender).
GOLDEN_TRANSIENT = {
    "fd": ([37.0, 25.0, 22.0], 0, 2),
    "gm": ([25.0, 25.0, 25.0], 0, 2),
}

GOLDEN_CRASH_N7 = (15.858900609538008, 0, 365.12432269626055, 1581, "6d5bdcea3e40f72a")

#: The third registered stack, captured from the pre-redesign (inline-wired)
#: seed drivers: the registry assembly must reproduce it bit for bit too.
GOLDEN_GM_NONUNIFORM = {
    "normal-steady": (2.720138110780536, 0, 762.821849452246, 715, "5f5c83989982481c"),
    "suspicion-steady": (4.8246781814549875, 0, 5182.85601135372, 3136, "98bdd4b319bb9120"),
}

#: Heartbeat / perfect failure detector variants, captured from the stack
#: registry as of PR 3 (before the reformation refactor threaded epochs
#: through the view identities): the whole registry matrix is frozen now,
#: not just the qos column.  crash-steady exercises real view changes on
#: the heartbeat fabric, pinning the GM view-change path per fd kind.
GOLDEN_VARIANTS = {
    ("normal-steady", "fd/heartbeat"): (16.12006560798542, 0, 769.821849452246, 2825, "012a1604291043ea"),
    ("normal-steady", "gm/heartbeat"): (16.12006560798542, 0, 769.821849452246, 2758, "012a1604291043ea"),
    ("normal-steady", "gm-nonuniform/heartbeat"): (3.5099322101313337, 0, 762.821849452246, 2086, "bce99586a6e51808"),
    ("normal-steady", "fd/perfect"): (11.413199718013795, 0, 768.821849452246, 1460, "2b0063a941aa1017"),
    ("normal-steady", "gm/perfect"): (11.413199718013795, 0, 768.821849452246, 1392, "2b0063a941aa1017"),
    ("normal-steady", "gm-nonuniform/perfect"): (2.720138110780536, 0, 762.821849452246, 715, "5f5c83989982481c"),
    ("crash-steady", "fd/heartbeat"): (11.395225719929488, 0, 756.0, 2189, "d7828db4504ce15a"),
    ("crash-steady", "gm/heartbeat"): (11.395225719929488, 0, 756.0, 1938, "d7828db4504ce15a"),
    ("crash-steady", "fd/perfect"): (9.627147225463041, 0, 751.7707303878062, 1281, "08872b3cb8dbe753"),
    ("crash-steady", "gm/perfect"): (9.627147225463041, 0, 751.7707303878062, 1030, "08872b3cb8dbe753"),
}

#: The reformation stack.  Failure-free runs are bit-identical to the plain
#: GM stack (the reformation path is completely inert without a stalled
#: view change); under wrong suspicions the *latencies* stay identical to
#: plain GM (same digest) and only the event count grows, by the armed
#: reformation timers that fire without triggering (no reformation happens).
GOLDEN_GM_REFORM = {
    "normal-steady": (11.413199718013795, 0, 768.821849452246, 1392, "2b0063a941aa1017"),
    "suspicion-steady": (12.393748769369768, 0, 5188.85601135372, 3727, "7107422ba56e637f"),
}


def latency_digest(latencies):
    return hashlib.sha256(json.dumps(latencies).encode()).hexdigest()[:16]


def observed(result):
    return (
        result.mean_latency,
        result.undelivered,
        result.duration,
        result.events,
        latency_digest(result.latencies),
    )


class TestGoldenSteady:
    def test_normal_steady_matches_seed_driver(self, algorithm):
        result = run_normal_steady(
            SystemConfig(n=3, stack=algorithm, seed=31), throughput=100, num_messages=60
        )
        assert observed(result) == GOLDEN_STEADY[("normal-steady", algorithm)]

    def test_crash_steady_matches_seed_driver(self, algorithm):
        result = run_crash_steady(
            SystemConfig(n=3, stack=algorithm, seed=31),
            throughput=100,
            crashed=[2],
            num_messages=60,
        )
        assert observed(result) == GOLDEN_STEADY[("crash-steady", algorithm)]

    def test_suspicion_steady_matches_seed_driver(self, algorithm):
        result = run_suspicion_steady(
            SystemConfig(n=3, stack=algorithm, seed=31),
            throughput=10,
            mistake_recurrence_time=500.0,
            mistake_duration=5.0,
            num_messages=40,
        )
        assert observed(result) == GOLDEN_STEADY[("suspicion-steady", algorithm)]

    def test_crash_steady_n7_matches_seed_driver(self):
        result = run_crash_steady(
            SystemConfig(n=7, stack="fd", seed=7),
            throughput=100,
            crashed=[4, 5, 6],
            num_messages=40,
        )
        assert observed(result) == GOLDEN_CRASH_N7

    def test_gm_nonuniform_matches_seed_driver(self):
        normal = run_normal_steady(
            SystemConfig(n=3, stack="gm-nonuniform", seed=31),
            throughput=100,
            num_messages=60,
        )
        assert observed(normal) == GOLDEN_GM_NONUNIFORM["normal-steady"]
        suspicion = run_suspicion_steady(
            SystemConfig(n=3, stack="gm-nonuniform", seed=31),
            throughput=10,
            mistake_recurrence_time=500.0,
            mistake_duration=5.0,
            num_messages=40,
        )
        assert observed(suspicion) == GOLDEN_GM_NONUNIFORM["suspicion-steady"]

    @pytest.mark.parametrize("kind,stack", sorted(GOLDEN_VARIANTS))
    def test_fd_variant_matches_captured_baseline(self, kind, stack):
        config = SystemConfig(n=3, stack=stack, seed=31)
        if kind == "normal-steady":
            result = run_normal_steady(config, throughput=100, num_messages=60)
        else:
            result = run_crash_steady(config, throughput=100, crashed=[2], num_messages=60)
        assert observed(result) == GOLDEN_VARIANTS[(kind, stack)]

    def test_gm_reform_matches_captured_baseline(self):
        normal = run_normal_steady(
            SystemConfig(n=3, stack="gm-reform", seed=31),
            throughput=100,
            num_messages=60,
        )
        assert observed(normal) == GOLDEN_GM_REFORM["normal-steady"]
        # Inert-reformation invariant: identical to plain GM bit for bit.
        assert observed(normal) == GOLDEN_STEADY[("normal-steady", "gm")]
        suspicion = run_suspicion_steady(
            SystemConfig(n=3, stack="gm-reform", seed=31),
            throughput=10,
            mistake_recurrence_time=500.0,
            mistake_duration=5.0,
            num_messages=40,
        )
        assert observed(suspicion) == GOLDEN_GM_REFORM["suspicion-steady"]
        # Same latencies as plain GM under wrong suspicions (only the event
        # count differs, by the armed-but-untriggered reformation timers).
        assert suspicion.latencies and latency_digest(suspicion.latencies) == (
            GOLDEN_STEADY[("suspicion-steady", "gm")][4]
        )


class TestGoldenTransient:
    def test_crash_transient_matches_seed_driver(self, algorithm):
        result = run_crash_transient(
            SystemConfig(n=3, stack=algorithm, seed=41),
            throughput=50,
            detection_time=10.0,
            num_runs=3,
        )
        expected_latencies, expected_failed, expected_sender = GOLDEN_TRANSIENT[algorithm]
        assert result.latencies == pytest.approx(expected_latencies)
        assert result.failed_runs == expected_failed
        assert result.sender == expected_sender
