"""Golden-value tests: the paper's scenarios simulate the pinned behaviour.

Each steady-state row pins (mean latency, undelivered, duration, kernel
events, ``result.observed_digest``).  The digest folds every process's
delivery order, every measured latency, the final views and the crash
states, so a matching row means the run observed exactly what it did when
the row was captured.  The oldest rows date back to the first scenario
drivers; every refactor since kept them.  Re-capture a row only for a
deliberate change of simulated behaviour, and say so.
"""

import pytest

from repro import SystemConfig
from repro.scenarios import (
    run_crash_steady,
    run_normal_steady,
    run_suspicion_steady,
)
from repro.scenarios import run_crash_transient

#: (mean latency, undelivered, duration, events, observed digest).
GOLDEN_STEADY = {
    ("normal-steady", "fd"): (11.413199718013795, 0, 768.821849452246, 1460, "25bf80fd7c2ddf17"),
    ("normal-steady", "gm"): (11.413199718013795, 0, 768.821849452246, 1392, "3fdb85087a086ce7"),
    ("crash-steady", "fd"): (9.627147225463041, 0, 751.7707303878062, 1281, "3b35c527eb5e6818"),
    ("crash-steady", "gm"): (9.627147225463041, 0, 751.7707303878062, 1030, "e582152515ae6a4d"),
    ("suspicion-steady", "fd"): (8.88605195060407, 0, 5188.85601135372, 1157, "1c9f9706d02e5836"),
    ("suspicion-steady", "gm"): (12.393748769369768, 0, 5188.85601135372, 3574, "88e14ad325a851e2"),
}

#: (latencies, failed runs, sender).
GOLDEN_TRANSIENT = {
    "fd": ([37.0, 25.0, 22.0], 0, 2),
    "gm": ([25.0, 25.0, 25.0], 0, 2),
}

GOLDEN_CRASH_N7 = (15.858900609538008, 0, 365.12432269626055, 1581, "c94d00c1fba8fc99")

#: The third registered stack, captured from the pre-redesign (inline-wired)
#: seed drivers: the registry assembly must reproduce it bit for bit too.
GOLDEN_GM_NONUNIFORM = {
    "normal-steady": (2.720138110780536, 0, 762.821849452246, 715, "fd79cd3c207f4f47"),
    "suspicion-steady": (4.8246781814549875, 0, 5182.85601135372, 3136, "2238a1038483616c"),
}

#: Heartbeat / perfect failure detector variants, captured from the stack
#: registry as of PR 3 (before the reformation refactor threaded epochs
#: through the view identities): the whole registry matrix is frozen now,
#: not just the qos column.  crash-steady exercises real view changes on
#: the heartbeat fabric, pinning the GM view-change path per fd kind.
GOLDEN_VARIANTS = {
    ("normal-steady", "fd/heartbeat"): (16.12006560798542, 0, 769.821849452246, 2825, "fabef1fe7463d091"),
    ("normal-steady", "gm/heartbeat"): (16.12006560798542, 0, 769.821849452246, 2758, "8cd664cdfcd10617"),
    ("normal-steady", "gm-nonuniform/heartbeat"): (3.5099322101313337, 0, 762.821849452246, 2086, "4fb87d0714f9d862"),
    ("normal-steady", "fd/perfect"): (11.413199718013795, 0, 768.821849452246, 1460, "25bf80fd7c2ddf17"),
    ("normal-steady", "gm/perfect"): (11.413199718013795, 0, 768.821849452246, 1392, "3fdb85087a086ce7"),
    ("normal-steady", "gm-nonuniform/perfect"): (2.720138110780536, 0, 762.821849452246, 715, "fd79cd3c207f4f47"),
    ("crash-steady", "fd/heartbeat"): (11.395225719929488, 0, 756.0, 2189, "6c348c1d04b013a1"),
    ("crash-steady", "gm/heartbeat"): (11.395225719929488, 0, 756.0, 1938, "031c6fd15760eb40"),
    ("crash-steady", "fd/perfect"): (9.627147225463041, 0, 751.7707303878062, 1281, "3b35c527eb5e6818"),
    ("crash-steady", "gm/perfect"): (9.627147225463041, 0, 751.7707303878062, 1030, "e582152515ae6a4d"),
}

#: The reformation stack.  Failure-free runs are bit-identical to the plain
#: GM stack (the reformation path is completely inert without a stalled
#: view change); under wrong suspicions the deliveries, latencies and views
#: stay identical to plain GM (same digest) and only the event count grows,
#: by the armed reformation timers that fire without triggering (no
#: reformation happens).
GOLDEN_GM_REFORM = {
    "normal-steady": (11.413199718013795, 0, 768.821849452246, 1392, "3fdb85087a086ce7"),
    "suspicion-steady": (12.393748769369768, 0, 5188.85601135372, 3727, "88e14ad325a851e2"),
}


def observed(result):
    return (
        result.mean_latency,
        result.undelivered,
        result.duration,
        result.events,
        result.observed_digest,
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
        # Same deliveries, latencies and views as plain GM under wrong
        # suspicions (only the event count differs, by the
        # armed-but-untriggered reformation timers).
        assert suspicion.latencies and suspicion.observed_digest == (
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
