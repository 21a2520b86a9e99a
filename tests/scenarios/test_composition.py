"""A fault list no built-in kind produces, run on every stack.

A crash inside a partition: five processes split into ``{0, 1, 2}`` and
``{3, 4}`` at 300 ms, p2 (on the majority side) crashes at 600 ms, and the
cut heals at 1200 ms.  The run is built from :class:`SteadyStateSpec` and
:class:`FaultSchedule` alone, with every process sending and a crashed
sender's arrivals redirected, so it needs no scenario kind and no new point
field.  Safety must hold on every stack; the GM stacks also deliver every
measured message.  FD does not: it orders nothing after the cut, the same
gap the built-in ``partition-transient`` kind shows (ROADMAP 25).
"""

import functools

import pytest

from repro import SystemConfig, build_system
from repro.core.consensus import _RESYNC
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.faults import CrashAt, FaultSchedule, HealAt, PartitionAt
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from tests.conftest import assert_no_duplicates, assert_prefix_consistent

STACKS = ("fd", "gm", "gm-reform", "gm-nonuniform")


def resync_on_restored_trust(system):
    """On restored trust in ``pid``, every undecided consensus instance of the
    trusting process repeats what it addressed to ``pid`` (``_on_resync``)
    and asks ``pid`` for the same (a RESYNC): what a recovery does, on every
    trust instead."""
    for service in system.consensus_services:

        def on_change(pid, suspected, service=service):
            if suspected or service.process.crashed:
                return
            for instance in list(service._instances.values()):
                instance._on_resync(pid)
                instance._send(pid, (_RESYNC, instance.cid, instance.round))

        service.process.failure_detector.add_listener(on_change)


@functools.lru_cache(maxsize=None)
def run_crash_in_partition(stack, resync=False):
    """``(undelivered measured messages, delivery sequences)`` of one run on
    ``stack``, under :func:`resync_on_restored_trust` if ``resync``."""
    config = SystemConfig(n=5, stack=stack, seed=1, fd=QoSConfig(detection_time=10.0))
    spec = SteadyStateSpec(
        scenario="crash-in-partition",
        config=config,
        throughput=50.0,
        num_messages=60,
        faults=FaultSchedule(
            [PartitionAt(300.0, groups=((0, 1, 2), (3, 4))), CrashAt(600.0, 2), HealAt(1200.0)]
        ),
        senders=list(range(5)),
        reassign_crashed_senders=True,
    )
    with build_system(config) as system:
        if resync:
            resync_on_restored_trust(system)
        result = ScenarioRunner().run_steady_on(system, spec)
        return result.undelivered, system.delivery_sequences()


@pytest.mark.parametrize("stack", STACKS)
def test_safety_holds_on_every_stack(stack):
    _undelivered, sequences = run_crash_in_partition(stack)
    assert_prefix_consistent(sequences)
    assert_no_duplicates(sequences)


@pytest.mark.parametrize(
    "stack",
    [
        pytest.param(
            "fd",
            marks=pytest.mark.xfail(
                strict=True,
                reason="FD orders nothing after the cut: 51 of 60 measured messages "
                "are still undelivered at the horizon",
            ),
        ),
        *STACKS[1:],
    ],
)
def test_every_measured_message_is_delivered(stack):
    undelivered, _sequences = run_crash_in_partition(stack)
    assert undelivered == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 29: with a resync on every restored trust, gm-reform breaks total order",
)
def test_gm_reform_stays_safe_when_every_restored_trust_resyncs():
    _undelivered, sequences = run_crash_in_partition("gm-reform", resync=True)
    assert_prefix_consistent(sequences)
    assert_no_duplicates(sequences)
