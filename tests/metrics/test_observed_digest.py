"""``observed_digest``: one hash of what a finished run observed.

It folds every process's delivery order, the measured latencies, the final
views and the crash states, and nothing about how the kernel got there: the
same observations under one more kernel event hash the same, while one
reordered delivery does not.
"""

import itertools
import re
from dataclasses import replace

import pytest

from repro import SystemConfig, build_system
from repro.campaigns.aggregate import merge_scenario_results
from repro.campaigns.records import record_to_result, result_to_record
from repro.metrics import observed_digest
from repro.scenarios.registry import run_kind
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.stacks.registry import (
    available_fd_kinds,
    available_stacks,
    get_stack,
    register_stack,
    unregister_stack,
)

#: One crash-steady point: deliveries, a crashed process and, on the GM
#: stacks, a view change all reach the digest.
POINT = dict(throughput=100.0, num_messages=30, crashed=(4,))


def crash_steady(stack, **system):
    return run_kind("crash-steady", SystemConfig(n=5, stack=stack, seed=3, **system), **POINT)


@pytest.fixture(params=["fd", "gm"])
def noisy_stack(request):
    """A test-registered copy of a stack whose build posts one no-op kernel event."""
    base = get_stack(request.param)

    def build(system, process, rbcast, consensus):
        if process.pid == 0:
            system.sim.post(1.0, lambda: None)
        return base.build(system, process, rbcast, consensus)

    noisy = register_stack(replace(base, name=f"{base.name}-noisy", build=build))
    yield base.name, noisy.name
    unregister_stack(noisy.name)


def test_one_more_kernel_event_leaves_the_digest_unchanged(noisy_stack):
    base, noisy = noisy_stack
    plain, extra = crash_steady(base), crash_steady(noisy)
    assert extra.events == plain.events + 1
    assert extra.latencies == plain.latencies
    assert extra.observed_digest == plain.observed_digest


def test_swapping_two_deliveries_at_one_process_changes_the_digest():
    spec = SteadyStateSpec("normal-steady", SystemConfig(n=3, seed=3), 100.0, num_messages=20)
    with build_system(spec.config) as system:
        result = ScenarioRunner().run_steady_on(system, spec)
        assert observed_digest(system, result.latencies) == result.observed_digest
        log = system.abcasts[1].delivered
        log[0], log[1] = log[1], log[0]
        assert observed_digest(system, result.latencies) != result.observed_digest
        log[0], log[1] = log[1], log[0]
        assert observed_digest(system, result.latencies) == result.observed_digest


@pytest.mark.parametrize("stack", ["fd", "gm"])
def test_the_three_steady_entry_points_agree(stack):
    config = SystemConfig(n=3, stack=stack, seed=5)
    spec = SteadyStateSpec("normal-steady", config, 100.0, num_messages=40)
    runner = ScenarioRunner()
    direct = runner.run_steady(spec)
    with build_system(config) as system:
        on = runner.run_steady_on(system, spec)
    by_kind = run_kind("normal-steady", config, 100.0, num_messages=40)
    assert direct.observed_digest == on.observed_digest == by_kind.observed_digest


MATRIX = list(itertools.product(available_stacks(), available_fd_kinds(), (0, 4)))


@pytest.mark.parametrize(
    "stack, fd_kind, max_batch", MATRIX, ids=[f"{s}/{k}-batch{b}" for s, k, b in MATRIX]
)
def test_every_stack_fd_kind_and_batching_produces_a_digest(stack, fd_kind, max_batch):
    result = crash_steady(
        stack, fd_kind=fd_kind, max_batch=max_batch, max_delay=2.0 if max_batch else 0.0
    )
    assert re.fullmatch("[0-9a-f]{16}", result.observed_digest)


def test_records_and_merged_replicas_carry_no_digest():
    result = crash_steady("gm")
    assert record_to_result(result_to_record(result)).observed_digest is None
    assert merge_scenario_results([result]).observed_digest == result.observed_digest
    assert merge_scenario_results([result, result]).observed_digest is None
