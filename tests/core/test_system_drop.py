"""A dropped system frees itself.

No part of a :class:`~repro.system.BroadcastSystem` refers back to it: the
listeners, callbacks and queued events registered inside it capture the
kernel or the parts they use.  So when its owner lets go of a system,
reference counting finalizes it, the finalizer calls
:meth:`~repro.system.BroadcastSystem.close`, and that frees every part.
These tests run a system through the caller-owned
:meth:`~repro.scenarios.runner.ScenarioRunner.run_steady_on`, drop it with
the collector switched off and find the facade, every process and the
kernel gone -- with nothing left over for the collector either.
"""

import gc
import itertools
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro import SystemConfig, build_system
from repro.replication.service import ReplicatedService
from repro.replication.state_machine import Command
from repro.scenarios.faults import CrashAt, FaultSchedule, PoissonChurn
from repro.scenarios import runner
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.scenarios.service_load import run_service_load
from repro.stacks.registry import (
    available_fd_kinds,
    available_stacks,
    get_stack,
    register_fd_kind,
    register_stack,
    unregister_fd_kind,
    unregister_stack,
)
from repro.system import BroadcastSystem
from repro.workload.generator import PoissonWorkload
from tests.core.test_system_close import cyclic_garbage

#: How the measured run ends: drained, cut by the event budget with
#: arrivals still queued (``EXHAUSTED_BUDGET`` events), or under a crash plus
#: crash-recovery churn.
EXHAUSTED_BUDGET = 300
FORMS = {
    "completed": {},
    "exhausted": {},
    "churn-crash": {
        "faults": FaultSchedule(
            [CrashAt(20.0, 4), PoissonChurn(rate=10.0, mean_downtime=60.0, until=400.0)]
        ),
        "senders": list(range(5)),
        "reassign_crashed_senders": True,
    },
}


def _run_and_drop(config, form):
    """Run one point on a caller-owned system, drop it and report which of
    the facade, the kernel and the processes are still alive."""
    system = build_system(config)
    spec = SteadyStateSpec("drop", config, 100.0, num_messages=20, **FORMS[form])
    result = ScenarioRunner().run_steady_on(system, spec)
    assert result.events > 0
    refs = {"system": weakref.ref(system), "sim": weakref.ref(system.sim)}
    refs.update((f"p{p.pid}", weakref.ref(p)) for p in system.processes)
    del system
    return sorted(name for name, ref in refs.items() if ref() is not None)


MATRIX = list(
    itertools.product(
        available_stacks(), available_fd_kinds(), (0, 4), (False, True), sorted(FORMS)
    )
)


@pytest.mark.parametrize(
    "stack, fd_kind, max_batch, instrument, form",
    MATRIX,
    ids=[f"{s}/{k}-batch{b}-obs{int(i)}-{f}" for s, k, b, i, f in MATRIX],
)
def test_a_dropped_system_frees_itself(stack, fd_kind, max_batch, instrument, form, monkeypatch):
    if form == "exhausted":
        monkeypatch.setattr(runner, "DEFAULT_MAX_EVENTS", EXHAUSTED_BUDGET)
    config = SystemConfig(
        n=5,
        stack=stack,
        fd_kind=fd_kind,
        instrument=instrument,
        max_batch=max_batch,
        max_delay=2.0 if max_batch else 0.0,
    )
    alive = []
    # The second call of ``run`` is the one made with the collector off.
    garbage = cyclic_garbage(lambda: alive.append(_run_and_drop(config, form)))
    assert alive[-1] == []
    assert garbage == Counter()


@pytest.mark.parametrize("stack", ["fd", "gm"])
def test_a_finished_closed_loop_point_leaves_no_cycle(stack):
    # The client population subscribes to the service's completions; it lets
    # go when it issues its last request, so the run leaves the population
    # and the service to reference counting, with nothing for the collector.
    garbage = cyclic_garbage(
        lambda: run_service_load(
            SystemConfig(n=3, stack=stack), 200.0, clients=4, think_time=5.0, num_requests=40
        )
    )
    assert garbage == Counter()


# ---------------------------------------------------------------- owners and parts


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_a_held_service_leaves_its_system_to_the_owner(collector_off):
    # The service keeps the parts it uses, never the system: the owner holds
    # the system while the service runs, and dropping it frees the system
    # however long the service lives on.
    system = build_system(SystemConfig(n=3))
    service = ReplicatedService(system)
    for index in range(5):
        command = Command("put", f"k{index}", index)
        service.sim.post_at(1.0 + index, service.submit, index % 3, command)
    system.run(until=500.0)
    assert len(service.requests) == 5
    assert service.replicas_consistent()
    assert service.replicas[0].get("k4") == 4
    system_ref = weakref.ref(system)
    del system
    assert system_ref() is None
    assert vars(service.processes[0]) == {}


def test_a_part_kept_past_its_system_is_dead(collector_off):
    system = build_system(SystemConfig(n=3))
    process, sim = system.process(0), system.sim
    workload = PoissonWorkload(system, 100.0)
    workload.schedule_messages(5)
    assert sim.pending_events >= 5
    system_ref = weakref.ref(system)
    del system
    assert system_ref() is None
    # The kernel is empty and every other part has lost its attributes.
    assert sim.pending_events == 0
    assert vars(process) == {}
    with pytest.raises(AttributeError):
        process.pid
    # The workload only held parts: it is dead with them.
    assert vars(workload.processes[1]) == {}


# ---------------------------------------------------------------- half-built systems


@pytest.fixture
def unraisable(monkeypatch):
    """Every exception a finalizer raised (and Python ignored) meanwhile."""
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)
    return seen


class Broken(Exception):
    """Raised by the test stack's layer builder or fd kind's factory."""


@pytest.fixture
def broken_config():
    """Two systems whose constructor raises: the ``fd`` stack's layer builder
    on process 1 (after the kernel, network and fabric exist), and an fd
    kind's factory (before any process exists)."""
    fd = get_stack("fd")

    def build(system, process, rbcast, consensus):
        if process.pid == 1:
            raise Broken("builder")
        return fd.build(system, process, rbcast, consensus)

    def fabric(sim, network, rng, config):
        raise Broken("fabric")

    register_stack(replace(fd, name="fd-broken", build=build))
    register_fd_kind("broken", fabric)
    yield {
        "builder": SystemConfig(n=3, stack="fd-broken"),
        "fabric": SystemConfig(n=3, fd_kind="broken"),
    }
    unregister_stack("fd-broken")
    unregister_fd_kind("broken")


@pytest.mark.parametrize("where", ["builder", "fabric"])
def test_a_system_whose_constructor_raised_finalizes_silently(broken_config, where, unraisable):
    try:
        build_system(broken_config[where])
    except Broken:
        pass
    else:
        pytest.fail("the test stack did not raise")
    gc.collect()
    assert unraisable == []


def test_closing_a_system_that_never_had_parts_is_a_no_op(unraisable):
    system = BroadcastSystem.__new__(BroadcastSystem)
    system.close()
    del system
    assert unraisable == []
