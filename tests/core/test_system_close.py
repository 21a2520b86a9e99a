"""A finished system frees itself.

Every part of a :class:`~repro.system.BroadcastSystem` points at another, so
without :meth:`~repro.system.BroadcastSystem.close` a finished system is
cyclic garbage that only a full collector pass reclaims.  These tests switch
the collector off, run a system to the end, close it (directly or through an
owner site's ``with`` block) and then ask the collector what it can still
find: nothing.  They are the clock-free stand-in for the peak-RSS row of the
benchmark.
"""

import gc
import itertools
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro import SystemConfig, build_system
from repro.campaigns.runner import CampaignRunner
from repro.experiments import figure4
from repro.obs import Instrumentation
from repro.scenarios import run_kind
from repro.scenarios.faults import (
    CrashAt,
    DegradeLinkAt,
    FaultSchedule,
    HealAt,
    PartitionAt,
    RecoverAt,
    SuspectDuring,
)
from repro.scenarios.runner import ProbeSpec, ScenarioRunner, SteadyStateSpec
from repro.stacks.registry import (
    available_fd_kinds,
    available_stacks,
    get_stack,
    register_stack,
    unregister_stack,
)
from repro.system import NetworkModel


def cyclic_garbage(run):
    """What the collector finds after ``run()`` executed with it switched off.

    ``run`` executes once beforehand, so one-off garbage of a lazy import is
    not counted.  Returns a ``Counter`` of type names (empty: no cycles).
    """
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        gc.collect()


def _drive(config, until=400.0):
    """Build, broadcast from every process, run, read, close."""
    system = build_system(config)
    for index in range(4 * config.n):
        system.broadcast_at(5.0 * index, index % config.n, index)
    system.run(until=until)
    assert system.delivery_sequences()[0]
    system.close()


MATRIX = list(
    itertools.product(available_stacks(), available_fd_kinds(), (0, 4), (False, True))
)


@pytest.mark.parametrize(
    "stack, fd_kind, max_batch, instrument",
    MATRIX,
    ids=[f"{s}/{k}-batch{b}-obs{int(i)}" for s, k, b, i in MATRIX],
)
def test_closed_system_leaves_no_cycles(stack, fd_kind, max_batch, instrument):
    config = SystemConfig(
        n=5,
        stack=stack,
        fd_kind=fd_kind,
        instrument=instrument,
        max_batch=max_batch,
        max_delay=2.0 if max_batch else 0.0,
    )
    assert cyclic_garbage(lambda: _drive(config)) == Counter()


def _steady(schedule, network=None, stack="gm"):
    config = SystemConfig(n=5, stack=stack, network=network or NetworkModel())
    spec = SteadyStateSpec("mix", config, 100.0, num_messages=40, faults=schedule)
    return lambda: ScenarioRunner().run_steady(spec)


FAULT_MIX = {
    "crash-recover": _steady(FaultSchedule([CrashAt(20.0, 4), RecoverAt(150.0, 4)])),
    "partition-heal": _steady(
        FaultSchedule([PartitionAt(20.0, groups=((0, 1, 2), (3, 4))), HealAt(120.0)])
    ),
    "gray-link": _steady(FaultSchedule([DegradeLinkAt(10.0, 0, 1, loss_probability=0.3)])),
    "wan": _steady(FaultSchedule(), NetworkModel(wan_profile="wan-3dc"), stack="fd"),
    "suspect-during": _steady(FaultSchedule([SuspectDuring(20.0, 80.0, 4)])),
    # The view listeners of view-majority-loss's watch hook, through the
    # one steady run.
    "reformation": lambda: run_kind(
        "view-majority-loss", SystemConfig(n=5, stack="gm-reform"), 50.0, num_messages=40
    ),
}


def _shared_obs_probes():
    """Two probe executions feeding one caller-owned instrumentation."""
    obs = Instrumentation()
    for seed in (1, 2):
        ScenarioRunner().run_probe(
            ProbeSpec(
                config=SystemConfig(n=5, seed=seed),
                throughput=50.0,
                probe_sender=1,
                probe_time=100.0,
                faults=FaultSchedule([CrashAt(100.0, 0)]),
                obs=obs,
            )
        )
    assert obs.counters


FAULT_MIX["shared-obs-probe"] = _shared_obs_probes


@pytest.mark.parametrize("case", sorted(FAULT_MIX))
def test_owner_sites_leave_no_cycles(case):
    assert cyclic_garbage(FAULT_MIX[case]) == Counter()


def test_service_load_frees_its_system():
    # The service layer on top (request book-keeping, the reply and
    # completion listeners, the clients) keeps parts, never the system, and
    # none of its objects refers back to another: nothing waits for the
    # collector.
    config = SystemConfig(n=3, max_batch=4, max_delay=2.0)
    garbage = cyclic_garbage(lambda: run_kind("service-load", config, 200.0, num_messages=30))
    assert garbage == Counter()


def test_a_figure_campaign_leaves_no_cycles():
    def run():
        with CampaignRunner(jobs=1) as runner:
            runner.run(figure4.build_campaign(quick=True))

    assert cyclic_garbage(run) == Counter()


# ---------------------------------------------------------------- lifecycle


def test_close_is_idempotent_and_final():
    with build_system(SystemConfig(n=3)) as system:
        system.broadcast_at(1.0, 0, "m")
        system.run(until=50.0)
        process = weakref.ref(system.process(0))
    assert process() is None
    system.close()
    with pytest.raises(RuntimeError, match="closed"):
        system.run(until=100.0)


class Boom(Exception):
    """Raised by the test stack in the middle of a simulation."""


@pytest.fixture
def exploding_stack():
    """An ``fd`` stack whose process 0 raises at t = 30; yields weakrefs to
    the processes of every system built with it."""
    fd = get_stack("fd")
    built = []

    def explode():
        raise Boom("mid-simulation")

    def build(system, process, rbcast, consensus):
        built.append(weakref.ref(process))
        if process.pid == 0:
            process.set_timer(30.0, explode)
        return fd.build(system, process, rbcast, consensus)

    register_stack(replace(fd, name="fd-boom", build=build))
    yield built
    unregister_stack("fd-boom")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("normal-steady", {}),
        ("crash-transient", {"num_runs": 1}),
        ("view-majority-loss", {}),
        ("service-load", {}),
    ],
)
def test_a_point_that_raises_still_closes(exploding_stack, kind, params):
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            run_kind(kind, SystemConfig(n=5, stack="fd-boom"), 100.0, num_messages=20, **params)
        except Boom:
            # The traceback's frames still hold the system here ...
            assert exploding_stack[0]() is not None
        else:
            pytest.fail("the test stack did not raise")
        # ... and once it is gone, reference counting alone freed every process.
        assert [ref() for ref in exploding_stack] == [None] * len(exploding_stack)
    finally:
        if enabled:
            gc.enable()
