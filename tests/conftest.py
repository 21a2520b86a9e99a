"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

import pytest
from hypothesis import settings

from repro import BroadcastSystem, SystemConfig, build_system
from repro.core.types import BroadcastID
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import RandomStreams


# --------------------------------------------------------------------------- hypothesis

# Tier-1 must be a function of the tree: the default profile derives every
# example from the test itself and keeps no example database, so whatever
# ``.hypothesis/examples`` holds cannot turn the run red or green.
# The random search runs separately (``--hypothesis-profile explore``); what
# it finds is committed as an ``@example``.  Registered before any test
# module is imported, so per-test ``@settings(...)`` inherit the profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


# --------------------------------------------------------------------------- helpers


def make_simulator() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


def make_network(n: int = 3, lambda_cpu: float = 1.0, sim: Simulator = None) -> Network:
    """A network with ``n`` attached no-op processes is NOT created here;
    callers attach their own delivery callbacks."""
    sim = sim or Simulator()
    return Network(sim, NetworkConfig(n=n, lambda_cpu=lambda_cpu))


def run_workload(
    system: BroadcastSystem,
    broadcasts: Sequence,
    until: float = 60_000.0,
    max_events: int = 2_000_000,
) -> None:
    """Schedule ``broadcasts`` (time, sender, payload) and run the system."""
    system.start()
    for time, sender, payload in broadcasts:
        system.broadcast_at(time, sender, payload)
    system.run(until=until, max_events=max_events)


def poisson_broadcasts(
    count: int,
    rate_per_ms: float,
    senders: Sequence[int],
    seed: int = 0,
    start: float = 1.0,
) -> List:
    """Generate a simple random broadcast schedule for integration tests."""
    rnd = random.Random(seed)
    time = start
    plan = []
    for i in range(count):
        time += rnd.expovariate(rate_per_ms)
        plan.append((time, rnd.choice(list(senders)), f"payload-{i}"))
    return plan


def assert_prefix_consistent(sequences: Dict[int, List[BroadcastID]], processes=None) -> None:
    """Assert the total-order property: delivery sequences are prefixes of each other."""
    pids = list(processes) if processes is not None else list(sequences)
    for i, a in enumerate(pids):
        for b in pids[i + 1 :]:
            seq_a, seq_b = sequences[a], sequences[b]
            prefix = min(len(seq_a), len(seq_b))
            assert seq_a[:prefix] == seq_b[:prefix], (
                f"total order violated between p{a} and p{b}: "
                f"{seq_a[:prefix]} vs {seq_b[:prefix]}"
            )


def assert_no_duplicates(sequences: Dict[int, List[BroadcastID]]) -> None:
    """Assert no process delivered the same message twice."""
    for pid, sequence in sequences.items():
        assert len(sequence) == len(set(sequence)), f"p{pid} delivered duplicates"


# --------------------------------------------------------------------------- fixtures


@pytest.fixture
def simulator() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> RandomStreams:
    """Deterministic random streams for tests."""
    return RandomStreams(seed=1234)


@pytest.fixture(params=["fd", "gm"])
def algorithm(request) -> str:
    """Parametrised over the two uniform atomic broadcast algorithms."""
    return request.param


@pytest.fixture(params=["fd", "gm", "gm-nonuniform"])
def any_algorithm(request) -> str:
    """Parametrised over all atomic broadcast variants."""
    return request.param


@pytest.fixture
def small_system(algorithm) -> BroadcastSystem:
    """A three-process system running the parametrised algorithm."""
    return build_system(SystemConfig(n=3, stack=algorithm, seed=7))
