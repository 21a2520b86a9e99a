"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import os
import pathlib
import random
import re
import shutil
import sys
import tempfile
import time
import types
from typing import Dict, Iterator, List, Optional, Sequence

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


# --------------------------------------------------------------------------- temporary files

# The store tests fsync on every put, and on a disk-backed temporary
# directory those syncs dominate the suite's wall time.  So when /dev/shm is
# a writable tmpfs, each run puts pytest's base temp directory and
# ``tempfile``'s default (``TMPDIR`` too, for worker processes) in a fresh
# directory there, removed when the run ends.  An explicit ``--basetemp``
# wins.  Tests marked ``real_filesystem`` keep the disk through the
# ``real_tmp_path`` fixture, so a bug only a real file system shows still has
# a witness.
_REAL_TMPDIR = tempfile.gettempdir()
_RUN_TMPDIR: Optional[str] = None


def _writable_tmpfs(path: str = "/dev/shm") -> bool:
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            fs_types = {
                fields[1]: fields[2] for fields in map(str.split, mounts) if len(fields) > 2
            }
    except OSError:
        return False
    return fs_types.get(path) == "tmpfs" and os.access(path, os.W_OK)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config) -> None:
    global _RUN_TMPDIR
    config.addinivalue_line(
        "markers",
        "real_filesystem: runs in the disk-backed temporary directory (real_tmp_path)",
    )
    if config.option.basetemp or not _writable_tmpfs():
        return
    _RUN_TMPDIR = tempfile.mkdtemp(prefix="repro-tests-", dir="/dev/shm")
    tempfile.tempdir = os.environ["TMPDIR"] = _RUN_TMPDIR
    config.option.basetemp = os.path.join(_RUN_TMPDIR, "pytest")


def pytest_unconfigure(config) -> None:
    if _RUN_TMPDIR is not None:
        shutil.rmtree(_RUN_TMPDIR, ignore_errors=True)


@pytest.fixture
def real_tmp_path() -> Iterator[pathlib.Path]:
    """A fresh directory under the temporary directory the run started with."""
    with tempfile.TemporaryDirectory(dir=_REAL_TMPDIR) as path:
        yield pathlib.Path(path)


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


def count_flips(detector) -> collections.Counter:
    """Suspicions (``[True]``) and trusts (``[False]``) ``detector`` makes from now on."""
    flips: collections.Counter = collections.Counter()
    detector.add_listener(lambda _pid, suspected: flips.update((suspected,)))
    return flips


@contextlib.contextmanager
def readme_module(heading: str, name: str) -> Iterator[types.ModuleType]:
    """Execute the first python block after README ``heading`` as module ``name``.

    A real module in ``sys.modules`` (dropped again on exit), so what the
    block declares pickles by reference.
    """
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    section = text[text.index(heading):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        exec(compile(code, "README.md", "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[name]


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


@pytest.fixture
def wall_clock_stepping_back(monkeypatch) -> None:
    """``time.time()`` reads an hour earlier at each call, as under repeated
    NTP corrections; a duration taken from it comes out negative."""
    real_time = time.time
    readings = 0

    def stepping_back() -> float:
        nonlocal readings
        readings += 1
        return real_time() - 3600.0 * readings

    monkeypatch.setattr(time, "time", stepping_back)
