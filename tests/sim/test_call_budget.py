"""A clock-free budget on what one simulated event costs the interpreter.

Host timings cannot gate a change on a shared two-core CI box; the number of
Python frames the interpreter enters per simulated event can: it repeats
exactly for a given seed and Python version.  Each case runs a fixed
normal-steady point with ``sys.setprofile`` counting ``call`` events (Python
frames only: generator resumes and, before 3.12, comprehension frames
included; C calls excluded) and holds the kernel -> resources -> network ->
process -> ordering path to a committed number of frames per event.

The budgets leave about 10 % over the value achieved when they were set
(first column below) and sit far under what the tree cost before events
stopped paying for handles, property hops, no-op hooks and pass-through
frames (second column), so adding a frame to every hop of the message path
fails here, with no clock involved::

    stack  n   achieved   before
    fd     3    12.25     20.28
    fd     7    12.93     21.91
    gm     3    11.63     17.96
    gm     7    13.02     20.46

The same rule bounds two more paths.  With instrumentation on (the
``instrument=True`` system, every hook recording), one event cost 22.24 /
20.95 / 17.97 / 20.04 frames for fd n=3 / fd n=7 / gm n=3 / gm n=7 on 3.11
(fd n=3 reads 19.7-21 once the process has run an instrumented system
before).  Assembling a system through the stack registry, ``build_system``
of a ready config, entered 104 / 404 frames for fd n=3 / 15 and 143 / 779
for gm n=3 / 15: a lookup that starts costing per process or per layer
fails here.

Counts only fall on 3.12, where comprehensions are inlined.
"""

import sys

import pytest

from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.system import SystemConfig, build_system

MESSAGES = 300
THROUGHPUT = 300.0
SEED = 5


def python_calls(run):
    """``(Python frames entered while run() executes, its result)``."""
    calls = [0]

    def profiler(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls[0], result


def python_calls_per_event(stack: str, n: int, instrument: bool = False) -> float:
    """Python frames entered per simulated event over one steady-state run."""
    config = SystemConfig(n=n, stack=stack, seed=SEED, fd=QoSConfig(), instrument=instrument)
    spec = SteadyStateSpec("normal-steady", config, THROUGHPUT, MESSAGES)
    system = build_system(config)
    calls, result = python_calls(lambda: ScenarioRunner().run_steady_on(system, spec))
    assert result.undelivered == 0
    if instrument:
        assert system.obs.counters["abcast.broadcasts"] >= MESSAGES
    return calls / result.events


@pytest.mark.parametrize(
    "stack, n, budget",
    [("fd", 3, 13.5), ("fd", 7, 14.2), ("gm", 3, 12.8), ("gm", 7, 14.3)],
)
def test_python_calls_per_simulated_event_within_budget(stack, n, budget):
    achieved = python_calls_per_event(stack, n)
    assert achieved <= budget, (
        f"{stack} n={n}: {achieved:.2f} Python calls per simulated event, budget {budget}"
    )


@pytest.mark.parametrize(
    "stack, n, budget",
    [("fd", 3, 24.5), ("fd", 7, 23.0), ("gm", 3, 19.8), ("gm", 7, 22.0)],
)
def test_instrumented_python_calls_per_simulated_event_within_budget(stack, n, budget):
    achieved = python_calls_per_event(stack, n, instrument=True)
    assert achieved <= budget, (
        f"{stack} n={n}, instrumented: {achieved:.2f} Python calls per simulated event, "
        f"budget {budget}"
    )


@pytest.mark.parametrize(
    "stack, n, budget",
    [("fd", 3, 114), ("fd", 15, 444), ("gm", 3, 157), ("gm", 15, 857)],
)
def test_python_calls_per_system_assembly_within_budget(stack, n, budget):
    config = SystemConfig(n=n, stack=stack, seed=SEED)
    achieved, system = python_calls(lambda: build_system(config))
    system.close()
    assert achieved <= budget, (
        f"build_system {stack} n={n}: {achieved} Python calls, budget {budget}"
    )
