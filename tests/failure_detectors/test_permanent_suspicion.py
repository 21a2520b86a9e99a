"""A permanent suspicion lasts until the process recovers, on every fd kind.

``CrashAt(..., permanent_suspicion=True)`` makes every monitor suspect the
crashed process from the crash on, without waiting for a detection time.
The recovery ends it: the clock-driven fabrics trust the process again one
detection time later, the heartbeat fabric with its first heartbeat after
the recovery (its window has no deadline, so without the recovery ending it
a recovered, correct process would stay suspected forever).
"""

import pytest

from repro import SystemConfig, build_system
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt

#: (crash, recovery) instants: a pre-run crash, and one during the run.
WINDOWS = {"pre-run": (0.0, 200.0), "timed": (100.0, 300.0)}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("fd_kind", ["qos", "perfect", "heartbeat"])
def test_recovery_ends_a_permanent_suspicion(fd_kind, window):
    crash, recovery = WINDOWS[window]
    system = build_system(SystemConfig(n=3, stack="fd", fd_kind=fd_kind, seed=1))
    FaultSchedule([CrashAt(crash, 2, permanent_suspicion=True), RecoverAt(recovery, 2)]).apply(
        system
    )
    system.run(until=recovery - 10.0)
    assert all(system.fd_fabric.detector(pid).is_suspected(2) for pid in (0, 1))
    system.run(until=2_000.0)
    assert not any(system.fd_fabric.detector(pid).is_suspected(2) for pid in (0, 1))
