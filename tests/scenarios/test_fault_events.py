"""The kernel's view of every fault class is pinned.

For each timed fault event class, for the pre-run crashes and for one mixed
schedule (churn plus a crash with permanent suspicion after the start),
``data/fault_events.json``
records what one instrumented ``fd`` and one ``gm`` system did under it:
the kernel event count, the ``sim.events.<Class.method>`` counters (which
bound method every fault posted, and how often) and the delivery sequences.
An unchanged file means compiling a schedule posts the same events at the
same times.  Re-capture it (only for a deliberate change of simulated
behaviour) by deleting the file and rerunning this test (``tests/goldens.py``).
"""

import os

from repro import SystemConfig, build_system
from repro.scenarios.faults import (
    CorrelatedCrash,
    CrashAt,
    DegradeAt,
    DegradeLinkAt,
    FaultSchedule,
    HealAt,
    PartitionAt,
    PoissonChurn,
    RecoverAt,
    RestoreAt,
    SuspectDuring,
)
from tests import goldens

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fault_events.json")

N = 5
STACKS = ("fd", "gm")
#: One A-broadcast every 25 ms, round-robin over the senders.
ARRIVALS = tuple((5.0 + 25.0 * index, index % N) for index in range(24))
UNTIL = 2_000.0

CASES = {
    "CrashAt": [CrashAt(120.0, 4)],
    "RecoverAt": [CrashAt(100.0, 3), RecoverAt(300.0, 3)],
    "CorrelatedCrash": [CorrelatedCrash(150.0, (3, 4))],
    "SuspectDuring": [
        SuspectDuring(start=80.0, duration=200.0, target=2),
        SuspectDuring(start=350.0, duration=60.0, target=4, monitors=(0, 1)),
    ],
    "PartitionAt": [
        PartitionAt(100.0, groups=((0, 1, 2), (3, 4))),
        PartitionAt(300.0, links=((0, 4), (4, 1))),
    ],
    "HealAt": [PartitionAt(100.0, groups=((0, 1, 2), (3, 4))), HealAt(250.0)],
    "DegradeAt": [DegradeAt(90.0, 1, 4.0)],
    "RestoreAt": [DegradeAt(90.0, 1, 4.0), RestoreAt(260.0, 1)],
    "DegradeLinkAt": [
        DegradeLinkAt(60.0, 0, 2, loss_probability=0.3, duplicate_probability=0.2),
        DegradeLinkAt(400.0, 0, 2),
    ],
    "pre-run": [CrashAt(0.0, 4, permanent_suspicion=True), CrashAt(-5.0, 3)],
    "mixed": [
        CrashAt(200.0, 4, permanent_suspicion=True),
        PoissonChurn(rate=4.0, mean_downtime=80.0, until=600.0),
        SuspectDuring(start=50.0, duration=30.0, target=1),
        PartitionAt(450.0, links=((1, 2),)),
        HealAt(500.0),
    ],
}


def run_case(stack, events):
    """One instrumented run of ``events`` on a fresh ``stack`` system."""
    system = build_system(SystemConfig(n=N, stack=stack, seed=11, instrument=True))
    FaultSchedule(list(events)).apply(system)
    system.start()
    for time, sender in ARRIVALS:
        system.broadcast_at(time, sender, f"m-{sender}-{time:g}")
    system.run(until=UNTIL)
    return {
        "events_processed": system.sim.events_processed,
        "now": system.sim.now,
        "sim_events": {
            name: count
            for name, count in sorted(system.obs.counters.items())
            if name.startswith("sim.events.")
        },
        "deliveries": {
            str(pid): [list(bid) for bid in ids]
            for pid, ids in system.delivery_sequences().items()
        },
    }


def test_every_fault_class_posts_the_pinned_kernel_events():
    cases = {
        f"{name} {stack}": run_case(stack, events)
        for name, events in CASES.items()
        for stack in STACKS
    }
    goldens.check(GOLDEN, cases, sort_keys=True)


def test_every_timed_event_class_is_covered():
    covered = {type(event).__name__ for events in CASES.values() for event in events}
    assert covered >= set(CASES) - {"pre-run", "mixed"} | {"PoissonChurn"}
