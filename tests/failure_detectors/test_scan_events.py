"""The batched-scan failure detector mode is pinned.

No other golden runs ``fd_scan_interval``: the figures, the kind records and
the fault-event golden all use exact per-pair timers.  ``data/scan_events.json``
records, for every row of a small grid (``fd`` and ``gm`` x four scenario
kinds x two scan ticks; n = 5, seed 3, 50 A-broadcasts/s, 200 messages), what
one instrumented run did: the kernel event count, the run's duration, every
measured latency and every ``sim.events.*`` and ``fd.*`` counter.  An
unchanged file means the calendar fires the same transitions at the same
ticks.  Regenerate (only for a deliberate change of simulated behaviour) with
``PYTHONPATH=src python tests/failure_detectors/test_scan_events.py``.
"""

import json
import os

from repro import SystemConfig
from repro.scenarios.registry import run_kind

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "scan_events.json")

STACKS = ("fd", "gm")
SCAN_INTERVALS = (1.0, 2.5)
KINDS = {
    "suspicion-steady": dict(mistake_recurrence_time=150.0, mistake_duration=8.0),
    "churn-steady": dict(churn_rate=2.0, mean_downtime=150.0, detection_time=20.0),
    "partition-transient": dict(partition_duration=300.0, detection_time=15.0),
    "crash-steady": dict(crashed=(4,)),
}


def run_row(stack, kind, scan_interval):
    config = SystemConfig(
        n=5, stack=stack, seed=3, instrument=True, fd_scan_interval=scan_interval
    )
    result = run_kind(kind, config, 50.0, num_messages=200, **KINDS[kind])
    counters = result.metrics["counters"]
    return {
        "events": result.events,
        "duration": result.duration,
        "latencies": result.latencies,
        "counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(("sim.events.", "fd."))
        },
    }


def capture():
    """Every row of the grid, keyed ``<kind> <stack> <scan interval>``."""
    return {
        f"{kind} {stack} {scan_interval:g}": run_row(stack, kind, scan_interval)
        for kind in KINDS
        for stack in STACKS
        for scan_interval in SCAN_INTERVALS
    }


def render(rows):
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def test_the_batched_scan_fires_the_pinned_transitions():
    with open(GOLDEN, encoding="utf-8") as handle:
        assert render(capture()) == handle.read()


def test_the_two_ticks_differ():
    """Guards the pin against a grid the scan tick does not reach.

    Mistakes and crash-recovery transitions ride the calendar, so their rows
    move with the tick; partition transitions and the pre-run crash do not.
    """
    with open(GOLDEN, encoding="utf-8") as handle:
        rows = json.load(handle)
    for kind in KINDS:
        for stack in STACKS:
            fine, coarse = (rows[f"{kind} {stack} {q:g}"] for q in SCAN_INTERVALS)
            on_the_calendar = kind in ("suspicion-steady", "churn-steady")
            assert (fine != coarse) == on_the_calendar, f"{kind} {stack}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(render(capture()))
