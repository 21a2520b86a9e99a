"""What the replicated KV service does at four operating points is pinned.

For an open loop through a batched, small admission window, a closed loop,
local reads and a closed loop across a crash and recovery of replica 0, on
one ``fd`` and one ``gm`` system of three replicas, ``data/service_points.json``
records the admission outcomes and high-water marks, every request's
response time (``None`` when shed or unanswered), whether the replicas
agree, each replica's applied-log length, the kernel event count, the
observed digest and the instrumentation counters and gauges (the response
time histogram is left out).  Re-capture it (only for a deliberate change of
simulated behaviour) by deleting the file and rerunning this test
(``tests/goldens.py``).
"""

import os

from repro import SystemConfig, build_system
from repro.load.clients import ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import AdmissionConfig, LoadTestedService
from repro.metrics import observed_digest
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt
from tests import goldens

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "service_points.json")

STACKS = ("fd", "gm")
UNTIL = 30_000.0
READ_HEAVY = CommandMix(put=0.1, get=0.8, increment=0.05, delete=0.05)

#: name -> (system overrides, service options, population, faults); a
#: population is ``("open", offered load, requests, mix)`` or
#: ``("closed", clients, think time, mix)``, the closed loop issuing 150.
POINTS = {
    "open-batched": (
        {"max_batch": 4, "max_delay": 2.0},
        {"admission": AdmissionConfig(max_inflight=6, max_queue=8)},
        ("open", 1000.0, 150, None),
        [],
    ),
    "closed": (
        {},
        {"admission": AdmissionConfig(max_inflight=4, max_queue=3)},
        ("closed", 8, 5.0, None),
        [],
    ),
    "local-reads": (
        {},
        {"consistency": "local", "admission": AdmissionConfig(max_inflight=8, max_queue=8)},
        ("open", 500.0, 100, READ_HEAVY),
        [],
    ),
    "closed-crash-recover": (
        {},
        {"admission": AdmissionConfig(max_inflight=4, max_queue=8)},
        ("closed", 6, 5.0, None),
        [CrashAt(150.0, 0), RecoverAt(900.0, 0)],
    ),
}


def run_point(stack, name):
    overrides, options, population, faults = POINTS[name]
    system = build_system(SystemConfig(n=3, stack=stack, seed=29, instrument=True, **overrides))
    service = LoadTestedService(system, **options)
    kind, first, second, mix = population
    if kind == "open":
        OpenLoopClients(service, first, num_clients=3, mix=mix).schedule_requests(second)
    else:
        ClosedLoopClients(service, first, second, mix=mix).start(150)
    FaultSchedule(faults).apply(system)
    system.run(until=UNTIL)
    times = [request.response_time for request in service.requests]
    return {
        "outcomes": service.outcome_counts(),
        "queue_depth_hwm": service.queue_depth_hwm,
        "inflight_hwm": service.inflight_hwm,
        "response_times": times,
        "replicas_consistent": service.replicas_consistent(),
        "applied": [len(service.applied_log[pid]) for pid in range(3)],
        "events_processed": system.sim.events_processed,
        "observed_digest": observed_digest(system, [t for t in times if t is not None]),
        "counters": dict(sorted(system.obs.counters.items())),
        "gauges": dict(sorted(system.obs.gauges.items())),
    }


def test_service_points_are_pinned():
    payload = {f"{name}/{stack}": run_point(stack, name) for name in POINTS for stack in STACKS}
    outcomes = [point["outcomes"] for point in payload.values()]
    assert any(outcome["queued"] for outcome in outcomes)
    assert any(outcome["shed"] for outcome in outcomes)
    goldens.check(GOLDEN, payload)
