"""Live protocol state follows the ordering window, not the run length.

A long crash-free run must not leave behind what it no longer needs: decided
consensus instances with their round state, the ids and reliable-broadcast
uids of delivered messages, or the entries, sequence numbers and ack sets of
sequencer batches that are delivered and stable.
The checks run at two points of one run, after the 1 000th and the 8 000th
delivery at process 0, so a structure that grows with the run fails at the
second point at the latest.  They count objects, never time or bytes.

A run with crash recovery (fd ``churn-steady``) holds the same bound for
what a recovered process's catch-up decides: the instances its crash left
open close when the catch-up records their decisions, and no proposal waits
in an instance that is decided already.  Reliable broadcast keeps one integer
per origin there too, and under GM's wrong suspicions, where an excluded
process misses the view-change decisions.  ``gm-nonuniform``'s unstable
messages still grow without acks; a strict xfail pins it (ROADMAP 21).
"""

import pytest

from repro import SystemConfig, build_system
from repro.core.types import PIPELINE_DEPTH
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.faults import FaultSchedule, PoissonChurn
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec

CHECKPOINTS = (1_000, 8_000)


def held_state(system):
    """What each process holds now, by structure."""
    state = []
    for pid, abcast in enumerate(system.abcasts):
        consensus = system.consensus_services[pid]
        rbcast = consensus.rbcast
        delivered = {bid for bid, _payload in abcast.delivered}
        batches = getattr(abcast, "_batch_entries", {})
        state.append({
            "instances": len(consensus._instances),
            # FD instances open at positions the decided log already covers.
            "logged_open": [
                cid for cid in consensus._instances
                if cid[0] == "ab" and cid[1] <= abcast.log.length
            ],
            "late_decisions": len(consensus._late_decision_ms),
            "unstable": len(getattr(abcast, "_unstable", ())),
            "decided_held": [
                cid for cid, instance in consensus._instances.items()
                if instance.decided or cid in consensus._decisions
            ],
            # FD proposals waiting in an instance that is decided already.
            "decided_inflight": [
                k for k in getattr(abcast, "_inflight_proposals", ())
                if ("ab", k) in consensus._decisions
            ],
            "delivered_ordered": delivered & set(getattr(abcast, "_ordered", ())),
            # What reliable broadcast keeps beyond one integer per origin:
            # the entries of every dict or set it holds.
            "sparse_uids": sum(
                len(held) for held in vars(rbcast).values() if isinstance(held, (dict, set))
            ),
            "batches_held": len(batches),
            # Per-batch and per-message records of batches no longer held.
            "stray_batch_records": (
                set(getattr(abcast, "_batch_acks", ())) | set(getattr(abcast, "_deliverable", ()))
            ) - set(batches),
            "stray_sequenced": set(getattr(abcast, "_assignments", ())) - {
                bid for entries in batches.values() for _seq, bid in entries
            },
        })
    return state


def run_to_checkpoints(spec):
    """Run ``spec`` and return :func:`held_state` at each of ``CHECKPOINTS``."""
    system = build_system(spec.config)
    sim = system.sim
    seen = {}

    def on_delivery(_bid, _payload):
        count = system.abcasts[0].delivered_count
        if count in CHECKPOINTS:
            # Read once the delivering event is over, not halfway through it.
            sim.post_at(sim.now, lambda: seen.setdefault(count, held_state(system)))

    system.abcasts[0].add_delivery_listener(on_delivery)
    result = ScenarioRunner().run_steady_on(system, spec)
    system.close()
    assert result.undelivered == 0
    assert sorted(seen) == list(CHECKPOINTS)
    return seen


@pytest.fixture(scope="module")
def fd_churn():
    """fd at n = 5, 100/s, 4 crashes/s of mean downtime 200 ms (seed 2)."""
    # Churn lasts past the last of the 9 600 arrivals.
    churn = PoissonChurn(rate=4.0, mean_downtime=200.0, until=120_000.0)
    config = SystemConfig(n=5, stack="fd", seed=2)
    spec = SteadyStateSpec(
        "churn-steady", config, 100.0, CHECKPOINTS[-1],
        faults=FaultSchedule([churn]).check(config.n),
        senders=list(range(config.n)), reassign_crashed_senders=True,
    )
    return run_to_checkpoints(spec)


@pytest.fixture(scope="module")
def gm_suspicion():
    """gm at n = 3, 100/s, wrong suspicions with T_MR = 1 000 ms, T_M = 10 ms."""
    fd = QoSConfig(detection_time=0.0, mistake_recurrence_time=1_000.0, mistake_duration=10.0)
    config = SystemConfig(n=3, stack="gm", seed=1, fd=fd)
    return run_to_checkpoints(SteadyStateSpec("suspicion-steady", config, 100.0, CHECKPOINTS[-1]))


@pytest.mark.parametrize("stack", ["fd", "gm"])
@pytest.mark.parametrize("n", [3, 7])
def test_live_state_is_bounded_by_the_window(stack, n):
    config = SystemConfig(n=n, stack=stack, seed=1)
    seen = run_to_checkpoints(SteadyStateSpec("normal-steady", config, 300.0, CHECKPOINTS[-1]))
    for count, state in seen.items():
        for pid, held in enumerate(state):
            where = f"after {count} deliveries, p{pid}"
            # Only undecided instances keep round state, and a crash-free
            # run has at most PIPELINE_DEPTH of them open.
            assert held["decided_held"] == [], where
            assert held["instances"] <= PIPELINE_DEPTH, where
            assert held["delivered_ordered"] == set(), where
            # Every origin's reliable broadcasts arrive in order here.
            assert held["sparse_uids"] == 0, where
            # A sequencer batch is held while in flight (at most
            # PIPELINE_DEPTH) and then until the members learn it is stable,
            # which the next batches' messages tell them.
            assert held["batches_held"] <= 2 * PIPELINE_DEPTH, where
            assert held["stray_batch_records"] == set(), where
            assert held["stray_sequenced"] == set(), where


def test_a_recovered_fd_process_closes_what_its_catch_up_decided(fd_churn):
    first, last = (fd_churn[count] for count in CHECKPOINTS)
    for pid, (early, late) in enumerate(zip(first, last)):
        for count, held in zip(CHECKPOINTS, (early, late)):
            where = f"after {count} deliveries, p{pid}"
            assert held["logged_open"] == [], where
            assert held["decided_held"] == [], where
            assert held["decided_inflight"] == [], where
        # A decision time waits for every older instance to close.
        assert late["late_decisions"] <= early["late_decisions"], f"p{pid}"


@pytest.mark.parametrize("run", ["fd_churn", "gm_suspicion"])
def test_reliable_broadcast_keeps_one_integer_per_origin(run, request):
    first, last = (request.getfixturevalue(run)[count] for count in CHECKPOINTS)
    for pid, (early, late) in enumerate(zip(first, last)):
        assert late["sparse_uids"] <= early["sparse_uids"], f"p{pid}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 21(d): gm-nonuniform's sequencer gets no acks, so nothing becomes stable",
)
def test_gm_nonuniform_keeps_only_unstable_messages_in_flight():
    config = SystemConfig(n=3, stack="gm-nonuniform", seed=1)
    seen = run_to_checkpoints(SteadyStateSpec("normal-steady", config, 300.0, CHECKPOINTS[-1]))
    for count, state in seen.items():
        for pid, held in enumerate(state):
            assert held["unstable"] <= 2 * PIPELINE_DEPTH, f"after {count} deliveries, p{pid}"
