"""Live protocol state follows the ordering window, not the run length.

A long crash-free run must not leave behind what it no longer needs: decided
consensus instances with their round state, the ids and reliable-broadcast
uids of delivered messages, or the entries, sequence numbers and ack sets of
sequencer batches that are delivered and stable.
The checks run at two points of one run, after the 1 000th and the 8 000th
delivery at process 0, so a structure that grows with the run fails at the
second point at the latest.  They count objects, never time or bytes.
"""

import pytest

from repro import SystemConfig, build_system
from repro.core.types import PIPELINE_DEPTH
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
            "decided_held": [
                cid for cid, instance in consensus._instances.items()
                if instance.decided or cid in consensus._decisions
            ],
            "delivered_rb_uids": delivered & set(getattr(abcast, "_rb_uid_of", ())),
            "delivered_ordered": delivered & set(getattr(abcast, "_ordered", ())),
            "sparse_uids": sum(len(above) for above in rbcast._delivered_above.values()),
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


@pytest.mark.parametrize("stack", ["fd", "gm"])
@pytest.mark.parametrize("n", [3, 7])
def test_live_state_is_bounded_by_the_window(stack, n):
    config = SystemConfig(n=n, stack=stack, seed=1)
    system = build_system(config)
    sim = system.sim
    seen = {}

    def on_delivery(_bid, _payload):
        count = system.abcasts[0].delivered_count
        if count in CHECKPOINTS:
            # Read once the delivering event is over, not halfway through it.
            sim.post_at(sim.now, lambda: seen.setdefault(count, held_state(system)))

    system.abcasts[0].add_delivery_listener(on_delivery)
    spec = SteadyStateSpec("normal-steady", config, 300.0, CHECKPOINTS[-1])
    result = ScenarioRunner().run_steady_on(system, spec)
    assert result.undelivered == 0
    assert sorted(seen) == list(CHECKPOINTS)
    for count, state in seen.items():
        for pid, held in enumerate(state):
            where = f"after {count} deliveries, p{pid}"
            # Only undecided instances keep round state, and a crash-free
            # run has at most PIPELINE_DEPTH of them open.
            assert held["decided_held"] == [], where
            assert held["instances"] <= PIPELINE_DEPTH, where
            assert held["delivered_rb_uids"] == set(), where
            assert held["delivered_ordered"] == set(), where
            # Every origin's reliable broadcasts arrive in order here.
            assert held["sparse_uids"] == 0, where
            # A sequencer batch is held while in flight (at most
            # PIPELINE_DEPTH) and then until the members learn it is stable,
            # which the next batches' messages tell them.
            assert held["batches_held"] <= 2 * PIPELINE_DEPTH, where
            assert held["stray_batch_records"] == set(), where
            assert held["stray_sequenced"] == set(), where
    system.close()
