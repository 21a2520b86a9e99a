"""Tests for the request-batching atomic broadcast wrapper."""

import pytest

from repro import SystemConfig, build_system
from repro.core.types import AtomicBroadcast
from repro.load.batching import BATCH_TAG, BatchingAtomicBroadcast
from repro.scenarios.faults import CrashAt, FaultSchedule, RecoverAt


def batched_system(algorithm="fd", n=3, seed=21, max_batch=4, max_delay=5.0, **overrides):
    return build_system(
        SystemConfig(
            n=n,
            stack=algorithm,
            seed=seed,
            max_batch=max_batch,
            max_delay=max_delay,
            **overrides,
        )
    )


class TestConstruction:
    def test_unbatched_config_builds_bare_abcasts(self, any_algorithm):
        system = build_system(SystemConfig(n=3, stack=any_algorithm, seed=21))
        for abcast in system.abcasts:
            assert not isinstance(abcast, BatchingAtomicBroadcast)

    def test_batched_config_wraps_every_process(self, any_algorithm):
        system = build_system(
            SystemConfig(n=3, stack=any_algorithm, seed=21, max_batch=4)
        )
        for abcast in system.abcasts:
            assert isinstance(abcast, BatchingAtomicBroadcast)
            assert isinstance(abcast.inner, AtomicBroadcast)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n=3, max_batch=-1)
        with pytest.raises(ValueError):
            SystemConfig(n=3, max_batch=2, max_delay=-0.5)


class TestBatching:
    def test_full_batch_flushes_into_one_inner_broadcast(self, algorithm):
        system = batched_system(algorithm, max_batch=3, max_delay=50.0)
        batcher = system.abcasts[0]
        inner_sent = []
        batcher.inner.add_broadcast_listener(
            lambda bid, payload: inner_sent.append(payload)
        )

        def send_three():
            for i in range(3):
                batcher.broadcast(f"m{i}")

        system.sim.schedule_at(1.0, send_three)
        system.run(until=500.0)
        assert len(inner_sent) == 1
        tag, entries = inner_sent[0]
        assert tag == BATCH_TAG
        assert [payload for _bid, payload in entries] == ["m0", "m1", "m2"]

    def test_partial_batch_flushes_after_max_delay(self, algorithm):
        system = batched_system(algorithm, max_batch=10, max_delay=7.0)
        batcher = system.abcasts[0]
        flushed = []
        batcher.inner.add_broadcast_listener(lambda bid, payload: flushed.append(payload))
        system.sim.schedule_at(1.0, batcher.broadcast, "lonely")
        system.run(until=500.0)
        assert len(flushed) == 1
        assert batcher.pending_count == 0
        for abcast in system.abcasts:
            assert [p for _bid, p in abcast.delivered] == ["lonely"]

    def test_all_payloads_delivered_in_identical_total_order(self, algorithm):
        system = batched_system(algorithm, max_batch=3, max_delay=4.0)
        expected = []
        for i in range(11):
            sender = i % 3
            payload = f"p{sender}-{i}"
            expected.append(payload)
            system.sim.schedule_at(
                1.0 + 2.0 * i, system.abcasts[sender].broadcast, payload
            )
        system.run(until=2000.0)
        orders = [[p for _bid, p in abcast.delivered] for abcast in system.abcasts]
        assert all(sorted(order) == sorted(expected) for order in orders)
        assert all(order == orders[0] for order in orders)

    def test_broadcast_ids_are_the_wrapper_ids(self, algorithm):
        system = batched_system(algorithm, max_batch=2, max_delay=3.0)
        batcher = system.abcasts[0]
        ids = []
        system.sim.schedule_at(1.0, lambda: ids.append(batcher.broadcast("a")))
        system.sim.schedule_at(1.5, lambda: ids.append(batcher.broadcast("b")))
        system.run(until=500.0)
        delivered_ids = [bid for bid, _p in system.abcasts[1].delivered]
        assert delivered_ids == ids

    def test_non_batch_payloads_pass_through(self, algorithm):
        # A payload broadcast directly on the inner abcast (e.g. a view
        # change or a legacy caller) must surface through the wrapper.
        system = batched_system(algorithm, max_batch=4, max_delay=5.0)
        batcher = system.abcasts[0]
        system.sim.schedule_at(1.0, batcher.inner.broadcast, "raw")
        system.run(until=500.0)
        assert [p for _bid, p in batcher.delivered] == ["raw"]

    def test_own_on_message_is_never_used(self, algorithm):
        system = batched_system(algorithm)
        with pytest.raises(RuntimeError):
            system.abcasts[0].on_message(1, "unexpected")


class TestCrashRecovery:
    def test_crash_drops_timer_but_keeps_pending(self, algorithm):
        system = batched_system(algorithm, max_batch=10, max_delay=5.0)
        batcher = system.abcasts[0]
        flushed = []
        batcher.inner.add_broadcast_listener(lambda bid, payload: flushed.append(payload))
        system.sim.schedule_at(1.0, batcher.broadcast, "buffered")
        FaultSchedule([CrashAt(2.0, 0)]).apply(system)
        system.run(until=100.0)
        assert batcher.pending_count == 1
        assert flushed == []

    def test_recover_rearms_and_flushes_buffered_payloads(self, algorithm):
        system = batched_system(
            algorithm, max_batch=10, max_delay=5.0, seed=23
        )
        batcher = system.abcasts[0]
        system.sim.schedule_at(1.0, batcher.broadcast, "survivor")
        FaultSchedule([CrashAt(2.0, 0), RecoverAt(50.0, 0)]).apply(system)
        system.run(until=2000.0)
        assert batcher.pending_count == 0
        assert any(p == "survivor" for _bid, p in system.abcasts[1].delivered)


class TestThroughputGain:
    def test_batching_amortizes_the_per_message_cpu_cost(self):
        # The acceptance-criterion shape at unit scale: the same overload
        # burst drains at least 2x faster once k requests share one
        # ordering step (per-message lambda cost amortized k-fold).
        def drain_time(max_batch):
            system = build_system(
                SystemConfig(
                    n=4, stack="fd", seed=31, max_batch=max_batch,
                    max_delay=2.0 if max_batch else 0.0,
                )
            )
            count = 400
            for i in range(count):
                # Offered far above capacity: one request every 0.2 ms,
                # all through one ingress so batches actually fill.
                system.sim.schedule_at(
                    1.0 + 0.2 * i, system.abcasts[0].broadcast, f"m{i}"
                )
            done = []

            def check(_pid, _bid, _payload):
                if all(len(ab.delivered) == count for ab in system.abcasts):
                    done.append(system.sim.now)
                    system.sim.stop()

            system.add_delivery_listener(check)
            system.run(until=60_000.0)
            assert done, "the burst never fully delivered"
            return done[0]

        unbatched = drain_time(0)
        batched = drain_time(8)
        assert unbatched / batched >= 2.0
