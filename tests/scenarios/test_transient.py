"""Tests for the crash-transient scenario (rejected inputs: ``test_kinds.py``)."""

import pytest

from repro import SystemConfig
from repro.scenarios import run_crash_transient, sweep_crash_transient


def config(algorithm="fd", n=3, seed=41):
    return SystemConfig(n=n, stack=algorithm, seed=seed)


class TestCrashTransient:
    def test_tagged_message_delivered_despite_crash(self, algorithm):
        result = run_crash_transient(
            config(algorithm), throughput=50, detection_time=10.0, num_runs=3
        )
        assert result.runs == 3
        assert result.failed_runs == 0

    def test_latency_exceeds_detection_time(self, algorithm):
        result = run_crash_transient(
            config(algorithm), throughput=50, detection_time=50.0, num_runs=3
        )
        assert all(latency > 50.0 for latency in result.latencies)
        assert result.overhead_summary().mean > 0

    def test_default_sender_is_last_process(self):
        result = run_crash_transient(
            config("fd"), throughput=50, detection_time=0.0, num_runs=1
        )
        assert result.sender == 2
        assert result.crashed_process == 0

    def test_runs_use_different_seeds(self, algorithm):
        result = run_crash_transient(
            config(algorithm), throughput=200, detection_time=10.0, num_runs=4
        )
        # Under background load the latencies should not all be identical.
        assert len(set(round(v, 6) for v in result.latencies)) >= 2

    def test_non_coordinator_crash_is_cheap_for_fd(self):
        coordinator = run_crash_transient(
            config("fd"), throughput=50, detection_time=10.0, crashed_process=0, num_runs=3
        )
        other = run_crash_transient(
            config("fd"), throughput=50, detection_time=10.0, crashed_process=2, sender=1, num_runs=3
        )
        assert other.latency_summary().mean <= coordinator.latency_summary().mean

    def test_sweep_covers_requested_pairs(self):
        results = sweep_crash_transient(
            config("fd"),
            throughput=50,
            detection_time=0.0,
            crashed_processes=[0],
            senders=[1, 2],
            num_runs=1,
        )
        assert len(results) == 2
        assert {result.sender for result in results} == {1, 2}

    def test_sweep_pairs_use_independent_seeds(self):
        results = sweep_crash_transient(
            config("fd"),
            throughput=200,
            detection_time=10.0,
            crashed_processes=[0, 1],
            senders=[2],
            num_runs=2,
        )
        # Different (p, q) pairs are independent replicas: under background
        # load their latency samples should not be bitwise identical, which
        # is what reusing one seed across pairs used to produce.
        assert len(results) == 2
        assert results[0].latencies != results[1].latencies

    def test_sweep_routes_through_the_campaign_store(self, tmp_path):
        from repro.campaigns.store import ResultStore

        kwargs = dict(
            throughput=50,
            detection_time=0.0,
            crashed_processes=[0],
            senders=[1, 2],
            num_runs=1,
        )
        store = ResultStore(str(tmp_path))
        first = sweep_crash_transient(config("fd"), store=store, **kwargs)
        # A second sweep over the same pairs is served from the cache and is
        # bit-identical; so is a store-less sweep of the same grid.
        second = sweep_crash_transient(config("fd"), store=store, **kwargs)
        direct = sweep_crash_transient(config("fd"), **kwargs)
        for a, b, c in zip(first, second, direct):
            assert a.latencies == b.latencies == c.latencies
            assert a.sender == b.sender == c.sender

    def test_sweep_preserves_custom_stack_params(self):
        from dataclasses import replace

        from repro import NetworkModel

        base = config("fd")
        sequential = replace(base, pipeline_depth=1, renumber_coordinators=False)
        kwargs = dict(
            throughput=200,
            detection_time=10.0,
            crashed_processes=[0],
            senders=[2],
            num_runs=2,
        )
        default_run = sweep_crash_transient(base, **kwargs)
        sequential_run = sweep_crash_transient(sequential, **kwargs)
        # No renumbering after the coordinator's crash and one instance at a
        # time must show up in the simulated latencies: the campaign points
        # carry the config's stack params.
        assert sequential_run[0].latencies != default_run[0].latencies
        # A point cannot name a network model, so a sweep refuses to drop one.
        with pytest.raises(ValueError, match="default network"):
            sweep_crash_transient(replace(base, network=NetworkModel(lambda_cpu=5.0)), **kwargs)
