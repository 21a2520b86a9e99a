"""Tests for the crash-transient scenario (rejected inputs: ``test_kinds.py``)."""

from repro import SystemConfig
from repro.scenarios import run_crash_transient


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

    def test_runs_carry_the_configs_stack_params(self):
        from dataclasses import replace

        base = config("fd")
        batched = replace(base, max_batch=4, max_delay=5.0)
        kwargs = dict(throughput=200, detection_time=10.0, num_runs=2)
        default_run = run_crash_transient(base, **kwargs)
        batched_run = run_crash_transient(batched, **kwargs)
        # Holding the probe for a batch must show up in the simulated latencies.
        assert batched_run.latencies != default_run.latencies
