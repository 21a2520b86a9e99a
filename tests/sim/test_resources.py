"""Unit tests for the FIFO contention resources."""

import pytest

from repro.sim.resources import FIFOResource


@pytest.fixture
def resource(simulator):
    return FIFOResource(simulator, "cpu")


class TestFIFOResource:
    def test_single_job_completes_after_service_time(self, simulator, resource):
        done = []
        resource.submit(3.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [3.0]

    def test_jobs_are_serialized(self, simulator, resource):
        done = []
        resource.submit(2.0, lambda: done.append(simulator.now))
        resource.submit(2.0, lambda: done.append(simulator.now))
        resource.submit(2.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [2.0, 4.0, 6.0]

    def test_fifo_order_preserved(self, simulator, resource):
        order = []
        for name in "abcd":
            resource.submit(1.0, lambda n=name: order.append(n))
        simulator.run()
        assert order == ["a", "b", "c", "d"]

    def test_queue_length_reflects_waiting_jobs(self, simulator, resource):
        for _ in range(3):
            resource.submit(1.0, lambda: None)
        assert resource.busy
        assert resource.queue_length == 2

    def test_idle_after_all_jobs_done(self, simulator, resource):
        resource.submit(1.0, lambda: None)
        simulator.run()
        assert not resource.busy
        assert resource.queue_length == 0

    def test_zero_service_time_job(self, simulator, resource):
        done = []
        resource.submit(0.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [0.0]

    def test_negative_service_time_rejected(self, resource):
        with pytest.raises(ValueError):
            resource.submit(-1.0, lambda: None)

    def test_nan_service_time_rejected(self, simulator, resource):
        # NaN < 0 is false: the old guard let it through and the completion
        # event poisoned the clock.
        with pytest.raises(ValueError):
            resource.submit(float("nan"), lambda: None)
        assert not resource.busy
        assert simulator.pending_events == 0

    def test_infinite_service_time_still_accepted(self, simulator, resource):
        resource.submit(float("inf"), lambda: None)
        assert resource.busy
        assert simulator.pending_events == 1

    def test_jobs_served_counter(self, simulator, resource):
        for _ in range(5):
            resource.submit(1.0, lambda: None)
        simulator.run()
        assert resource.jobs_served == 5

    def test_busy_time_accumulates(self, simulator, resource):
        resource.submit(2.0, lambda: None)
        resource.submit(3.0, lambda: None)
        simulator.run()
        assert resource.busy_time == pytest.approx(5.0)

    def test_utilization(self, simulator, resource):
        resource.submit(2.0, lambda: None)
        simulator.run()
        assert resource.utilization(4.0) == pytest.approx(0.5)
        assert resource.utilization(0.0) == 0.0

    def test_completion_callback_can_submit_more_work(self, simulator, resource):
        done = []

        def first_done():
            done.append(("first", simulator.now))
            resource.submit(1.0, lambda: done.append(("second", simulator.now)))

        resource.submit(1.0, first_done)
        simulator.run()
        assert done == [("first", 1.0), ("second", 2.0)]

    def test_idle_resource_starts_new_job_immediately(self, simulator, resource):
        done = []
        resource.submit(1.0, lambda: done.append(simulator.now))
        simulator.run()
        resource.submit(1.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [1.0, 2.0]


class TestRateFactor:
    def test_default_factor_is_unity(self, resource):
        assert resource.rate_factor == 1.0

    def test_non_positive_factor_rejected(self, resource):
        with pytest.raises(ValueError):
            resource.set_rate_factor(0.0)
        with pytest.raises(ValueError):
            resource.set_rate_factor(-2.0)

    def test_degraded_resource_scales_service_time(self, simulator, resource):
        done = []
        resource.set_rate_factor(3.0)
        resource.submit(2.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [6.0]

    def test_factor_applies_at_submit_not_at_service(self, simulator, resource):
        """Jobs accepted before a degradation keep their original cost."""
        done = []
        resource.submit(2.0, lambda: done.append(simulator.now))
        resource.set_rate_factor(5.0)
        resource.submit(2.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [2.0, 12.0]

    def test_restoring_the_factor_ends_the_degradation(self, simulator, resource):
        done = []
        resource.set_rate_factor(4.0)
        resource.set_rate_factor(1.0)
        resource.submit(2.0, lambda: done.append(simulator.now))
        simulator.run()
        assert done == [2.0]
