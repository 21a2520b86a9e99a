"""Determinism and caching tests for the campaign runner.

The heart of the subsystem's contract: serial execution, ``jobs=N`` and a
warm cache must all produce identical records.
"""

from concurrent.futures import Future

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, SeriesPointSpec, grid
from repro.campaigns.store import ResultStore


def tiny_campaign(**kwargs):
    defaults = dict(
        stacks=("fd",),
        n_values=(3,),
        throughputs=(20.0, 60.0),
        num_messages=15,
    )
    defaults.update(kwargs)
    return grid("normal-steady", **defaults)


class TestExecutePoint:
    def test_is_deterministic(self):
        point = PointSpec(kind="normal-steady", throughput=30.0, num_messages=15)
        assert execute_point(point) == execute_point(point)

    def test_dispatches_every_kind(self):
        records = [
            execute_point(PointSpec(kind="normal-steady", throughput=30.0, num_messages=10)),
            execute_point(
                PointSpec(kind="crash-steady", throughput=30.0, num_messages=10, crashed=(2,))
            ),
            execute_point(
                PointSpec(
                    kind="suspicion-steady",
                    throughput=30.0,
                    num_messages=10,
                    mistake_recurrence_time=1000.0,
                )
            ),
            execute_point(
                PointSpec(kind="crash-transient", throughput=30.0, num_runs=2)
            ),
        ]
        assert [record["type"] for record in records] == [
            "scenario",
            "scenario",
            "scenario",
            "transient",
        ]
        assert records[0]["scenario"] == "normal-steady"
        assert records[1]["scenario"] == "crash-steady"
        assert records[2]["scenario"] == "suspicion-steady"

    def test_dispatches_fault_schedule_kinds(self):
        records = [
            execute_point(
                PointSpec(
                    kind="correlated-crash",
                    n=5,
                    throughput=30.0,
                    num_messages=10,
                    crashed=(3, 4),
                    detection_time=5.0,
                )
            ),
            execute_point(
                PointSpec(
                    kind="churn-steady",
                    throughput=30.0,
                    num_messages=10,
                    churn_rate=4.0,
                    mean_downtime=100.0,
                    detection_time=5.0,
                )
            ),
            execute_point(
                PointSpec(
                    kind="asymmetric-qos",
                    throughput=30.0,
                    num_messages=10,
                    mistake_recurrence_time=300.0,
                )
            ),
        ]
        assert [record["scenario"] for record in records] == [
            "correlated-crash",
            "churn-steady",
            "asymmetric-qos",
        ]

    def test_transient_point_respects_explicit_sender(self):
        record = execute_point(
            PointSpec(kind="crash-transient", throughput=30.0, num_runs=1, sender=1)
        )
        assert record["sender"] == 1


class TestCampaignRunner:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)

    def test_serial_and_parallel_records_identical(self):
        campaign = tiny_campaign()
        serial = CampaignRunner(jobs=1).run(campaign)
        parallel = CampaignRunner(jobs=2).run(campaign)
        assert serial.records == parallel.records
        assert serial.executed == parallel.executed == 2

    def test_serial_and_parallel_identical_for_churn_points(self):
        campaign = grid(
            "churn-steady",
            stacks=("fd", "gm"),
            n_values=(3,),
            throughputs=(25.0,),
            num_messages=10,
            churn_rate=4.0,
            mean_downtime=100.0,
            detection_time=5.0,
        )
        serial = CampaignRunner(jobs=1).run(campaign)
        parallel = CampaignRunner(jobs=2).run(campaign)
        assert serial.records == parallel.records

    def test_warm_cache_reproduces_cold_run(self, tmp_path):
        campaign = tiny_campaign()
        cold_runner = CampaignRunner(jobs=1, store=ResultStore(str(tmp_path)))
        cold = cold_runner.run(campaign)
        assert (cold.executed, cold.cache_hits) == (2, 0)

        warm_runner = CampaignRunner(jobs=1, store=ResultStore(str(tmp_path)))
        warm = warm_runner.run(campaign)
        assert (warm.executed, warm.cache_hits) == (0, 2)
        assert warm.records == cold.records

    def test_warm_cache_never_simulates(self, tmp_path, monkeypatch):
        campaign = tiny_campaign()
        CampaignRunner(jobs=1, store=ResultStore(str(tmp_path))).run(campaign)

        def boom(point):
            raise AssertionError(f"re-simulated cached point {point.label()}")

        monkeypatch.setattr(runner_module, "execute_point", boom)
        warm = CampaignRunner(jobs=1, store=ResultStore(str(tmp_path))).run(campaign)
        assert warm.cache_hits == 2

    def test_interrupted_campaign_resumes_missing_points_only(self, tmp_path):
        small = tiny_campaign(throughputs=(20.0,))
        full = tiny_campaign(throughputs=(20.0, 60.0))
        store_dir = str(tmp_path)
        CampaignRunner(jobs=1, store=ResultStore(store_dir)).run(small)

        resumed_runner = CampaignRunner(jobs=1, store=ResultStore(store_dir))
        resumed = resumed_runner.run(full)
        assert (resumed.executed, resumed.cache_hits) == (1, 1)
        # The resumed record set matches a from-scratch run of the full grid.
        scratch = CampaignRunner(jobs=1).run(full)
        assert resumed.records == scratch.records

    def test_run_result_objects_rebuild(self):
        campaign = tiny_campaign(throughputs=(20.0,))
        run = CampaignRunner().run(campaign)
        point = campaign.points()[0]
        result = run.result(point)
        assert result.scenario == "normal-steady"
        assert result.measured == 15


class TestChunkedDispatch:
    def test_more_chunks_than_four_per_worker_match_serial(self, monkeypatch):
        """Forty points on two workers go out as twenty two-point chunks
        (about eight chunks per worker), all submitted at once."""
        campaign = tiny_campaign(throughputs=tuple(10.0 + 2.0 * step for step in range(40)))
        serial = CampaignRunner(jobs=1).run(campaign)
        sizes = []
        with CampaignRunner(jobs=2) as pooled:
            executor = pooled.pool.executor()
            real_submit = executor.submit

            def submit(fn, chunk, *args):
                sizes.append(len(chunk))
                return real_submit(fn, chunk, *args)

            monkeypatch.setattr(executor, "submit", submit)
            run = pooled.run(campaign)
        assert sizes == [2] * 20
        assert run.records == serial.records

    def test_chunks_are_sized_from_the_grid(self, monkeypatch):
        """About eight chunks per worker, one point at least, 32 at most, and
        a short last chunk; an executor that resolves each chunk at submit
        keeps the simulations out of it."""

        class ResolvingExecutor:
            def __init__(self):
                self.sizes = []

            def submit(self, fn, chunk, *args):
                self.sizes.append(len(chunk))
                future = Future()
                future.set_result([{"stub": point.key()} for point in chunk])
                return future

        cases = {(5, 2): [1] * 5, (192, 2): [12] * 16, (1_000, 2): [32] * 31 + [8]}
        for (points, jobs), expected in cases.items():
            campaign = tiny_campaign(throughputs=tuple(1.0 + step for step in range(points)))
            executor = ResolvingExecutor()
            runner = CampaignRunner(jobs=jobs)
            monkeypatch.setattr(runner.pool, "executor", lambda: executor)
            run = runner.run(campaign)
            assert executor.sizes == expected
            assert run.executed == len(run.records) == points

    def test_a_failing_point_keeps_every_chunk_finished_before_it(self, tmp_path):
        """Commit on completion: the point that raises in a worker is the
        last chunk, so every chunk before it was started first and at most
        the one still running on the other worker is not in the store."""
        campaign = tiny_campaign(throughputs=(20.0, 30.0, 40.0, 50.0, 60.0))
        serial = CampaignRunner(jobs=1).run(campaign)
        campaign.series[0].points.append(
            SeriesPointSpec(x=70.0, points=[PointSpec(
                "normal-steady", throughput=70.0, num_messages=15,
                config_overrides=(("reformation_timeout", -1.0),),
            )])
        )
        store = ResultStore(str(tmp_path))
        with CampaignRunner(jobs=2, store=store) as pooled:
            with pytest.raises(ValueError, match="reformation_timeout"):
                pooled.run(campaign)
        committed = {key: store.get(key) for key in serial.records if key in store}
        assert len(committed) >= len(serial.records) - 1
        assert all(record == serial.records[key] for key, record in committed.items())

    def test_execute_chunk_matches_per_point_execution(self):
        points = tiny_campaign().points()
        assert runner_module.execute_chunk(points) == [
            execute_point(point) for point in points
        ]

    def test_warm_pool_survives_across_runs(self):
        with CampaignRunner(jobs=2) as runner:
            runner.run(tiny_campaign(throughputs=(20.0, 40.0)))
            executor = runner.pool.executor()
            runner.run(tiny_campaign(throughputs=(25.0, 45.0)))
            # The same executor handed out again, not a respun one.
            assert runner.pool.executor() is executor
        assert runner.pool._executor is None  # context exit released the workers

    def test_serial_runner_never_starts_a_pool(self):
        runner = CampaignRunner(jobs=1)
        runner.run(tiny_campaign())
        assert runner.pool._executor is None

    def test_close_is_idempotent(self):
        runner = CampaignRunner(jobs=2)
        runner.run(tiny_campaign())
        runner.close()
        runner.close()


class TestForcedReexecution:
    def test_rejects_unknown_force_kind(self):
        with pytest.raises(ValueError):
            CampaignRunner(force_kinds=("no-such-scenario",))

    def test_force_bypasses_cache_and_rewrites_store(self, tmp_path):
        campaign = tiny_campaign()
        store_dir = str(tmp_path)
        cold = CampaignRunner(jobs=1, store=ResultStore(store_dir)).run(campaign)

        forced_store = ResultStore(store_dir)
        forced = CampaignRunner(jobs=1, store=forced_store, force=True).run(campaign)
        assert (forced.executed, forced.cache_hits) == (2, 0)
        assert forced.records == cold.records  # deterministic rewrite
        # The rewrite landed in the store (one duplicate line per point).
        with open(forced_store.path, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 2 * len(cold.records)

    def test_force_kind_only_reexecutes_matching_points(self, tmp_path):
        store_dir = str(tmp_path)
        normal = tiny_campaign(throughputs=(20.0,))
        transient = grid("crash-transient", stacks=("fd",), throughputs=(30.0,), num_runs=2)
        CampaignRunner(jobs=1, store=ResultStore(store_dir)).run(normal)
        CampaignRunner(jobs=1, store=ResultStore(store_dir)).run(transient)

        runner = CampaignRunner(
            jobs=1,
            store=ResultStore(store_dir),
            force_kinds=("crash-transient",),
        )
        warm_normal = runner.run(normal)
        assert (warm_normal.executed, warm_normal.cache_hits) == (0, 1)
        forced_transient = runner.run(transient)
        assert (forced_transient.executed, forced_transient.cache_hits) == (1, 0)
