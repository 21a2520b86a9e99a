"""Determinism and caching tests for the campaign runner.

The heart of the subsystem's contract: serial execution, ``jobs=N`` and a
warm cache must all produce identical records.
"""

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import (
    CampaignSpec,
    PointSpec,
    SeriesPointSpec,
    SeriesSpec,
    grid,
)
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
    def test_several_chunks_behind_a_full_window_match_serial(self, monkeypatch):
        """Five points in chunks of two behind a window of two: a short tail
        chunk, and a third chunk submitted only when an earlier one lands."""
        campaign = tiny_campaign(throughputs=(20.0, 30.0, 40.0, 50.0, 60.0))
        serial = CampaignRunner(jobs=1).run(campaign)
        split = []
        real_split = runner_module.pool_mod.split_chunks

        def recording_split(items, size):
            split.extend(real_split(items, size))
            return split

        monkeypatch.setattr(runner_module.pool_mod, "chunk_size", lambda pending, workers: 2)
        monkeypatch.setattr(runner_module.pool_mod, "split_chunks", recording_split)
        monkeypatch.setattr(runner_module.pool_mod, "INFLIGHT_CHUNKS_PER_WORKER", 1)
        with CampaignRunner(jobs=2) as chunked:
            assert chunked.run(campaign).records == serial.records
        assert [len(chunk) for chunk in split] == [2, 2, 1]

    def test_chunks_are_sized_from_the_grid(self):
        """About eight chunks per worker, one point at least, 32 at most."""
        sizes = {(p, w): runner_module.pool_mod.chunk_size(p, w) for p, w in
                 ((0, 2), (5, 2), (192, 2), (100_000, 4))}
        assert sizes == {(0, 2): 1, (5, 2): 1, (192, 2): 12, (100_000, 4): 32}

    def test_execute_chunk_matches_per_point_execution(self):
        points = tiny_campaign().points()
        assert runner_module.execute_chunk(points) == [
            execute_point(point) for point in points
        ]

    def test_warm_pool_survives_across_runs(self):
        with CampaignRunner(jobs=2) as runner:
            runner.run(tiny_campaign(throughputs=(20.0, 40.0)))
            assert runner.pool.started
            first_checkouts = runner.pool.checkouts
            runner.run(tiny_campaign(throughputs=(25.0, 45.0)))
            # Same pool object handed out again, not a respun executor.
            assert runner.pool.checkouts == first_checkouts + 1
            assert runner.pool.started
        assert not runner.pool.started  # context exit released the workers

    def test_serial_runner_never_starts_a_pool(self):
        runner = CampaignRunner(jobs=1)
        runner.run(tiny_campaign())
        assert runner._pool is None

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


class TestRunnerScanRewrite:
    """CampaignRunner(fd_scan_interval=...) rewrites points like instrument."""

    def test_points_rewritten_and_aliased(self):
        campaign = CampaignSpec(name="scan")
        point = PointSpec(kind="normal-steady", throughput=30.0, num_messages=10)
        campaign.add_series(
            SeriesSpec(label="fd", points=[SeriesPointSpec(x=30.0, points=[point])])
        )
        runner = CampaignRunner(fd_scan_interval=5.0)
        run = runner.run(campaign)
        executed_key = run.aliases[point.key()]
        assert executed_key != point.key()
        # Lookup by the declared point still works through the alias.
        assert run.result(point).scenario == "normal-steady"

    def test_heartbeat_points_not_rewritten(self):
        campaign = CampaignSpec(name="scan-hb")
        point = PointSpec(
            kind="normal-steady", stack="fd", fd_kind="heartbeat",
            throughput=30.0, num_messages=10,
        )
        campaign.add_series(
            SeriesSpec(label="hb", points=[SeriesPointSpec(x=30.0, points=[point])])
        )
        run = CampaignRunner(fd_scan_interval=5.0).run(campaign)
        assert point.key() not in run.aliases

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(fd_scan_interval=-1.0)
