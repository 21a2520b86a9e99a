"""Tests for the shared-directory work queue and its execution protocol.

The distribution contract: every enqueued point is executed exactly once
while workers stay alive, crashed workers' leases are reclaimed after the
TTL, and a queue-backed campaign run produces records bit-identical to the
serial path (points travel as dicts and come back under the same key).
"""

import json
import os

import pytest

import repro.campaigns.queue as queue_module
import repro.campaigns.runner as runner_module
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.campaigns.store import ResultStore


def quick_points(count=4):
    campaign = grid(
        "normal-steady",
        stacks=("fd",),
        n_values=(3,),
        throughputs=tuple(10.0 + 5.0 * index for index in range(count)),
        num_messages=8,
    )
    return campaign.points()


class TestPointSpecRoundTrip:
    def test_from_dict_preserves_key(self):
        point = PointSpec(
            kind="crash-steady",
            throughput=30.0,
            num_messages=10,
            crashed=(2,),
            config_overrides=(("alpha", 2.0),),
        )
        rebuilt = PointSpec.from_dict(point.as_dict())
        assert rebuilt == point
        assert rebuilt.key() == point.key()

    def test_from_dict_preserves_infinity_fields(self):
        # Infinities serialise as the string "inf" to stay strict JSON.
        point = PointSpec(
            kind="normal-steady",
            throughput=25.0,
            config_overrides=(("join_retry_interval", float("inf")),),
        )
        data = json.loads(json.dumps(point.as_dict()))  # through real JSON
        assert data["config_overrides"] == {"join_retry_interval": "inf"}
        rebuilt = PointSpec.from_dict(data)
        assert rebuilt.config().join_retry_interval == float("inf")
        assert rebuilt.key() == point.key()

    def test_from_dict_rejects_unknown_fields(self):
        data = PointSpec(kind="normal-steady").as_dict()
        data["from_the_future"] = 1
        with pytest.raises(ValueError):
            PointSpec.from_dict(data)


class TestWorkQueue:
    def test_rejects_non_positive_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(str(tmp_path), lease_ttl=0)

    def test_enqueue_claim_commit_round_trip(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(2)
        assert queue.enqueue(points) == 2
        assert queue.pending_count() == 2

        lease = queue.claim("w1")
        assert lease is not None and lease.worker == "w1"
        assert lease.point in points and lease.point.key() == lease.key
        queue.commit(lease, {"measured": 8}, {"worker": "w1"})
        assert queue.result(lease.key) == {"measured": 8}
        assert queue.result_entry(lease.key)["provenance"]["worker"] == "w1"
        assert queue.pending_count() == 1
        assert queue.result_count() == 1

    def test_enqueue_skips_done_and_pending_points(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(2)
        queue.enqueue(points)
        assert queue.enqueue(points) == 0  # already pending
        lease = queue.claim("w1")
        queue.commit(lease, {"measured": 8})
        assert queue.enqueue(points) == 0  # one done, one still pending
        assert queue.pending_count() == 1

    def test_leased_point_is_not_claimable_by_another_worker(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(1))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # live lease blocks the point

    def test_two_workers_never_execute_the_same_point(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(6)
        queue.enqueue(points)
        claims = {"w1": [], "w2": []}
        while True:
            progressed = False
            for worker in claims:
                lease = queue.claim(worker)
                if lease is not None:
                    claims[worker].append(lease.key)
                    queue.commit(lease, {"measured": 8})
                    progressed = True
            if not progressed:
                break
        executed = claims["w1"] + claims["w2"]
        assert sorted(executed) == sorted(point.key() for point in points)
        assert len(executed) == len(set(executed))  # no point ran twice

    def test_released_point_is_claimable_again(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(1))
        lease = queue.claim("w1")
        queue.release(lease)
        retry = queue.claim("w2")
        assert retry is not None and retry.key == lease.key

    def test_crashed_lease_reclaimed_after_ttl(self, tmp_path):
        queue = WorkQueue(str(tmp_path), lease_ttl=0.05)
        queue.enqueue(quick_points(1))
        crashed = queue.claim("crashed-worker")
        assert crashed is not None
        # Age the lease past the TTL instead of sleeping through it.
        lease_path = queue._lease_path(crashed.key)
        old = os.stat(lease_path).st_mtime - 10.0
        os.utime(lease_path, (old, old))
        reclaimed = queue.claim("survivor")
        assert reclaimed is not None and reclaimed.key == crashed.key
        assert reclaimed.worker == "survivor"
        queue.commit(reclaimed, {"measured": 8})
        assert queue.result(crashed.key) == {"measured": 8}

    def test_live_lease_not_reclaimed_before_ttl(self, tmp_path):
        queue = WorkQueue(str(tmp_path), lease_ttl=300.0)
        queue.enqueue(quick_points(1))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None

    def test_orphaned_pending_with_result_is_tidied(self, tmp_path):
        # A worker crashed between committing the result and removing the
        # pending marker; the next claim finishes the tidy-up.
        queue = WorkQueue(str(tmp_path))
        [point] = quick_points(1)
        queue.enqueue([point])
        lease = queue.claim("w1")
        queue.commit(lease, {"measured": 8})
        # Resurrect the pending marker as the crash would leave it.
        with open(queue._pending_path(point.key()), "w", encoding="utf-8") as handle:
            json.dump({"key": point.key(), "point": point.as_dict()}, handle)
        assert queue.claim("w2") is None
        assert queue.pending_count() == 0

    def test_results_iterates_committed_entries(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(2)
        queue.enqueue(points)
        for _ in points:
            lease = queue.claim("w1")
            queue.commit(lease, {"measured": 8})
        entries = list(queue.results())
        assert sorted(key for key, _, _ in entries) == sorted(
            point.key() for point in points
        )
        for _, point_dict, record in entries:
            assert point_dict is not None and record == {"measured": 8}


class TestQueueWorker:
    def test_worker_drains_queue_with_provenance(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(2)
        queue.enqueue(points)
        worker = QueueWorker(queue, worker_id="unit-worker")
        assert worker.run() == 2
        assert queue.pending_count() == 0
        for point in points:
            entry = queue.result_entry(point.key())
            assert entry["record"] == execute_point(point)
            provenance = entry["provenance"]
            assert provenance["worker"] == "unit-worker"
            for field in ("host", "pid", "wall_clock_s", "schema_version", "git_rev"):
                assert field in provenance

    def test_worker_respects_max_points(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(3))
        assert QueueWorker(queue, worker_id="w").run(max_points=1) == 1
        assert queue.pending_count() == 2

    def test_idle_worker_returns_zero(self, tmp_path):
        assert QueueWorker(WorkQueue(str(tmp_path)), worker_id="w").run() == 0


class TestQueueBackedRunner:
    def test_queue_run_matches_serial_records(self, tmp_path):
        campaign = grid(
            "normal-steady",
            stacks=("fd",),
            n_values=(3,),
            throughputs=(20.0, 60.0),
            num_messages=15,
        )
        serial = CampaignRunner(jobs=1).run(campaign)
        queue_run = CampaignRunner(
            queue=WorkQueue(str(tmp_path)), queue_timeout=120.0
        ).run(campaign)
        assert queue_run.records == serial.records
        assert queue_run.executed == 2

    def test_queue_run_uses_results_committed_by_others(self, tmp_path):
        campaign = grid(
            "normal-steady",
            stacks=("fd",),
            n_values=(3,),
            throughputs=(25.0,),
            num_messages=10,
        )
        queue = WorkQueue(str(tmp_path))
        # A "remote" worker commits the whole grid before the runner joins.
        queue.enqueue(campaign.points())
        QueueWorker(queue, worker_id="remote").run()
        run = CampaignRunner(queue=queue, queue_timeout=60.0).run(campaign)
        assert run.executed == 1
        [key] = [point.key() for point in campaign.points()]
        assert run.records[key] == queue.result(key)

    def test_queue_run_times_out_on_unclaimable_grid(self, tmp_path, monkeypatch):
        campaign = grid(
            "normal-steady",
            stacks=("fd",),
            n_values=(3,),
            throughputs=(25.0,),
            num_messages=10,
        )
        queue = WorkQueue(str(tmp_path))
        monkeypatch.setattr(runner_module, "QUEUE_POLL_S", 0.01)
        runner = CampaignRunner(queue=queue, queue_timeout=0.05)
        # Make the embedded worker unable to claim anything, simulating a
        # grid whose points are all leased by stalled remote workers.
        monkeypatch.setattr(WorkQueue, "claim", lambda self, worker, names=None: None)
        with pytest.raises(TimeoutError):
            runner.run(campaign)

    @pytest.mark.parametrize(
        "forcing", [{"force": True}, {"force_kinds": ("normal-steady",)}], ids=["force", "kind"]
    )
    def test_force_re_simulates_a_point_the_queue_already_holds(self, tmp_path, forcing):
        campaign = grid(
            "normal-steady",
            stacks=("fd",),
            n_values=(3,),
            throughputs=(25.0,),
            num_messages=10,
        )
        [point] = campaign.points()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.enqueue([point])
        queue.commit(queue.claim("earlier"), {"stale": True})
        store = ResultStore(str(tmp_path / "cache"))
        run = CampaignRunner(store=store, queue=queue, queue_timeout=60.0, **forcing).run(campaign)
        fresh = execute_point(point)
        assert run.executed == 1
        assert run.records[point.key()] == fresh
        assert store.get(point.key()) == fresh
        assert queue.result(point.key()) == fresh


class TestDrainRounds:
    """A worker drains in rounds of one ``pending/`` listing each."""

    @pytest.fixture
    def stub_execution(self, monkeypatch):
        """Replace the simulation by a stub record; returns the executed keys."""
        executed = []

        def stub(point, trace_dir=None):
            executed.append(point.key())
            return {"type": "stub", "throughput": point.throughput}

        monkeypatch.setattr(queue_module, "execute_point", stub)
        return executed

    def test_draining_200_points_reads_the_directory_twice(
        self, tmp_path, monkeypatch, stub_execution
    ):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(200)
        assert queue.enqueue(points) == 200
        listings = []
        real_listdir = os.listdir

        def counting_listdir(path):
            listings.append(os.path.basename(path))
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        assert QueueWorker(queue, worker_id="w1").run() == 200
        # One round that drains everything and the empty round that ends the
        # drain; a listing per claim made this 201 sorted directory reads.
        assert listings == ["pending", "pending"]
        monkeypatch.undo()
        assert sorted(stub_execution) == sorted(point.key() for point in points)
        assert (queue.pending_count(), queue.result_count()) == (0, 200)
        assert os.listdir(os.path.join(str(tmp_path), "leases")) == []

    def test_a_stale_listing_skips_what_another_worker_finished(self, tmp_path, stub_execution):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(5))
        slow = QueueWorker(queue, worker_id="slow")
        names = iter(queue.pending_names())
        assert QueueWorker(queue, worker_id="fast").run(max_points=2) == 2
        # The first two names of the listing are done; the third is claimed.
        assert slow.run_one(names) is not None
        assert slow.run_one(names) is not None
        assert slow.run_one(names) is not None
        assert slow.run_one(names) is None
        assert len(stub_execution) == len(set(stub_execution)) == 5

    def test_a_listing_does_not_jump_a_live_lease(self, tmp_path, stub_execution):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(3))
        held = queue.claim("other")
        assert QueueWorker(queue, worker_id="w1").run() == 2
        assert held.key not in stub_execution
        assert queue.pending_count() == 1

    def test_points_enqueued_during_a_round_are_drained_by_the_next(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue(str(tmp_path))
        first, late = quick_points(2)
        queue.enqueue([first])
        executed = []

        def enqueueing(point, trace_dir=None):
            executed.append(point.key())
            queue.enqueue([late])
            return {"type": "stub"}

        monkeypatch.setattr(queue_module, "execute_point", enqueueing)
        assert QueueWorker(queue, worker_id="w1").run() == 2
        assert executed == [first.key(), late.key()]

    def test_max_points_stops_mid_round(self, tmp_path, stub_execution):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(4))
        assert QueueWorker(queue, worker_id="w1").run(max_points=3) == 3
        assert queue.pending_count() == 1
