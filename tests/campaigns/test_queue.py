"""Tests for the shared-directory work queue and its execution protocol.

The distribution contract: every enqueued point is executed exactly once
while workers stay alive, crashed workers' leases are reclaimed after the
TTL, and a queue-backed campaign run produces records bit-identical to the
serial path (points travel as dicts and come back under the same key).
"""

import json
import os
import subprocess
import sys

import pytest

import repro.campaigns.queue as queue_module
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.campaigns.store import ResultStore

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


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
            max_batch=2,
        )
        rebuilt = PointSpec.from_dict(point.as_dict())
        assert rebuilt == point
        assert rebuilt.key() == point.key()

    def test_from_dict_preserves_infinity_fields(self):
        # Infinities serialise as the string "inf" to stay strict JSON.
        point = PointSpec(
            kind="normal-steady",
            stack="gm",
            throughput=25.0,
            join_retry_interval=float("inf"),
        )
        data = json.loads(json.dumps(point.as_dict()))  # through real JSON
        assert data["join_retry_interval"] == "inf"
        rebuilt = PointSpec.from_dict(data)
        assert rebuilt.config().params.stack.join_retry_interval == float("inf")
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

    def test_one_enqueue_writes_one_manifest(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        points = quick_points(3)
        assert queue.enqueue(points + points[:1]) == 3  # deduped within the call
        [manifest] = os.listdir(os.path.join(str(tmp_path), "points"))
        with open(os.path.join(str(tmp_path), "points", manifest), encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["key"] for line in lines] == [point.key() for point in points]
        assert [PointSpec.from_dict(line["point"]) for line in lines] == points
        assert queue.pending_keys() == sorted(point.key() for point in points)

    def test_a_retired_result_makes_its_point_pending_again(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        [point] = quick_points(1)
        queue.enqueue([point])
        queue.commit(queue.claim("w1"), {"stale": True})
        assert queue.pending_count() == 0
        queue.retire(point.key())
        assert queue.enqueue([point]) == 0  # its manifest still lists it
        assert queue.pending_keys() == [point.key()]

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

    def test_lease_left_beside_a_committed_result_is_tidied(self, tmp_path):
        # A worker crashed between replacing its result and dropping its
        # lease; the next claim skips the point and removes the lease.
        queue = WorkQueue(str(tmp_path))
        [point] = quick_points(1)
        queue.enqueue([point])
        listing = iter(queue.pending_keys())  # w2's round began before the commit
        lease = queue.claim("w1")
        queue.commit(lease, {"measured": 8})
        with open(queue._lease_path(point.key()), "w", encoding="utf-8") as handle:
            json.dump({"worker": "w1"}, handle)
        assert queue.claim("w3") is None  # a fresh listing no longer offers it
        assert queue.claim("w2", listing) is None
        assert not os.path.exists(queue._lease_path(point.key()))
        assert queue.pending_count() == 0
        assert queue.result(point.key()) == {"measured": 8}

    def test_temporary_files_of_crashed_writers_are_ignored(self, tmp_path, monkeypatch):
        # A crashed enqueue or commit leaves its ``*.tmp.<pid>`` behind,
        # possibly half-written; no listing or count sees it.
        queue = WorkQueue(str(tmp_path))
        *listed, third = quick_points(3)
        points = sorted(listed, key=lambda point: point.key()) + [third]  # claim order
        queue.enqueue(points[:2])
        lease = queue.claim("w1")
        queue.commit(lease, {"measured": 8})
        for sub, name in (
            ("points", "0123abcd.jsonl.tmp.4242"),
            ("results", f"{points[1].key()}.json.tmp.4242"),
            ("results", f"{points[2].key()}.json.tmp.4242"),
        ):
            with open(os.path.join(str(tmp_path), sub, name), "w", encoding="utf-8") as handle:
                handle.write('{"key": "torn')
        fresh = WorkQueue(str(tmp_path))
        assert fresh.pending_keys() == [points[1].key()]
        assert (fresh.pending_count(), fresh.result_count()) == (1, 1)
        assert [key for key, _, _ in fresh.results()] == [points[0].key()]
        assert fresh.enqueue(points) == 1  # only the third point is new
        monkeypatch.setattr(queue_module, "execute_point", lambda point, trace_dir=None: {})
        assert QueueWorker(fresh, worker_id="w2").run() == 2
        assert (fresh.pending_count(), fresh.result_count()) == (0, 3)

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

    def test_wall_clock_s_survives_a_clock_step(self, tmp_path, monkeypatch):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(1))
        stepped = queue_module.time.time() - 3600.0

        def stepping(point, trace_dir=None):
            monkeypatch.setattr(queue_module.time, "time", lambda: stepped)
            return {}

        monkeypatch.setattr(queue_module, "execute_point", stepping)
        [key] = queue.pending_keys()
        assert QueueWorker(queue, worker_id="w").run() == 1
        provenance = queue.result_entry(key)["provenance"]
        assert 0.0 <= provenance["wall_clock_s"] < 60.0
        assert provenance["finished_unix"] == stepped

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
            queue=WorkQueue(str(tmp_path), queue_timeout=120.0)
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
        queue = WorkQueue(str(tmp_path), queue_timeout=60.0)
        # A "remote" worker commits the whole grid before the runner joins.
        queue.enqueue(campaign.points())
        QueueWorker(queue, worker_id="remote").run()
        run = CampaignRunner(queue=queue).run(campaign)
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
        queue = WorkQueue(str(tmp_path), queue_timeout=0.05)
        monkeypatch.setattr(queue_module, "QUEUE_POLL_S", 0.01)
        runner = CampaignRunner(queue=queue)
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
        queue = WorkQueue(str(tmp_path / "queue"), queue_timeout=60.0)
        queue.enqueue([point])
        queue.commit(queue.claim("earlier"), {"stale": True})
        store = ResultStore(str(tmp_path / "cache"))
        run = CampaignRunner(store=store, queue=queue, **forcing).run(campaign)
        fresh = execute_point(point)
        assert run.executed == 1
        assert run.records[point.key()] == fresh
        assert store.get(point.key()) == fresh
        assert queue.result(point.key()) == fresh


class TestDrainRounds:
    """A worker drains in rounds of one ``pending_keys`` listing each."""

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
        # drain, each listing ``points/`` and ``results/`` once; a listing
        # per claim made this 201 reads of each.
        assert listings == ["points", "results", "points", "results"]
        monkeypatch.undo()
        assert sorted(stub_execution) == sorted(point.key() for point in points)
        assert (queue.pending_count(), queue.result_count()) == (0, 200)
        assert os.listdir(os.path.join(str(tmp_path), "leases")) == []

    def test_a_stale_listing_skips_what_another_worker_finished(self, tmp_path, stub_execution):
        queue = WorkQueue(str(tmp_path))
        queue.enqueue(quick_points(5))
        slow = QueueWorker(queue, worker_id="slow")
        keys = iter(queue.pending_keys())
        assert QueueWorker(queue, worker_id="fast").run(max_points=2) == 2
        # The first two keys of the listing are done; the third is claimed.
        assert slow.run_one(keys) is not None
        assert slow.run_one(keys) is not None
        assert slow.run_one(keys) is not None
        assert slow.run_one(keys) is None
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

    def test_overlapping_producers_and_two_workers_execute_each_point_once(
        self, tmp_path, stub_execution
    ):
        directory = str(tmp_path)
        points = quick_points(9)
        assert WorkQueue(directory).enqueue(points[:6]) == 6
        assert WorkQueue(directory).enqueue(points[3:]) == 3  # 3..5 already listed
        assert len(os.listdir(os.path.join(directory, "points"))) == 2
        workers = [QueueWorker(WorkQueue(directory), worker_id=f"w{i}") for i in (1, 2)]
        while any([worker.run_one() for worker in workers]):
            pass
        assert sorted(stub_execution) == sorted(point.key() for point in points)
        assert WorkQueue(directory).pending_count() == 0


class TestFileSystemWork:
    """Clock-free bound: a point costs one fsync (its result) and one removal
    (its unfsynced lease); an enqueue costs one fsync however many points."""

    def test_enqueue_and_drain_200_points(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_module, "execute_point", lambda point, trace_dir=None: {})
        queue = WorkQueue(str(tmp_path))
        points = quick_points(200)
        fsyncs, removed = [], []
        real_fsync, real_remove = os.fsync, os.remove

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        def counting_remove(path):
            removed.append(path)
            real_remove(path)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(os, "remove", counting_remove)
        assert queue.enqueue(points) == 200
        assert (len(fsyncs), removed) == (1, [])
        assert QueueWorker(queue, worker_id="w1").run() == 200
        assert len(fsyncs) == 1 + 200
        assert sorted(removed) == sorted(queue._lease_path(point.key()) for point in points)


#: One queue worker process whose execution logs the key it ran and returns.
WORKER_SCRIPT = """
import sys
import repro.campaigns.queue as queue_module
directory, worker, log = sys.argv[1:]

def logging_stub(point, trace_dir=None):
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(point.key() + "\\n")
    return {}

queue_module.execute_point = logging_stub
print(queue_module.QueueWorker(queue_module.WorkQueue(directory), worker_id=worker).run())
"""


class TestConcurrentWorkers:
    def test_four_worker_processes_execute_each_point_once(self, tmp_path):
        directory = str(tmp_path / "queue")
        points = quick_points(60)
        WorkQueue(directory).enqueue(points)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        logs = [str(tmp_path / f"w{index}.log") for index in range(4)]
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER_SCRIPT, directory, f"w{index}", log],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for index, log in enumerate(logs)
        ]
        try:
            counts = [int(worker.communicate(timeout=120)[0]) for worker in workers]
        finally:
            for worker in workers:
                worker.kill()
        assert [worker.returncode for worker in workers] == [0, 0, 0, 0]
        executed = []
        for log in logs:
            if os.path.exists(log):
                with open(log, encoding="utf-8") as handle:
                    executed.extend(handle.read().split())
        assert sum(counts) == len(executed) == 60
        assert sorted(executed) == sorted(point.key() for point in points)
        queue = WorkQueue(directory)
        assert (queue.pending_count(), queue.result_count()) == (0, 60)
        assert os.listdir(os.path.join(directory, "leases")) == []


class TestOldQueueDirectory:
    """A queue directory from the per-point ``pending/`` layout still works."""

    def test_pending_dir_is_ignored_and_a_rerun_drains_the_grid(self, tmp_path):
        campaign = grid(
            "normal-steady",
            stacks=("fd",),
            n_values=(3,),
            throughputs=(20.0, 40.0),
            num_messages=10,
        )
        done, missing = campaign.points()
        serial = CampaignRunner(jobs=1).run(campaign)
        directory = str(tmp_path)
        for sub in ("pending", "leases", "results"):
            os.makedirs(os.path.join(directory, sub))
        old_pending = os.path.join(directory, "pending", f"{missing.key()}.json")
        with open(old_pending, "w", encoding="utf-8") as handle:
            json.dump({"key": missing.key(), "point": missing.as_dict()}, handle, sort_keys=True)
        with open(os.path.join(directory, "results", f"{done.key()}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"key": done.key(), "point": done.as_dict(),
                       "record": serial.records[done.key()],
                       "provenance": {"worker": "old"}}, handle, sort_keys=True)

        queue = WorkQueue(directory, queue_timeout=60.0)
        assert (queue.pending_count(), queue.result_count()) == (0, 1)
        run = CampaignRunner(queue=queue).run(campaign)
        assert run.records == serial.records
        assert queue.result_entry(done.key())["provenance"] == {"worker": "old"}
        assert queue.result_entry(missing.key())["provenance"]["worker"] != "old"
        assert (queue.pending_count(), queue.result_count()) == (0, 2)
        assert os.path.exists(old_pending)  # left as it was, never read
