"""Tests for the columnar mirror and the cross-campaign query path."""

import os

import pytest

from repro.campaigns import columnar
from repro.campaigns.aggregate import cross_campaign_summary, load_store_table
from repro.campaigns.columnar import fresh_mirror_path, read_rcol, write_rcol
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import grid
from repro.campaigns.store import ResultStore


def sample_entries():
    return [
        (
            "key-a",
            {"kind": "normal-steady", "stack": "fd", "fd_kind": "qos", "n": 3, "seed": 7},
            {
                "type": "scenario",
                "measured": 10,
                "undelivered": 1,
                "events": 120,
                "throughput": 25.0,
                "duration": 400.0,
                "latencies": [1.5, 2.5, 3.0],
            },
        ),
        (
            "key-b",
            None,  # legacy line without a point dict: columns reconstruct
            {
                "type": "transient",
                "scenario": None,
                "algorithm": "gm",
                "n": 5,
                "throughput": 50.0,
                "detection_time": 4.0,
                "failed_runs": 2,
                "latencies": [],
            },
        ),
    ]


class TestRcolRoundTrip:
    def test_round_trip_preserves_rows(self, tmp_path):
        path = str(tmp_path / "results.rcol")
        assert write_rcol(sample_entries(), path) == 2
        table = read_rcol(path)
        assert table.count == 2
        assert table.keys == ["key-a", "key-b"]
        row = table.row(0)
        assert row["kind"] == "normal-steady"
        assert row["stack"] == "fd"
        assert row["fd_kind"] == "qos"
        assert row["n"] == 3 and row["seed"] == 7
        assert row["measured"] == 10 and row["undelivered"] == 1
        assert row["throughput"] == 25.0 and row["duration"] == 400.0
        assert row["latencies"] == [1.5, 2.5, 3.0]
        assert row["latency_sum"] == pytest.approx(7.0)

    def test_pointless_entry_reconstructs_from_record(self, tmp_path):
        path = str(tmp_path / "results.rcol")
        write_rcol(sample_entries(), path)
        row = read_rcol(path).row(1)
        assert row["kind"] == "crash-transient"  # inferred from type=transient
        assert row["stack"] == "gm"
        assert row["type"] == "transient"
        assert row["failed_runs"] == 2
        assert row["detection_time"] == 4.0
        assert row["latencies"] == []

    def test_latency_vectors_slice_per_row(self, tmp_path):
        path = str(tmp_path / "results.rcol")
        write_rcol(sample_entries(), path)
        table = read_rcol(path)
        assert table.latency_count(0) == 3
        assert table.latency_count(1) == 0
        assert list(table.latencies(0)) == [1.5, 2.5, 3.0]

    def test_empty_store_round_trips(self, tmp_path):
        path = str(tmp_path / "results.rcol")
        assert write_rcol([], path) == 0
        table = read_rcol(path)
        assert table.count == 0 and table.keys == []

    def test_floats_round_trip_bit_exact(self, tmp_path):
        latencies = [0.1 + 0.2, 1e-17, 123456.789012345]
        entries = [("k", None, {"latencies": latencies, "throughput": 1e300})]
        path = str(tmp_path / "results.rcol")
        write_rcol(entries, path)
        table = read_rcol(path)
        assert list(table.latencies(0)) == latencies
        assert table.numbers["throughput"][0] == 1e300

    def test_foreign_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.rcol")
        with open(path, "wb") as handle:
            handle.write(b"not a mirror at all")
        with pytest.raises(ValueError):
            read_rcol(path)


class TestMirrorFreshness:
    def test_no_mirror_is_not_fresh(self, tmp_path):
        jsonl = str(tmp_path / "results.jsonl")
        with open(jsonl, "w", encoding="utf-8") as handle:
            handle.write("{}\n")
        assert fresh_mirror_path(jsonl) is None

    def test_mirror_written_after_jsonl_is_fresh(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"measured": 1, "latencies": [1.0]})
        store.close()  # refreshes the mirror after the last append
        fresh = fresh_mirror_path(store.path)
        assert fresh is not None and fresh.endswith(".rcol")

    def test_stale_mirror_is_ignored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"measured": 1, "latencies": [1.0]})
        store.close()
        mirror = fresh_mirror_path(store.path)
        old = os.stat(mirror).st_mtime - 60.0
        os.utime(mirror, (old, old))
        assert fresh_mirror_path(store.path) is None


class TestMirrorAcrossCompaction:
    """Compaction rewrites the JSONL without changing a record: a mirror that
    described the old file is still right, one that did not is never trusted."""

    def mirrored_store(self, tmp_path):
        """A closed store with duplicate lines and a fresh mirror, both
        back-dated so that whatever is written next is strictly newer."""
        store = ResultStore(str(tmp_path))
        for index in range(6):
            store.put(
                f"k{index % 4}",
                {"type": "scenario", "measured": index, "events": 10 * index,
                 "latencies": [1.0 + index, 2.5]},
                point={"kind": "normal-steady", "stack": "fd", "n": 3, "seed": index},
            )
        store.close()
        mirror = fresh_mirror_path(store.path)
        past = os.stat(store.path).st_mtime - 60.0
        os.utime(store.path, (past, past))
        os.utime(mirror, (past, past))
        assert fresh_mirror_path(store.path) == mirror
        return store.path

    def assert_mirror_equals_store(self, directory):
        table = load_store_table(directory)
        expected = {key: record for key, _, record in ResultStore(directory, mirror=False).entries()}
        assert sorted(table.keys) == sorted(expected)
        for index, key in enumerate(table.keys):
            assert list(table.latencies(index)) == expected[key]["latencies"]
            assert table.numbers["events"][index] == expected[key]["events"]
            assert table.numbers["measured"][index] == expected[key]["measured"]

    def test_compacting_an_unchanged_store_keeps_its_mirror_fresh(self, tmp_path, parses):
        path = self.mirrored_store(tmp_path)
        with open(path, "rb") as handle:
            assert len(handle.readlines()) == 6
        reopened = ResultStore(str(tmp_path))
        reopened.compact()
        reopened.close()
        with open(path, "rb") as handle:
            assert len(handle.readlines()) == 4
        assert fresh_mirror_path(path) is not None

        del parses[:]
        table = load_store_table(str(tmp_path))
        assert table.count == 4
        # The mirror's own header is the only JSON read: no record line.
        assert len(parses) == 1 and not parses[0].startswith('{"key"')
        self.assert_mirror_equals_store(str(tmp_path))

    def test_puts_after_the_compaction_outdate_the_mirror_again(self, tmp_path):
        path = self.mirrored_store(tmp_path)
        reopened = ResultStore(str(tmp_path), mirror=False)
        reopened.compact()
        assert fresh_mirror_path(path) is not None
        reopened.put("late", {"type": "scenario", "measured": 1, "events": 1, "latencies": [9.0]})
        reopened.close()
        assert fresh_mirror_path(path) is None
        self.assert_mirror_equals_store(str(tmp_path))

    def test_puts_before_compaction_leave_the_mirror_stale_or_rewritten(self, tmp_path):
        path = self.mirrored_store(tmp_path)
        unmirrored = ResultStore(str(tmp_path), mirror=False)
        unmirrored.put("new", {"type": "scenario", "measured": 7, "events": 70, "latencies": [4.0]})
        unmirrored.compact()
        unmirrored.close()
        assert fresh_mirror_path(path) is None  # stale: rebuilt from the JSONL on the next load
        self.assert_mirror_equals_store(str(tmp_path))

        mirrored = ResultStore(str(tmp_path))
        mirrored.put("newer", {"type": "scenario", "measured": 8, "events": 80, "latencies": [5.0]})
        mirrored.compact()
        mirrored.close()  # rewritten at close, from the store
        assert "newer" in columnar.read_mirror(fresh_mirror_path(path)).keys
        self.assert_mirror_equals_store(str(tmp_path))

    def test_a_mirror_that_was_stale_stays_stale(self, tmp_path):
        path = self.mirrored_store(tmp_path)
        mirror = columnar.mirror_path(path)
        older = os.stat(path).st_mtime - 60.0
        os.utime(mirror, (older, older))
        reopened = ResultStore(str(tmp_path))
        reopened.compact()
        reopened.close()
        assert fresh_mirror_path(path) is None

    def test_a_mirror_holding_a_peers_appends_is_not_kept(self, tmp_path):
        # The peer's line is in its mirror but not in this store's index, so
        # this compaction drops it from the JSONL: the mirror must go stale.
        path = self.mirrored_store(tmp_path)
        early = ResultStore(str(tmp_path))
        with ResultStore(str(tmp_path)) as peer:
            peer.put("peer", {"type": "scenario", "measured": 1, "events": 1, "latencies": [1.0]})
        assert "peer" in columnar.read_mirror(fresh_mirror_path(path)).keys
        early.compact()
        early.close()
        assert fresh_mirror_path(path) is None
        assert "peer" not in load_store_table(str(tmp_path)).keys


class TestLoadStoreTable:
    def test_missing_store_loads_empty(self, tmp_path):
        table = load_store_table(str(tmp_path))
        assert table.count == 0

    def test_load_rebuilds_missing_mirror_from_jsonl(self, tmp_path):
        store = ResultStore(str(tmp_path), mirror=False)
        store.put(
            "k",
            {"type": "scenario", "measured": 3, "latencies": [2.0]},
            point={"kind": "normal-steady", "stack": "fd", "n": 3, "seed": 1},
        )
        store.close()
        assert fresh_mirror_path(store.path) is None
        table = load_store_table(str(tmp_path))
        assert table.count == 1 and table.row(0)["kind"] == "normal-steady"
        # The rebuild left a fresh mirror for the next aggregation.
        assert fresh_mirror_path(store.path) is not None

    def test_corrupt_mirror_falls_back_to_jsonl(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"measured": 3, "latencies": [2.0]})
        store.close()
        mirror = fresh_mirror_path(store.path)
        with open(mirror, "wb") as handle:
            handle.write(b"RCOL1\ngarbage")
        # Keep the torn mirror newer than the JSONL so it is still "fresh".
        newer = os.stat(store.path).st_mtime + 60.0
        os.utime(mirror, (newer, newer))
        table = load_store_table(str(tmp_path))
        assert table.count == 1 and table.keys == ["k"]

    def test_table_matches_campaign_records(self, tmp_path):
        campaign = grid(
            "normal-steady", stacks=("fd",), throughputs=(25.0, 50.0), num_messages=10
        )
        store = ResultStore(str(tmp_path))
        CampaignRunner(store=store).run(campaign)
        store.close()
        table = load_store_table(str(tmp_path))
        assert table.count == 2
        by_key = {table.keys[i]: table.row(i) for i in range(table.count)}
        for point in campaign.points():
            row = by_key[point.key()]
            assert row["kind"] == "normal-steady"
            assert row["stack"] == "fd"
            assert row["throughput"] == point.throughput
            assert row["measured"] == 10


class TestCrossCampaignSummary:
    def make_store(self, tmp_path, name, throughputs):
        directory = str(tmp_path / name)
        campaign = grid(
            "normal-steady", stacks=("fd",), throughputs=throughputs, num_messages=10
        )
        store = ResultStore(directory)
        CampaignRunner(store=store).run(campaign)
        store.close()
        return directory

    def test_groups_pool_across_stores(self, tmp_path):
        dir_a = self.make_store(tmp_path, "a", (25.0, 50.0))
        dir_b = self.make_store(tmp_path, "b", (25.0,))
        summary = cross_campaign_summary([dir_a, dir_b])
        by_group = {(entry["kind"], entry["throughput"]): entry for entry in summary}
        pooled = by_group[("normal-steady", 25.0)]
        assert pooled["records"] == 2  # same operating point from both stores
        assert pooled["measured"] == 20
        assert pooled["latency_count"] == 20
        assert pooled["mean_latency"] == pytest.approx(
            pooled["latency_sum"] / pooled["latency_count"]
        )
        assert by_group[("normal-steady", 50.0)]["records"] == 1

    def test_percentiles_pool_latency_vectors(self, tmp_path):
        directory = self.make_store(tmp_path, "a", (25.0,))
        [entry] = cross_campaign_summary([directory], percentiles=(0.5, 0.99))
        assert entry["p50"] <= entry["p99"]
        table = load_store_table(directory)
        pooled = sorted(table.latencies(0))
        assert entry["p99"] == pooled[min(len(pooled) - 1, round(0.99 * (len(pooled) - 1)))]

    def test_unknown_group_column_raises(self, tmp_path):
        directory = self.make_store(tmp_path, "a", (25.0,))
        with pytest.raises(KeyError):
            cross_campaign_summary([directory], group_by=("no-such-column",))

    def test_summary_matches_jsonl_truth(self, tmp_path):
        # The columnar fast path must agree with a dict-per-record fold.
        directory = self.make_store(tmp_path, "a", (25.0, 50.0))
        store = ResultStore(directory)
        expected_measured = sum(
            record.get("measured", 0) for _, _, record in store.entries()
        )
        store.close()
        summary = cross_campaign_summary([directory])
        assert sum(entry["measured"] for entry in summary) == expected_measured

    def test_empty_store_contributes_nothing(self, tmp_path):
        directory = self.make_store(tmp_path, "a", (25.0,))
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert len(cross_campaign_summary([directory, empty])) == 1


class TestMirrorHelpers:
    def test_the_mirror_is_the_stdlib_rcol_file(self, tmp_path):
        path = columnar.mirror_path(str(tmp_path / "results.jsonl"))
        assert path == str(tmp_path / "results.rcol")

    def test_write_mirror_round_trips_through_read_mirror(self, tmp_path):
        jsonl = str(tmp_path / "results.jsonl")
        path = columnar.write_mirror(sample_entries(), jsonl)
        table = columnar.read_mirror(path)
        assert table.count == 2
