"""Unit tests for the JSONL result store."""

import json
import os

import pytest

from repro.campaigns import columnar
from repro.campaigns import store as store_module
from repro.campaigns.store import ResultStore


class TestResultStore:
    def test_round_trip_and_persistence(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = {"type": "scenario", "latencies": [1.25, 3.5], "measured": 2}
        store.put("k1", record, point={"kind": "normal-steady"})
        assert store.get("k1") == record
        assert "k1" in store and len(store) == 1

        reopened = ResultStore(str(tmp_path))
        assert reopened.get("k1") == record

    def test_floats_round_trip_exactly(self, tmp_path):
        store = ResultStore(str(tmp_path))
        latencies = [0.1 + 0.2, 1e-17, 123456.789012345]
        store.put("k", {"latencies": latencies})
        assert ResultStore(str(tmp_path)).get("k")["latencies"] == latencies

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("good", {"measured": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "record": {"measu')  # interrupted write
        reopened = ResultStore(str(tmp_path))
        assert reopened.get("good") == {"measured": 1}
        assert reopened.get("torn") is None

    def test_duplicate_key_last_line_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", {"measured": 1})
        store.put("k", {"measured": 2})
        assert ResultStore(str(tmp_path)).get("k") == {"measured": 2}

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).get("nope") is None

    def test_stored_lines_are_strict_json(self, tmp_path):
        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.spec import grid

        campaign = grid(
            "normal-steady", stacks=("fd",), throughputs=(25.0,), num_messages=10
        )
        CampaignRunner(store=ResultStore(str(tmp_path))).run(campaign)
        with open(ResultStore(str(tmp_path)).path, encoding="utf-8") as handle:
            for line in handle:
                assert "Infinity" not in line and "NaN" not in line
                json.loads(line)

    def test_entries_are_one_json_object_per_line(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("a", {"measured": 1})
        store.put("b", {"measured": 2})
        with open(store.path, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        assert [entry["key"] for entry in entries] == ["a", "b"]


def line_count(path):
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


class TestDurabilityModes:
    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path), durability="paranoid")

    # On the disk, not the suite's tmpfs: an fsync there is real work, and a
    # store bug that only a disk-backed file system shows must fail here.
    @pytest.mark.real_filesystem
    def test_fsync_mode_is_durable_per_put(self, real_tmp_path):
        store = ResultStore(str(real_tmp_path), durability="fsync")
        store.put("k", {"measured": 1})
        # Visible to an independent reader before close/flush.
        assert ResultStore(str(real_tmp_path)).get("k") == {"measured": 1}
        store.close()

    def test_batch_mode_flushes_every_n_puts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "FLUSH_EVERY", 3)
        store = ResultStore(str(tmp_path), durability="batch", mirror=False)
        store.put("a", {"measured": 1})
        store.put("b", {"measured": 2})
        buffered = line_count(store.path)
        store.put("c", {"measured": 3})  # third put crosses FLUSH_EVERY
        assert line_count(store.path) == 3 >= buffered
        store.close()

    def test_batch_mode_flush_and_close_drain_the_buffer(self, tmp_path):
        store = ResultStore(str(tmp_path), durability="batch", mirror=False)
        store.put("a", {"measured": 1})
        store.flush()
        assert line_count(store.path) == 1
        store.put("b", {"measured": 2})
        store.close()
        assert line_count(store.path) == 2

    def test_closed_store_rejects_puts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.close()
        with pytest.raises(ValueError):
            store.put("k", {"measured": 1})

    def test_context_manager_closes_and_mirrors(self, tmp_path):
        with ResultStore(str(tmp_path)) as store:
            store.put("k", {"measured": 1, "latencies": [1.0]})
        assert os.path.exists(os.path.join(str(tmp_path), "results.rcol"))


class TestCompaction:
    def test_compact_rewrites_to_one_line_per_key(self, tmp_path):
        store = ResultStore(str(tmp_path), mirror=False)
        for value in range(5):
            store.put("k", {"measured": value}, point={"kind": "normal-steady"})
        store.put("other", {"measured": 99})
        assert line_count(store.path) == 6
        store.compact()
        assert line_count(store.path) == 2
        reopened = ResultStore(str(tmp_path))
        assert reopened.get("k") == {"measured": 4}
        assert reopened.get("other") == {"measured": 99}
        assert reopened.point("k") == {"kind": "normal-steady"}

    def test_store_appends_again_after_compact(self, tmp_path):
        store = ResultStore(str(tmp_path), mirror=False)
        store.put("a", {"measured": 1})
        store.compact()
        store.put("b", {"measured": 2})
        store.close()
        assert ResultStore(str(tmp_path)).get("b") == {"measured": 2}

    def test_auto_compaction_bounds_file_growth(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "AUTO_COMPACT_DUPES", 10)
        store = ResultStore(str(tmp_path), mirror=False)
        for value in range(50):
            store.put("hot", {"measured": value})
        assert line_count(store.path) <= 11
        assert store.get("hot") == {"measured": 49}
        store.close()

    def test_auto_compaction_disabled_with_zero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "AUTO_COMPACT_DUPES", 0)
        store = ResultStore(str(tmp_path), mirror=False)
        for value in range(20):
            store.put("hot", {"measured": value})
        assert line_count(store.path) == 20
        store.close()


class TestConcurrentStores:
    """Two runner processes sharing one store directory (the multi-writer
    contract: appends interleave, loads are last-wins, compaction swaps are
    atomic under a live reader)."""

    def test_interleaved_appends_from_two_stores(self, tmp_path):
        writer_a = ResultStore(str(tmp_path), mirror=False)
        writer_b = ResultStore(str(tmp_path), mirror=False)
        for index in range(10):
            writer_a.put(f"a{index}", {"measured": index})
            writer_b.put(f"b{index}", {"measured": index})
        writer_a.close()
        writer_b.close()
        merged = ResultStore(str(tmp_path))
        assert len(merged) == 20
        assert merged.get("a7") == {"measured": 7}
        assert merged.get("b3") == {"measured": 3}

    def test_same_key_from_two_stores_is_last_wins_on_reload(self, tmp_path):
        writer_a = ResultStore(str(tmp_path), mirror=False)
        writer_b = ResultStore(str(tmp_path), mirror=False)
        writer_a.put("shared", {"measured": 1})
        writer_b.put("shared", {"measured": 2})
        writer_a.close()
        writer_b.close()
        assert ResultStore(str(tmp_path)).get("shared") == {"measured": 2}

    def test_compaction_under_live_reader(self, tmp_path):
        writer = ResultStore(str(tmp_path), mirror=False)
        for value in range(5):
            writer.put("k", {"measured": value})
        reader = open(writer.path, encoding="utf-8")
        first_line = reader.readline()  # hold the old file open mid-read
        writer.compact()
        # The reader's handle still sees the complete pre-compaction file.
        rest = reader.read()
        reader.close()
        assert json.loads(first_line)["record"] == {"measured": 0}
        assert len([line for line in rest.splitlines() if line.strip()]) == 4
        # A fresh reader sees the complete post-compaction file.
        assert line_count(writer.path) == 1
        assert ResultStore(str(tmp_path)).get("k") == {"measured": 4}
        writer.close()

    def test_peer_compaction_never_leaves_a_torn_file(self, tmp_path):
        # A compacts while B holds an append handle on the replaced inode:
        # B's unseen lines go with the old inode (B's in-memory view stays
        # correct; deterministic points re-simulate for free), but the file
        # a fresh reader loads must always be complete and well-formed.
        writer_a = ResultStore(str(tmp_path), mirror=False)
        writer_b = ResultStore(str(tmp_path), mirror=False)
        writer_a.put("a", {"measured": 1})
        writer_b.put("b", {"measured": 2})  # opens B's handle on the old inode
        writer_a.compact()
        writer_a.close()
        writer_b.close()
        assert writer_b.get("b") == {"measured": 2}
        reloaded = ResultStore(str(tmp_path))
        assert reloaded.get("a") == {"measured": 1}
        with open(reloaded.path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    json.loads(line)  # every surviving line parses


def raw_lines(path):
    with open(path, "rb") as handle:
        return handle.readlines()


class TestTornTail:
    FRAGMENT = '{"key": "torn", "record": {"measu'

    def test_put_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        store = ResultStore(str(tmp_path), mirror=False)
        store.put("good", {"measured": 1})
        store.close()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(self.FRAGMENT)  # a writer died mid-append
        resumed = ResultStore(str(tmp_path), mirror=False)
        resumed.put("next", {"measured": 2})
        resumed.close()

        reopened = ResultStore(str(tmp_path), mirror=False)
        assert reopened.get("next") == {"measured": 2}
        assert reopened.get("good") == {"measured": 1}
        assert reopened.get("torn") is None and "torn" not in reopened
        # The fragment stays a line of its own; every complete line parses.
        lines = raw_lines(store.path)
        assert lines[1] == self.FRAGMENT.encode() + b"\n"
        assert [json.loads(line)["key"] for line in (lines[0], lines[2])] == ["good", "next"]

    def test_a_complete_tail_without_newline_is_served_and_terminated(self, tmp_path):
        with open(tmp_path / "results.jsonl", "w", encoding="utf-8") as handle:
            handle.write('{"key": "a", "record": {"measured": 1}}')  # no newline
        store = ResultStore(str(tmp_path), mirror=False)
        assert store.get("a") == {"measured": 1}
        store.put("b", {"measured": 2})
        store.close()
        reopened = ResultStore(str(tmp_path), mirror=False)
        assert (reopened.get("a"), reopened.get("b")) == ({"measured": 1}, {"measured": 2})
        assert len(raw_lines(store.path)) == 2


class TestIndexOverTheFile:
    """The store keeps ``key -> (offset, length)``, not the records."""

    N = 200

    def written_store(self, tmp_path):
        store = ResultStore(str(tmp_path), durability="batch", mirror=False)
        for index in range(self.N):
            store.put(
                f"k{index:04d}",
                {"measured": index, "latencies": [0.5 * index, 1.0]},
                point={"kind": "normal-steady", "seed": index} if index % 2 else None,
            )
        store.close()
        return store.path

    def test_opening_parses_nothing_and_a_hit_parses_one_line(self, tmp_path, parses):
        # The trap this pins: validating every line with json.loads at load
        # *and* parsing it again on the hit cut cached_points_per_s by a third.
        self.written_store(tmp_path)
        store = ResultStore(str(tmp_path), mirror=False)
        assert len(store) == self.N and not parses
        wanted = [f"k{index:04d}" for index in range(0, self.N, 10)]
        for key in wanted:
            assert store.get(key)["measured"] == int(key[1:])
        assert store.get("absent") is None
        assert len(parses) == len(wanted)
        # No read cache (and no knob for one): asking again parses again.
        store.get(wanted[0])
        assert len(parses) == len(wanted) + 1

    def test_a_tail_without_newline_costs_the_one_extra_parse(self, tmp_path, parses):
        path = self.written_store(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "tail", "record": {"measured": -1}}')
        store = ResultStore(str(tmp_path), mirror=False)
        assert len(parses) == 1 and len(store) == self.N + 1
        assert store.get("tail") == {"measured": -1}
        assert len(parses) == 2

    def test_foreign_formatting_is_parsed_at_load(self, tmp_path, parses):
        with open(tmp_path / "results.jsonl", "w", encoding="utf-8") as handle:
            handle.write('{"record":{"measured":1},"key":"compact-separators"}\n')
            handle.write('{"key": "esc\\"aped", "record": {"measured": 2}}\n')
            handle.write('{"key": "no-record"}\n')
            handle.write("\n")
        store = ResultStore(str(tmp_path), mirror=False)
        assert list(store.keys()) == ["compact-separators", 'esc"aped']
        assert store.get('esc"aped') == {"measured": 2}

    def test_an_unparsable_middle_line_is_a_miss_on_first_touch(self, tmp_path):
        # Shaped like a line of ours, so the load scan indexes it unparsed;
        # the parse that would serve it is what finds it out.
        path = self.written_store(tmp_path)
        lines = raw_lines(path)
        lines[5] = b'{"key": "k0005", "record": {"measured": }}\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)
        store = ResultStore(str(tmp_path), mirror=False)
        assert "k0005" in store
        assert store.get("k0005") is None
        assert "k0005" not in store and len(store) == self.N - 1
        assert store.point("k0005") is None

        fresh = ResultStore(str(tmp_path), mirror=False)
        assert "k0005" not in [key for key, _, _ in fresh.entries()]
        assert "k0005" not in fresh
        table = columnar.read_mirror(fresh.sync_mirror())
        assert table.count == self.N - 1 and "k0005" not in table.keys

    def test_an_unparsable_last_line_hides_the_keys_older_line(self, tmp_path):
        # The price of not validating at load: the index knows a key's last
        # line only, so when that one turns out bad the key is a miss (and
        # the point re-simulates) although an older line of it would parse.
        path = self.written_store(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k0007", "record": {"measu{"key": "x", "record": {}}\n')
        store = ResultStore(str(tmp_path), mirror=False)
        assert store.get("k0007") is None and "k0007" not in store
        assert store.get("x") is None

    def test_a_line_naming_another_key_is_not_served(self, tmp_path):
        # What a read finds at an offset is checked against the key asked for.
        path = self.written_store(tmp_path)
        store = ResultStore(str(tmp_path), mirror=False)
        lines = raw_lines(path)
        assert len(lines[4]) == len(lines[6])
        lines[4], lines[6] = lines[6], lines[4]  # swapped in place, under the index
        with open(path, "r+b") as handle:
            handle.writelines(lines)
        assert store.get("k0004") is None and store.get("k0006") is None
        assert store.get("k0005")["measured"] == 5

    def test_retained_memory_per_loaded_record_is_bounded(self, tmp_path):
        import gc
        import tracemalloc

        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.spec import grid

        count = 5000
        run = CampaignRunner().run(grid(
            "normal-steady", stacks=("fd", "gm"), throughputs=(25.0, 50.0), num_messages=20
        ))
        keys = sorted(run.records)
        store = ResultStore(str(tmp_path), durability="batch", mirror=False)
        for index in range(count):
            key = keys[index % len(keys)]
            store.put(f"{key}-{index // len(keys):04d}", run.records[key])
        store.close()
        del store, run
        gc.collect()

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = ResultStore(str(tmp_path), mirror=False)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == count
        # 3 850 bytes per record when every record and point dict was kept;
        # an index entry is the key string, a 2-tuple and two ints.
        assert retained / count <= 512

    def test_entries_stream_one_parsed_line_at_a_time(self, tmp_path, parses):
        self.written_store(tmp_path)
        store = ResultStore(str(tmp_path), mirror=False)
        stream = store.entries()
        key, point, record = next(stream)
        assert (key, point, record["measured"]) == ("k0000", None, 0)
        assert len(parses) == 1
        assert next(stream)[1] == {"kind": "normal-steady", "seed": 1}
        assert len(parses) == 2
        assert sum(1 for _ in stream) == self.N - 2 and len(parses) == self.N


class TestByteCopyCompaction:
    def test_untouched_lines_are_copied_byte_for_byte(self, tmp_path, parses):
        store = ResultStore(str(tmp_path), mirror=False)
        for index in range(6):
            store.put(f"k{index}", {"measured": index, "latencies": [0.1 + 0.2, 1e-17]},
                      point={"kind": "normal-steady"})
        store.put("k2", {"measured": 20})  # a duplicate: the last line wins
        store.close()
        before = raw_lines(store.path)
        # A foreign but valid line is kept as it is, not re-encoded.
        foreign = b'{"record":{"measured":7},"key":"foreign"}\n'
        with open(store.path, "ab") as handle:
            handle.write(foreign)

        reopened = ResultStore(str(tmp_path), mirror=False)
        del parses[:]
        reopened.put("own", {"measured": 99})
        reopened.compact()
        assert not parses  # compaction parses no line
        after = raw_lines(store.path)
        # First-appearance order; k2 is its last line; own writes re-encoded.
        assert after == [before[0], before[1], before[6], before[3], before[4], before[5],
                         foreign, b'{"key": "own", "record": {"measured": 99}}\n']
        # Reads go to the new file, and appends work again afterwards.
        assert reopened.get("k2") == {"measured": 20} and reopened.point("k2") is None
        assert reopened.get("foreign") == {"measured": 7}
        reopened.put("later", {"measured": 100})
        reopened.close()
        final = ResultStore(str(tmp_path), mirror=False)
        assert len(final) == 9 and final.get("later") == {"measured": 100}
        assert final.get("k5")["latencies"] == [0.1 + 0.2, 1e-17]

    def test_peer_compaction_cannot_move_an_open_readers_offsets(self, tmp_path):
        writer = ResultStore(str(tmp_path), mirror=False)
        for index in range(5):
            writer.put("hot", {"measured": index})
            writer.put(f"k{index}", {"measured": index})
        writer.close()
        reader = ResultStore(str(tmp_path), mirror=False)
        peer = ResultStore(str(tmp_path), mirror=False)
        peer.compact()  # a new, shorter file at the path
        peer.close()
        assert reader.get("hot") == {"measured": 4}
        assert [reader.get(f"k{index}")["measured"] for index in range(5)] == list(range(5))
