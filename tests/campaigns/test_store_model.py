"""The dict-of-records store as oracle for the index store.

``ModelStore`` is the store as it was before it became an index over the
file: every line parsed at load, every record and point kept in a dict,
compaction re-encoding everything.  Two deliberate differences from that
code, both part of the contract now: a duplicate line replaces the *whole*
entry (the old code let a later line without a point inherit an earlier
line's), and an append handle opened onto a torn tail starts a new line.

One hypothesis program drives both, each on its own file: two stores per
file (the second is the peer: it appends to the same file and compacts it
under the first one's open reader), torn tails in between.  After every
step each open index store must answer every read as its model twin does,
and so must freshly opened ones at the end -- on their own file and on the
other implementation's (the file is the contract).

What the program leaves out on purpose: a torn fragment's key is never used
again.  A fragment glued to a later append is shaped like a line of ours,
so the index store takes it for the key's last line until a read finds it
out; an older valid line of that key is then a miss where the model would
still serve it (``test_store.py`` pins that).  For the same reason the reads
below look every key up before they ask for ``len`` / ``keys``.
"""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaigns.store import ResultStore

FLUSH_EVERY = 2
KEYS = ("k0", "k1", "k2")


def encode(key, record, point):
    entry = {"key": key, "record": record}
    if point is not None:
        entry["point"] = point
    return json.dumps(entry, sort_keys=True) + "\n"


class ModelStore:
    def __init__(self, path):
        self.path, self.records, self.points = path, {}, {}
        self.handle, self.unflushed = None, 0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if entry.get("key") and entry.get("record") is not None:
                        self._set(entry["key"], entry["record"], entry.get("point"))

    def _set(self, key, record, point):
        self.records[key] = record
        self.points[key] = point  # the whole line wins, its missing point included

    def put(self, key, record, point=None):
        if self.handle is None:
            with open(self.path, "ab+") as probe:
                size = probe.tell()
                probe.seek(max(size - 1, 0))
                torn = size > 0 and probe.read(1) != b"\n"
            self.handle = open(self.path, "a", encoding="utf-8")
            if torn:
                self.handle.write("\n")
        self.handle.write(encode(key, record, point))
        self._set(key, record, point)
        self.unflushed += 1
        if self.unflushed >= FLUSH_EVERY:
            self.flush()

    def flush(self):
        if self.handle is not None:
            self.handle.flush()
        self.unflushed = 0

    def compact(self):
        self.close()
        with open(self.path + ".tmp", "w", encoding="utf-8") as handle:
            for key, point, record in self.entries():
                handle.write(encode(key, record, point))
        os.replace(self.path + ".tmp", self.path)

    def close(self):
        self.flush()
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    def get(self, key):
        return self.records.get(key)

    def point(self, key):
        return self.points.get(key)

    def keys(self):
        return iter(self.records)

    def entries(self):
        return ((key, self.points[key], record) for key, record in self.records.items())

    def __contains__(self, key):
        return key in self.records

    def __len__(self):
        return len(self.records)


def open_index(directory):
    return ResultStore(directory, durability="batch", flush_every=FLUSH_EVERY,
                       auto_compact_dupes=0, mirror=False)


def open_model(directory):
    return ModelStore(os.path.join(directory, "results.jsonl"))


def assert_same_reads(store, model, keys):
    for key in keys:
        assert store.get(key) == model.get(key), key
        assert store.point(key) == model.point(key), key
    for key in keys:
        assert (key in store) == (key in model), key
    assert len(store) == len(model)
    assert list(store.keys()) == list(model.keys())
    assert list(store.entries()) == list(model.entries())


PUT = st.tuples(st.just("put"), st.sampled_from((0, 1)), st.sampled_from(KEYS),
                st.integers(0, 9), st.booleans())
ON_A_STORE = st.tuples(st.sampled_from(("compact", "flush", "reopen")), st.sampled_from((0, 1)))
TEAR = st.tuples(st.just("tear"), st.integers(1, 200))
PROGRAM = st.lists(st.one_of(PUT, PUT, ON_A_STORE, TEAR), max_size=24)


@settings(max_examples=150, deadline=None)
@given(PROGRAM)
# A later line without a point replaces the entry, point and all.
@example([("put", 0, "k0", 1, True), ("put", 0, "k0", 2, False), ("reopen", 0), ("compact", 0)])
# A put after a torn tail starts a new line; one through a handle that was
# already open is glued to the fragment and lost with it.
@example([("put", 0, "k0", 1, True), ("flush", 0), ("tear", 30), ("put", 1, "k1", 2, False),
          ("put", 0, "k2", 3, True), ("flush", 0), ("flush", 1), ("reopen", 0)])
# A complete tail that lacks only its newline is served, and terminated by the next append.
@example([("tear", 200), ("reopen", 0), ("put", 0, "k0", 1, False), ("compact", 1)])
# The peer compacts under an open reader, which goes on reading the old
# inode, then appends to the new one and compacts what it knows.
@example([("put", 0, "k0", 1, True), ("put", 0, "k0", 2, True), ("put", 0, "k1", 3, False),
          ("reopen", 0), ("reopen", 1), ("compact", 1), ("put", 0, "k2", 4, True),
          ("put", 1, "k1", 5, True), ("compact", 0), ("reopen", 1)])
# The peer appends after the reader's load; the reader's compaction drops what it never saw.
@example([("put", 0, "k0", 1, True), ("flush", 0), ("put", 1, "k1", 2, True), ("flush", 1),
          ("compact", 0), ("put", 1, "k2", 3, False), ("reopen", 0), ("reopen", 1)])
def test_the_index_store_reads_as_the_dict_of_records_store(program):
    with tempfile.TemporaryDirectory() as index_dir, tempfile.TemporaryDirectory() as model_dir:
        stores = [open_index(index_dir), open_index(index_dir)]
        models = [open_model(model_dir), open_model(model_dir)]
        keys = list(KEYS)
        for step, (op, *args) in enumerate(program):
            if op == "put":
                slot, key, value, with_point = args
                record = {"measured": value, "latencies": [value + 0.5, 1e-3]}
                point = {"kind": "normal-steady", "seed": value} if with_point else None
                stores[slot].put(key, record, point)
                models[slot].put(key, record, point)
            elif op == "tear":
                torn_key = f"torn{step}"
                keys.append(torn_key)
                line = encode(torn_key, {"measured": -1, "latencies": [0.25]}, {"kind": "torn"})
                for directory in (index_dir, model_dir):
                    with open(os.path.join(directory, "results.jsonl"), "a") as handle:
                        handle.write(line[:min(args[0], len(line) - 1)])
            elif op == "reopen":
                stores[args[0]].close()
                models[args[0]].close()
                stores[args[0]] = open_index(index_dir)
                models[args[0]] = open_model(model_dir)
            else:
                getattr(stores[args[0]], op)()
                getattr(models[args[0]], op)()
            for store, model in zip(stores, models):
                assert_same_reads(store, model, keys)

        for store, model in zip(stores, models):
            store.close()
            model.close()
            assert_same_reads(store, model, keys)  # reads are served after close()
        assert_same_reads(open_index(index_dir), open_model(model_dir), keys)
        assert_same_reads(open_index(model_dir), open_model(index_dir), keys)
