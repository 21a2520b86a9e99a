"""Append-only JSONL result store: the campaign cache.

One line per completed point::

    {"key": "<sha256 of the point config>", "point": {...}, "record": {...}}

The file is the store; in memory there is an *index* over it, not the
records (the keydir over an append-only log of Bitcask).  Opening a store
scans the file once and keeps ``key -> (offset, length)`` of each key's last
line, taking the key from its fixed position in a line of the store's own
format and parsing only what is not in that format (a tail without a
newline, a line some other tool wrote).  A lookup reads its one line through
a handle on the scanned file -- a peer's ``os.replace`` compaction puts a new
file at the path but cannot move these offsets -- and parses it then, every
time it is asked for: there is no read cache.  That parse is also where a
line is validated; one that does not parse, names another key or has no
record leaves the index and is a miss from then on.  What this object wrote
itself stays in memory, so a run's own records never touch the disk again.

Lines are appended through one persistent handle held for the store's
lifetime (the original implementation reopened the file per point, which
dominated quick-point campaigns).  Two durability modes:

* ``durability="fsync"`` (the default, and the historical behaviour): every
  ``put`` is flushed *and* fsynced before returning, so a crashed campaign
  resumes from its last completed point;
* ``durability="batch"``: lines are buffered and flushed every
  ``flush_every`` puts (and on :meth:`flush` / :meth:`close`), trading a
  bounded window of re-simulation after a crash for throughput on
  many-small-point grids.

A torn final line -- the only corruption an append-only writer can produce
-- is skipped on load, and the next append starts a new line instead of
gluing itself onto the fragment.  Duplicate keys are resolved last-wins on
load (the whole line: record *and* point), and :meth:`compact` rewrites the
file to one line per key atomically (tmp + ``os.replace``), so a store shared
by several appending runners (or rewritten by ``--force``) stops growing
without bound; compaction triggers automatically once enough duplicate lines
accumulate.

Closing a store (context-manager exit, :meth:`close`, or garbage
collection) also refreshes the columnar mirror (:mod:`repro.campaigns.columnar`)
that cross-campaign aggregation reads instead of re-parsing the JSONL.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.campaigns import columnar
from repro.campaigns.columnar import Entry

DURABILITY_MODES = ("fsync", "batch")

#: The shape of every line this store writes (``json.dumps`` with
#: ``sort_keys``: the key first, the record -- a dict -- last); the load scan
#: reads the key between ``_KEY_PREFIX`` and ``_AFTER_KEY`` of such a line.
_KEY_PREFIX = b'{"key": "'
_AFTER_KEY = (b', "point": ', b', "record": ')
_LINE_END = b"}}\n"


def _encode(key: str, point: Optional[Dict[str, Any]], record: Dict[str, Any]) -> str:
    """The stored line of one entry."""
    entry: Dict[str, Any] = {"key": key, "record": record}
    if point is not None:
        entry["point"] = point
    return json.dumps(entry, sort_keys=True) + "\n"


def _parse(line: bytes) -> Optional[Entry]:
    """``(key, point-or-None, record)`` of one stored line, or ``None`` when
    it is torn, unparsable or lacks a key or a record."""
    try:
        entry = json.loads(line.decode("utf-8"))
    except ValueError:
        return None  # torn write from an interrupted campaign
    if not isinstance(entry, dict):
        return None
    key, record = entry.get("key"), entry.get("record")
    if not key or not isinstance(key, str) or record is None:
        return None
    return key, entry.get("point"), record


def _ends_mid_line(path: str) -> bool:
    """Whether ``path`` is non-empty and does not end in a newline."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


class ResultStore:
    """Disk cache of completed campaign points, keyed by point-config hash."""

    def __init__(
        self,
        directory: str,
        filename: str = "results.jsonl",
        *,
        durability: str = "fsync",
        flush_every: int = 64,
        auto_compact_dupes: int = 512,
        mirror: bool = True,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, got {durability!r}"
            )
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, filename)
        self.durability = durability
        self.flush_every = flush_every
        #: Compact automatically once this many duplicate lines accumulate
        #: (0 disables); duplicates come from multi-writer appends and from
        #: ``--force`` rewrites, both of which are last-wins by contract.
        self.auto_compact_dupes = auto_compact_dupes
        self.mirror = mirror
        #: Every cached key, in order of first appearance.  A loaded key maps
        #: to the ``(offset, length)`` of its last line in the file behind
        #: ``_reader``; a key this object wrote maps to ``None`` and is in
        #: ``_written``.
        self._index: Dict[str, Optional[Tuple[int, int]]] = {}
        self._written: Dict[str, Entry] = {}
        #: Binary handle on the file the offsets point into, kept for the
        #: object's lifetime (reads are served after :meth:`close`), and the
        #: number of its bytes the index covers.
        self._reader = None
        self._indexed_bytes = 0
        self._handle = None
        self._unflushed = 0
        self._dupes = 0
        self._dirty = False
        self._closed = False
        self._load()

    def _load(self) -> None:
        try:
            self._reader = open(self.path, "rb")
        except FileNotFoundError:
            return
        index = self._index
        lines = offset = 0
        for line in self._reader:
            key = None
            if line.startswith(_KEY_PREFIX) and line.endswith(_LINE_END):
                end = line.find(b'"', len(_KEY_PREFIX))
                span = line[len(_KEY_PREFIX):end]
                # An escape in the key (a backslash, or raw non-ASCII from a
                # foreign writer) is the parser's business.
                if span and span.isascii() and b"\\" not in span and line.startswith(
                    _AFTER_KEY, end + 1
                ):
                    key = span.decode("ascii")
            if key is None:
                parsed = _parse(line)
                if parsed is not None:
                    key = parsed[0]
            if key is not None:
                lines += 1
                index[key] = (offset, len(line))
            offset += len(line)
        self._indexed_bytes = offset
        self._dupes = lines - len(index)

    # ------------------------------------------------------------------ access

    def _entry(self, key: str) -> Optional[Entry]:
        """The entry stored under ``key``, or ``None``.

        A loaded line is read and parsed here, on every call, and validated
        by that parse: one that fails leaves the index.
        """
        entry = self._written.get(key)
        if entry is not None:
            return entry
        location = self._index.get(key)
        if location is None:
            return None
        offset, length = location
        entry = _parse(os.pread(self._reader.fileno(), length, offset))
        if entry is None or entry[0] != key:
            del self._index[key]
            return None
        return entry

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or ``None`` on a miss."""
        entry = self._entry(key)
        return entry[2] if entry is not None else None

    def point(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored point dict for ``key`` (when the writer provided one)."""
        entry = self._entry(key)
        return entry[1] if entry is not None else None

    def put(
        self,
        key: str,
        record: Dict[str, Any],
        point: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist ``record`` under ``key`` (durable before returning in
        ``fsync`` mode; buffered up to ``flush_every`` lines in ``batch``
        mode)."""
        handle = self._append_handle()
        handle.write(_encode(key, point, record))
        if key in self._index:
            self._dupes += 1
        self._index[key] = None
        self._written[key] = (key, point, record)
        self._dirty = True
        if self.durability == "fsync":
            handle.flush()
            os.fsync(handle.fileno())
        else:
            self._unflushed += 1
            if self._unflushed >= self.flush_every:
                self.flush()
        if self.auto_compact_dupes and self._dupes >= self.auto_compact_dupes:
            self.compact()

    def keys(self) -> Iterator[str]:
        """The keys of every cached point."""
        return iter(self._index)

    def entries(self) -> Iterator[Entry]:
        """Iterate ``(key, point-or-None, record)`` over the cached points,
        one parsed line at a time."""
        for key in list(self._index):
            entry = self._entry(key)
            if entry is not None:
                yield entry

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------ lifecycle

    def _append_handle(self):
        """The persistent append handle, opened lazily on first write.

        Read-only users (cache lookups, aggregation) never open the file
        for appending at all.  Opened onto a torn tail, it starts a new
        line first, so the next record is not lost with the fragment.
        """
        if self._closed:
            raise ValueError(f"store {self.path} is closed")
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
            if _ends_mid_line(self.path):
                self._handle.write("\n")
        return self._handle

    def flush(self) -> None:
        """Flush (and fsync) any buffered lines to disk."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._unflushed = 0

    def _mirror_matches_index(self) -> bool:
        """Whether a fresh mirror describes exactly the lines indexed here:
        nothing put since the load, and the file at ``path`` is still the
        scanned one and no longer than it was (what a peer appended is in
        its mirror but not in this index)."""
        if self._dirty or self._reader is None:
            return False
        if columnar.fresh_mirror_path(self.path) is None:
            return False
        scanned, current = os.fstat(self._reader.fileno()), os.stat(self.path)
        return (current.st_dev, current.st_ino, current.st_size) == (
            scanned.st_dev, scanned.st_ino, self._indexed_bytes
        )

    def compact(self) -> None:
        """Rewrite the file to one last-wins line per key, atomically.

        The replacement is a tmp-file + ``os.replace`` swap, so a concurrent
        reader always sees either the old complete file or the new complete
        file, never a half-written one.  Lines this object did not write are
        copied byte for byte, its own are encoded again, and the index moves
        to the new file as it is written.  The append handle is reopened
        onto the new file afterwards, and a mirror that described the old
        file exactly still describes the new one, so it stays fresh.
        """
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        keep_mirror = self._mirror_matches_index()
        tmp = f"{self.path}.compact.{os.getpid()}"
        index: Dict[str, Optional[Tuple[int, int]]] = {}
        offset = 0
        with open(tmp, "wb") as handle:
            for key, location in self._index.items():
                if location is None:
                    line = _encode(*self._written[key]).encode("ascii")
                    index[key] = None
                else:
                    line = os.pread(self._reader.fileno(), location[1], location[0])
                    if not line.endswith(b"\n"):
                        line += b"\n"  # a complete tail that lacked only its newline
                    index[key] = (offset, len(line))
                handle.write(line)
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
        # Opened before the swap: the new offsets belong to this inode,
        # whatever a peer renames onto the path later.
        reader = open(tmp, "rb")
        os.replace(tmp, self.path)
        if self._reader is not None:
            self._reader.close()
        self._reader, self._index, self._indexed_bytes = reader, index, offset
        self._dupes = 0
        self._unflushed = 0
        if keep_mirror:
            columnar.touch_mirror(self.path)

    def sync_mirror(self) -> Optional[str]:
        """Rewrite the columnar mirror from the store's entries, streamed.

        Returns the mirror path, or ``None`` for an empty store (nothing to
        mirror).  See :mod:`repro.campaigns.columnar` for the schema.
        """
        if not self._index:
            return None
        self.flush()
        return columnar.write_mirror(self.entries(), self.path)

    def close(self) -> None:
        """Flush buffered lines, refresh the mirror and release the append
        handle.  Reads are still served afterwards."""
        if self._closed:
            return
        try:
            self.flush()
            if self.mirror and self._dirty:
                self.sync_mirror()
        finally:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            try:
                self.close()
            finally:
                if self._reader is not None:
                    self._reader.close()
        except Exception:
            pass
