"""Columnar mirror of the JSONL result store.

Cross-campaign aggregation over 10^5+ point-records is dominated by
``json.loads`` when it re-parses ``results.jsonl``; this module mirrors the
store into ``results.rcol``, a columnar file that loads in bulk: a
packed-binary format built purely on the stdlib ``array`` module -- one
contiguous typed blob per column, so reading is a handful of ``frombytes``
calls instead of one dict per record.

Logical schema (one row per cached point, last write wins):

==================  =======  ====================================================
column              type     source
==================  =======  ====================================================
key                 str      point-config hash (the store key)
kind / stack /      str      the point dict when the store has it, else
fd_kind / type               reconstructed from the record (dictionary-encoded)
n / seed / measured i64      operating point + delivery counters
undelivered /
events / failed_runs
throughput /        f64      operating point + run accounting
duration /
detection_time /
latency_sum
latencies           f64[]    per-record latency vector (offsets + value blob)
==================  =======  ====================================================

The mirror is derived data: it is rewritten atomically as a whole (tmp file
+ ``os.replace``) and considered *fresh* only when at least as new as the
JSONL file, so a torn or stale mirror is never trusted -- readers fall back
to the JSONL source of truth and rebuild.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple

MAGIC = b"RCOL1\n"

#: Dictionary-encoded string columns, in layout order.
STRING_COLUMNS = ("kind", "stack", "fd_kind", "type")
#: 64-bit signed integer columns, in layout order.
INT_COLUMNS = ("n", "seed", "measured", "undelivered", "events", "failed_runs")
#: 64-bit float columns, in layout order.
FLOAT_COLUMNS = ("throughput", "duration", "detection_time", "latency_sum")

Entry = Tuple[str, Optional[Dict[str, Any]], Dict[str, Any]]


class ColumnarTable:
    """Columns of a mirrored result store, loaded in bulk.

    ``strings[name]`` is a ``(codes, values)`` dictionary encoding;
    ``numbers[name]`` is a typed ``array``; per-row latency vectors are one
    shared float blob sliced through an offsets array.
    """

    __slots__ = ("count", "keys", "strings", "numbers", "latency_offsets", "latency_values")

    def __init__(
        self,
        count: int,
        keys: List[str],
        strings: Dict[str, Tuple[array, List[str]]],
        numbers: Dict[str, array],
        latency_offsets: array,
        latency_values: array,
    ) -> None:
        self.count = count
        self.keys = keys
        self.strings = strings
        self.numbers = numbers
        self.latency_offsets = latency_offsets
        self.latency_values = latency_values

    def string_column(self, name: str) -> List[str]:
        """The decoded values of a dictionary-encoded column."""
        codes, values = self.strings[name]
        return [values[code] for code in codes]

    def latencies(self, index: int):
        """The latency vector of row ``index`` (a typed-array slice)."""
        return self.latency_values[self.latency_offsets[index]:self.latency_offsets[index + 1]]

    def latency_count(self, index: int) -> int:
        return self.latency_offsets[index + 1] - self.latency_offsets[index]

    def row(self, index: int) -> Dict[str, Any]:
        """One row as a plain dict (tests and spot checks; not the fast path)."""
        out: Dict[str, Any] = {"key": self.keys[index]}
        for name, (codes, values) in self.strings.items():
            out[name] = values[codes[index]]
        for name, column in self.numbers.items():
            out[name] = column[index]
        out["latencies"] = list(self.latencies(index))
        return out


def _entry_columns(key: str, point: Optional[Dict[str, Any]], record: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten one store entry into the logical mirror columns."""
    record_type = record.get("type", "")
    if point:
        kind = point.get("kind", "")
        stack = point.get("stack", "")
        fd_kind = point.get("fd_kind", "") or ""
        n = point.get("n", record.get("n", 0))
        seed = point.get("seed", 0)
    else:
        kind = record.get("scenario") or (
            "crash-transient" if record_type == "transient" else ""
        )
        stack = record.get("algorithm", "")
        fd_kind = ""
        n = record.get("n", 0)
        seed = 0
    latencies = record.get("latencies", ())
    return {
        "key": key,
        "kind": kind,
        "stack": stack,
        "fd_kind": fd_kind,
        "type": record_type,
        "n": int(n),
        "seed": int(seed),
        "measured": int(record.get("measured", 0)),
        "undelivered": int(record.get("undelivered", 0)),
        "events": int(record.get("events", 0)),
        "failed_runs": int(record.get("failed_runs", 0)),
        "throughput": float(record.get("throughput", 0.0)),
        "duration": float(record.get("duration", 0.0)),
        "detection_time": float(record.get("detection_time", 0.0)),
        "latency_sum": float(sum(latencies)),
        "latencies": latencies,
    }


def _atomic_write(path: str, payload: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# ------------------------------------------------------------------ rcol

def write_rcol(entries: Iterable[Entry], path: str) -> int:
    """Write the packed-binary mirror; returns the number of rows."""
    keys: List[str] = []
    string_codes = {name: array("i") for name in STRING_COLUMNS}
    string_values: Dict[str, Dict[str, int]] = {name: {} for name in STRING_COLUMNS}
    int_cols = {name: array("q") for name in INT_COLUMNS}
    float_cols = {name: array("d") for name in FLOAT_COLUMNS}
    offsets = array("Q", [0])
    values = array("d")

    for key, point, record in entries:
        columns = _entry_columns(key, point, record)
        keys.append(columns["key"])
        for name in STRING_COLUMNS:
            mapping = string_values[name]
            code = mapping.setdefault(columns[name], len(mapping))
            string_codes[name].append(code)
        for name in INT_COLUMNS:
            int_cols[name].append(columns[name])
        for name in FLOAT_COLUMNS:
            float_cols[name].append(columns[name])
        values.extend(columns["latencies"])
        offsets.append(len(values))

    key_blob = "\n".join(keys).encode("utf-8")
    blobs: List[bytes] = [key_blob]
    layout: List[List[Any]] = [["key", "utf8", len(key_blob)]]
    for name in STRING_COLUMNS:
        blob = string_codes[name].tobytes()
        blobs.append(blob)
        layout.append([name, "i32", len(blob)])
    for name in INT_COLUMNS:
        blob = int_cols[name].tobytes()
        blobs.append(blob)
        layout.append([name, "i64", len(blob)])
    for name in FLOAT_COLUMNS:
        blob = float_cols[name].tobytes()
        blobs.append(blob)
        layout.append([name, "f64", len(blob)])
    for name, column, code in (("latency_offsets", offsets, "u64"), ("latency_values", values, "f64")):
        blob = column.tobytes()
        blobs.append(blob)
        layout.append([name, code, len(blob)])

    header = json.dumps(
        {
            "version": 1,
            "count": len(keys),
            "byteorder": sys.byteorder,
            "strings": {name: list(string_values[name]) for name in STRING_COLUMNS},
            "layout": layout,
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = b"".join(
        [MAGIC, len(header).to_bytes(8, "little"), header] + blobs
    )
    _atomic_write(path, payload)
    return len(keys)


def read_rcol(path: str) -> ColumnarTable:
    """Load a packed-binary mirror written by :func:`write_rcol`."""
    with open(path, "rb") as handle:
        payload = handle.read()
    if not payload.startswith(MAGIC):
        raise ValueError(f"{path} is not an RCOL1 mirror")
    header_len = int.from_bytes(payload[len(MAGIC):len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    header = json.loads(payload[start:start + header_len].decode("utf-8"))
    if header.get("version") != 1:
        raise ValueError(f"unsupported mirror version {header.get('version')!r}")
    swap = header.get("byteorder") != sys.byteorder
    view = memoryview(payload)
    offset = start + header_len

    typecodes = {"i32": "i", "i64": "q", "u64": "Q", "f64": "d"}
    columns: Dict[str, Any] = {}
    for name, code, nbytes in header["layout"]:
        blob = view[offset:offset + nbytes]
        offset += nbytes
        if code == "utf8":
            text = bytes(blob).decode("utf-8")
            columns[name] = text.split("\n") if text else []
        else:
            column = array(typecodes[code])
            column.frombytes(blob)
            if swap:
                column.byteswap()
            columns[name] = column

    count = header["count"]
    keys = columns["key"]
    if len(keys) != count:
        raise ValueError(f"mirror corrupt: {len(keys)} keys for {count} rows")
    strings = {
        name: (columns[name], header["strings"][name]) for name in STRING_COLUMNS
    }
    numbers = {name: columns[name] for name in INT_COLUMNS + FLOAT_COLUMNS}
    return ColumnarTable(
        count=count,
        keys=keys,
        strings=strings,
        numbers=numbers,
        latency_offsets=columns["latency_offsets"],
        latency_values=columns["latency_values"],
    )


# ------------------------------------------------------------------ mirror API

def mirror_path(jsonl_path: str) -> str:
    """Where the mirror of ``jsonl_path`` lives."""
    return f"{os.path.splitext(jsonl_path)[0]}.rcol"


def write_mirror(entries: Iterable[Entry], jsonl_path: str) -> str:
    """Mirror ``entries`` beside ``jsonl_path``; returns the mirror path."""
    path = mirror_path(jsonl_path)
    write_rcol(entries, path)
    return path


def touch_mirror(jsonl_path: str) -> None:
    """Stamp the mirror of ``jsonl_path`` as written now.

    For a rewrite of the JSONL that changed no record (a compaction): the
    caller vouches that the mirror was fresh for the file it replaced.
    """
    os.utime(mirror_path(jsonl_path))


def read_mirror(path: str) -> ColumnarTable:
    """Load a mirror file."""
    return read_rcol(path)


def fresh_mirror_path(jsonl_path: str) -> Optional[str]:
    """The up-to-date mirror of ``jsonl_path``, or ``None``.

    A mirror is *fresh* when it is at least as new as the JSONL file.
    """
    candidate = mirror_path(jsonl_path)
    try:
        if os.stat(candidate).st_mtime_ns >= os.stat(jsonl_path).st_mtime_ns:
            return candidate
    except OSError:
        pass
    return None
