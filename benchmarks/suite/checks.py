"""Correctness checks: any failure makes the run exit non-zero.

They hold for every system the suite builds itself (the campaign workloads
run systems inside the program, so they check records instead):

* total order -- any two processes deliver their common messages in the
  same relative order, and no process delivers a message twice;
* the replicated service's replicas applied the same command prefix;
* the ``.rcol`` mirror of a store holds exactly what its JSONL holds;
* serial, pooled, cached and queue execution give identical records.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

import paths  # noqa: F401  (src/ on sys.path)


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_total_order(sequences: Mapping[int, Sequence[Any]], label: str = "") -> None:
    """Uniform total order and integrity over per-process delivery sequences."""
    members = {pid: set(sequence) for pid, sequence in sequences.items()}
    for pid, sequence in sequences.items():
        require(
            len(members[pid]) == len(sequence),
            f"{label}: process {pid} delivered a message twice",
        )
    pids = sorted(sequences)
    for position, first in enumerate(pids):
        for second in pids[position + 1:]:
            common = members[first] & members[second]
            if not common:
                continue
            order_first = [item for item in sequences[first] if item in common]
            order_second = [item for item in sequences[second] if item in common]
            require(
                order_first == order_second,
                f"{label}: processes {first} and {second} deliver their common "
                f"messages in different orders",
            )


def check_mirror(store_directory: str, expected: Mapping[str, Dict[str, Any]]) -> None:
    """The columnar mirror of the store round-trips the JSONL records."""
    from repro.campaigns.aggregate import load_store_table

    table = load_store_table(store_directory)
    require(
        table.count == len(expected),
        f"mirror of {store_directory} has {table.count} rows for {len(expected)} records",
    )
    for index, key in enumerate(table.keys):
        record = expected.get(key)
        require(record is not None, f"mirror row {key} is not in the store")
        require(
            list(table.latencies(index)) == [float(v) for v in record.get("latencies", ())],
            f"mirror row {key}: latency vector differs from the JSONL record",
        )
        require(
            table.numbers["events"][index] == int(record.get("events", 0)),
            f"mirror row {key}: event count differs from the JSONL record",
        )


def check_same_records(
    reference: Mapping[str, Dict[str, Any]], other: Mapping[str, Dict[str, Any]], label: str
) -> None:
    """``other`` holds, for each of its keys, exactly the reference record."""
    for key, record in other.items():
        require(key in reference, f"{label}: point {key[:12]} has no serial reference record")
        require(
            record == reference[key],
            f"{label}: record of point {key[:12]} differs from serial execution",
        )
