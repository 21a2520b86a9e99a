"""File/directory-backed distributed work queue for campaign points.

The campaign runner isolates execution behind :func:`repro.campaigns.records.execute_point`,
so distributing a grid across machines only needs a way to hand points out
and collect records back.  This queue does it with nothing but a shared
directory (NFS mount, synced folder, one box with many worker processes)::

    <queue-dir>/pending/<key>.json    the serialised PointSpec, awaiting work
    <queue-dir>/leases/<key>.lease    who is executing it, since when
    <queue-dir>/results/<key>.json    {key, point, record, provenance}

The protocol relies only on two portable filesystem primitives:

* **lease acquisition** is ``O_CREAT | O_EXCL`` -- exactly one worker can
  create the lease file, so no point is executed twice while its worker is
  alive;
* **commits** are tmp-file + ``os.replace`` -- a reader never observes a
  half-written result.

A worker that crashes mid-point leaves its lease behind; once the lease is
older than ``lease_ttl`` seconds any other worker reclaims it (atomically
re-pointing the lease at itself) and re-executes the point.  Simulations
are deterministic functions of their spec, so a reclaimed-and-re-executed
point commits the identical record -- double execution after a crash costs
time, never correctness.

:class:`QueueWorker` is the fleet-side loop: claim, simulate, commit, with
per-result provenance (worker id, wall clock, schema/package version, git
revision).  ``python -m repro.campaigns --queue-worker --queue-dir DIR``
runs one.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import __version__
from repro.campaigns.records import execute_point
from repro.campaigns.spec import SCHEMA_VERSION, PointSpec
from repro.obs.export import git_revision

PENDING = "pending"
LEASES = "leases"
RESULTS = "results"


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


@dataclass
class Lease:
    """One claimed point: the worker owns it until commit, release or TTL."""

    key: str
    point: PointSpec
    worker: str


class WorkQueue:
    """A shared-directory work queue of campaign points."""

    def __init__(self, directory: str, *, lease_ttl: float = 300.0) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0 seconds, got {lease_ttl}")
        self.directory = directory
        self.lease_ttl = lease_ttl
        for sub in (PENDING, LEASES, RESULTS):
            os.makedirs(os.path.join(directory, sub), exist_ok=True)

    # ------------------------------------------------------------------ paths

    def _pending_path(self, key: str) -> str:
        return os.path.join(self.directory, PENDING, f"{key}.json")

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.directory, LEASES, f"{key}.lease")

    def _result_path(self, key: str) -> str:
        return os.path.join(self.directory, RESULTS, f"{key}.json")

    # ------------------------------------------------------------------ producer

    def enqueue(self, points: List[PointSpec]) -> int:
        """Queue every point that is neither pending nor already done."""
        added = 0
        for point in points:
            key = point.key()
            if os.path.exists(self._result_path(key)):
                continue
            if os.path.exists(self._pending_path(key)):
                continue
            _atomic_write_json(
                self._pending_path(key), {"key": key, "point": point.as_dict()}
            )
            added += 1
        return added

    # ------------------------------------------------------------------ worker

    def pending_names(self) -> List[str]:
        """The file names under ``pending/``, in claim order."""
        try:
            return sorted(os.listdir(os.path.join(self.directory, PENDING)))
        except OSError:
            return []

    def claim(self, worker: str, names: Optional[Iterable[str]] = None) -> Optional[Lease]:
        """Lease one pending point, or ``None`` when nothing is claimable.

        Skips points under a live lease; reclaims leases older than the TTL
        (the crashed-worker path).  ``names`` is a :meth:`pending_names`
        listing taken earlier (default: taken now); an iterator is consumed
        up to the claimed name, so successive claims walk one listing once.
        A name that left ``pending/`` since is skipped like any lost race.
        """
        if names is None:
            names = self.pending_names()
        now = time.time()
        for name in names:
            if not name.endswith(".json"):
                continue
            key = name[:-len(".json")]
            if os.path.exists(self._result_path(key)):
                # A worker crashed between committing the result and tidying
                # the pending marker; finish the tidy-up for it.
                self._remove(self._pending_path(key))
                self._remove(self._lease_path(key))
                continue
            if not self._acquire_lease(key, worker, now):
                continue
            spec = _read_json(self._pending_path(key))
            if spec is None or "point" not in spec:
                # Torn or vanished pending file: drop our lease and move on.
                self._remove(self._lease_path(key))
                continue
            return Lease(key=key, point=PointSpec.from_dict(spec["point"]), worker=worker)
        return None

    def _acquire_lease(self, key: str, worker: str, now: float) -> bool:
        lease_path = self._lease_path(key)
        payload = {
            "worker": worker,
            "claimed": now,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }
        body = json.dumps(payload, sort_keys=True)
        try:
            fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                # A clock on purpose: a lease expires by its age, not by identity.
                age = now - os.stat(lease_path).st_mtime
            except OSError:
                return False  # lease vanished: its owner just committed
            if age <= self.lease_ttl:
                return False  # live lease held by another worker
            # Stale lease: its worker crashed (or stalled past the TTL).
            # Atomically re-point the lease at us, then read back to verify
            # we won any reclaim race.
            tmp = f"{lease_path}.reclaim.{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(body)
                os.replace(tmp, lease_path)
            except OSError:
                return False
            current = _read_json(lease_path)
            return bool(
                current
                and current.get("worker") == worker
                and current.get("pid") == os.getpid()
            )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(body)
        return True

    def commit(
        self,
        lease: Lease,
        record: Dict[str, Any],
        provenance: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Publish the record of a leased point and retire it from the queue."""
        payload: Dict[str, Any] = {
            "key": lease.key,
            "point": lease.point.as_dict(),
            "record": record,
            "provenance": dict(provenance or {}),
        }
        _atomic_write_json(self._result_path(lease.key), payload)
        self._remove(self._pending_path(lease.key))
        self._remove(self._lease_path(lease.key))

    def retire(self, key: str) -> None:
        """Drop the committed result of ``key``, so :meth:`enqueue` queues it again."""
        self._remove(self._result_path(key))

    def release(self, lease: Lease) -> None:
        """Give a claimed point back (worker shutting down cleanly)."""
        self._remove(self._lease_path(lease.key))

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------ consumer

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """The committed record for ``key``, or ``None`` while outstanding."""
        entry = _read_json(self._result_path(key))
        if entry is None:
            return None
        return entry.get("record")

    def result_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The full committed entry (point + record + provenance)."""
        return _read_json(self._result_path(key))

    def results(self) -> Iterator[Tuple[str, Optional[Dict[str, Any]], Dict[str, Any]]]:
        """Iterate ``(key, point, record)`` over every committed result."""
        directory = os.path.join(self.directory, RESULTS)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".json"):
                continue
            entry = _read_json(os.path.join(directory, name))
            if entry and "record" in entry:
                yield entry.get("key", name[:-5]), entry.get("point"), entry["record"]

    def pending_count(self) -> int:
        return self._count(PENDING, ".json")

    def result_count(self) -> int:
        return self._count(RESULTS, ".json")

    def _count(self, sub: str, suffix: str) -> int:
        try:
            return sum(
                1
                for name in os.listdir(os.path.join(self.directory, sub))
                if name.endswith(suffix)
            )
        except OSError:
            return 0


class QueueWorker:
    """The fleet-side execution loop: claim, simulate, commit.

    One worker drains points serially; fleet parallelism comes from running
    many workers (processes, machines) against the same queue directory.
    """

    def __init__(
        self,
        queue: WorkQueue,
        worker_id: Optional[str] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.trace_dir = trace_dir

    def run_one(self, names: Optional[Iterable[str]] = None) -> Optional[str]:
        """Claim and execute one point; returns its key, or ``None`` if idle.

        ``names`` is handed to :meth:`WorkQueue.claim`.
        """
        lease = self.queue.claim(self.worker_id, names)
        if lease is None:
            return None
        try:
            started = time.time()
            record = execute_point(lease.point, self.trace_dir)
            provenance = {
                "worker": self.worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "wall_clock_s": time.time() - started,
                "finished_unix": time.time(),
                "schema_version": SCHEMA_VERSION,
                "repro_version": __version__,
                "git_rev": git_revision(),
            }
            self.queue.commit(lease, record, provenance)
        except Exception:
            self.queue.release(lease)
            raise
        return lease.key

    def run(self, max_points: Optional[int] = None) -> int:
        """Execute until the queue has nothing claimable; returns the count.

        Drains in rounds of one ``pending/`` listing each (a listing per
        claim reads the directory N times to drain N points) and stops after
        a round that claimed nothing: points enqueued, or leases gone stale,
        during a round are found by the next.
        """
        budget = float("inf") if max_points is None else max_points
        executed = 0
        while executed < budget:
            names = iter(self.queue.pending_names())
            before = executed
            while executed < budget and self.run_one(names):
                executed += 1
            if executed == before:
                break
        return executed
