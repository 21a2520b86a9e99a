"""File/directory-backed distributed work queue for campaign points.

The campaign runner isolates execution behind :func:`repro.campaigns.records.execute_point`,
so distributing a grid across machines only needs a way to hand points out
and collect records back.  This queue does it with nothing but a shared
directory (NFS mount, synced folder, one box with many worker processes)::

    <queue-dir>/points/<hash>.jsonl   one manifest per enqueue: {key, point} lines
    <queue-dir>/leases/<key>.lease    who is executing a point, since when
    <queue-dir>/results/<key>.json    {key, point, record, provenance}

A point is pending while a manifest lists it and ``results/`` holds no
record of it.  A manifest never changes once it is visible, so a worker
parses each one once.  Committing a point writes its result and drops its
lease, which was never fsynced: the hot path deletes no durable file
(freeing one costs a block discard on file systems mounted with it).

The protocol relies only on two portable filesystem primitives:

* **lease acquisition** is ``O_CREAT | O_EXCL`` -- exactly one worker can
  create the lease file, so no point is executed twice while its worker is
  alive;
* **manifests and results** are written tmp-file + fsync + ``os.replace``
  -- a reader never observes a half-written one.

A worker that crashes mid-point leaves its lease behind; once the lease is
older than ``lease_ttl`` seconds any other worker reclaims it (atomically
re-pointing the lease at itself) and re-executes the point.  Simulations
are deterministic functions of their spec, so a reclaimed-and-re-executed
point commits the identical record -- double execution after a crash costs
time, never correctness.

:class:`QueueWorker` is the fleet-side loop: claim, simulate, commit, with
per-result provenance (worker id, wall clock, schema/package version, git
revision).  ``python -m repro.campaigns --queue-worker --queue-dir DIR``
runs one.  :meth:`WorkQueue.execute` is the campaign runner's side: it
enqueues a run's missing points, works them as one more worker and yields
each ``(point, record)`` as it is committed, by whichever worker, until all
are in or ``queue_timeout`` runs out.  The whole queue is this module: the
runner only calls that method on a queue its caller built.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import __version__
from repro.campaigns.records import execute_point
from repro.campaigns.spec import SCHEMA_VERSION, PointSpec
from repro.obs.export import git_revision

POINTS = "points"
LEASES = "leases"
RESULTS = "results"

#: Seconds :meth:`WorkQueue.execute` sleeps between polls for records
#: committed by other workers.
QUEUE_POLL_S = 0.2


def _atomic_write(path: str, body: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(body)
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
    """A shared-directory work queue of campaign points.

    ``lease_ttl`` is the age at which a crashed worker's lease is reclaimed;
    ``queue_timeout`` bounds how long :meth:`execute` waits for points other
    workers hold (``None``: as long as it takes).
    """

    def __init__(
        self, directory: str, *, lease_ttl: float = 300.0, queue_timeout: Optional[float] = None
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0 seconds, got {lease_ttl}")
        self.directory = directory
        self.lease_ttl = lease_ttl
        self.queue_timeout = queue_timeout
        for sub in (POINTS, LEASES, RESULTS):
            os.makedirs(os.path.join(directory, sub), exist_ok=True)
        # Every manifest parsed so far, by file name, and the points they list.
        self._manifests: Set[str] = set()
        self._points: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ paths

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.directory, LEASES, f"{key}.lease")

    def _result_path(self, key: str) -> str:
        return os.path.join(self.directory, RESULTS, f"{key}.json")

    def _listing(self, sub: str, suffix: str) -> List[str]:
        """The names under ``sub`` ending in ``suffix`` (never a ``*.tmp.<pid>``)."""
        try:
            names = os.listdir(os.path.join(self.directory, sub))
        except OSError:
            return []
        return [name for name in names if name.endswith(suffix)]

    def _known(self) -> Dict[str, Dict[str, Any]]:
        """Every point any manifest lists, key -> point dict; parses new manifests only."""
        for name in self._listing(POINTS, ".jsonl"):
            if name not in self._manifests:
                with open(os.path.join(self.directory, POINTS, name), encoding="utf-8") as handle:
                    for line in handle:
                        entry = json.loads(line)
                        self._points[entry["key"]] = entry["point"]
                self._manifests.add(name)
        return self._points

    def _done(self) -> Set[str]:
        return {name[:-len(".json")] for name in self._listing(RESULTS, ".json")}

    # ------------------------------------------------------------------ producer

    def enqueue(self, points: List[PointSpec]) -> int:
        """Queue, as one manifest, every point no manifest lists and no result holds."""
        known = self._known()
        done = self._done()
        added: Dict[str, Dict[str, Any]] = {}
        for point in points:
            key = point.key()
            if key not in known and key not in done and key not in added:
                added[key] = point.as_dict()
        if not added:
            return 0
        body = "".join(
            json.dumps({"key": key, "point": point}, sort_keys=True) + "\n"
            for key, point in added.items()
        )
        name = hashlib.sha256(body.encode("utf-8")).hexdigest() + ".jsonl"
        path = os.path.join(self.directory, POINTS, name)
        if not os.path.exists(path):
            _atomic_write(path, body)
        self._manifests.add(name)
        self._points.update(added)
        return len(added)

    # ------------------------------------------------------------------ worker

    def pending_keys(self) -> List[str]:
        """The keys listed by a manifest and not yet committed, in claim order."""
        return sorted(self._known().keys() - self._done())

    def claim(self, worker: str, keys: Optional[Iterable[str]] = None) -> Optional[Lease]:
        """Lease one pending point, or ``None`` when nothing is claimable.

        Skips points under a live lease; reclaims leases older than the TTL
        (the crashed-worker path).  ``keys`` is a :meth:`pending_keys`
        listing taken earlier (default: taken now); an iterator is consumed
        up to the claimed key, so successive claims walk one listing once.
        A key committed since is skipped like any lost race.
        """
        if keys is None:
            keys = self.pending_keys()
        now = time.time()
        for key in keys:
            if os.path.exists(self._result_path(key)):
                # Committed since the listing; a lease still beside the result
                # is a worker's that crashed before dropping it.
                self._remove(self._lease_path(key))
                continue
            if not self._acquire_lease(key, worker, now):
                continue
            if os.path.exists(self._result_path(key)):
                # Its worker committed and dropped the lease after our check.
                self._remove(self._lease_path(key))
                continue
            return Lease(key=key, point=PointSpec.from_dict(self._points[key]), worker=worker)
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
        """Publish the record of a leased point and drop its lease."""
        payload: Dict[str, Any] = {
            "key": lease.key,
            "point": lease.point.as_dict(),
            "record": record,
            "provenance": dict(provenance or {}),
        }
        _atomic_write(self._result_path(lease.key), json.dumps(payload, sort_keys=True))
        self._remove(self._lease_path(lease.key))

    def retire(self, key: str) -> None:
        """Drop the committed result of ``key``, so the point is pending again."""
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

    def execute(
        self, points: List[PointSpec], trace_dir: Optional[str], forced: Callable[[PointSpec], bool]
    ) -> Iterator[Tuple[PointSpec, Dict[str, Any]]]:
        """Enqueue ``points``, work them as one queue worker, poll for the rest.

        A ``forced`` point's earlier result is retired first, or the point
        would count as done.  Yields each ``(point, record)`` as its result
        appears and completes when every point has one, from this worker or
        any other; stale leases of crashed workers are reclaimed along the
        way by the claim path.
        """
        for point in filter(forced, points):
            self.retire(point.key())
        self.enqueue(points)
        worker = QueueWorker(self, trace_dir=trace_dir)
        outstanding = {point.key(): point for point in points}
        deadline = None if self.queue_timeout is None else time.monotonic() + self.queue_timeout
        while True:
            worker.run()
            for key in list(outstanding):
                record = self.result(key)
                if record is not None:
                    yield outstanding.pop(key), record
            if not outstanding:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(outstanding)} campaign points still outstanding in queue "
                    f"{self.directory!r} after {self.queue_timeout:g} s"
                )
            time.sleep(QUEUE_POLL_S)

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
        for name in sorted(self._listing(RESULTS, ".json")):
            entry = _read_json(os.path.join(directory, name))
            if entry and "record" in entry:
                yield entry.get("key", name[:-5]), entry.get("point"), entry["record"]

    def pending_count(self) -> int:
        return len(self.pending_keys())

    def result_count(self) -> int:
        return len(self._listing(RESULTS, ".json"))


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

    def run_one(self, keys: Optional[Iterable[str]] = None) -> Optional[str]:
        """Claim and execute one point; returns its key, or ``None`` if idle.

        ``keys`` is handed to :meth:`WorkQueue.claim`.
        """
        lease = self.queue.claim(self.worker_id, keys)
        if lease is None:
            return None
        try:
            started = time.perf_counter()
            record = execute_point(lease.point, self.trace_dir)
            provenance = {
                "worker": self.worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "wall_clock_s": time.perf_counter() - started,
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

        Drains in rounds of one :meth:`WorkQueue.pending_keys` listing each
        (a listing per claim reads the directories N times to drain N
        points) and stops after a round that claimed nothing: points
        enqueued, or leases gone stale, during a round are found by the next.
        """
        budget = float("inf") if max_points is None else max_points
        executed = 0
        while executed < budget:
            keys = iter(self.queue.pending_keys())
            before = executed
            while executed < budget and self.run_one(keys):
                executed += 1
            if executed == before:
                break
        return executed
