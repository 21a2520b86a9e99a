"""Campaign execution: serial or process-parallel, cache-aware, resumable.

:func:`execute_point` runs a :class:`PointSpec` through the ``run`` adapter its
scenario kind registered (:mod:`repro.scenarios.registry`); it is a pure
function of the spec (every simulation is deterministic given its config),
which is what makes the serial and parallel paths bit-identical and the
cache sound.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.campaigns import pool as pool_mod
from repro.campaigns.pool import WarmPool
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.records import record_to_result, result_to_record
from repro.campaigns.spec import CampaignSpec, PointSpec
from repro.campaigns.store import ResultStore
from repro.obs.export import set_trace_dir
from repro.scenarios.registry import available_kinds, get_kind


def execute_point(point: PointSpec, trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Simulate one point and return its serialised record.

    Module-level (picklable) so worker processes can run it; always returns
    the record form so every execution mode feeds the aggregation layer the
    same data.  ``trace_dir`` arms the process-wide trace sink
    (:func:`repro.obs.export.set_trace_dir`) for this point only -- the
    same in the parent, a pool worker or a queue worker -- so instrumented
    points drop their JSONL/Chrome trace files beside the campaign results,
    prefixed by the point's cache key to stay collision-free, and the sink
    is disarmed again however the point ends.
    """
    if trace_dir is not None:
        set_trace_dir(trace_dir, prefix=point.key()[:12])
    try:
        result = get_kind(point.kind).run(point.config(), point, point.params)
    finally:
        if trace_dir is not None:
            set_trace_dir(None)
    return result_to_record(result)


def execute_chunk(
    points: Sequence[PointSpec], trace_dir: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Simulate a batch of points in one worker round-trip.

    Chunking is what makes many-small-point grids scale: one task pickle,
    one IPC hop and one future wake-up amortise over the whole chunk instead
    of being paid per point.  Records come back in submission order, so the
    parent can zip them against the chunk's specs.
    """
    return [execute_point(point, trace_dir) for point in points]


@dataclass
class CampaignRun:
    """Outcome of one campaign execution: records plus cache statistics."""

    campaign: CampaignSpec
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache_hits: int = 0
    executed: int = 0
    #: Declared-point key -> executed-point key, for points the runner
    #: rewrote before execution (``instrument=True`` cloning).  Lets callers
    #: keep looking results up by the points they declared.
    aliases: Dict[str, str] = field(default_factory=dict)

    def record(self, point: PointSpec) -> Dict[str, Any]:
        """The record of ``point`` (KeyError if the point was not in the run)."""
        key = point.key()
        return self.records[self.aliases.get(key, key)]

    def result(self, point: PointSpec):
        """The ``ScenarioResult`` / ``TransientResult`` of ``point``."""
        return record_to_result(self.record(point))


class CampaignRunner:
    """Executes campaigns through an optional cache and an optional pool.

    ``jobs=1`` (the default) runs every point in-process; ``jobs=N`` fans the
    pending points out over a persistent warm worker pool, batched into
    chunks (many quick points per worker round-trip) behind a bounded
    in-flight window, so neither per-point IPC overhead nor an up-front
    fan-out of 10^5 futures dominates.  The pool survives across ``run()``
    calls -- a multi-figure regeneration pays the spin-up cost once -- and
    is released by :meth:`close` (the runner is a context manager).  All
    paths produce identical records because each point is an independent
    deterministic simulation.

    With a ``store``, completed points are written as soon as they finish
    and never re-simulated -- re-running an interrupted campaign only
    executes what is missing.  ``force=True`` (or a kind listed in
    ``force_kinds``) bypasses cache *reads* for matching points and rewrites
    their records past the cache, without touching any other stored result.

    With a ``queue`` (:class:`repro.campaigns.queue.WorkQueue`), pending
    points are enqueued to the shared directory and this runner doubles as
    one worker: any number of additional ``--queue-worker`` processes or
    machines can drain the same queue, and the run completes when every
    point's record has been committed by someone.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        instrument: bool = False,
        trace_dir: Optional[str] = None,
        fd_scan_interval: float = 0.0,
        *,
        force: bool = False,
        force_kinds: Sequence[str] = (),
        queue: Optional[WorkQueue] = None,
        queue_poll: float = 0.2,
        queue_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if fd_scan_interval < 0:
            raise ValueError(
                f"fd_scan_interval must be >= 0 (0 = exact), got {fd_scan_interval}"
            )
        unknown_kinds = set(force_kinds) - set(available_kinds())
        if unknown_kinds:
            raise ValueError(
                f"unknown force_kinds {sorted(unknown_kinds)}; expected {available_kinds()}"
            )
        self.jobs = jobs
        self.store = store
        # Trace files only exist for instrumented runs, so asking for them
        # implies instrumenting.
        self.instrument = instrument or trace_dir is not None
        self.trace_dir = trace_dir
        #: Run every point under the batched failure-detector scan with this
        #: tick (ms); 0 keeps each point's own setting.  Like ``instrument``,
        #: this rewrites the executed points, so scanned and exact runs of
        #: the same operating point cache under distinct keys.
        self.fd_scan_interval = fd_scan_interval
        #: Re-execute every point (``force``) or every point of the listed
        #: kinds (``force_kinds``) even when cached, rewriting the store.
        self.force = force
        self.force_kinds = frozenset(force_kinds)
        self.queue = queue
        self.queue_poll = queue_poll
        self.queue_timeout = queue_timeout
        self._pool: Optional[WarmPool] = None
        #: Statistics of the most recent :meth:`run` (for CLI reporting).
        self.last_run: Optional[CampaignRun] = None

    def run(self, campaign: CampaignSpec) -> CampaignRun:
        """Execute every point of ``campaign`` and return their records."""
        points = campaign.points()
        run = CampaignRun(campaign=campaign)
        pending: List[PointSpec] = []
        for point in points:
            executed = self._executed_point(point)
            if executed is not point:
                run.aliases[point.key()] = executed.key()
            forced = self.force or executed.kind in self.force_kinds
            cached = (
                self.store.get(executed.key())
                if self.store is not None and not forced
                else None
            )
            if cached is not None:
                run.records[executed.key()] = cached
                run.cache_hits += 1
            else:
                pending.append(executed)

        if self.queue is not None and pending:
            self._run_queue(pending, run)
        elif self.jobs > 1 and len(pending) > 1:
            self._run_parallel(pending, run)
        else:
            for point in pending:
                self._commit(point, execute_point(point, self.trace_dir), run)

        run.executed = len(pending)
        if self.store is not None:
            # Batched-durability stores buffer lines; a completed run is a
            # natural durability point either way.
            self.store.flush()
        self.last_run = run
        return run

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release the warm worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def pool(self) -> WarmPool:
        """The persistent worker pool, created on first parallel run."""
        if self._pool is None:
            self._pool = WarmPool(self.jobs)
        return self._pool

    def _executed_point(self, point: PointSpec) -> PointSpec:
        """The point actually simulated: rewritten clone when requested."""
        changes: Dict[str, Any] = {}
        if self.instrument and not point.instrument:
            changes["instrument"] = True
        if (
            self.fd_scan_interval > 0
            and point.fd_scan_interval == 0
            # The heartbeat fabric ignores the scan tick; rewriting would
            # mint a new cache key for an identical simulation.
            and point.fd_kind != "heartbeat"
        ):
            changes["fd_scan_interval"] = self.fd_scan_interval
        if changes:
            return replace(point, **changes)
        return point

    def _run_parallel(self, pending: List[PointSpec], run: CampaignRun) -> None:
        """Fan ``pending`` out over the warm pool in chunks, window-bounded.

        Chunks amortise per-task IPC/pickle cost on quick-point grids; the
        bounded window keeps arbitrarily large grids from serialising every
        spec into executor queues before the first record lands (both sized
        by :mod:`repro.campaigns.pool`).  Commit order follows completion, but records
        are keyed by point, so the result set is identical to serial.
        """
        executor = self.pool.executor()
        size = pool_mod.chunk_size(len(pending), self.jobs)
        chunks = iter(pool_mod.split_chunks(pending, size))
        window = pool_mod.INFLIGHT_CHUNKS_PER_WORKER * self.jobs
        inflight: Dict[Any, List[PointSpec]] = {}

        def submit_next() -> None:
            chunk = next(chunks, None)
            if chunk is not None:
                future = executor.submit(execute_chunk, chunk, self.trace_dir)
                inflight[future] = chunk

        for _ in range(window):
            submit_next()
        try:
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = inflight.pop(future)
                    for point, record in zip(chunk, future.result()):
                        self._commit(point, record, run)
                    submit_next()
        except BaseException:
            for future in inflight:
                future.cancel()
            raise

    def _run_queue(self, pending: List[PointSpec], run: CampaignRun) -> None:
        """Distribute ``pending`` through the shared work queue.

        Enqueues what is missing, then participates as one worker while
        polling for records committed by other machines.  Completes when
        every pending point has a committed result; stale leases of crashed
        workers are reclaimed along the way by the normal claim path.
        """
        self.queue.enqueue(pending)
        worker = QueueWorker(self.queue, trace_dir=self.trace_dir)
        missing = {point.key(): point for point in pending}
        deadline = (
            None if self.queue_timeout is None else time.monotonic() + self.queue_timeout
        )
        while missing:
            worker.run()
            for key in list(missing):
                record = self.queue.result(key)
                if record is not None:
                    self._commit(missing.pop(key), record, run)
            if not missing:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(missing)} campaign points still outstanding in queue "
                    f"{self.queue.directory!r} after {self.queue_timeout:g} s"
                )
            time.sleep(self.queue_poll)

    def _commit(self, point: PointSpec, record: Dict[str, Any], run: CampaignRun) -> None:
        """Record one finished point, persisting it immediately if caching."""
        run.records[point.key()] = record
        if self.store is not None:
            self.store.put(point.key(), record, point=point.as_dict())
