"""Campaign execution: one claim-execute-commit loop over three point sources.

:meth:`CampaignRunner.run` looks every point up in the store, hands the
misses to a source of ``(point, record)`` pairs -- this process, a warm
worker pool or a shared-directory work queue -- and commits each pair as it
arrives.  :func:`~repro.campaigns.records.execute_point` is a pure function
of the spec (every simulation is deterministic given its config), which is
what makes the three sources bit-identical and the cache sound.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.records import execute_point, record_to_result
from repro.campaigns.spec import CampaignSpec, PointSpec
from repro.campaigns.store import ResultStore
from repro.scenarios.registry import available_kinds

#: Seconds a queue-backed run sleeps between polls for records committed by
#: other workers.
QUEUE_POLL_S = 0.2

Pairs = Iterator[Tuple[PointSpec, Dict[str, Any]]]


def execute_chunk(
    points: Sequence[PointSpec], trace_dir: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Simulate a batch of points in one worker round-trip; records in point order."""
    return [execute_point(point, trace_dir) for point in points]


@dataclass
class CampaignRun:
    """Outcome of one campaign execution: records plus cache statistics."""

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


class WarmPool:
    """A process pool that survives across runs: spun up on first use, reused
    by every later ``run()`` (a multi-figure regeneration pays the spin-up
    once) until :meth:`close`.  One that is never closed shuts its workers
    down when it is garbage-collected, as every ``ProcessPoolExecutor`` does."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, spinning it up on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class CampaignRunner:
    """Executes campaigns through an optional cache and an optional pool or queue.

    ``jobs=1`` (the default) runs every missing point in-process; ``jobs=N``
    runs them on a warm pool of N worker processes, released by
    :meth:`close` (the runner is a context manager).  With a ``queue``
    (:class:`repro.campaigns.queue.WorkQueue`) this runner enqueues the
    missing points and doubles as one worker beside any number of
    ``--queue-worker`` processes or machines draining the same directory.

    With a ``store``, points are written as they finish and never
    re-simulated, so re-running an interrupted campaign only executes what
    is missing.  ``force=True`` (or a kind listed in ``force_kinds``)
    re-executes matching points past the cache and rewrites their records,
    without touching any other stored result.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        instrument: bool = False,
        trace_dir: Optional[str] = None,
        *,
        force: bool = False,
        force_kinds: Sequence[str] = (),
        queue: Optional[WorkQueue] = None,
        queue_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
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
        #: Re-execute every point (``force``) or every point of the listed
        #: kinds (``force_kinds``) even when cached, rewriting the store.
        self.force = force
        self.force_kinds = frozenset(force_kinds)
        self.queue = queue
        self.queue_timeout = queue_timeout
        #: No worker process starts before the first pooled run.
        self.pool = WarmPool(jobs)
        #: Statistics of the most recent :meth:`run` (for CLI reporting).
        self.last_run: Optional[CampaignRun] = None

    def run(self, campaign: CampaignSpec) -> CampaignRun:
        """Execute every point of ``campaign`` and return their records.

        Every point the store does not hold (or that is forced) goes to the
        source of this runner's mode; each ``(point, record)`` it yields is
        committed on arrival, so an interrupted run keeps what finished.
        """
        run = CampaignRun()
        misses: List[PointSpec] = []
        for declared in campaign.points():
            point = declared
            if self.instrument and not declared.instrument:
                point = replace(declared, instrument=True)
                run.aliases[declared.key()] = point.key()
            cached = (
                None if self.store is None or self._forced(point) else self.store.get(point.key())
            )
            if cached is None:
                misses.append(point)
            else:
                run.records[point.key()] = cached
                run.cache_hits += 1

        if self.queue is not None and misses:
            source = self._queued(misses)
        elif self.jobs > 1 and len(misses) > 1:
            source = self._pooled(misses)
        else:
            source = ((point, execute_point(point, self.trace_dir)) for point in misses)
        with closing(source):
            for point, record in source:
                self._commit(point, record, run)

        run.executed = len(misses)
        if self.store is not None:
            # Batched-durability stores buffer lines; a completed run is a
            # natural durability point either way.
            self.store.flush()
        self.last_run = run
        return run

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release the warm worker pool (idempotent)."""
        self.pool.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ sources

    def _pooled(self, misses: List[PointSpec]) -> Pairs:
        """One task per chunk on the warm pool, yielded in completion order.

        A chunk amortises the per-task pickle, IPC hop and wake-up over up to
        32 points; about eight chunks per worker keep stragglers balanced.
        Every chunk is submitted at once: the executor pickles a chunk only
        when its ``jobs + 1``-item call queue has room, so however large the
        grid, serialisation stays a few chunks ahead of the workers.  A loop
        that stops early cancels every chunk not yet started.
        """
        size = max(1, min(32, len(misses) // (8 * self.jobs)))
        executor = self.pool.executor()
        chunks: Dict[Any, List[PointSpec]] = {}
        for start in range(0, len(misses), size):
            chunk = misses[start:start + size]
            chunks[executor.submit(execute_chunk, chunk, self.trace_dir)] = chunk
        try:
            for future in as_completed(chunks):
                yield from zip(chunks[future], future.result())
        finally:
            for future in chunks:
                future.cancel()

    def _queued(self, misses: List[PointSpec]) -> Pairs:
        """Enqueue ``misses``, work them as one queue worker, poll for the rest.

        A forced point's earlier queue result is retired first, or the
        point would count as done.  Completes when every point
        has a committed result, from this worker or any other; stale leases
        of crashed workers are reclaimed along the way by the claim path.
        """
        for point in misses:
            if self._forced(point):
                self.queue.retire(point.key())
        self.queue.enqueue(misses)
        worker = QueueWorker(self.queue, trace_dir=self.trace_dir)
        outstanding = {point.key(): point for point in misses}
        deadline = None if self.queue_timeout is None else time.monotonic() + self.queue_timeout
        while True:
            worker.run()
            for key in list(outstanding):
                record = self.queue.result(key)
                if record is not None:
                    yield outstanding.pop(key), record
            if not outstanding:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(outstanding)} campaign points still outstanding in queue "
                    f"{self.queue.directory!r} after {self.queue_timeout:g} s"
                )
            time.sleep(QUEUE_POLL_S)

    def _forced(self, point: PointSpec) -> bool:
        return self.force or point.kind in self.force_kinds

    def _commit(self, point: PointSpec, record: Dict[str, Any], run: CampaignRun) -> None:
        """Record one finished point, persisting it immediately if caching."""
        run.records[point.key()] = record
        if self.store is not None:
            self.store.put(point.key(), record, point=point.as_dict())
