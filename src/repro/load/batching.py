"""Ingress request batching: amortize one ordering step over k requests.

The dominant per-request cost of both algorithms is per *message*, not per
byte: every A-broadcast pays one send plus ``n - 1`` receives of CPU cost
``lambda`` for the DATA dissemination alone, then its share of the
sequencing traffic (consensus instance / sequencer batch).
:class:`BatchingAtomicBroadcast` wraps any registered stack's atomic
broadcast and coalesces up to ``max_batch`` pending client payloads into
*one* inner A-broadcast -- the single biggest real-world throughput lever
for this protocol class (ROADMAP item 3).

The wrapper preserves the total order: the inner broadcast delivers batch
containers in the agreed total order at every process, and every process
unpacks a container deterministically (in batch order), so the wrapper-level
delivery sequences are totally ordered whenever the inner ones are.  The
wrapper-level latency is honest client latency: broadcast listeners fire at
submission time, so the batch accumulation delay (bounded by ``max_delay``)
is part of every recorded latency.

Batching is **off by default** (``SystemConfig(max_batch=0)``): no wrapper
is constructed at all, so the off path is architecturally identical to the
pre-batching system and every golden baseline is untouched.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.types import AtomicBroadcast, BroadcastID
from repro.sim.process import SimProcess

#: Container tag of a batched inner payload (unlikely to collide with
#: application payloads; tests pin the pass-through of untagged payloads).
BATCH_TAG = "__reqbatch__"


class BatchingAtomicBroadcast(AtomicBroadcast):
    """Coalesces client A-broadcasts into batched inner A-broadcasts.

    Parameters
    ----------
    inner:
        The wrapped stack-level :class:`AtomicBroadcast` of the same process.
    max_batch:
        Flush as soon as this many payloads are pending (>= 1).  ``1``
        degenerates to one container per request -- useful for measuring the
        wrapper overhead in isolation.
    max_delay:
        Flush at the latest this many ms after the first pending payload
        arrived, so sub-saturation requests are not held hostage waiting for
        a full batch.  ``0`` flushes in a zero-delay timer event: payloads
        arriving at the same simulation instant still coalesce, anything
        later does not.
    """

    protocol = "abcast-batch"

    def __init__(
        self,
        process: SimProcess,
        inner: AtomicBroadcast,
        max_batch: int,
        max_delay: float = 0.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0 ms, got {max_delay}")
        super().__init__(process)
        self.inner = inner
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._pending: List[Tuple[BroadcastID, Any]] = []
        self._flush_timer = None
        inner.add_delivery_listener(self._on_inner_delivery)

    # ------------------------------------------------------------------ API

    def broadcast(self, payload: Any) -> BroadcastID:
        """Accept ``payload`` now; A-broadcast it in the next batch flush."""
        broadcast_id = self._next_broadcast_id()
        self._notify_broadcast(broadcast_id, payload)
        self._pending.append((broadcast_id, payload))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_timer is None:
            self._flush_timer = self.set_timer(self.max_delay, self._flush_from_timer)
        return broadcast_id

    @property
    def pending_count(self) -> int:
        """Payloads accepted but not yet handed to the inner broadcast."""
        return len(self._pending)

    # ------------------------------------------------------------------ internals

    def _flush_from_timer(self) -> None:
        # The firing timer clears its own handle first, so ``_flush`` never
        # cancels an already-executed event (which would inflate the
        # kernel's cancelled-event counter).
        self._flush_timer = None
        self._flush()

    def _flush(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not self._pending:
            return
        entries = tuple(self._pending)
        self._pending = []
        if self._obs is not None:
            self._obs.service_batch(self.now, self.pid, len(entries))
        self.inner.broadcast((BATCH_TAG, entries))

    def _on_inner_delivery(self, inner_id: BroadcastID, payload: Any) -> None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == BATCH_TAG:
            for broadcast_id, item in payload[1]:
                self._deliver(broadcast_id, item)
        else:
            # Pass-through of payloads broadcast directly on the inner layer
            # (nothing does this when batching is on, but a wrapper that
            # silently swallowed them would be a debugging trap).
            self._deliver(inner_id, payload)

    def on_message(self, sender: int, body: Any) -> None:  # pragma: no cover
        raise RuntimeError("the batching wrapper exchanges no messages of its own")

    # ------------------------------------------------------------------ crash/recover

    def on_crash(self) -> None:
        # The hosting process cancelled every timer; drop the stale handle so
        # a post-recovery broadcast arms a fresh one.  Pending payloads stay
        # buffered: like the GM algorithm's unsequenced buffer, they are
        # flushed when the process comes back.
        self._flush_timer = None

    def on_recover(self) -> None:
        if self._pending and self._flush_timer is None:
            self._flush_timer = self.set_timer(self.max_delay, self._flush_from_timer)


__all__ = ["BATCH_TAG", "BatchingAtomicBroadcast"]
