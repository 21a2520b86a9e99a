"""Latency recording.

The paper's performance measure is the latency of atomic broadcast: the time
from ``A-broadcast(m)`` to the *earliest* ``A-deliver(m)`` on any process
(Section 5.1).  :class:`LatencyRecorder` attaches to a
:class:`repro.system.BroadcastSystem` and records both ends of every message.
:func:`observed_digest` condenses what a finished run observed into one hash.
"""

from __future__ import annotations

import math
import struct
from itertools import chain
from typing import Dict, Iterable, Optional, Sequence

from repro.core.types import BroadcastID


class LatencyRecorder:
    """Records A-broadcast and first A-delivery times of every message."""

    def __init__(self) -> None:
        self._broadcast_times: Dict[BroadcastID, float] = {}
        self._first_delivery: Dict[BroadcastID, float] = {}
        self._delivery_counts: Dict[BroadcastID, int] = {}

    # ------------------------------------------------------------------ wiring

    def attach(self, system) -> None:
        """Hook the recorder into every process of ``system``."""
        sim = system.sim
        for abcast in system.abcasts:
            abcast.add_broadcast_listener(
                lambda bid, _payload, _sim=sim: self.record_broadcast(bid, _sim.now)
            )
            abcast.add_delivery_listener(
                lambda bid, _payload, _sim=sim: self.record_delivery(bid, _sim.now)
            )

    # ------------------------------------------------------------------ recording

    def record_broadcast(self, broadcast_id: BroadcastID, time: float) -> None:
        """Record that ``broadcast_id`` was A-broadcast at ``time``."""
        self._broadcast_times.setdefault(broadcast_id, time)

    def record_delivery(self, broadcast_id: BroadcastID, time: float) -> None:
        """Record one A-delivery of ``broadcast_id`` at ``time``."""
        self._delivery_counts[broadcast_id] = self._delivery_counts.get(broadcast_id, 0) + 1
        current = self._first_delivery.get(broadcast_id)
        if current is None or time < current:
            self._first_delivery[broadcast_id] = time

    # ------------------------------------------------------------------ queries

    def delivery_count(self, broadcast_id: BroadcastID) -> int:
        """How many processes A-delivered ``broadcast_id`` so far."""
        return self._delivery_counts.get(broadcast_id, 0)

    def is_delivered(self, broadcast_id: BroadcastID) -> bool:
        """Whether at least one process A-delivered ``broadcast_id``."""
        return broadcast_id in self._first_delivery

    def latency(self, broadcast_id: BroadcastID) -> Optional[float]:
        """Latency of ``broadcast_id`` or ``None`` if not delivered yet."""
        start = self._broadcast_times.get(broadcast_id)
        end = self._first_delivery.get(broadcast_id)
        if start is None or end is None:
            return None
        return end - start

    def latencies(
        self, only: Optional[Iterable[BroadcastID]] = None
    ) -> Dict[BroadcastID, float]:
        """Latencies of delivered messages (optionally restricted to ``only``)."""
        ids: Iterable[BroadcastID]
        ids = self._broadcast_times if only is None else only
        result: Dict[BroadcastID, float] = {}
        for broadcast_id in ids:
            value = self.latency(broadcast_id)
            if value is not None:
                result[broadcast_id] = value
        return result


def observed_digest(system, latencies: Sequence[float]) -> str:
    """16-hex sha256 prefix of what a finished run observed.

    Folds each process's delivery sequence (``(sender, seq)`` in order) and
    up/down state with its last crash time, each membership's final view
    (epoch, view id, members) and ``latencies`` in their given order.  No
    kernel event count, tie-break counter, payload or wall-clock: the same
    deliveries at the same latencies agree however many events they took.
    Packed little-endian (int64 ids, float64 times), so every host agrees.
    """
    import hashlib  # deferred: importing the scenario runner does not load OpenSSL

    network = system.network
    parts = [struct.pack("<q", system.config.n)]
    for pid, ids in system.delivery_sequences().items():
        crash_time = network.crash_time(pid)
        state = (network.is_crashed(pid), math.nan if crash_time is None else crash_time)
        flat_ids = chain.from_iterable(ids)
        parts.append(struct.pack(f"<qdq{2 * len(ids)}q", *state, len(ids), *flat_ids))
    parts.append(struct.pack("<q", len(system.memberships)))
    for membership in system.memberships:
        view = membership.view
        size = len(view.members)
        parts.append(struct.pack(f"<3q{size}q", view.epoch, view.view_id, size, *view.members))
    parts.append(struct.pack(f"<q{len(latencies)}d", len(latencies), *latencies))
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]
