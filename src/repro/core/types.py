"""Common types shared by the atomic broadcast implementations."""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Tuple

from repro.sim.process import Component, SimProcess

#: Ordering rounds in flight at once: consensus instances of the FD algorithm,
#: sequencer batches of the GM algorithm.  Both share the depth so that their
#: message patterns match in suspicion-free runs; 2 lets a new round start
#: while the previous one is still deciding, which keeps the transient latency
#: after a crash down to a single recovery.
PIPELINE_DEPTH = 2


class BroadcastID(NamedTuple):
    """Globally unique, totally ordered identifier of an A-broadcast message.

    The identifier is the pair ``(sender, sequence number at the sender)``.
    Ordering broadcast identifiers lexicographically gives the deterministic
    tie-break order both algorithms use when several messages are ordered by
    the same consensus decision / sequencing batch.
    """

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"m({self.sender}.{self.seq})"


class View(NamedTuple):
    """A group membership view: an identifier and an ordered member list.

    The first member of the view acts as the sequencer of the GM algorithm
    (and as the round-1 coordinator of the view-change consensus).

    ``epoch`` counts group *reformations* (the recovery path that rebuilds
    the group after an installed view loses its majority of alive members).
    Views of a later epoch supersede every view of an earlier one regardless
    of their ``view_id``, so view identities are ordered by the pair
    ``(epoch, view_id)`` -- see :attr:`vid`.  Normal view changes inherit
    their predecessor's epoch; all views of a reformation-free run are
    epoch 0.
    """

    view_id: int
    members: Tuple[int, ...]
    epoch: int = 0

    @property
    def sequencer(self) -> int:
        """The process acting as sequencer in this view."""
        return self.members[0]

    @property
    def vid(self) -> Tuple[int, int]:
        """The totally ordered view identity ``(epoch, view_id)``.

        Protocol messages and fencing checks compare identities through this
        pair: a reformed view (higher epoch) beats any late view of the old
        epoch even when their ``view_id`` values collide.
        """
        return (self.epoch, self.view_id)

    def majority(self) -> int:
        """Size of a majority quorum of this view."""
        return len(self.members) // 2 + 1

    def __str__(self) -> str:
        era = f"@e{self.epoch}" if self.epoch else ""
        return f"view#{self.view_id}{era}{list(self.members)}"


DeliveryListener = Callable[[BroadcastID, Any], None]
BroadcastListener = Callable[[BroadcastID, Any], None]


class AtomicBroadcast(Component):
    """Common interface of the two atomic broadcast algorithms.

    Subclasses implement :meth:`broadcast` and call :meth:`_deliver` exactly
    once per message, in the agreed total order.  The base class keeps the
    local delivery log and notifies listeners, so the workload generators,
    metrics and applications can stay algorithm-agnostic.
    """

    def __init__(self, process: SimProcess) -> None:
        super().__init__(process)
        self._local_seq = 0
        self._delivered_ids: set = set()
        #: Local delivery log, in delivery order: list of (BroadcastID, payload).
        self.delivered: List[Tuple[BroadcastID, Any]] = []
        # Copy-on-write tuples: subscribing rebinds, so the per-delivery loop
        # iterates whatever was subscribed when it started, without a copy.
        self._delivery_listeners: Tuple[DeliveryListener, ...] = ()
        self._broadcast_listeners: Tuple[BroadcastListener, ...] = ()

    # ------------------------------------------------------------------ API

    def broadcast(self, payload: Any) -> BroadcastID:
        """A-broadcast ``payload``; returns the message identifier."""
        raise NotImplementedError

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Subscribe to local A-deliveries: ``listener(broadcast_id, payload)``."""
        self._delivery_listeners += (listener,)

    def add_broadcast_listener(self, listener: BroadcastListener) -> None:
        """Subscribe to local A-broadcasts: ``listener(broadcast_id, payload)``."""
        self._broadcast_listeners += (listener,)

    def delivered_ids(self) -> List[BroadcastID]:
        """Identifiers delivered so far, in delivery order."""
        return [bid for bid, _payload in self.delivered]

    def has_delivered(self, broadcast_id: BroadcastID) -> bool:
        """Whether ``broadcast_id`` has been A-delivered locally."""
        return broadcast_id in self._delivered_ids

    @property
    def delivered_count(self) -> int:
        """Number of messages A-delivered locally."""
        return len(self.delivered)

    # ------------------------------------------------------------------ helpers

    def _next_broadcast_id(self) -> BroadcastID:
        self._local_seq += 1
        return BroadcastID(self.pid, self._local_seq)

    def _notify_broadcast(self, broadcast_id: BroadcastID, payload: Any) -> None:
        if self._obs is not None:
            self._obs.abcast_broadcast(self.now, self.pid, broadcast_id, payload)
        for listener in self._broadcast_listeners:
            listener(broadcast_id, payload)

    def _deliver(self, broadcast_id: BroadcastID, payload: Any) -> bool:
        """Record the A-delivery of ``broadcast_id`` (idempotent).

        Returns ``True`` when the message was delivered now, ``False`` when it
        had already been delivered (duplicates are silently dropped, which is
        what makes view-change deliveries and state transfer idempotent).
        """
        if broadcast_id in self._delivered_ids:
            return False
        self._delivered_ids.add(broadcast_id)
        self.delivered.append((broadcast_id, payload))
        if self._obs is not None:
            self._obs.abcast_deliver(self.now, self.pid, broadcast_id, payload)
        for listener in self._delivery_listeners:
            listener(broadcast_id, payload)
        return True
