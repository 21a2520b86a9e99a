"""The decided prefix of the total order, and the one way to fetch it.

Whatever a process missed -- while down, excluded, or just behind a
multicast -- both algorithms recover the same object: a prefix of the total
order as decided batches, and the payloads they name.  :class:`DecidedLog`
keeps batches by position ``1 .. length`` and payloads by message id.  A
position is the stack's choice: FD's consensus instance ``k`` (batch
``(proposer, ids)``), or GM's ``k``-th delivery (batch ``(id, payload)``, the
order every member of a view shares).

A fetch is one message pair under the fetching component's protocol:
``(FETCH, context, since, ids)`` asks for the batches after position
``since`` (``None``: none) and the payloads of ``ids``, and
``(FETCHED, context, batches, payloads)`` answers from :meth:`~DecidedLog.since`
and :meth:`~DecidedLog.payloads`.  ``context`` is the stack's own (the view
of a sequencer message, an FD catch-up's proposal frontier, the view a
joiner enters), and so are the destinations: every peer, the sequencer, the
member that announced the view.  The network charges per message, not per
byte, so the pair's shape costs no time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set, Tuple

from repro.core.types import BroadcastID

FETCH = "FETCH"
FETCHED = "FETCHED"


class DecidedLog:
    """Decided batches by position and the payloads they name."""

    __slots__ = ("batches", "length", "payload_of", "requested")

    def __init__(self) -> None:
        #: Decided batches by position; a batch may be known past a gap.
        self.batches: Dict[int, Any] = {}
        #: The decided prefix is positions ``1 .. length``, with no gap.
        self.length = 0
        #: Every payload known locally, by message id.
        self.payload_of: Dict[BroadcastID, Any] = {}
        #: Ids a fetch of this process asked for; each is asked for once.
        self.requested: Set[BroadcastID] = set()

    def since(self, k: int) -> Tuple[Tuple[int, Any], ...]:
        """``(position, batch)`` for the decided prefix after position ``k``."""
        batches = self.batches
        return tuple((j, batches[j]) for j in range(k + 1, self.length + 1))

    def payloads(self, ids: Iterable[BroadcastID]) -> Tuple[Tuple[BroadcastID, Any], ...]:
        """``(id, payload)`` for each of ``ids`` whose payload is known here."""
        payload_of = self.payload_of
        return tuple((bid, payload_of[bid]) for bid in ids if bid in payload_of)

    def unrequested(self, ids: Iterable[BroadcastID]) -> Tuple[BroadcastID, ...]:
        """Those of ``ids`` no fetch asked for yet, marked as asked for now."""
        requested = self.requested
        fresh = tuple(bid for bid in ids if bid not in requested)
        requested.update(fresh)
        return fresh

    def merge(self, payloads: Iterable[Tuple[BroadcastID, Any]]) -> None:
        """Record fetched payloads; one known here already is kept."""
        setdefault = self.payload_of.setdefault
        for broadcast_id, payload in payloads:
            setdefault(broadcast_id, payload)
