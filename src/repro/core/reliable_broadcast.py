"""Efficient reliable broadcast.

The algorithm is the lazy one the paper refers to (inspired by Frolund and
Pedone's *Revisiting reliable broadcast*): the origin simply multicasts the
message, which costs one broadcast in the common case.  To tolerate a crash
of the origin, every process keeps delivered messages that are not yet known
to be *stable* and relays them to the whole group as soon as its failure
detector suspects the origin.  Clients mark messages stable (for instance
once the corresponding atomic broadcast has been delivered, or once the
corresponding consensus instance has decided) to bound the relay buffer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.process import Component, SimProcess

RBListener = Callable[[int, Tuple[int, int], Any], None]

_MSG = "RB"


class ReliableBroadcast(Component):
    """Reliable broadcast component (protocol name ``"rbcast"``)."""

    protocol = "rbcast"

    def __init__(self, process: SimProcess) -> None:
        super().__init__(process)
        self._group: Tuple[int, ...] = tuple(range(process.network.n))
        self._listeners: List[RBListener] = []
        self._listener_snapshot: tuple = ()
        self._local_seq = 0
        self._delivered: set = set()
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
        if rb_uid in self._delivered:
            return
        self._delivered.add(rb_uid)
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
