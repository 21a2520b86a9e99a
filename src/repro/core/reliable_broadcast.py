"""Reliable broadcast: one multicast.

The origin multicasts the message and nothing else is sent.  In the paper's
crash-stop model an origin's broadcasts reach every process in send order (a
multicast handed to the CPU survives a crash, and the shared wire is FIFO),
so a copy is dropped by one integer per origin: the sequence number of the
last uid delivered from it.  Copies still arrive twice over a duplicating
link (``DegradeLinkAt``).

A uid this process skipped (sent while it was down or cut off, or scoped to
a view that left it out) stays missed.  Filling the gap is left to the layers
above: FD's catch-up and pull of the payloads a decision names, and GM's
state transfer.  Those are the one way a missed message comes back.

Nothing is relayed when an origin is suspected (the lazy relay of Frolund
and Pedone's *Revisiting reliable broadcast*).  A relayed copy could fill no
gap the layers above leave: the origin's multicast reaches every process
that is up even if the origin crashes, and FD's pull asks every peer, where
only a holder of the payload could relay it.  Under wrong suspicions a relay
sends thousands of copies a run that deliver nothing, and they made FD's
latency grow with run length in Figure 6 (EXPERIMENTS.md, "FD under
frequent wrong suspicions").
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.process import Component, SimProcess

RBListener = Callable[[int, Any], None]

_MSG = "RB"


class ReliableBroadcast(Component):
    """Reliable broadcast component (protocol name ``"rbcast"``).

    What it keeps of a delivered message is the origin's last delivered
    sequence number, to drop every copy at or below it.  A copy above that
    number is delivered and moves it, so a skipped uid is never delivered
    later.
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

    # ------------------------------------------------------------------ API

    def add_listener(self, listener: RBListener) -> None:
        """Subscribe to R-deliveries: ``listener(origin, payload)``."""
        self._listeners.append(listener)
        self._listener_snapshot = tuple(self._listeners)

    def broadcast(self, payload: Any, group: Optional[Sequence[int]] = None) -> None:
        """R-broadcast ``payload`` to ``group`` (defaults to the full group).

        The origin is always part of the destination set so it R-delivers its
        own message.
        """
        self._local_seq += 1
        destinations = tuple(group) if group is not None else self._group
        if self.pid not in destinations:
            destinations = destinations + (self.pid,)
        self.send(destinations, (_MSG, self._local_seq, payload))

    # ------------------------------------------------------------------ messages

    def on_message(self, sender: int, body: Any) -> None:
        """Handle an incoming reliable broadcast; its origin is ``sender``."""
        tag, seq, payload = body
        if tag != _MSG:
            raise ValueError(f"unexpected reliable broadcast message {tag!r}")
        if seq <= self._last_seq[sender]:
            return
        self._last_seq[sender] = seq
        for listener in self._listener_snapshot:
            listener(sender, payload)
