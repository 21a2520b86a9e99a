"""Message representation used by the network model and protocol components."""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

_message_counter = itertools.count()


class Message:
    """A message travelling through the simulated network.

    A plain slotted class rather than a dataclass: messages are the single
    most-allocated protocol object in the simulator, and ``__slots__`` plus
    an eagerly stored remote-destination tuple keep per-send allocation flat
    (the seed dataclass rebuilt the same tuple up to three times per send).
    Identity equality is intentional -- ``uid`` is globally unique, so value
    equality would coincide with identity anyway.  The network pipeline in
    this package reads the ``_remote`` slot directly (twice per message);
    everything else goes through :meth:`remote_destinations`.

    Attributes
    ----------
    sender:
        Process id of the sending process.
    destinations:
        Tuple of destination process ids.  A destination equal to the sender
        is delivered locally without occupying any resource.
    protocol:
        Name of the protocol component the message is dispatched to on the
        receiving process (``"consensus"``, ``"abcast"``, ``"gm"`` ...).
    body:
        Arbitrary (treated as immutable) protocol payload.
    uid:
        Globally unique message identifier, assigned automatically.
    remote:
        ``destinations`` without the sender, when the caller already holds
        that tuple (:meth:`repro.sim.process.SimProcess.send` keeps one per
        destination set); derived from ``destinations`` when left out.
    """

    __slots__ = ("sender", "destinations", "protocol", "body", "uid", "_remote")

    def __init__(
        self,
        sender: int,
        destinations: Tuple[int, ...],
        protocol: str,
        body: Any,
        uid: Optional[int] = None,
        remote: Optional[Tuple[int, ...]] = None,
    ):
        self.sender = sender
        self.destinations = destinations
        self.protocol = protocol
        self.body = body
        self.uid = next(_message_counter) if uid is None else uid
        self._remote = (
            tuple(d for d in destinations if d != sender) if remote is None else remote
        )

    def is_multicast(self) -> bool:
        """True when the message has more than one remote destination."""
        return len(self._remote) > 1

    def remote_destinations(self) -> Tuple[int, ...]:
        """Destinations other than the sender itself (fixed at creation)."""
        return self._remote

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Message(#{self.uid} {self.sender}->{list(self.destinations)} "
            f"proto={self.protocol} {self.body!r})"
        )
