"""Simulated processes and protocol components.

A :class:`SimProcess` hosts a set of named protocol components (the
equivalent of a Neko protocol stack): consensus, reliable broadcast, atomic
broadcast, group membership...  Components send messages through the process,
receive messages dispatched by protocol name, and can set timers.

Crashing a process stops all its activity: timers no longer fire, incoming
messages are discarded and outgoing sends are dropped by the network
(software-crash semantics are enforced by :class:`repro.sim.network.Network`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.sim.engine import EventHandle, Simulator
from repro.sim.messages import Message
from repro.sim.network import Network


#: Destination sets a process remembers before it starts over (views change,
#: so the sets a long churn run multicasts to are not bounded by ``n``).
_REMOTE_CACHE_LIMIT = 64


class Component:
    """Base class for protocol components attached to a :class:`SimProcess`.

    Subclasses define ``protocol`` (the dispatch name) and override
    :meth:`on_message`.  They are registered automatically at construction.
    """

    #: Dispatch name; subclasses must override it.
    protocol: str = ""

    def __init__(self, process: "SimProcess") -> None:
        if not self.protocol:
            raise ValueError(f"{type(self).__name__} must define a protocol name")
        self.process = process
        #: Process id of the hosting process and the simulation kernel: fixed
        #: for the life of the component, read on every message.
        self.pid: int = process.pid
        self.sim: Simulator = process.sim
        #: Instrumentation hook sink; ``None`` until the system enables
        #: instrumentation, which rewires every component in place.  Hook
        #: sites test ``self._obs is not None`` before they evaluate the
        #: hook's arguments.
        self._obs = process.obs
        process.register_component(self.protocol, self)

    # -- convenience accessors -------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    # -- messaging ---------------------------------------------------------------

    def send(self, destinations: Sequence[int], body: Any) -> None:
        """Send ``body`` to ``destinations`` under this component's protocol."""
        self.process.send(self.protocol, destinations, body)

    def send_one(self, destination: int, body: Any) -> None:
        """Send ``body`` to a single destination."""
        self.process.send(self.protocol, [destination], body)

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback`` unless the process crashes first."""
        return self.process.set_timer(delay, callback, *args)

    # -- hooks --------------------------------------------------------------------

    def start(self) -> None:
        """Hook called once when the simulation starts."""

    def on_message(self, sender: int, body: Any) -> None:
        """Handle a message dispatched to this component."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Hook called when the hosting process crashes."""

    def on_recover(self) -> None:
        """Hook called when the hosting process recovers from a crash."""


class SimProcess:
    """A process of the distributed system under simulation."""

    def __init__(self, sim: Simulator, network: Network, pid: int) -> None:
        self.sim = sim
        self.network = network
        self.pid = pid
        self._components: Dict[str, Component] = {}
        self._crashed = False
        self._timers: List[EventHandle] = []
        # Amortized prune threshold: ``_timers`` only exists so ``crash()``
        # can cancel pending timers, so fired/cancelled handles are swept out
        # once the list doubles past this mark (long steady runs would
        # otherwise keep one dead handle per timer ever set).
        self._timer_prune_at = 128
        # destinations -> destinations without this process, for ``send``:
        # a component multicasts to the same handful of groups all run long.
        self._remote_of: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: Failure detector attached to this process (set by the system builder).
        self.failure_detector = None
        #: Instrumentation components inherit at construction (None = off).
        self.obs = None
        network.attach(pid, self._on_network_delivery)

    # ------------------------------------------------------------------ components

    def register_component(self, protocol: str, component: Component) -> None:
        """Register ``component`` under dispatch name ``protocol``."""
        if protocol in self._components:
            raise ValueError(f"protocol {protocol!r} already registered on process {self.pid}")
        self._components[protocol] = component

    def component(self, protocol: str) -> Component:
        """Return the component registered under ``protocol``."""
        return self._components[protocol]

    def components(self) -> Iterable[Component]:
        """All registered components."""
        return self._components.values()

    def start(self) -> None:
        """Invoke the ``start`` hook of every component."""
        for component in self._components.values():
            component.start()

    # ------------------------------------------------------------------ messaging

    def send(self, protocol: str, destinations: Sequence[int], body: Any) -> None:
        """Send ``body`` to ``destinations``; dropped if this process crashed."""
        if self._crashed:
            return
        destinations = tuple(destinations)
        try:
            remote = self._remote_of[destinations]
        except KeyError:
            remote = self._remember_remote(destinations)
        self.network.send(Message(self.pid, destinations, protocol, body, None, remote))

    def _remember_remote(self, destinations: Tuple[int, ...]) -> Tuple[int, ...]:
        """First send to ``destinations``: derive and keep the remote tuple."""
        cache = self._remote_of
        if len(cache) >= _REMOTE_CACHE_LIMIT:
            cache.clear()
        pid = self.pid
        remote = cache[destinations] = tuple(d for d in destinations if d != pid)
        return remote

    def _on_network_delivery(self, pid: int, message: Message) -> None:
        if self._crashed:
            return
        try:
            component = self._components[message.protocol]
        except KeyError:
            raise RuntimeError(
                f"process {self.pid} has no component for protocol {message.protocol!r}"
            ) from None
        component.on_message(message.sender, message.body)

    # ------------------------------------------------------------------ timers

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)``; silently skipped if crashed by then."""
        handle = self.sim.schedule(delay, self._fire_timer, callback, args)
        timers = self._timers
        timers.append(handle)
        if len(timers) >= self._timer_prune_at:
            # Handles that fired or were cancelled no longer need cancelling
            # on crash; dropping them is invisible to the simulation.
            now = self.sim.now
            timers[:] = [h for h in timers if not h.cancelled and h.time >= now]
            self._timer_prune_at = max(128, 2 * len(timers))
        return handle

    def _fire_timer(self, callback: Callable[..., Any], args: tuple) -> None:
        if self._crashed:
            return
        callback(*args)

    # ------------------------------------------------------------------ crash

    @property
    def crashed(self) -> bool:
        """Whether this process has crashed."""
        return self._crashed

    def crash(self) -> None:
        """Crash the process now (idempotent)."""
        if self._crashed:
            return
        self._crashed = True
        self.network.crash(self.pid)
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        for component in self._components.values():
            component.on_crash()

    def recover(self) -> None:
        """Recover the process now (idempotent; no-op if it never crashed).

        All protocol state survives the crash (warm restart); components that
        need to reconcile with the rest of the system do so in their
        ``on_recover`` hook (catch-up requests, rejoin protocol, ...).
        """
        if not self._crashed:
            return
        self._crashed = False
        self.network.recover(self.pid)
        for component in self._components.values():
            component.on_recover()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "crashed" if self._crashed else "up"
        return f"SimProcess(pid={self.pid}, {state}, components={sorted(self._components)})"


def live_sender(processes: Sequence["SimProcess"], senders: Sequence[int], preferred: int) -> int:
    """``preferred`` if that process is up, else the next live one of ``senders``.

    "Next" is list order after ``preferred``, wrapping around.  When every
    sender is down -- impossible under the ``f < n/2`` bound the scenarios
    keep -- the answer is ``preferred``.
    """
    if not processes[preferred].crashed:
        return preferred
    position = senders.index(preferred)
    for offset in range(1, len(senders)):
        candidate = senders[(position + offset) % len(senders)]
        if not processes[candidate].crashed:
            return candidate
    return preferred
