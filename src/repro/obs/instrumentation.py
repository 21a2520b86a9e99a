"""The instrumentation core: hook points, counters and the zero-cost off path.

Every layer of the simulated system -- the event kernel, the contention
network, the broadcast algorithms, consensus, group membership and the
failure detectors -- reports what it does through *named hook points* on a
single per-system :class:`Instrumentation` object.  The hooks update cheap
primitives (monotonic counters, max-gauges, histograms), maintain the
A-broadcast lifecycle (broadcast -> sequenced -> first A-delivery, with the
per-stage latency breakdown), optionally append a structured event record
to :attr:`Instrumentation.events`, and fan out to the callables attached
with :meth:`Instrumentation.subscribe`.

The paper's whole argument is observational, but observation must never
perturb the run: hooks schedule no events, send no messages and draw no
random numbers, so an instrumented run is bit-identical to an uninstrumented
one (pinned by the golden-neutrality tests).

**The off path.**  When instrumentation is off, every layer -- the
simulator, the network, each process and each protocol component -- holds
``None``, and every hook site tests for it before it evaluates the hook's
arguments::

    if self._obs is not None:
        self._obs.abcast_deliver(self.now, self.pid, broadcast_id, payload)

With tracing off a hook site costs one attribute load and one pointer
comparison; no call is made.  ``tests/sim/test_hook_sites.py`` holds every
hook site outside this package to that guard, and
``tests/sim/test_call_budget.py`` holds the off path to a committed number
of Python calls per simulated event.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


#: Hook names subscribers can attach to.
HOOKS = (
    "message_send",
    "message_deliver",
    "abcast_broadcast",
    "abcast_sequenced",
    "abcast_deliver",
    "suspicion",
    "consensus_started",
    "consensus_round",
    "consensus_decided",
    "view_change",
    "view_installed",
    "reformation_proposed",
    "service_request",
    "service_reply",
    "service_batch",
    "partition_changed",
    "process_degraded",
)


def _bid_key(broadcast_id) -> List[int]:
    """JSON-friendly form of a BroadcastID (works for any (sender, seq) pair)."""
    return [int(broadcast_id[0]), int(broadcast_id[1])]


class Instrumentation:
    """Per-system metric primitives plus the named hook points.

    Parameters
    ----------
    record_events:
        Whether hook invocations append structured event records to
        :attr:`events` (the source of the JSONL and Chrome trace exports).
        Counters, gauges and histograms are always maintained; campaigns
        that only need the ``metrics.json`` snapshot can turn event
        recording off to bound memory on long runs.
    """

    def __init__(self, record_events: bool = True) -> None:
        self.record_events = record_events
        #: Monotonic counters, e.g. ``counters["messages.sent"]``.
        self.counters: Dict[str, int] = defaultdict(int)
        #: Max-gauges (high-water marks), e.g. ``gauges["sim.queue_depth_hwm"]``.
        self.gauges: Dict[str, float] = {}
        #: Raw histogram observations, e.g. ``histograms["abcast.latency"]``.
        self.histograms: Dict[str, List[float]] = defaultdict(list)
        #: Structured event records, in emission order (when ``record_events``).
        self.events: List[Dict[str, Any]] = []
        self._subs: Dict[str, List[Callable[..., None]]] = {}
        # A-broadcast lifecycle state (stage timestamps keyed by BroadcastID).
        self._broadcast_times: Dict[Any, float] = {}
        self._sequence_times: Dict[Any, float] = {}
        self._first_delivery: Dict[Any, float] = {}
        # Active wrong/right suspicions keyed by (monitor, target).
        self._suspected_since: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------ primitives

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to counter ``name``."""
        self.counters[name] += delta

    def observe(self, name: str, value: float) -> None:
        """Record one observation in histogram ``name``."""
        self.histograms[name].append(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise max-gauge ``name`` to ``value`` if it is a new high."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # ------------------------------------------------------------------ subscribers

    def subscribe(self, hook: str, fn: Callable[..., None]) -> None:
        """Call ``fn`` with the hook's arguments on every ``hook`` invocation."""
        if hook not in HOOKS:
            raise ValueError(f"unknown hook {hook!r}; expected one of {HOOKS}")
        self._subs.setdefault(hook, []).append(fn)

    def unsubscribe(self, hook: str, fn: Callable[..., None]) -> None:
        """Detach ``fn`` from ``hook`` (ValueError if it is not subscribed)."""
        try:
            self._subs.get(hook, []).remove(fn)
        except ValueError:
            raise ValueError(f"{fn!r} is not subscribed to {hook!r}") from None

    def _notify(self, hook: str, *args: Any) -> None:
        subs = self._subs.get(hook)
        if subs:
            for fn in list(subs):
                fn(*args)

    # ------------------------------------------------------------------ hook points

    def message_send(self, time: float, message, dropped: bool = False) -> None:
        """A message reached :meth:`repro.sim.network.Network.send`.

        ``dropped`` marks sends swallowed by the software-crash semantics
        (crashed sender): they never load any resource, so they count under
        a separate counter, mirroring ``NetworkStats``.
        """
        if dropped:
            self.counters["messages.dropped_sender_crashed"] += 1
        else:
            self.counters["messages.sent"] += 1
            self.counters["messages.sent." + message.protocol] += 1
        self._notify("message_send", time, message, dropped)
        if self.record_events:
            record = {
                "t": time,
                "ev": "send",
                "from": message.sender,
                "to": list(message.destinations),
                "proto": message.protocol,
            }
            if dropped:
                record["dropped"] = True
            self.events.append(record)

    def message_deliver(self, time: float, dest: int, message) -> None:
        """The network handed ``message`` up to process ``dest``."""
        self.counters["messages.delivered"] += 1
        self._notify("message_deliver", time, dest, message)
        if self.record_events:
            self.events.append(
                {
                    "t": time,
                    "ev": "recv",
                    "at": dest,
                    "from": message.sender,
                    "proto": message.protocol,
                }
            )

    def abcast_broadcast(self, time: float, pid: int, broadcast_id, payload) -> None:
        """Process ``pid`` A-broadcast ``broadcast_id`` (lifecycle start)."""
        self.counters["abcast.broadcasts"] += 1
        self._broadcast_times.setdefault(broadcast_id, time)
        self._notify("abcast_broadcast", time, pid, broadcast_id, payload)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "broadcast", "pid": pid, "bid": _bid_key(broadcast_id)}
            )

    def abcast_sequenced(self, time: float, pid: int, broadcast_id) -> None:
        """``broadcast_id`` got its place in the total order (first time only).

        Both algorithms report the sequencing point -- the FD stack when a
        consensus decision orders the message, the GM stacks when a sequencer
        batch assigns its sequence number -- on every process that learns it;
        only the earliest report counts, so the counter is the number of
        *messages* sequenced, not the number of processes that know.
        """
        if broadcast_id in self._sequence_times:
            return
        self._sequence_times[broadcast_id] = time
        self.counters["abcast.sequenced"] += 1
        broadcast_time = self._broadcast_times.get(broadcast_id)
        if broadcast_time is not None:
            self.observe("abcast.broadcast_to_sequence", time - broadcast_time)
        self._notify("abcast_sequenced", time, pid, broadcast_id)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "sequenced", "pid": pid, "bid": _bid_key(broadcast_id)}
            )

    def abcast_deliver(self, time: float, pid: int, broadcast_id, payload) -> None:
        """Process ``pid`` A-delivered ``broadcast_id`` (lifecycle end)."""
        self.counters["abcast.deliveries"] += 1
        if broadcast_id not in self._first_delivery:
            self._first_delivery[broadcast_id] = time
            broadcast_time = self._broadcast_times.get(broadcast_id)
            if broadcast_time is not None:
                self.observe("abcast.broadcast_to_deliver", time - broadcast_time)
            sequence_time = self._sequence_times.get(broadcast_id)
            if sequence_time is not None:
                self.observe("abcast.sequence_to_deliver", time - sequence_time)
        self._notify("abcast_deliver", time, pid, broadcast_id, payload)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "adeliver", "pid": pid, "bid": _bid_key(broadcast_id)}
            )

    def suspicion(self, time: float, monitor: int, target: int, suspected: bool) -> None:
        """Failure detector of ``monitor`` changed its mind about ``target``."""
        pair = (monitor, target)
        if suspected:
            self.counters["fd.suspicions"] += 1
            self._suspected_since.setdefault(pair, time)
        else:
            self.counters["fd.trusts"] += 1
            started = self._suspected_since.pop(pair, None)
            if started is not None:
                # A suspicion that ends in a trust restoration was a mistake
                # (crashed processes are never trusted again), so this
                # histogram is the measured mistake duration T_M.
                self.observe("fd.mistake_duration", time - started)
        self._notify("suspicion", time, monitor, target, suspected)
        if self.record_events:
            self.events.append(
                {
                    "t": time,
                    "ev": "suspicion",
                    "monitor": monitor,
                    "target": target,
                    "suspected": suspected,
                }
            )

    def consensus_started(self, time: float, pid: int, cid) -> None:
        """Process ``pid`` started participating in consensus instance ``cid``."""
        self.counters["consensus.proposals"] += 1
        self._notify("consensus_started", time, pid, cid)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "consensus_started", "pid": pid, "cid": str(cid)}
            )

    def consensus_round(self, time: float, pid: int, cid, round_number: int) -> None:
        """Process ``pid`` entered round ``round_number`` of instance ``cid``."""
        self.counters["consensus.rounds"] += 1
        self._notify("consensus_round", time, pid, cid, round_number)
        if self.record_events:
            self.events.append(
                {
                    "t": time,
                    "ev": "consensus_round",
                    "pid": pid,
                    "cid": str(cid),
                    "round": round_number,
                }
            )

    def consensus_decided(self, time: float, pid: int, cid) -> None:
        """Process ``pid`` learned the decision of instance ``cid``."""
        self.counters["consensus.decisions"] += 1
        self._notify("consensus_decided", time, pid, cid)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "consensus_decided", "pid": pid, "cid": str(cid)}
            )

    def view_change(self, time: float, pid: int, vid) -> None:
        """Process ``pid`` entered the view change of view identity ``vid``."""
        self.counters["gm.view_changes"] += 1
        self._notify("view_change", time, pid, vid)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "view_change", "pid": pid, "vid": list(vid)}
            )

    def view_installed(self, time: float, pid: int, view) -> None:
        """Process ``pid`` installed ``view`` (a :class:`repro.core.types.View`)."""
        self.counters["gm.views_installed"] += 1
        self.gauge_max("gm.max_epoch", view.epoch)
        self._notify("view_installed", time, pid, view)
        if self.record_events:
            self.events.append(
                {
                    "t": time,
                    "ev": "view_installed",
                    "pid": pid,
                    "view_id": view.view_id,
                    "epoch": view.epoch,
                    "members": list(view.members),
                }
            )

    def reformation_proposed(self, time: float, pid: int, epoch: int) -> None:
        """Process ``pid`` escalated a stalled view change to epoch ``epoch``."""
        self.counters["gm.reformations_proposed"] += 1
        self._notify("reformation_proposed", time, pid, epoch)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "reformation_proposed", "pid": pid, "epoch": epoch}
            )

    def service_request(self, time: float, client: int, status: str) -> None:
        """The service layer admitted/queued/shed one client request.

        ``status`` is ``"admitted"`` (A-broadcast immediately), ``"queued"``
        (parked in the admission queue until the in-flight window frees up),
        ``"shed"`` (rejected: window and queue both full) or ``"local"``
        (served from the ingress replica's local state, bypassing the
        broadcast layer entirely -- the ``consistency="local"`` read path).
        """
        self.counters["service.requests"] += 1
        self.counters["service.requests." + status] += 1
        self._notify("service_request", time, client, status)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "service_request", "client": client, "status": status}
            )

    def service_reply(self, time: float, client: int, response_time: float) -> None:
        """One client request completed with a reply after ``response_time`` ms."""
        self.counters["service.replies"] += 1
        self.observe("service.response_time", response_time)
        self._notify("service_reply", time, client, response_time)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "service_reply", "client": client, "rt": response_time}
            )

    def service_batch(self, time: float, pid: int, size: int) -> None:
        """The request batcher of process ``pid`` flushed a batch of ``size``."""
        self.counters["service.batches"] += 1
        self.observe("service.batch_size", size)
        self._notify("service_batch", time, pid, size)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "service_batch", "pid": pid, "size": size}
            )

    def partition_changed(self, time: float, blocked_links: int) -> None:
        """The network partition mask changed (``net.partition``).

        ``blocked_links`` is the number of directed links now blocked
        (0 = fully healed).
        """
        if blocked_links:
            self.counters["net.partitions"] += 1
        else:
            self.counters["net.heals"] += 1
        self.gauge_max("net.blocked_links_hwm", blocked_links)
        self._notify("partition_changed", time, blocked_links)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "partition", "blocked": blocked_links}
            )

    def process_degraded(self, time: float, pid: int, factor: float) -> None:
        """Process ``pid``'s CPU rate factor changed (``proc.degraded``).

        ``factor`` is the new service-time multiplier; 1.0 marks the end of
        a gray degradation.
        """
        if factor != 1.0:
            self.counters["proc.degradations"] += 1
        else:
            self.counters["proc.restorations"] += 1
        self.gauge_max("proc.degrade_factor_hwm", factor)
        self._notify("process_degraded", time, pid, factor)
        if self.record_events:
            self.events.append(
                {"t": time, "ev": "degraded", "pid": pid, "factor": factor}
            )

    def sim_event(self, time: float, category: str) -> None:
        """The kernel executed one event of callback ``category``.

        Called only from the simulator's run loop; no structured event is
        recorded (that would be one record per kernel event).
        """
        self.counters["sim.events"] += 1
        self.counters["sim.events." + category] += 1

    def queue_depth(self, depth: int) -> None:
        """Track the event-queue high-water mark (called from the run loop)."""
        if depth > self.gauges.get("sim.queue_depth_hwm", -1):
            self.gauges["sim.queue_depth_hwm"] = depth

    # ------------------------------------------------------------------ views

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never touched)."""
        return self.counters.get(name, 0)

    def counters_by_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix`` (sorted by name)."""
        return {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith(prefix)
        }

    def first_delivery_latency(self, broadcast_id) -> Optional[float]:
        """Broadcast-to-first-delivery latency of one message, if complete."""
        started = self._broadcast_times.get(broadcast_id)
        delivered = self._first_delivery.get(broadcast_id)
        if started is None or delivered is None:
            return None
        return delivered - started
