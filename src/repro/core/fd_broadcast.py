"""The *FD algorithm*: Chandra-Toueg atomic broadcast.

A-broadcast(m) reliable-broadcasts ``m`` to all processes.  Delivery order is
decided by a sequence of consensus instances numbered 1, 2, ...; the initial
value and the decision of each instance is a set of message identifiers.  The
messages decided by instance ``k`` are A-delivered before those of instance
``k + 1`` and, within an instance, in the deterministic order of their
identifiers.

Crash *recovery* (beyond the paper's crash-stop model) works with a warm
restart plus a catch-up: a recovered process fetches from its peers' decided
logs (:mod:`repro.core.log`) the consensus decisions and message payloads it
missed while down and hands each decision to the consensus service in
instance order, like one that came by reliable broadcast: the instances its
crash left open close, its delivery sequence stays a prefix of the group's
total order, and it resumes proposing from the group's frontier.  A
payload that a later decision names and this process lacks (its DATA
multicast was missed, and reliable broadcast never delivers a missed uid
late) is pulled from the peers when the decision names it, in any run.

Two practical details follow the paper:

* **Aggregation** -- all the messages pending when an instance starts are
  proposed together, so one consensus execution can order many messages (this
  is what keeps the algorithm usable under high load).
* **Coordinator re-numbering** -- the proposal is tagged with the identifier
  of the proposing process; once an instance decides, every process rotates
  the coordinator order of subsequent instances so that the decided proposer
  becomes the round-1 coordinator.  This makes crashed processes stop being
  coordinators after a crash, which is the optimisation Section 7 of the
  paper describes for the crash-steady scenario.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.core.consensus import ConsensusService
from repro.core.log import FETCH, FETCHED, DecidedLog
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.types import PIPELINE_DEPTH, AtomicBroadcast, BroadcastID
from repro.sim.process import SimProcess

_DATA_TAG = "AB_DATA"


class FDAtomicBroadcast(AtomicBroadcast):
    """Chandra-Toueg atomic broadcast over unreliable failure detectors.

    What a process keeps past a delivery is the decided log (:attr:`log`,
    complete, because a recovering peer fetches it from position 0) and the
    base class's delivery record.  The bookkeeping of ordering ends with the
    delivery: ``_ordered`` holds the ids decided and not yet delivered.  A
    message is ordered once it is in ``_ordered`` or delivered.

    Reliable broadcast is one multicast, with no relay on suspicion.  A
    message this process missed comes back only through the decided log:
    the pull of the payloads a decision names (:meth:`_request_missing_payloads`)
    and the catch-up after a recovery (:meth:`on_recover`).  That is
    enough: a multicast handed to the origin's CPU reaches every process
    that is up and connected even if the origin then crashes, so each
    decided id has holders (its proposer among them), and the pull asks
    every peer.
    """

    protocol = "abcast"

    def __init__(
        self,
        process: SimProcess,
        rbcast: ReliableBroadcast,
        consensus: ConsensusService,
    ) -> None:
        super().__init__(process)
        self.rbcast = rbcast
        self.consensus = consensus
        self.participants: Tuple[int, ...] = tuple(range(process.network.n))

        #: The decided prefix: instance ``k``'s ``(proposer, ids)`` at position
        #: ``k``.  The hot paths read its dicts directly.
        self.log = DecidedLog()
        self._payloads = self.log.payload_of
        self._decisions = self.log.batches
        self._pending: Set[BroadcastID] = set()
        # Decided and not delivered yet.
        self._ordered: Set[BroadcastID] = set()
        self._next_delivery = 1
        self._highest_proposed = 0
        self._inflight_proposals: Dict[int, Set[BroadcastID]] = {}
        # Union of ``_inflight_proposals`` (which are pairwise disjoint: each
        # proposal is drawn from the pending messages no other one claims).
        self._claimed: Set[BroadcastID] = set()

        rbcast.add_listener(self._on_rbcast_delivery)
        consensus.add_decision_listener(self._on_decision)
        consensus.add_unknown_instance_listener(self._on_unknown_instance)

    # ------------------------------------------------------------------ API

    def broadcast(self, payload: Any) -> BroadcastID:
        """A-broadcast ``payload`` to all processes."""
        broadcast_id = self._next_broadcast_id()
        self._notify_broadcast(broadcast_id, payload)
        self.rbcast.broadcast((_DATA_TAG, broadcast_id, payload))
        return broadcast_id

    def on_message(self, sender: int, body: Any) -> None:
        """Handle a fetch of the decided log (the only direct messages of this protocol)."""
        kind = body[0]
        if kind == FETCH:
            self._on_fetch(sender, body[2], body[3])
        elif kind == FETCHED:
            self._on_fetched(body[1], body[2], body[3])
        else:
            raise RuntimeError(f"unexpected direct message to the FD abcast: {body!r}")

    # ------------------------------------------------------------------ recovery

    def on_recover(self) -> None:
        """Ask every peer for the decisions missed while this process was down.

        The fetch reaches back to the delivery frontier, not just the
        decision frontier: an instance may be decided locally while its
        payloads are still missing (they were dropped during the crash), and
        the catch-up answers are the only way to refetch them.
        """
        self.log.requested.clear()  # allow fetching again after this recovery
        # Asking every peer trades a little duplicate traffic (n - 1 full
        # answers per recovery) for robustness: any single chosen peer may
        # itself be down right now.  At the paper's system sizes the cost is
        # negligible.
        since = min(self._next_delivery - 1, self.log.length)
        self._fetch_from_peers(since, ())

    def _on_fetch(self, sender: int, since: Optional[int], ids: Tuple) -> None:
        log = self.log
        if since is None:
            payloads = log.payloads(ids)
            if payloads:
                self.send_one(sender, (FETCHED, None, (), payloads))
            return
        # A catch-up.  Undecided messages ride along too: a DATA multicast
        # sent while the requester was down was dropped and is never sent
        # again, so without this hand-over the requester could not propose
        # (or even learn of) the messages the group is currently ordering.
        unordered = log.payloads(sorted(self._pending))
        batches = log.since(since)
        if not batches and self._highest_proposed <= since and not unordered:
            return
        named = log.payloads(bid for _k, (_proposer, bids) in batches for bid in bids)
        # The proposal frontier rides along so the recovered process also
        # joins instances that are open but *undecided*: their participants
        # may be parked waiting for the recovered process itself (e.g. as
        # the round-1 coordinator, which sends nothing until it proposes).
        self.send_one(sender, (FETCHED, self._highest_proposed, batches, named + unordered))

    def _on_fetched(self, frontier: Optional[int], batches: Tuple, payloads: Tuple) -> None:
        self.log.merge(payloads)
        if frontier is None:  # the payloads a decision named
            self._try_deliver()
            return
        # Rejoin past the prefix this catch-up completes before recording it,
        # so that no decision below opens an instance that is decided already.
        top = max(self.log.length, batches[-1][0] if batches else 0)
        while top + 1 in self._decisions:
            top += 1
        if self._highest_proposed < top:
            self._highest_proposed = top
        for k, batch in batches:
            self.consensus.record_decision(self._cid(k), batch)
        for broadcast_id, _payload in payloads:
            if not self._is_ordered(broadcast_id):
                self._pending.add(broadcast_id)
        self._try_deliver()
        self._maybe_start_consensus(join_up_to=frontier)

    def _request_missing_payloads(self, broadcast_ids) -> None:
        """Ask the peers for payloads a decision names and this process lacks.

        In a crash-free run every payload arrives by reliable broadcast
        before its decision, so this sends nothing.  A DATA multicast this
        process missed (sent while it was down or cut off) is never
        delivered later: reliable broadcast sends each message once and
        drops a uid below the origin's last delivered one.  Each id is asked
        for once, and once more after each recovery.
        """
        missing = self.log.unrequested(broadcast_ids)
        if missing:
            self._fetch_from_peers(None, missing)

    def _fetch_from_peers(self, since: Optional[int], ids: Tuple) -> None:
        others = [pid for pid in self.participants if pid != self.pid]
        if others:
            self.send(others, (FETCH, None, since, ids))

    # ------------------------------------------------------------------ data dissemination

    def _on_rbcast_delivery(self, origin: int, payload: Any) -> None:
        if not isinstance(payload, tuple) or not payload or payload[0] != _DATA_TAG:
            return
        _tag, broadcast_id, data = payload
        if broadcast_id in self._payloads:
            return
        self._payloads[broadcast_id] = data
        if broadcast_id not in self._ordered and broadcast_id not in self._delivered_ids:
            self._pending.add(broadcast_id)
        self._try_deliver()
        self._maybe_start_consensus()

    # ------------------------------------------------------------------ consensus plumbing

    def _is_ordered(self, broadcast_id: BroadcastID) -> bool:
        """Whether a decision placed ``broadcast_id`` in the total order."""
        return broadcast_id in self._ordered or self.has_delivered(broadcast_id)

    def _mark_ordered(self, broadcast_ids) -> None:
        self._ordered |= set(broadcast_ids).difference(self._delivered_ids)

    def _cid(self, k: int) -> Hashable:
        return ("ab", k)

    def _unproposed_pending(self) -> Set[BroadcastID]:
        """Pending messages not already part of one of our in-flight proposals."""
        return self._pending - self._claimed

    def _maybe_start_consensus(self, join_up_to: int = 0) -> None:
        """Open the next consensus instances this process should propose in.

        ``join_up_to`` (the proposal frontier a catch-up response reported)
        forces a proposal -- empty if nothing is pending -- in every
        instance the group already opened: an undecided instance whose
        round-1 coordinator is this recovered process makes no progress
        until that coordinator proposes.
        """
        while True:
            k = self._highest_proposed + 1
            if k > self.log.length + PIPELINE_DEPTH:
                return
            if k in self._decisions:
                # Decided by reliable broadcast before this process proposed:
                # a proposal there would never start, nor release its ids.
                self._highest_proposed = k
                continue
            fresh = self._unproposed_pending()
            need = bool(fresh) or k <= join_up_to
            need = need or self.consensus.has_buffered(self._cid(k))
            if not need:
                # An empty instance is still worth proposing when other
                # processes already started a later eligible instance:
                # consensus numbers must be exhausted in order.
                need = any(
                    self.consensus.has_buffered(self._cid(j))
                    for j in range(k + 1, self.log.length + PIPELINE_DEPTH + 1)
                )
            if not need:
                return
            proposal_ids = tuple(sorted(fresh))
            proposal = (self.pid, proposal_ids)
            if self._obs is not None:
                self._obs.observe("abcast.proposal_size", len(proposal_ids))
            self._highest_proposed = k
            self._inflight_proposals[k] = fresh
            self._claimed |= fresh
            self.consensus.propose(
                self._cid(k),
                proposal,
                participants=self.participants,
                coordinator_order=self._coordinator_order_for(k),
            )

    def _coordinator_order_for(self, k: int) -> Tuple[int, ...]:
        """Coordinator rotation used by instance ``k``.

        The rotation starts at the proposer whose value was decided by
        instance ``k - PIPELINE_DEPTH``: that decision is guaranteed to be
        known by every process that participates in ``k`` (the pipeline never
        runs further ahead), so all of them use the same rotation.
        """
        anchor = self._decisions.get(k - PIPELINE_DEPTH)
        if anchor is None or anchor[0] not in self.participants:
            return self.participants
        index = self.participants.index(anchor[0])
        return self.participants[index:] + self.participants[:index]

    def _on_unknown_instance(self, cid: Hashable) -> None:
        if not isinstance(cid, tuple) or len(cid) != 2 or cid[0] != "ab":
            return
        if self._highest_proposed < cid[1] <= self.log.length + PIPELINE_DEPTH:
            self._maybe_start_consensus()

    def _on_decision(self, cid: Hashable, value: Any) -> None:
        if not isinstance(cid, tuple) or len(cid) != 2 or cid[0] != "ab":
            return
        k = cid[1]
        proposer, broadcast_ids = value
        self._decisions[k] = (proposer, tuple(broadcast_ids))
        self._mark_ordered(broadcast_ids)
        if self._obs is not None:
            # The decision fixes the message's place in the total order; the
            # instrumentation keeps only the earliest report per message.
            for broadcast_id in broadcast_ids:
                self._obs.abcast_sequenced(self.now, self.pid, broadcast_id)
        self._pending.difference_update(broadcast_ids)
        self._claimed.difference_update(self._inflight_proposals.pop(k, ()))
        log = self.log
        while log.length + 1 in self._decisions:
            log.length += 1
        self._try_deliver()
        self._maybe_start_consensus()

    # ------------------------------------------------------------------ delivery

    def _try_deliver(self) -> None:
        while self._next_delivery in self._decisions:
            _proposer, broadcast_ids = self._decisions[self._next_delivery]
            missing = [bid for bid in broadcast_ids if bid not in self._payloads]
            if missing:
                # Wait for the payloads (by reliable broadcast, or pulled if
                # their DATA was missed); the delivery loop resumes from
                # _on_rbcast_delivery or _on_fetched.
                self._request_missing_payloads(missing)
                return
            for broadcast_id in sorted(broadcast_ids):
                self._ordered.discard(broadcast_id)
                self._deliver(broadcast_id, self._payloads[broadcast_id])
            self._next_delivery += 1
