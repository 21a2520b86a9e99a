"""The *FD algorithm*: Chandra-Toueg atomic broadcast.

A-broadcast(m) reliable-broadcasts ``m`` to all processes.  Delivery order is
decided by a sequence of consensus instances numbered 1, 2, ...; the initial
value and the decision of each instance is a set of message identifiers.  The
messages decided by instance ``k`` are A-delivered before those of instance
``k + 1`` and, within an instance, in the deterministic order of their
identifiers.

Crash *recovery* (beyond the paper's crash-stop model) works with a warm
restart plus a catch-up exchange: a recovered process asks its peers for the
consensus decisions (and message payloads) it missed while down, applies them
in instance order -- so its delivery sequence stays a prefix of the group's
total order -- and then resumes proposing from the group's frontier.

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

from typing import Any, Dict, Hashable, Set, Tuple

from repro.core.consensus import ConsensusService
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.types import PIPELINE_DEPTH, AtomicBroadcast, BroadcastID
from repro.sim.process import SimProcess

_DATA_TAG = "AB_DATA"
_CATCHUP_REQ = "AB_CATCHUP_REQ"
_CATCHUP_RESP = "AB_CATCHUP_RESP"
_PAYLOAD_REQ = "AB_PAYLOAD_REQ"
_PAYLOAD_RESP = "AB_PAYLOAD_RESP"


class FDAtomicBroadcast(AtomicBroadcast):
    """Chandra-Toueg atomic broadcast over unreliable failure detectors."""

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

        self._payloads: Dict[BroadcastID, Any] = {}
        self._rb_uid_of: Dict[BroadcastID, Tuple[int, int]] = {}
        self._pending: Set[BroadcastID] = set()
        self._ordered: Set[BroadcastID] = set()
        self._decisions: Dict[int, Tuple[int, Tuple[BroadcastID, ...]]] = {}
        self._last_decided = 0
        self._next_delivery = 1
        self._highest_proposed = 0
        self._inflight_proposals: Dict[int, Set[BroadcastID]] = {}
        # Union of ``_inflight_proposals`` (which are pairwise disjoint: each
        # proposal is drawn from the pending messages no other one claims).
        self._claimed: Set[BroadcastID] = set()
        # Crash-recovery bookkeeping: whether this process ever recovered
        # (payload re-requests are only needed -- and only allowed -- then),
        # and which payloads it already asked its peers for.
        self._recovered_once = False
        self._requested_payloads: Set[BroadcastID] = set()
        #: Diagnostics: number of consensus instances this process proposed in.
        self.consensus_started = 0

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
        """Handle a catch-up message (the only direct messages of this protocol)."""
        kind = body[0]
        if kind == _CATCHUP_REQ:
            self._on_catchup_request(sender, body[1])
        elif kind == _CATCHUP_RESP:
            self._on_catchup_response(body[1], body[2], body[3])
        elif kind == _PAYLOAD_REQ:
            self._on_payload_request(sender, body[1])
        elif kind == _PAYLOAD_RESP:
            self._on_payload_response(body[1])
        else:
            raise RuntimeError(f"unexpected direct message to the FD abcast: {body!r}")

    # ------------------------------------------------------------------ recovery

    def on_recover(self) -> None:
        """Ask every peer for the decisions missed while this process was down.

        The request reaches back to the delivery frontier, not just the
        decision frontier: an instance may be decided locally while its
        payloads are still missing (they were dropped during the crash), and
        the catch-up responses are the only way to refetch them.
        """
        self._recovered_once = True
        self._requested_payloads.clear()  # allow re-requests after this recovery
        # Asking every peer trades a little duplicate traffic (n - 1 full
        # responses per recovery) for robustness: any single chosen peer may
        # itself be down right now.  At the paper's system sizes the cost is
        # negligible.
        others = [pid for pid in self.participants if pid != self.pid]
        if others:
            since = min(self._next_delivery - 1, self._last_decided)
            self.send(others, (_CATCHUP_REQ, since))

    def _on_catchup_request(self, sender: int, since: int) -> None:
        # Undecided messages ride along too: a DATA multicast sent while the
        # requester was down was dropped and -- its origin staying alive --
        # is never relayed again, so without this hand-over the requester
        # could not propose (or even learn of) the messages the group is
        # currently ordering.
        unordered = tuple(
            (bid, self._payloads[bid]) for bid in sorted(self._pending)
            if bid in self._payloads
        )
        if self._last_decided <= since and self._highest_proposed <= since and not unordered:
            return
        entries = []
        for k in range(since + 1, self._last_decided + 1):
            proposer, broadcast_ids = self._decisions[k]
            payloads = tuple(
                (bid, self._payloads[bid]) for bid in broadcast_ids if bid in self._payloads
            )
            entries.append((k, proposer, broadcast_ids, payloads))
        # The proposal frontier rides along so the recovered process also
        # joins instances that are open but *undecided*: their participants
        # may be parked waiting for the recovered process itself (e.g. as
        # the round-1 coordinator, which sends nothing until it proposes).
        self.send_one(
            sender,
            (_CATCHUP_RESP, tuple(entries), self._highest_proposed, unordered),
        )

    def _on_catchup_response(
        self, entries: Tuple, frontier: int = 0, unordered: Tuple = ()
    ) -> None:
        for broadcast_id, payload in unordered:
            self._payloads.setdefault(broadcast_id, payload)
            if broadcast_id not in self._ordered and not self.has_delivered(broadcast_id):
                self._pending.add(broadcast_id)
        for k, proposer, broadcast_ids, payloads in entries:
            for broadcast_id, payload in payloads:
                self._payloads.setdefault(broadcast_id, payload)
            if k not in self._decisions:
                self._decisions[k] = (proposer, tuple(broadcast_ids))
                self._ordered.update(broadcast_ids)
                self._pending.difference_update(broadcast_ids)
        while self._last_decided + 1 in self._decisions:
            self._last_decided += 1
        # Proposals left in flight across the crash would pin their messages
        # forever (their instances were decided without us): release them and
        # rejoin the pipeline at the group's frontier.
        for k in list(self._inflight_proposals):
            if k <= self._last_decided:
                released = self._inflight_proposals.pop(k)
                self._claimed -= released
                self._pending.update(released - self._ordered)
        if self._highest_proposed < self._last_decided:
            self._highest_proposed = self._last_decided
        self._try_deliver()
        self._maybe_start_consensus(join_up_to=frontier)

    def _request_missing_payloads(self, broadcast_ids) -> None:
        """Ask the peers for payloads a decision references but we never got.

        Only armed after a recovery: in crash-free runs every payload arrives
        by reliable broadcast before (or shortly after) its decision, but a
        DATA multicast sent while this process was down is dropped and -- the
        origin being alive and trusted -- never relayed.  An instance that
        was still undecided when the catch-up responses were built can
        therefore decide later with payloads only this path can recover.
        """
        if not self._recovered_once:
            return
        missing = tuple(
            bid for bid in broadcast_ids if bid not in self._requested_payloads
        )
        if not missing:
            return
        self._requested_payloads.update(missing)
        others = [pid for pid in self.participants if pid != self.pid]
        if others:
            self.send(others, (_PAYLOAD_REQ, missing))

    def _on_payload_request(self, sender: int, broadcast_ids: Tuple) -> None:
        entries = tuple(
            (bid, self._payloads[bid]) for bid in broadcast_ids if bid in self._payloads
        )
        if entries:
            self.send_one(sender, (_PAYLOAD_RESP, entries))

    def _on_payload_response(self, entries: Tuple) -> None:
        for broadcast_id, payload in entries:
            self._payloads.setdefault(broadcast_id, payload)
        self._try_deliver()

    # ------------------------------------------------------------------ data dissemination

    def _on_rbcast_delivery(self, origin: int, rb_uid: Tuple[int, int], payload: Any) -> None:
        if not isinstance(payload, tuple) or not payload or payload[0] != _DATA_TAG:
            return
        _tag, broadcast_id, data = payload
        if broadcast_id in self._payloads:
            return
        self._payloads[broadcast_id] = data
        self._rb_uid_of[broadcast_id] = rb_uid
        if broadcast_id not in self._ordered and not self.has_delivered(broadcast_id):
            self._pending.add(broadcast_id)
        self._try_deliver()
        self._maybe_start_consensus()

    # ------------------------------------------------------------------ consensus plumbing

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
            if k > self._last_decided + PIPELINE_DEPTH:
                return
            fresh = self._unproposed_pending()
            need = bool(fresh) or k <= join_up_to
            need = need or self.consensus.has_buffered(self._cid(k))
            if not need:
                # An empty instance is still worth proposing when other
                # processes already started a later eligible instance:
                # consensus numbers must be exhausted in order.
                need = any(
                    self.consensus.has_buffered(self._cid(j))
                    for j in range(k + 1, self._last_decided + PIPELINE_DEPTH + 1)
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
            self.consensus_started += 1
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
        anchor = k - PIPELINE_DEPTH
        if anchor < 1 or anchor not in self._decisions:
            return self.participants
        return self._rotate_order(self._decisions[anchor][0])

    def _on_unknown_instance(self, cid: Hashable) -> None:
        if not isinstance(cid, tuple) or len(cid) != 2 or cid[0] != "ab":
            return
        if self._highest_proposed < cid[1] <= self._last_decided + PIPELINE_DEPTH:
            self._maybe_start_consensus()

    def _on_decision(self, cid: Hashable, value: Any) -> None:
        if not isinstance(cid, tuple) or len(cid) != 2 or cid[0] != "ab":
            return
        k = cid[1]
        proposer, broadcast_ids = value
        self._decisions[k] = (proposer, tuple(broadcast_ids))
        self._ordered.update(broadcast_ids)
        if self._obs is not None:
            # The decision fixes the message's place in the total order; the
            # instrumentation keeps only the earliest report per message.
            for broadcast_id in broadcast_ids:
                self._obs.abcast_sequenced(self.now, self.pid, broadcast_id)
        self._pending.difference_update(broadcast_ids)
        self._claimed.difference_update(self._inflight_proposals.pop(k, ()))
        while self._last_decided + 1 in self._decisions:
            self._last_decided += 1
        self._try_deliver()
        self._maybe_start_consensus()

    def _rotate_order(self, first: int) -> Tuple[int, ...]:
        if first not in self.participants:
            return self.participants
        index = self.participants.index(first)
        return self.participants[index:] + self.participants[:index]

    # ------------------------------------------------------------------ delivery

    def _try_deliver(self) -> None:
        while self._next_delivery in self._decisions:
            _proposer, broadcast_ids = self._decisions[self._next_delivery]
            missing = [bid for bid in broadcast_ids if bid not in self._payloads]
            if missing:
                # Wait for the payloads (they arrive by reliable broadcast; a
                # recovered process additionally re-requests ones whose DATA
                # was dropped while it was down); the delivery loop resumes
                # from _on_rbcast_delivery or _on_payload_response.
                self._request_missing_payloads(missing)
                return
            for broadcast_id in sorted(broadcast_ids):
                if self._deliver(broadcast_id, self._payloads[broadcast_id]):
                    rb_uid = self._rb_uid_of.get(broadcast_id)
                    if rb_uid is not None:
                        self.rbcast.mark_stable(rb_uid)
            self._next_delivery += 1
