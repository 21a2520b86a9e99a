"""The *GM algorithm*: fixed-sequencer uniform atomic broadcast.

Normal operation in a view (Fig. 1 of the paper):

1. the sender multicasts the message ``m`` to the members of the view;
2. the sequencer (the first member of the view) assigns a sequence number to
   ``m`` and multicasts it (``seqnum``);
3. every non-sequencer process that has both ``m`` and its sequence number
   acknowledges to the sequencer;
4. the sequencer waits for acknowledgements from a majority of the view,
   A-delivers ``m``, and multicasts a ``deliver`` message;
5. the other processes A-deliver ``m`` when they receive ``deliver``.

The ``seqnum``, ``ack`` and ``deliver`` messages carry *batches* of sequence
numbers: the sequencer orders, at once, every message that arrived while the
previous batch was in flight.  This is the aggregation mechanism the paper
highlights as essential under high load, and it makes the message pattern of
the GM algorithm identical to that of the FD algorithm in suspicion-free
runs.

Reconfiguration is delegated to :class:`repro.core.group_membership.GroupMembership`:
when a view change starts the broadcast layer freezes, hands over its
unstable messages, delivers the decided union before the new view is
installed, and restarts cleanly (resending its own not-yet-delivered
messages) in the new view.

The non-uniform variant discussed in Section 8 of the paper is available by
constructing the component with ``uniform=False``: processes then A-deliver
as soon as they know a message and its sequence number, skipping the
acknowledgement and deliver steps (two multicasts in total).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.group_membership import GroupMembership
from repro.core.log import FETCH, FETCHED, DecidedLog
from repro.core.types import PIPELINE_DEPTH, AtomicBroadcast, BroadcastID, View
from repro.sim.process import SimProcess

_DATA = "DATA"
_SEQ = "SEQ"
_ACK = "ACK"
_DELIVER = "DELIVER"


class SequencerAtomicBroadcast(AtomicBroadcast):
    """Fixed-sequencer atomic broadcast reconfigured by group membership.

    What a process keeps past a delivery is the decided log (:attr:`log`,
    complete, because a joiner fetches it from position 0) and the base
    class's delivery record.  A batch of the current view is *done* once it
    is delivered here and stable (acknowledged by every member).  Batches
    ``1 .. _done_batches`` are done; their entries, their messages' sequence
    numbers and their acks are dropped, since no rule asks about a done
    batch or its messages again.
    """

    protocol = "abcast"

    def __init__(
        self,
        process: SimProcess,
        membership: GroupMembership,
        uniform: bool = True,
    ) -> None:
        super().__init__(process)
        self.membership = membership
        self.uniform = uniform
        membership.set_broadcast_handler(self)

        #: The decided prefix: the ``k``-th delivered ``(id, payload)`` at
        #: position ``k``, the order every member of a view shares.  The hot
        #: paths read its payload dict directly.
        self.log = DecidedLog()
        self._payloads = self.log.payload_of
        # Messages this process A-broadcast and has not seen delivered yet;
        # they are (re)multicast whenever a new view is installed.
        self._own_pending: Dict[BroadcastID, Any] = {}
        self._future: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}

        # Per-view state.  Messages are tagged with the totally ordered view
        # identity (epoch, view_id), so views of different reformation epochs
        # can never be confused even when their view_id values collide.
        self._reset_view_state(membership.view)

    # ------------------------------------------------------------------ helpers

    def _reset_view_state(self, view: View) -> None:
        self._view_id = view.vid
        # What the handlers ask of the view on every message, derived once.
        self._members = view.members
        self._member_set = frozenset(view.members)
        self._others = tuple(m for m in view.members if m != self.pid)
        self._sequencer = view.sequencer
        # Handlers only run for members (``on_message`` gates on it), so the
        # role in the view is all they need to know.
        self._is_sequencer = view.sequencer == self.pid
        self._majority = view.majority()
        self._frozen = False
        self._seq_counter = 0
        self._batch_counter = 0
        self._unsequenced: List[BroadcastID] = []
        self._outstanding: Set[int] = set()
        self._ready_batches: Set[int] = set()
        self._next_batch_to_complete = 1
        self._batch_entries: Dict[int, Tuple[Tuple[int, BroadcastID], ...]] = {}
        self._batch_acks: Dict[int, Set[int]] = {}
        self._deliverable: Set[int] = set()
        # Batches of ``_batch_entries`` this process still has to acknowledge:
        # filled by ``_on_seq``, drained on ACK.  A set, not a cursor -- a
        # batch waiting for a retransmitted payload is overtaken by later
        # ones.  The sequencer never acknowledges and never fills it.
        self._unacked_batches: Set[int] = set()
        self._next_batch_to_deliver = 1
        self._assignments: Dict[BroadcastID, int] = {}
        self._unstable: Dict[BroadcastID, Optional[int]] = {}
        self._stable_watermark = 0
        # Batches ``1 .. _done_batches`` are delivered here and stable.
        self._done_batches = 0
        # Ids ``_on_data`` put back into ``_unstable`` after their batch went
        # stable; the next stability update drops them again.
        self._restabilize: List[BroadcastID] = []
        self._batch_of: Dict[BroadcastID, int] = {}
        self.log.requested.clear()

    def _operational(self) -> bool:
        return self.membership.is_member() and not self._frozen

    # ------------------------------------------------------------------ API

    def broadcast(self, payload: Any) -> BroadcastID:
        """A-broadcast ``payload`` to the group."""
        broadcast_id = self._next_broadcast_id()
        self._notify_broadcast(broadcast_id, payload)
        self._payloads[broadcast_id] = payload
        self._own_pending[broadcast_id] = payload
        if self._operational():
            self.send(self._members, (_DATA, self._view_id, broadcast_id, payload))
        # Otherwise the message is buffered and multicast when the next view
        # is installed (or when this process rejoins the group).
        return broadcast_id

    # ------------------------------------------------------------------ message dispatch

    def on_message(self, sender: int, body: Any) -> None:
        """Dispatch a sequencer-broadcast protocol message."""
        kind = body[0]
        view_id = body[1]
        if kind == _DATA:
            # Payloads are always worth recording, whatever the view.
            self._record_payload(body[2], body[3])
        if view_id > self._view_id:
            self._future.setdefault(view_id, []).append((sender, body))
            return
        if view_id < self._view_id:
            if sender not in self._member_set:
                self.membership.report_stale_sender(sender, view_id)
            return
        if not self.membership.is_member():
            return
        if self._frozen and kind in (_SEQ, _ACK, _DELIVER):
            # During a view change the protocol is frozen; everything is
            # reconciled through the view-change delivery set.
            return

        if kind == _DATA:
            self._on_data(sender, body[2], body[3])
        elif kind == _SEQ:
            self._on_seq(sender, body[2], body[3], body[4])
        elif kind == _ACK:
            self._on_ack(sender, body[2])
        elif kind == _DELIVER:
            self._on_deliver(sender, body[2], body[3])
        elif kind == FETCH:
            payloads = self.log.payloads(body[3])
            if payloads:
                self.send_one(sender, (FETCHED, self._view_id, (), payloads))
        elif kind == FETCHED:
            self.log.merge(body[3])
            self._try_ack_known_batches()
            self._try_deliver_batches()
        else:
            raise ValueError(f"unexpected sequencer broadcast message {kind!r}")

    # ------------------------------------------------------------------ data / sequencing

    def _record_payload(self, broadcast_id: BroadcastID, payload: Any) -> None:
        if payload is None:
            return
        if broadcast_id not in self._payloads:
            self._payloads[broadcast_id] = payload

    def _on_data(self, sender: int, broadcast_id: BroadcastID, payload: Any) -> None:
        # ``on_message`` recorded the payload already, whatever the view.
        if broadcast_id not in self._unstable and not self.has_delivered(broadcast_id):
            seqnum = self._assignments.get(broadcast_id)
            self._unstable[broadcast_id] = seqnum
            if seqnum is not None and self._batch_of[broadcast_id] <= self._stable_watermark:
                self._restabilize.append(broadcast_id)
        if self._is_sequencer:
            if (
                broadcast_id not in self._assignments
                and not self.has_delivered(broadcast_id)
                and broadcast_id not in self._unsequenced
            ):
                self._unsequenced.append(broadcast_id)
            self._maybe_start_batch()
        else:
            # A payload that was missing for a known batch may now unblock an
            # acknowledgement or a delivery.
            self._try_ack_known_batches()
            self._try_deliver_batches()

    def _maybe_start_batch(self) -> None:
        if not self._is_sequencer or not self._operational():
            return
        if self.uniform and len(self._outstanding) >= PIPELINE_DEPTH:
            return
        if not self._unsequenced:
            return
        self._batch_counter += 1
        batch_id = self._batch_counter
        entries = []
        for broadcast_id in self._unsequenced:
            self._seq_counter += 1
            entries.append((self._seq_counter, broadcast_id))
            self._assignments[broadcast_id] = self._seq_counter
            self._unstable[broadcast_id] = self._seq_counter
            self._batch_of[broadcast_id] = batch_id
            if self._obs is not None:
                self._obs.abcast_sequenced(self.now, self.pid, broadcast_id)
        self._unsequenced = []
        entries = tuple(entries)
        if self._obs is not None:
            self._obs.observe("abcast.batch_size", len(entries))
        self._batch_entries[batch_id] = entries
        if self.uniform:
            self._batch_acks[batch_id] = {self.pid}
        if self._others:
            self.send(
                self._others, (_SEQ, self._view_id, batch_id, entries, self._stable_watermark)
            )
        if self.uniform:
            self._outstanding.add(batch_id)
            self._maybe_complete_batch(batch_id)
        else:
            # Non-uniform variant: deliver as soon as the order is fixed.
            self._deliver_batch(batch_id)
            self._maybe_start_batch()

    def _on_seq(
        self,
        sender: int,
        batch_id: int,
        entries: Tuple[Tuple[int, BroadcastID], ...],
        watermark: int,
    ) -> None:
        if sender != self._sequencer:
            return
        if batch_id > self._done_batches and batch_id not in self._batch_entries:
            self._batch_entries[batch_id] = tuple(entries)
            if self.uniform:
                self._unacked_batches.add(batch_id)
            for seqnum, broadcast_id in entries:
                self._assignments[broadcast_id] = seqnum
                self._batch_of[broadcast_id] = batch_id
                if self._obs is not None:
                    self._obs.abcast_sequenced(self.now, self.pid, broadcast_id)
                if not self.has_delivered(broadcast_id):
                    self._unstable[broadcast_id] = seqnum
        self._apply_stability(watermark)
        if self.uniform:
            self._try_ack_known_batches()
        else:
            self._deliverable.add(batch_id)
            self._try_deliver_batches()

    def _try_ack_known_batches(self) -> None:
        if not self._unacked_batches or not self._operational():
            return
        for batch_id in sorted(self._unacked_batches):
            entries = self._batch_entries[batch_id]
            missing = [bid for _seq, bid in entries if bid not in self._payloads]
            if missing:
                self._request_retransmit(missing)
                continue
            self._unacked_batches.discard(batch_id)
            self.send_one(self._sequencer, (_ACK, self._view_id, batch_id))

    def _on_ack(self, sender: int, batch_id: int) -> None:
        if not self._is_sequencer:
            return
        if batch_id > self._done_batches:
            self._batch_acks.setdefault(batch_id, set()).add(sender)
        self._update_stability()
        self._maybe_complete_batch(batch_id)

    def _maybe_complete_batch(self, batch_id: int) -> None:
        if not self.uniform or batch_id not in self._outstanding:
            return
        acks = self._batch_acks.get(batch_id, ())
        if len(self._member_set.intersection(acks)) < self._majority:
            return
        self._ready_batches.add(batch_id)
        # Batches are completed strictly in order so that every process
        # A-delivers in the sequence-number order.
        while self._next_batch_to_complete in self._ready_batches:
            completing = self._next_batch_to_complete
            self._deliver_batch(completing)
            if self._others:
                self.send(
                    self._others, (_DELIVER, self._view_id, completing, self._stable_watermark)
                )
            self._outstanding.discard(completing)
            self._ready_batches.discard(completing)
            self._next_batch_to_complete += 1
        if self._stable_watermark > self._done_batches:
            self._drop_done_batches()
        self._maybe_start_batch()

    def _on_deliver(self, sender: int, batch_id: int, watermark: int) -> None:
        if sender != self._sequencer:
            return
        self._deliverable.add(batch_id)
        self._apply_stability(watermark)
        self._try_deliver_batches()

    # ------------------------------------------------------------------ delivery

    def _deliver_batch(self, batch_id: int) -> None:
        entries = self._batch_entries.get(batch_id, ())
        for _seqnum, broadcast_id in sorted(entries):
            payload = self._payloads.get(broadcast_id)
            self._deliver_message(broadcast_id, payload)

    def _try_deliver_batches(self) -> None:
        if self._is_sequencer and self.uniform:
            # The sequencer delivers through _maybe_complete_batch.
            return
        while True:
            batch_id = self._next_batch_to_deliver
            if batch_id not in self._deliverable or batch_id not in self._batch_entries:
                return
            entries = self._batch_entries[batch_id]
            missing = [bid for _seq, bid in entries if bid not in self._payloads]
            if missing:
                self._request_retransmit(missing)
                return
            self._deliver_batch(batch_id)
            self._next_batch_to_deliver = batch_id + 1
            if batch_id <= self._stable_watermark:
                self._drop_done_batches()

    def _deliver_message(self, broadcast_id: BroadcastID, payload: Any) -> None:
        if self._deliver(broadcast_id, payload):
            self._own_pending.pop(broadcast_id, None)
            log = self.log
            log.length += 1
            log.batches[log.length] = self.delivered[-1]

    # ------------------------------------------------------------------ retransmissions

    def _request_retransmit(self, broadcast_ids: Iterable[BroadcastID]) -> None:
        if self._is_sequencer:
            return
        missing = self.log.unrequested(broadcast_ids)
        if missing:
            self.send_one(self._sequencer, (FETCH, self._view_id, None, missing))

    # ------------------------------------------------------------------ stability

    def _update_stability(self) -> None:
        """Advance the stable watermark: batches acknowledged by all members."""
        watermark = self._stable_watermark
        while True:
            next_batch = watermark + 1
            if next_batch not in self._batch_entries:
                break
            if not self._member_set.issubset(self._batch_acks.get(next_batch, ())):
                break
            watermark = next_batch
        if watermark != self._stable_watermark:
            self._apply_stability(watermark)

    def _apply_stability(self, watermark: int) -> None:
        """Drop from ``_unstable`` what the batches up to ``watermark`` ordered.

        Only the batches the watermark newly covers are walked: a batch is
        stable once every member acknowledged it, this process included, so
        its entries are always known here.
        """
        if watermark <= 0:
            return
        unstable = self._unstable
        if self._restabilize:
            for broadcast_id in self._restabilize:
                unstable.pop(broadcast_id, None)
            self._restabilize = []
        first = self._stable_watermark + 1
        for batch_id in range(first, watermark + 1):
            for _seqnum, broadcast_id in self._batch_entries[batch_id]:
                unstable.pop(broadcast_id, None)
            self._stable_watermark = batch_id
        if watermark >= first:
            self._drop_done_batches()

    def _drop_done_batches(self) -> None:
        """Forget the batches that became done: delivered here and stable.

        Every message of a done batch is delivered, so the checks that
        consult ``_assignments`` and ``_batch_of`` skip it on the delivery
        record; a duplicate SEQ of a done batch is recognised by its number;
        a late ack of one is no longer counted.
        """
        delivered = (
            self._next_batch_to_complete if self._is_sequencer else self._next_batch_to_deliver
        ) - 1
        done = min(delivered, self._stable_watermark)
        for batch_id in range(self._done_batches + 1, done + 1):
            for _seqnum, broadcast_id in self._batch_entries.pop(batch_id):
                self._assignments.pop(broadcast_id, None)
                self._batch_of.pop(broadcast_id, None)
            self._batch_acks.pop(batch_id, None)
            self._deliverable.discard(batch_id)
            self._done_batches = batch_id

    # ------------------------------------------------------------------ group membership hooks

    def collect_unstable(self) -> Tuple[Tuple[BroadcastID, Any, Optional[int]], ...]:
        """Unstable messages of the current view, as (id, payload, seqnum).

        A message whose payload is unknown here is never advertised.
        """
        payloads = self._payloads
        return tuple(
            (broadcast_id, payloads[broadcast_id], seqnum)
            for broadcast_id, seqnum in sorted(self._unstable.items())
            if payloads.get(broadcast_id) is not None
        )

    def on_view_change_started(self) -> None:
        """Freeze normal operation while the view change runs."""
        self._frozen = True

    def on_member_recovered(self) -> None:
        """Re-advertise acknowledged-but-undelivered messages after a crash.

        A batch becomes stable once *every* member acknowledged it, and
        stability removes its messages from all unstable sets.  A process
        that acknowledged a batch and then crashed before the corresponding
        DELIVER arrived therefore holds sequenced messages that are in
        nobody's unstable set: without this hook its resync view change
        would decide a union missing them and its delivery log would resume
        mid-sequence.  Having acknowledged, the process knows the payload
        and sequence number locally, so putting them back into its own
        unstable set is enough for the SYNC it is about to send to cover
        the gap.  The group membership layer calls this on recovery, before
        it collects this layer's unstable set for the resync SYNC.
        """
        for broadcast_id, seqnum in self._assignments.items():
            if (
                broadcast_id not in self._unstable
                and broadcast_id in self._payloads
                and not self.has_delivered(broadcast_id)
            ):
                self._unstable[broadcast_id] = seqnum

    def deliver_view_change(self, entries: Tuple) -> None:
        """Deliver the decided union of unstable messages (view synchrony).

        The union also covers crash-recovered members: a recovered process
        freezes this layer before any post-recovery stability update can
        reach it, so everything it missed while down is either still in
        some member's advertised unstable set or -- if it acknowledged the
        batch itself before crashing -- re-added to its own unstable set by
        :meth:`on_member_recovered` before the resync SYNC goes out.
        Nothing it has not delivered can have left every sync.

        A joiner applies the decided log it fetched the same way, each
        entry's position standing in for its sequence number.
        """
        # Sequenced entries first, in sequence order, then the unsequenced
        # ones; ties go by id, the order the entries arrive in.
        order = sorted(entries, key=lambda entry: (entry[2] is None, entry[2] or 0, entry[0]))
        for broadcast_id, payload, _seqnum in order:
            self._record_payload(broadcast_id, payload)
            known_payload = self._payloads.get(broadcast_id, payload)
            if known_payload is None:
                continue
            self._deliver_message(broadcast_id, known_payload)

    def on_view_installed(self, view: View) -> None:
        """Reset the per-view protocol state and restart in ``view``."""
        self._reset_view_state(view)
        # Re-multicast our own messages that are not delivered yet: they may
        # have been lost in the view change (or never sent if we were frozen
        # or excluded when they were A-broadcast).
        if self.membership.is_member():
            for broadcast_id, payload in sorted(self._own_pending.items()):
                self.send(view.members, (_DATA, self._view_id, broadcast_id, payload))
        self._replay_future(view.vid)

    def _replay_future(self, view_id: Tuple[int, int]) -> None:
        for sender, body in self._future.pop(view_id, []):
            self.on_message(sender, body)
