"""Chandra-Toueg rotating-coordinator consensus for failure detector ``<>S``.

The implementation follows the original algorithm with the "easy
optimisations" the paper mentions:

* **Round 1 skips the estimate phase.**  The round-1 coordinator proposes its
  own initial value directly, so a suspicion-free execution costs one
  multicast (the proposal), ``n - 1`` unicast acknowledgements and one
  multicast decision -- exactly the pattern of Fig. 1.
* **Lazy round progression.**  After acknowledging a proposal, a process
  waits for the decision instead of eagerly moving to the next round; it only
  advances when it suspects the current coordinator or when it receives a
  message of a higher round (catch-up rule).  This removes the superfluous
  estimate messages from failure-free runs while preserving liveness.

Several consensus instances can be in progress at the same time; they are
identified by an opaque, hashable *consensus id* (``cid``).  Decisions are
disseminated with reliable broadcast, as in the paper.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.reliable_broadcast import ReliableBroadcast
from repro.sim.process import Component, SimProcess

DecisionListener = Callable[[Hashable, Any], None]
UnknownInstanceListener = Callable[[Hashable], None]

_ESTIMATE = "ESTIMATE"
_PROPOSE = "PROPOSE"
_ACK = "ACK"
_NACK = "NACK"
_RESYNC = "CONS_RESYNC"
_DECIDE_TAG = "CONS_DECIDE"

# Shared read-only stand-ins for an instance's per-round containers: one
# instance runs per ordered batch per process and most never leave round 1,
# so each container is only created by the first write to it.
_NO_ROUNDS: frozenset = frozenset()
_NO_ENTRIES: Mapping = MappingProxyType({})


class ConsensusInstance:
    """One execution of the Chandra-Toueg consensus algorithm."""

    __slots__ = (
        "service", "cid", "participants", "order", "majority", "pid",
        "estimate", "ts", "round", "_round_coordinator", "decided",
        "_acked_round", "_nacked_round", "_estimates", "_acks", "_nacks",
        "_proposal_value", "_future", "_abandon_recheck_round", "rounds_executed",
        "abandoned_nacked", "abandoned_silent", "rounds_skipped", "started_at", "decided_at",
    )

    def __init__(
        self,
        service: "ConsensusService",
        cid: Hashable,
        value: Any,
        participants: Sequence[int],
        coordinator_order: Optional[Sequence[int]] = None,
    ) -> None:
        self.service = service
        self.cid = cid
        self.participants: Tuple[int, ...] = tuple(participants)
        self.order: Tuple[int, ...] = (
            tuple(coordinator_order) if coordinator_order is not None else self.participants
        )
        if set(self.order) != set(self.participants):
            raise ValueError("coordinator_order must be a permutation of participants")
        self.majority = len(self.participants) // 2 + 1
        self.pid = service.pid

        self.estimate = value
        self.ts = 0
        self.round = 0
        # Coordinator of the current round, maintained by ``_enter_round``;
        # every suspicion flip and every current-round message reads it, so
        # it is cached instead of recomputed from the rotation.
        self._round_coordinator = self.order[-1]
        self.decided = False

        # Rounds this process acknowledged / refused the proposal of.
        self._acked_round = self._nacked_round = _NO_ROUNDS
        # Per round: estimates, acks and nacks received as its coordinator,
        # the value proposed in it (its keys are the rounds proposed in), and
        # messages of rounds not entered yet.
        self._estimates = self._acks = self._nacks = _NO_ENTRIES
        self._proposal_value = self._future = _NO_ENTRIES
        # The latest round with an abandon recheck pending (rounds only grow,
        # so earlier ones are never asked about again); 0 = none.
        self._abandon_recheck_round = 0
        #: Diagnostics (plain counters, no event): rounds entered; rounds
        #: abandoned on nacks alone, or on nacks plus suspected silent
        #: processes after ``abandon_grace``; rounds the catch-up rule jumped
        #: over; and when the instance was created and decided.
        self.rounds_executed = 0
        self.abandoned_nacked = self.abandoned_silent = self.rounds_skipped = 0
        self.started_at = service.sim.now
        self.decided_at: Optional[float] = None

    # ------------------------------------------------------------------ helpers

    def coordinator_of(self, round_number: int) -> int:
        """The coordinator of ``round_number`` (rotating over ``order``)."""
        return self.order[(round_number - 1) % len(self.order)]

    def _others(self) -> List[int]:
        return [pid for pid in self.participants if pid != self.pid]

    def _suspects(self, pid: int) -> bool:
        return self.service.process.failure_detector.is_suspected(pid)

    def _send(self, destination: int, body: Any) -> None:
        self.service.send_one(destination, body)

    def _multicast(self, destinations: Sequence[int], body: Any) -> None:
        if destinations:
            self.service.send(list(destinations), body)

    def _send_nack(self, coordinator: int, round_number: int) -> None:
        """Refuse ``round_number``: its proposal will never be acknowledged."""
        self._send(coordinator, (_NACK, self.cid, round_number))
        if self._nacked_round is _NO_ROUNDS:
            self._nacked_round = set()
        self._nacked_round.add(round_number)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Enter round 1 (called once, right after construction)."""
        self._enter_round(1)

    def _enter_round(self, round_number: int) -> None:
        while True:
            if self.decided:
                return
            self.round = round_number
            self.rounds_executed += 1
            if self.service._obs is not None:
                self.service._obs.consensus_round(
                    self.service.now, self.pid, self.cid, round_number
                )
            coordinator = self.coordinator_of(round_number)
            self._round_coordinator = coordinator

            if coordinator == self.pid:
                self._run_coordinator_round(round_number)
                self._replay_future(round_number)
                return

            # Non-coordinator: send the estimate (rounds > 1), then wait for the
            # proposal unless the coordinator is already suspected.
            if round_number > 1:
                self._send(coordinator, (_ESTIMATE, self.cid, round_number, self.estimate, self.ts))
            if self._suspects(coordinator):
                self._send_nack(coordinator, round_number)
                round_number += 1
                continue
            self._replay_future(round_number)
            return

    def _run_coordinator_round(self, round_number: int) -> None:
        if round_number == 1:
            # Optimisation: the round-1 coordinator proposes its own value.
            self._send_proposal(round_number, self.estimate)
        else:
            self._record_estimate(round_number, self.pid, self.ts, self.estimate)

    def _record_estimate(self, round_number: int, sender: int, ts: int, estimate: Any) -> None:
        """Keep the first estimate of ``sender`` for a round this process coordinates."""
        if self._estimates is _NO_ENTRIES:
            self._estimates = {}
        self._estimates.setdefault(round_number, {}).setdefault(sender, (ts, estimate))
        self._maybe_propose(round_number)

    def _replay_future(self, round_number: int) -> None:
        if round_number in self._future:
            for sender, body in self._future.pop(round_number):
                self._process_current(sender, body)

    # ------------------------------------------------------------------ messages

    def handle(self, sender: int, body: Any) -> None:
        """Dispatch one consensus message belonging to this instance."""
        if self.decided:
            return
        if body[0] == _RESYNC:
            self._on_resync(sender)
            return
        round_number = body[2]
        if round_number < self.round:
            self._handle_old_round(sender, body)
            return
        if round_number > self.round:
            # Catch-up rule: jump forward only when the message proves that a
            # higher round is actively progressing and needs us -- a proposal
            # (we should acknowledge it) or an estimate addressed to us as the
            # coordinator of that round (we should drive it).  Reacting to any
            # other higher-round message would let every wrong suspicion made
            # by any process drag the whole system forward and livelock the
            # instance under frequent mistakes.
            if self._future is _NO_ENTRIES:
                self._future = {}
            self._future.setdefault(round_number, []).append((sender, body))
            kind = body[0]
            if kind == _PROPOSE or (
                kind == _ESTIMATE and self.coordinator_of(round_number) == self.pid
            ):
                self._skip_rounds(self.round + 1, round_number)
                self._enter_round(round_number)
            return
        self._process_current(sender, body)

    def _skip_rounds(self, first: int, limit: int) -> None:
        """Feed the coordinators of rounds the catch-up rule jumps over.

        Jumping from round ``r`` straight to ``r' > r + 1`` must not starve
        the coordinators of the rounds in between: each of them may already
        be parked in its own round waiting for a majority of estimates, and
        a process never suspects itself, so no failure detector event can
        ever unpark it -- three processes parked as the coordinators of
        three different rounds deadlock the instance permanently.  Send each
        skipped coordinator what a sequential pass through ``_enter_round``
        would have sent -- our estimate, plus the nack that records that we
        jumped past the round and will never acknowledge its proposal.
        """
        self.rounds_skipped += limit - first
        for round_number in range(first, limit):
            coordinator = self.coordinator_of(round_number)
            if coordinator == self.pid:
                continue
            self._send(
                coordinator, (_ESTIMATE, self.cid, round_number, self.estimate, self.ts)
            )
            self._send_nack(coordinator, round_number)

    def _handle_old_round(self, sender: int, body: Any) -> None:
        kind, _cid, round_number = body[0], body[1], body[2]
        if kind == _PROPOSE:
            # Help the stale coordinator move on.
            self._send(sender, (_NACK, self.cid, round_number))

    def _process_current(self, sender: int, body: Any) -> None:
        if self.decided:
            return
        kind = body[0]
        round_number = body[2]
        if round_number != self.round:
            return
        coordinator = self._round_coordinator

        if kind == _ESTIMATE:
            if coordinator != self.pid:
                return
            self._record_estimate(round_number, sender, body[4], body[3])
        elif kind == _PROPOSE:
            if sender != coordinator or coordinator == self.pid:
                return
            value = body[3]
            if round_number in self._acked_round:
                # Duplicate proposal: a crash-recovered coordinator
                # re-multicast it because the original round may have been
                # cut short -- repeat the acknowledgement, ours may be the
                # missing one.
                self._send(coordinator, (_ACK, self.cid, round_number))
                return
            if round_number in self._nacked_round:
                return
            self.estimate = value
            self.ts = round_number
            if self._acked_round is _NO_ROUNDS:
                self._acked_round = set()
            self._acked_round.add(round_number)
            self._send(coordinator, (_ACK, self.cid, round_number))
        elif kind == _ACK:
            if coordinator != self.pid:
                return
            self._record_ack(round_number, sender)
        elif kind == _NACK:
            if coordinator != self.pid:
                return
            if self._nacks is _NO_ENTRIES:
                self._nacks = {}
            self._nacks.setdefault(round_number, set()).add(sender)
            if round_number in self._proposal_value:
                self._maybe_abandon_round(round_number)
            else:
                self._maybe_propose(round_number)

    # ------------------------------------------------------------------ coordinator

    def _maybe_propose(self, round_number: int) -> None:
        if round_number in self._proposal_value or self.decided:
            return
        estimates = self._estimates.get(round_number, ())
        if len(estimates) < self.majority:
            return
        # Adopt the estimate with the highest timestamp (deterministic
        # tie-break on the sender id for reproducibility).
        best_sender = max(estimates, key=lambda sender: (estimates[sender][0], -sender))
        value = estimates[best_sender][1]
        self._send_proposal(round_number, value)

    def _send_proposal(self, round_number: int, value: Any) -> None:
        if self._proposal_value is _NO_ENTRIES:
            self._proposal_value = {}
        self._proposal_value[round_number] = value
        self.estimate = value
        self.ts = round_number
        self._multicast(self._others(), (_PROPOSE, self.cid, round_number, value))
        self._record_ack(round_number, self.pid)

    def _record_ack(self, round_number: int, sender: int) -> None:
        if self._acks is _NO_ENTRIES:
            self._acks = {}
        self._acks.setdefault(round_number, set()).add(sender)
        self._maybe_decide(round_number)

    def _maybe_decide(self, round_number: int) -> None:
        if self.decided or round_number not in self._proposal_value:
            return
        if len(self._acks.get(round_number, ())) >= self.majority:
            self.service._local_decision(self.cid, self._proposal_value[round_number])

    def _maybe_abandon_round(self, round_number: int, deferred: bool = False) -> None:
        """Give up the round only once a majority of acks became impossible.

        A single wrong suspicion (hence a single nack) must not abort the
        round: the coordinator can still decide with the acknowledgements of
        the processes that did not suspect it.  The round is abandoned when

        * the explicit nacks alone rule out a majority of acks, or
        * the nacks plus the *suspected* silent processes rule it out and the
          situation persists for a short grace period (so that an
          instantaneous wrong suspicion of a process whose ack is still in
          flight does not needlessly abort the round -- that was observed to
          livelock the algorithm under very frequent mistakes).
        """
        if self.decided or self.round != round_number:
            return
        if round_number not in self._proposal_value:
            return
        acks = self._acks.get(round_number, ())
        if len(acks) >= self.majority:
            return
        nacks = self._nacks.get(round_number, ())
        silent = [
            pid for pid in self.participants if pid not in acks and pid not in nacks
        ]
        if len(acks) + len(silent) < self.majority:
            # Explicit refusals alone make the round hopeless.
            self.abandoned_nacked += 1
            self._enter_round(round_number + 1)
            return
        suspected = self.service.process.failure_detector._suspected
        trusted_silent = [pid for pid in silent if pid not in suspected]
        if len(acks) + len(trusted_silent) >= self.majority:
            return
        if deferred:
            self.abandoned_silent += 1
            self._enter_round(round_number + 1)
            return
        if round_number != self._abandon_recheck_round:
            self._abandon_recheck_round = round_number
            self.service.set_timer(
                self.service.abandon_grace, self._recheck_abandon, round_number
            )

    def _recheck_abandon(self, round_number: int) -> None:
        if round_number == self._abandon_recheck_round:
            self._abandon_recheck_round = 0
        if not self.decided and self.round == round_number:
            self._maybe_abandon_round(round_number, deferred=True)

    # ------------------------------------------------------------------ recovery

    def resync_after_recovery(self) -> None:
        """Re-stimulate this instance after the local process recovered.

        Messages exchanged while the process was down were dropped, so the
        instance may be mutually blocked: a coordinator waiting for lost
        acknowledgements, or this process waiting for a proposal that was
        multicast while it could not receive.  A RESYNC multicast asks every
        participant to repeat the messages it addressed to this process
        (estimates/acks/nacks for rounds this process coordinates, its
        current proposal if it is a coordinator itself -- see
        :meth:`_on_resync`); then a coordinator re-multicasts its pending
        proposal (receivers acknowledge duplicates) and a non-coordinator
        abandons the current round exactly as if it suspected the
        coordinator, re-entering the rotation with fresh messages.
        """
        if self.decided:
            return
        self._multicast(self._others(), (_RESYNC, self.cid, self.round))
        round_number = self.round
        coordinator = self.coordinator_of(round_number)
        if coordinator == self.pid:
            if round_number in self._proposal_value:
                self._multicast(
                    self._others(),
                    (_PROPOSE, self.cid, round_number, self._proposal_value[round_number]),
                )
            # Otherwise this process coordinates a round whose estimates
            # were dropped while it was down (it may even have entered the
            # round while down, through the clock-driven failure detector's
            # listeners).  The peers parked in this round can only be
            # unparked by our proposal, so abandoning it would deadlock
            # them; the RESYNC repeats bring the estimates (and the nacks
            # of peers that already moved past the round), after which the
            # normal propose/abandon rules resume.
            return
        self.on_suspicion_change(coordinator, True)

    def _on_resync(self, sender: int) -> None:
        """Repeat, for a crash-recovered ``sender``, the messages it missed.

        Everything this process previously addressed to ``sender`` may have
        been dropped while it was down, and none of it is ever re-sent on
        the normal paths (estimates and nacks are sent exactly once per
        round).  Without the repeats the instance can deadlock with every
        alive participant parked: e.g. the recovered process as the
        coordinator of round ``r`` waiting for estimates that were dropped,
        their senders waiting for its proposal, and no failure detector
        event ever unparking anyone because all of them are alive.  All the
        repeated messages are idempotent on the receiving side.
        """
        if self.decided:
            return
        for round_number in range(1, self.round + 1):
            if self.coordinator_of(round_number) != sender:
                continue
            if round_number > 1:
                self._send(
                    sender, (_ESTIMATE, self.cid, round_number, self.estimate, self.ts)
                )
            if round_number in self._acked_round:
                self._send(sender, (_ACK, self.cid, round_number))
            if round_number in self._nacked_round:
                self._send(sender, (_NACK, self.cid, round_number))
        if (
            self.coordinator_of(self.round) == self.pid
            and self.round in self._proposal_value
        ):
            self._send(
                sender,
                (_PROPOSE, self.cid, self.round, self._proposal_value[self.round]),
            )

    # ------------------------------------------------------------------ suspicions

    def on_suspicion_change(self, pid: int, suspected: bool) -> None:
        """React to the failure detector suspecting/trusting ``pid``."""
        if self.decided or not suspected:
            return
        round_number = self.round
        coordinator = self._round_coordinator
        if coordinator == self.pid:
            # The coordinator re-evaluates whether the round can still
            # succeed when one of the processes it waits for gets suspected.
            self._maybe_abandon_round(round_number)
            return
        if pid != coordinator:
            return
        if round_number not in self._acked_round and round_number not in self._nacked_round:
            self._send_nack(coordinator, round_number)
        self._enter_round(round_number + 1)

    # ------------------------------------------------------------------ decision

    def mark_decided(self) -> None:
        """Record that this instance has decided (set by the service)."""
        self.decided = True
        self.decided_at = self.service.sim.now
        self._future = _NO_ENTRIES


class ConsensusService(Component):
    """Hosts consensus instances and routes their messages (protocol ``"consensus"``).

    Instances are created by :meth:`propose`.  Messages that arrive for an
    instance the local process has not proposed in yet are buffered and
    replayed once :meth:`propose` is called; decisions are processed
    immediately in all cases because they are carried by reliable broadcast.
    """

    protocol = "consensus"

    def __init__(self, process: SimProcess, rbcast: ReliableBroadcast) -> None:
        super().__init__(process)
        self.rbcast = rbcast
        network_config = process.network.config
        #: Grace period before a coordinator abandons a round that is blocked
        #: only by suspicions (roughly one acknowledgement round-trip).
        self.abandon_grace = 2 * (2 * network_config.lambda_cpu + network_config.network_time) + 2.0
        self._instances: Dict[Hashable, ConsensusInstance] = {}
        # Undecided subset of ``_instances``, maintained on creation and
        # decision: the suspicion sweep runs once per new suspicion (hot
        # under frequent wrong suspicions) and must not walk the full,
        # ever-growing instance history.
        self._undecided: Dict[Hashable, ConsensusInstance] = {}
        self._buffered: Dict[Hashable, List[Tuple[int, Any]]] = {}
        self._decisions: Dict[Hashable, Any] = {}
        self._decision_listeners: List[DecisionListener] = []
        self._unknown_listeners: List[UnknownInstanceListener] = []
        rbcast.add_listener(self._on_rbcast_delivery)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Subscribe to the local failure detector."""
        self.process.failure_detector.add_listener(self._on_suspicion_change)

    def on_recover(self) -> None:
        """Re-stimulate every undecided instance after a crash recovery."""
        for instance in list(self._undecided.values()):
            instance.resync_after_recovery()

    # ------------------------------------------------------------------ API

    def add_decision_listener(self, listener: DecisionListener) -> None:
        """Subscribe to decisions: ``listener(cid, value)``, once per instance."""
        self._decision_listeners.append(listener)

    def add_unknown_instance_listener(self, listener: UnknownInstanceListener) -> None:
        """Subscribe to first contact with instances not yet proposed locally."""
        self._unknown_listeners.append(listener)

    def propose(
        self,
        cid: Hashable,
        value: Any,
        participants: Optional[Sequence[int]] = None,
        coordinator_order: Optional[Sequence[int]] = None,
    ) -> ConsensusInstance:
        """Propose ``value`` in instance ``cid`` and start participating in it.

        ``participants`` defaults to the **full static process set** (ids
        ``0 .. n-1``): an instance scoped that way is decidable by any
        majority of all processes, independent of the views a group
        membership layer above may have installed -- what group reformation
        needs once the installed view has lost its majority.
        """
        if participants is None:
            participants = range(self.process.network.n)
        if cid in self._instances:
            return self._instances[cid]
        instance = ConsensusInstance(self, cid, value, participants, coordinator_order)
        self._instances[cid] = instance
        if self._obs is not None:
            self._obs.consensus_started(self.now, self.pid, cid)
        if cid in self._decisions:
            instance.mark_decided()
            return instance
        self._undecided[cid] = instance
        instance.start()
        for sender, body in self._buffered.pop(cid, []):
            if not instance.decided:
                instance.handle(sender, body)
        return instance

    def has_buffered(self, cid: Hashable) -> bool:
        """Whether messages are waiting for a local :meth:`propose` of ``cid``."""
        return cid in self._buffered

    def counters(self) -> Dict[str, float]:
        """The instances' diagnostic counters, summed over this process.

        ``rounds`` sums the instances' ``rounds_executed``; ``decisions``
        counts the instances that entered a round and decided, and
        ``decision_ms`` is their summed time from creation to decision;
        ``open`` counts the ones that entered a round and did not decide.
        """
        totals = dict.fromkeys(
            ("rounds", "abandoned_nacked", "abandoned_silent", "rounds_skipped",
             "decisions", "decision_ms", "open"), 0,
        )
        for instance in self._instances.values():
            if not instance.rounds_executed:
                continue
            totals["rounds"] += instance.rounds_executed
            totals["abandoned_nacked"] += instance.abandoned_nacked
            totals["abandoned_silent"] += instance.abandoned_silent
            totals["rounds_skipped"] += instance.rounds_skipped
            if instance.decided:
                totals["decisions"] += 1
                totals["decision_ms"] += instance.decided_at - instance.started_at
            else:
                totals["open"] += 1
        return totals

    # ------------------------------------------------------------------ messages

    def on_message(self, sender: int, body: Any) -> None:
        """Route a consensus message to its instance (or buffer it)."""
        cid = body[1]
        if cid in self._decisions:
            return
        instance = self._instances.get(cid)
        if instance is None:
            known = cid in self._buffered
            self._buffered.setdefault(cid, []).append((sender, body))
            if not known:
                for listener in list(self._unknown_listeners):
                    listener(cid)
            return
        instance.handle(sender, body)

    def _on_rbcast_delivery(self, origin: int, rb_uid: Tuple[int, int], payload: Any) -> None:
        if not isinstance(payload, tuple) or not payload or payload[0] != _DECIDE_TAG:
            return
        _tag, cid, value = payload
        self.rbcast.mark_stable(rb_uid)
        self._record_decision(cid, value)

    # ------------------------------------------------------------------ decisions

    def _local_decision(self, cid: Hashable, value: Any) -> None:
        """Called by the deciding coordinator: disseminate, then record.

        The decision message is handed to the network *before* the local
        decision listeners run: the listeners typically start the next
        ordering round (next consensus instance / next batch) and its
        messages must queue behind the decision on the CPU, exactly as in
        the sequencer algorithm, so that the two algorithms keep identical
        message timing.
        """
        if cid in self._decisions:
            return
        instance = self._instances.get(cid)
        participants = instance.participants if instance else None
        self.rbcast.broadcast((_DECIDE_TAG, cid, value), group=participants)
        self._record_decision(cid, value)

    def _record_decision(self, cid: Hashable, value: Any) -> None:
        if cid in self._decisions:
            return
        self._decisions[cid] = value
        if self._obs is not None:
            self._obs.consensus_decided(self.now, self.pid, cid)
        self._undecided.pop(cid, None)
        instance = self._instances.get(cid)
        if instance is not None:
            instance.mark_decided()
        self._buffered.pop(cid, None)
        for listener in list(self._decision_listeners):
            listener(cid, value)

    # ------------------------------------------------------------------ suspicions

    def _on_suspicion_change(self, pid: int, suspected: bool) -> None:
        if not suspected or not self._undecided:
            # Instances only react to new suspicions (a restored trust is a
            # no-op in every round state), so skip the sweep entirely.
            return
        # The list copy is required: reacting can decide instances and start
        # new ones (both mutate ``_undecided``), exactly like the historical
        # full-instance sweep, which iterated in the same creation order.
        for instance in list(self._undecided.values()):
            if not instance.decided:
                instance.on_suspicion_change(pid, suspected)
