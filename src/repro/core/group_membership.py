"""Group membership service.

The service maintains the *view* of the group (the ordered list of processes
currently considered correct) and guarantees that members see the same
sequence of views, with View Synchrony and Same View Delivery for the atomic
broadcast built on top of it.

View changes follow the algorithm the paper describes (Section 4.3):

1. a process that suspects a member (or learns of a join request) starts a
   view change by multicasting a ``VIEW_CHANGE`` message to the members of
   the current view;
2. as soon as a process learns about the view change it multicasts its
   *unstable* messages (``SYNC``);
3. once it has received the unstable messages from all the members it does
   not suspect (and from at least a majority), it proposes the pair
   ``(new membership, union of unstable messages)`` to a consensus instance
   run among the members of the current view;
4. when consensus decides ``(P', U')``, every participant first delivers the
   messages of ``U'`` it has not delivered yet, then installs ``P'`` as the
   next view.

Correct processes that were wrongly excluded rejoin: they send a join request
to the members they know of, a member includes them in the next view change,
and the rejoining process synchronises its state with a state transfer (it
fetches from a member's decided log, :mod:`repro.core.log`, the messages it
missed while excluded) before resuming normal operation -- exactly the scheme
of Section 4.3 of the paper.

Crash *recovery* (beyond the paper's crash-stop model) combines both
mechanisms (see :meth:`GroupMembership.on_recover`): a process that recovers
while it still believes it is a member takes part in a resync view change of
its current view; one the group moved on without re-enters through the join
protocol and its state transfer.

Group reformation (beyond the paper)
------------------------------------

The view-change protocol above shares the paper's fundamental liveness
limit: the consensus of step 3 runs among the members of the *current view*,
so once wrong suspicions have shrunk the installed view, a single real crash
inside it can leave the view without a majority of alive members -- and then
no view change can ever decide, even though a global majority of processes
is alive.  The *reformation* path restores liveness:

* **Trigger.**  A member whose view change makes no progress for
  ``reformation_timeout`` ms proposes a successor view in a consensus
  instance ``("reform", epoch + 1)`` scoped to the **full static process
  set** (every process of the system, members or not), which any global
  majority of alive processes can decide.  Its proposal carries the
  candidate membership (every process its failure detector trusts), and the
  union of the unstable messages it collected in the stalled view change
  (view synchrony for the survivors).  Non-members that hear messages of a
  reformation instance join it through the consensus service's
  unknown-instance notification, proposing their own candidate.

* **Fence.**  Views carry an *epoch* (see :class:`repro.core.types.View`);
  view identities are totally ordered by ``(epoch, view_id)``.  The decided
  reformation view bumps the epoch, so it supersedes any view the old epoch
  can still produce -- in particular a *late normal view change* whose
  consensus decides after the reformation: processes that installed the
  reformed view ignore the stale decision (its view identity no longer
  matches theirs), and a loser that installed the stale view is told
  ``NOT_MEMBER`` / detected as stale the moment it contacts a reformed
  member, falling back to the existing join-and-state-transfer resync path.

* **Rejoin.**  Reformed members that were participating in the origin view
  install the decided view directly (after delivering the unstable union);
  every other process named in the reformed membership re-enters through
  the join protocol, whose state transfer replays the whole delivered-log
  suffix it missed.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.consensus import ConsensusService
from repro.core.log import FETCH, FETCHED
from repro.core.types import View
from repro.sim.process import Component, SimProcess

ViewListener = Callable[[View], None]

#: A view identity: the totally ordered pair ``(epoch, view_id)``.
ViewId = Tuple[int, int]

_VIEW_CHANGE = "VIEW_CHANGE"
_SYNC = "SYNC"
_JOIN_REQ = "JOIN_REQ"
_VIEW_INSTALL = "VIEW_INSTALL"
_NOT_MEMBER = "NOT_MEMBER"

#: Process states.
MEMBER = "member"
VIEW_CHANGE_IN_PROGRESS = "view_change"
EXCLUDED = "excluded"
JOINING = "joining"

#: How long a view change must have been stalled before a trust transition
#: of a silent co-member triggers a re-announcement (see
#: :meth:`GroupMembership._on_suspicion_change`).  Well above any healthy
#: view change's completion time, well below any partition worth surviving;
#: partitions shorter than this (but longer than the detection time) can
#: still strand a plain-``gm`` minority -- the reformation timer covers that
#: window under ``gm-reform``.
VIEW_CHANGE_REVIVE_AFTER = 50.0


class GroupMembership(Component):
    """Primary-partition group membership (protocol ``"gm"``)."""

    protocol = "gm"

    def __init__(
        self,
        process: SimProcess,
        consensus: ConsensusService,
        join_retry_interval: float = 500.0,
        reformation_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(process)
        self.consensus = consensus
        self._view = View(0, tuple(range(process.network.n)))
        self._last_known_view = self._view
        self._status = MEMBER
        self.join_retry_interval = join_retry_interval
        #: How long a view change may stall before this process proposes a
        #: group reformation over the full static process set; ``None``
        #: disables the reformation path entirely (the paper's protocol).
        self.reformation_timeout = reformation_timeout

        self._handler: Any = None  # the atomic broadcast layer (set_broadcast_handler)
        self._view_listeners: List[ViewListener] = []

        # Per-view-change state (reset whenever a view is installed).
        self._vc_sent = False
        self._sync_sent = False
        self._proposed = False
        self._syncs: Dict[int, Tuple] = {}
        self._joiners_seen: Set[int] = set()
        self._vc_started_at = 0.0
        #: Whether this process is reconciling after a crash recovery: it
        #: participates in view changes but must re-enter the decided view
        #: through a state transfer instead of installing it directly.
        self._recovering = False
        #: Highest reformation epoch this process has proposed in.
        self._reform_epoch_proposed = 0

        self._pending_joins: Set[int] = set()
        self._future: Dict[ViewId, List[Tuple[int, Any]]] = {}
        self._not_member_notified: Set[Tuple[int, ViewId]] = set()

        consensus.add_decision_listener(self._on_decision)
        consensus.add_unknown_instance_listener(self._on_unknown_instance)

    # ------------------------------------------------------------------ wiring

    def set_broadcast_handler(self, handler: Any) -> None:
        """Register the atomic broadcast layer the service flushes/reconfigures.

        Required before the system starts.  The handler must provide
        ``collect_unstable()``, ``on_view_change_started()``,
        ``deliver_view_change(entries)``, ``on_view_installed(view)``,
        ``on_member_recovered()``, the ``delivered_count`` property and
        ``log``, the :class:`~repro.core.log.DecidedLog` of its deliveries
        that state transfers fetch from.
        """
        self._handler = handler

    def add_view_listener(self, listener: ViewListener) -> None:
        """Subscribe to view installations: ``listener(view)``."""
        self._view_listeners.append(listener)

    # ------------------------------------------------------------------ queries

    @property
    def view(self) -> View:
        """The current view (the last view this process installed)."""
        return self._view

    @property
    def status(self) -> str:
        """One of ``member``, ``view_change``, ``excluded``, ``joining``."""
        return self._status

    def is_member(self) -> bool:
        """Whether this process is currently an operational group member."""
        return self._status in (MEMBER, VIEW_CHANGE_IN_PROGRESS)

    def is_sequencer(self) -> bool:
        """Whether this process is the sequencer of the current view."""
        return self.is_member() and self._view.sequencer == self.pid

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Subscribe to the failure detector and react to existing suspicions.

        Some processes may already be suspected when the component starts
        (the crash-steady scenario crashes them before time zero); they must
        be excluded right away, exactly as if the suspicion had been raised
        after the start.
        """
        detector = self.process.failure_detector
        if detector is not None:
            detector.add_listener(self._on_suspicion_change)
            if self._status == MEMBER and any(
                detector.is_suspected(member)
                for member in self._view.members
                if member != self.pid
            ):
                self._start_view_change()

    def on_recover(self) -> None:
        """Reconcile with the group after a crash recovery.

        Still-a-member: start (or restart) a view change in the current view
        and take part in it normally.  This is sound because every message
        the process missed is covered by the resync view change: a message
        it never acknowledged is still in some member's unstable set (its
        batch cannot be stable without the acknowledgement), and a message
        it acknowledged before crashing is re-added to its *own* unstable
        set by the broadcast layer's ``on_member_recovered`` hook -- called
        below, before the resync SYNC collects the unstable set -- so the
        decided union contains it either way.  If the group
        moved on without this process, its stale view-change message is
        answered with the current view (state transfer) or a not-member
        notification (join protocol).  Already excluded (or mid-join):
        restart the join protocol.
        """
        self._recovering = True
        if self._status in (EXCLUDED, JOINING):
            self._become_excluded()
            return
        self._status = MEMBER
        self._reset_view_change_state()
        self._handler.on_member_recovered()
        self._start_view_change(resync=True)

    # ------------------------------------------------------------------ failure detector

    def _suspects(self, pid: int) -> bool:
        detector = self.process.failure_detector
        return detector is not None and detector.is_suspected(pid)

    def _suspected(self) -> AbstractSet[int]:
        """Everyone the local detector suspects now, for a scan over members."""
        detector = self.process.failure_detector
        return detector.suspected() if detector is not None else frozenset()

    def _on_suspicion_change(self, pid: int, suspected: bool) -> None:
        if suspected:
            if self._status == MEMBER and pid in self._view.members:
                self._start_view_change()
            elif self._status == VIEW_CHANGE_IN_PROGRESS:
                # A new suspicion may complete the SYNC collection condition.
                self._maybe_propose()
        else:
            if self._status == MEMBER and pid in self._pending_joins:
                self._start_view_change()
            elif (
                self._status == VIEW_CHANGE_IN_PROGRESS
                and self._vc_sent
                and pid in self._view.members
                and pid not in self._syncs
                and self.now - self._vc_started_at >= VIEW_CHANGE_REVIVE_AFTER
            ):
                # A co-member we never heard a SYNC from is trusted again
                # while the view change has stalled far past any healthy
                # completion time: it was unreachable (e.g. partitioned), so
                # all we multicast meanwhile, the announcement included, was
                # dropped for good.  Re-announce to it alone, with the resync
                # flag: a peer still in this view change repeats its SYNC,
                # one past it answers VIEW_INSTALL or NOT_MEMBER.  The age
                # gate keeps QoS mistakes byte-silent: their trust returns
                # within one mistake duration, when the view change has
                # completed or been open for a few round trips only.
                self.send_one(pid, (_VIEW_CHANGE, self._view.vid, True))
                self.send_one(pid, self._sync_message())

    # ------------------------------------------------------------------ messages

    def on_message(self, sender: int, body: Any) -> None:
        """Dispatch a group membership message."""
        kind = body[0]
        if kind in (_VIEW_CHANGE, _SYNC) and body[1] > self._view.vid:
            # Part of a view change of a view not installed here yet: it is
            # replayed when that view is.
            self._future.setdefault(body[1], []).append((sender, body))
        elif kind == _VIEW_CHANGE:
            self._on_view_change_msg(sender, body[1], body[2])
        elif kind == _SYNC:
            self._on_sync(sender, body[1], body[2], body[3])
        elif kind == _JOIN_REQ:
            self._on_join_request(sender)
        elif kind == _VIEW_INSTALL:
            self._on_view_install_msg(sender, body[1])
        elif kind == FETCH:
            self._on_fetch(sender, body[2])
        elif kind == FETCHED:
            self._on_fetched(body[1], body[2])
        elif kind == _NOT_MEMBER:
            self._on_not_member(body[1])
        else:
            raise ValueError(f"unexpected group membership message {kind!r}")

    # ------------------------------------------------------------------ view change

    def _start_view_change(self, resync: bool = False) -> None:
        """Enter the view change of the current view.

        ``resync`` is set by a crash-recovered member: it asks the other
        participants to retransmit their ``SYNC`` messages, because any sync
        multicast while this process was down was dropped by the network.
        """
        if self._status != MEMBER:
            return
        self._status = VIEW_CHANGE_IN_PROGRESS
        self._vc_started_at = self.now
        if self._obs is not None:
            self._obs.view_change(self.now, self.pid, self._view.vid)
        self._handler.on_view_change_started()
        if self.reformation_timeout is not None:
            self.set_timer(self.reformation_timeout, self._maybe_reform, self._view.vid)
        if not self._vc_sent:
            self._vc_sent = True
            self.send(self._view.members, (_VIEW_CHANGE, self._view.vid, resync))
        if not self._sync_sent:
            self._sync_sent = True
            self.send(self._view.members, self._sync_message())

    def _sync_message(self) -> Tuple:
        """The SYNC message for the current view change."""
        unstable = self._handler.collect_unstable()
        joiners = tuple(sorted(j for j in self._pending_joins if not self._suspects(j)))
        return (_SYNC, self._view.vid, unstable, joiners)

    def _on_view_change_msg(self, sender: int, vid: ViewId, resync: bool) -> None:
        if vid != self._view.vid or not self.is_member():
            if vid < self._view.vid and self.is_member():
                # A stale view change comes from a process that missed the
                # group's progress while it was down.  Point it at the
                # current view: a current member re-enters through a state
                # transfer, anyone else restarts the join protocol.
                if sender in self._view.members:
                    self.send_one(sender, (_VIEW_INSTALL, self._view))
                else:
                    self.report_stale_sender(sender, vid)
            return
        if self._status == MEMBER:
            self._start_view_change()
        elif resync and self._sync_sent and sender != self.pid:
            # A recovered member restarted this view change; our SYNC was
            # multicast while it was down and got dropped, so repeat it for
            # that member alone.
            self.send_one(sender, self._sync_message())

    def _on_sync(self, sender: int, vid: ViewId, entries: Tuple, joiners: Tuple) -> None:
        if vid != self._view.vid or not self.is_member():
            return
        if self._status == MEMBER:
            self._start_view_change()
        self._syncs[sender] = entries
        self._joiners_seen.update(joiners)
        self._maybe_propose()

    @staticmethod
    def _merge_unstable(sync_sets: Sequence[Tuple]) -> Tuple:
        """The deterministic union of several SYNC unstable sets."""
        union: Dict = {}
        for entries in sync_sets:
            for broadcast_id, payload, seqnum in entries:
                known_payload, known_seqnum = union.get(broadcast_id, (None, None))
                union[broadcast_id] = (
                    payload if known_payload is None else known_payload,
                    seqnum if known_seqnum is None else known_seqnum,
                )
        return tuple((bid, *union[bid]) for bid in sorted(union))

    def _maybe_propose(self) -> None:
        if self._status != VIEW_CHANGE_IN_PROGRESS or self._proposed:
            return
        view = self._view
        syncs = self._syncs
        # Runs on every SYNC received: the O(1) test first, then stop at the
        # first member still awaited.
        if len(syncs) < view.majority():
            return
        suspected = self._suspected()
        for member in view.members:
            if member not in syncs and member not in suspected:
                return
        self._proposed = True
        survivors = tuple(m for m in view.members if m in self._syncs)
        joiners = tuple(
            sorted(
                j
                for j in (self._joiners_seen | self._pending_joins)
                if j not in view.members and j not in suspected
            )
        )
        new_members = survivors + joiners
        unstable = self._merge_unstable(list(self._syncs.values()))
        value = (self.pid, (new_members, unstable))
        self.consensus.propose(
            ("vc", view.vid),
            value,
            participants=view.members,
            coordinator_order=view.members,
        )

    # ------------------------------------------------------------------ reformation

    def _maybe_reform(self, vid: ViewId) -> None:
        """Timeout gate: reform if the view change of ``vid`` is still stalled."""
        if self._status != VIEW_CHANGE_IN_PROGRESS or self._view.vid != vid:
            return
        new_epoch = self._view.epoch + 1
        if self._reform_epoch_proposed >= new_epoch:
            return
        if self._obs is not None:
            self._obs.reformation_proposed(self.now, self.pid, new_epoch)
        self._propose_reformation(new_epoch)

    def _propose_reformation(self, new_epoch: int) -> None:
        """Propose a successor view in the full-static-set reformation consensus.

        The candidate membership is every process the local failure detector
        currently trusts (always including this process); the unstable union
        covers the SYNCs collected in the stalled view change, which in the
        canonical blocked state is every *alive* member's sync -- the dead
        members' syncs are exactly the ones that can never arrive.
        """
        if self._reform_epoch_proposed >= new_epoch:
            return
        self._reform_epoch_proposed = new_epoch
        candidate = tuple(
            sorted(
                pid
                for pid in range(self.process.network.n)
                if pid == self.pid or not self._suspects(pid)
            )
        )
        syncs = list(self._syncs.values()) or [self._handler.collect_unstable()]
        unstable = self._merge_unstable(syncs)
        origin = self._view.vid if self.is_member() else self._last_known_view.vid
        # The proposal carries the proposer's delivered count: at decision
        # time it is the prefix fence that separates members who may deliver
        # the unstable union directly from members who must reconcile
        # through the state transfer first (see :meth:`_on_reform_decision`).
        value = (self.pid, (origin, candidate, unstable, self._handler.delivered_count))
        # Participants default to the full static process set: any global
        # majority of alive processes decides, members or not.
        self.consensus.propose(("reform", new_epoch), value)

    def _on_unknown_instance(self, cid: Hashable) -> None:
        """Join a reformation consensus another process started.

        The consensus service buffers messages of instances the local
        process has not proposed in; for a reformation instance that must
        not last (non-members may hold the deciding votes), so first contact
        triggers a local proposal with this process's own candidate.
        """
        if not (isinstance(cid, tuple) and len(cid) == 2 and cid[0] == "reform"):
            return
        new_epoch = cid[1]
        if not isinstance(new_epoch, int) or new_epoch <= self._view.epoch:
            return
        self._propose_reformation(new_epoch)

    def _on_reform_decision(self, new_epoch: int, value: Any) -> None:
        _proposer, (origin_vid, members, unstable, decided_prefix) = value
        if new_epoch <= self._view.epoch:
            return  # this process already lives in a reformed (or later) epoch
        new_view = View(origin_vid[1] + 1, tuple(members), new_epoch)
        if new_view.vid > self._last_known_view.vid:
            self._last_known_view = new_view
        if self.is_member():
            # Split-brain fence: installing the reformed view bumps our
            # epoch, so any late normal view-change decision of the old
            # epoch no longer matches our view identity and is discarded
            # by :meth:`_on_decision`.
            if self.pid in new_view.members:
                # Prefix fence.  Reform participants come from *diverged*
                # views -- after a transient partition the majority side has
                # installed later views and delivered messages that went
                # stable there, so they appear in nobody's unstable union.
                # A member that is behind the decided proposal (older view,
                # or shorter delivered prefix than the proposer's) would
                # skip those stable messages forever if it delivered the
                # union here.  It must instead re-enter through the
                # prefix-indexed state transfer, which replays everything
                # missed in order; members at or past the decided prefix
                # deliver the union directly (already-delivered entries are
                # deduplicated by the broadcast layer).
                if self._view.vid < origin_vid or self._handler.delivered_count < decided_prefix:
                    self._become_excluded()
                    return
                self._handler.deliver_view_change(unstable)
                joiners = [m for m in new_view.members if m not in self._view.members]
                self._install_view(new_view, notify_joiners=joiners)
            else:
                # Same prefix rule as :meth:`_on_decision`: an excluded
                # process must not deliver the union (it may start past the
                # local delivery prefix); the rejoin state transfer replays
                # everything in order instead.
                self._become_excluded()
            return
        # Excluded or joining: the reformed view supersedes whatever this
        # process was trying to join; the running join-retry loop now
        # targets the reformed membership, and the state transfer replays
        # everything missed (including any unstable union).
        if self._status == JOINING:
            self._status = EXCLUDED

    def _on_decision(self, cid: Hashable, value: Any) -> None:
        if not isinstance(cid, tuple) or len(cid) != 2:
            return
        if cid[0] == "reform":
            self._on_reform_decision(cid[1], value)
            return
        if cid[0] != "vc":
            return
        vid = cid[1]
        if vid != self._view.vid or not self.is_member():
            # Covers the reformation fence: after a reformed view is
            # installed the old epoch's pending view-change decision no
            # longer matches the local view identity.
            return
        _proposer, (new_members, unstable) = value
        new_view = View(vid[1] + 1, tuple(new_members), vid[0])
        self._last_known_view = new_view
        joiners = [m for m in new_members if m not in self._view.members]
        if self.pid in new_members:
            self._handler.deliver_view_change(unstable)
            self._install_view(new_view, notify_joiners=joiners)
        else:
            # Do NOT deliver the union when excluded: the decided union only
            # covers the *surviving* members' unstable sets, so for this
            # process it can start past its delivery prefix (e.g. after a
            # crash recovery, when a message it acknowledged went stable
            # while it was down).  Delivering it here would both break total
            # order locally and corrupt the join protocol's state transfer,
            # which sends the group log *since the joiner's delivered count*
            # and therefore requires the joiner's log to be a prefix of the
            # group's.  Everything is replayed, in order, by the state
            # transfer when this process rejoins.
            self._become_excluded()

    def _install_view(self, view: View, notify_joiners: Sequence[int] = ()) -> None:
        self._view = view
        self._last_known_view = view
        self._status = MEMBER
        self._recovering = False
        if self._obs is not None:
            self._obs.view_installed(self.now, self.pid, view)
        self._reset_view_change_state()
        self._pending_joins.difference_update(view.members)
        self._handler.on_view_installed(view)
        for listener in list(self._view_listeners):
            listener(view)
        # The sequencer notifies the joiners.  If it crashed between syncing
        # and installing, the joiners' periodic join retries reach the other
        # members, which answer with the view directly (see
        # :meth:`_on_join_request`), so nobody is stranded.
        if notify_joiners and view.sequencer == self.pid:
            for joiner in notify_joiners:
                self.send_one(joiner, (_VIEW_INSTALL, view))
        self._replay_future(view.vid)
        self._check_pending_triggers()

    def _become_excluded(self) -> None:
        self._status = EXCLUDED
        self._reset_view_change_state()
        self._attempt_join()

    def _reset_view_change_state(self) -> None:
        self._vc_sent = False
        self._sync_sent = False
        self._proposed = False
        self._syncs = {}
        self._joiners_seen = set()

    def _replay_future(self, vid: ViewId) -> None:
        for sender, body in self._future.pop(vid, []):
            self.on_message(sender, body)

    def _check_pending_triggers(self) -> None:
        if self._status != MEMBER:
            return
        # A detector never suspects its owner, so no member needs skipping.
        suspected = self._suspected()
        if not suspected.isdisjoint(self._view.members) or not self._pending_joins <= suspected:
            self._start_view_change()

    # ------------------------------------------------------------------ stale senders

    def report_stale_sender(self, sender: int, stale_vid: ViewId) -> None:
        """Tell ``sender`` it is no longer a member of the current view.

        Called by the atomic broadcast layer when it receives a message
        tagged with an old view from a process that is not in the current
        membership: the sender missed its own exclusion (for instance because
        it was excluded again while still performing a state transfer, or
        because it installed a stale view the reformation fence superseded)
        and needs to restart the join protocol.
        """
        if not self.is_member():
            return
        if sender in self._view.members or stale_vid >= self._view.vid:
            return
        key = (sender, self._view.vid)
        if key in self._not_member_notified:
            return
        self._not_member_notified.add(key)
        self.send_one(sender, (_NOT_MEMBER, self._view))

    def _on_not_member(self, view: View) -> None:
        if view.vid <= self._view.vid or self.pid in view.members:
            return
        self._last_known_view = view
        if self._status not in (EXCLUDED, JOINING):
            # We believed we were an (old-view) member but the group moved
            # on without us: fall back to the join protocol.
            self._become_excluded()

    # ------------------------------------------------------------------ joins

    def _on_join_request(self, sender: int) -> None:
        if not self.is_member():
            return
        if sender in self._view.members:
            # The joiner is already part of the current view (it missed the
            # VIEW_INSTALL notification, or is re-entering it after a crash
            # recovery): tell it directly; the state transfer catches it up.
            self.send_one(sender, (_VIEW_INSTALL, self._view))
            return
        self._pending_joins.add(sender)
        if self._status == MEMBER and not self._suspects(sender):
            self._start_view_change()

    def _attempt_join(self) -> None:
        if self._status not in (EXCLUDED, JOINING):
            return
        members = [m for m in self._last_known_view.members if m != self.pid]
        if members:
            self.send(members, (_JOIN_REQ, self._last_known_view.vid))
        self.set_timer(self.join_retry_interval, self._attempt_join)

    def _on_view_install_msg(self, sender: int, view: View) -> None:
        if view.vid <= self._view.vid or self.pid not in view.members:
            return
        if self._status not in (EXCLUDED, JOINING):
            # A member only receives a VIEW_INSTALL for a higher view when it
            # sent a stale view change after a crash recovery: the group
            # moved on while it was down.  Re-enter through the state
            # transfer, with the join retry timer guarding against the
            # responder failing mid-transfer.
            if not self._recovering:
                return
            self.set_timer(self.join_retry_interval, self._attempt_join)
        self._status = JOINING
        self._last_known_view = view
        self.send_one(sender, (FETCH, None, self._handler.delivered_count, ()))

    def _on_fetch(self, sender: int, since: int) -> None:
        """Answer a state transfer: the view to enter and the log after ``since``."""
        if not self.is_member():
            return
        self.send_one(sender, (FETCHED, self._view, self._handler.log.since(since), ()))

    def _on_fetched(self, view: View, batches: Tuple) -> None:
        if self._status != JOINING:
            return
        if self.pid not in view.members or view.vid <= self._view.vid:
            return
        self._handler.deliver_view_change(
            tuple((bid, payload, k) for k, (bid, payload) in batches)
        )
        self._install_view(view)
