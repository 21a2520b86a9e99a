"""Core algorithms of the paper.

* :mod:`repro.core.types` -- broadcast identifiers, views and the common
  :class:`~repro.core.types.AtomicBroadcast` interface.
* :mod:`repro.core.reliable_broadcast` -- reliable broadcast as one multicast
  with duplicates dropped; a missed message comes back through the layers
  above.
* :mod:`repro.core.consensus` -- Chandra-Toueg rotating-coordinator consensus
  for the failure detector class ``<>S``.
* :mod:`repro.core.fd_broadcast` -- the *FD algorithm*: Chandra-Toueg atomic
  broadcast built on a sequence of consensus instances.
* :mod:`repro.core.group_membership` -- the group membership service (view
  changes over consensus, view synchrony, rejoin of wrongly excluded
  processes, state transfer).
* :mod:`repro.core.sequencer_broadcast` -- the *GM algorithm*: fixed-sequencer
  uniform atomic broadcast reconfigured through group membership, plus its
  non-uniform variant.
* :mod:`repro.core.log` -- the decided prefix both algorithms keep, and the one
  fetch that catch-up, retransmission and state transfer use.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.types": ("AtomicBroadcast", "BroadcastID", "View"),
        "repro.core.reliable_broadcast": ("ReliableBroadcast",),
        "repro.core.consensus": ("ConsensusService",),
        "repro.core.fd_broadcast": ("FDAtomicBroadcast",),
        "repro.core.group_membership": ("GroupMembership",),
        "repro.core.sequencer_broadcast": ("SequencerAtomicBroadcast",),
    },
)
