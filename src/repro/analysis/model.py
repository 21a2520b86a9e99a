"""Analytical cost model of the two algorithms under the paper's network model.

At very low load there is no queueing, so the latency of one atomic
broadcast is just the sum of its communication steps, each costing
``lambda + network + lambda`` time units (sender CPU, wire, receiver CPU),
plus the CPU time of messages the critical path has to queue behind on the
same host.  These closed forms are useful to validate the simulator (see
``tests/analysis``) and to reason about parameter changes without running
an experiment.

For a suspicion-free run (Fig. 1) the critical path of both algorithms is

1. the sender multicasts ``m``                      (1 step),
2. the coordinator/sequencer multicasts the
   proposal / sequence number                       (1 step),
3. the first acknowledgement reaches the
   coordinator/sequencer, which then A-delivers      (1 step),

so the earliest delivery happens after three steps:
``latency = 3 * (2 * lambda + network)``.
With ``lambda = 1`` and ``network = 1`` this is 9 ms, which is what both the
paper's Fig. 4 and this simulator show as the low-load asymptote (the small
difference at T = 10/s comes from occasional queueing behind workload
messages).

The non-uniform GM variant delivers at non-sequencer processes after the
second step, and at the sequencer after the first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MessageCost:
    """Messages generated by one atomic broadcast (suspicion-free run)."""

    multicasts: int
    unicasts: int

    @property
    def total(self) -> int:
        """Total number of messages put on the network."""
        return self.multicasts + self.unicasts


@dataclass(frozen=True)
class CostModel:
    """Closed-form cost estimates for a given system configuration."""

    n: int
    lambda_cpu: float = 1.0
    network_time: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.lambda_cpu < 0 or self.network_time <= 0:
            raise ValueError("invalid lambda_cpu / network_time")

    # ------------------------------------------------------------------ steps

    @property
    def step(self) -> float:
        """Cost of one uncontended communication step (CPU + wire + CPU)."""
        return 2 * self.lambda_cpu + self.network_time

    # ------------------------------------------------------------------ latency

    def normal_latency(self, algorithm: str = "fd") -> float:
        """Zero-load latency of one atomic broadcast (earliest delivery).

        Identical for the FD and (uniform) GM algorithms: three steps
        (assuming the sender is not the coordinator/sequencer, which is the
        common case measured by the workload).  The non-uniform GM variant
        delivers at the sequencer as soon as the data message reaches it and
        the order is fixed: one step.
        """
        if algorithm in ("fd", "gm"):
            return 3 * self.step
        if algorithm == "gm-nonuniform":
            return 1 * self.step
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def crash_transient_overhead(self, algorithm: str = "fd") -> float:
        """Zero-load lower bound on the latency overhead after p1 crashes.

        For the FD algorithm the recovery is round 2 of one consensus
        (estimate, proposal, acknowledgement: three steps).  For the GM
        algorithm it is a view change: view-change message, unstable
        messages, then the view-change consensus, whose round 1 aborts
        immediately (its coordinator is the crashed sequencer) and whose
        round 2 needs the same three steps -- five steps in total.  Queueing
        behind concurrent recoveries and workload messages comes on top, so
        simulated values exceed these bounds.
        """
        if algorithm == "fd":
            return 3 * self.step
        if algorithm in ("gm", "gm-nonuniform"):
            return 5 * self.step
        raise ValueError(f"unknown algorithm {algorithm!r}")

    # ------------------------------------------------------------------ messages

    def messages_per_broadcast(self, algorithm: str = "fd") -> MessageCost:
        """Messages one atomic broadcast costs in a suspicion-free run.

        Both uniform algorithms: the data multicast, the proposal/seqnum
        multicast, ``n - 1`` acknowledgement unicasts and the
        decision/deliver multicast.  The non-uniform GM variant only needs
        the two multicasts.
        """
        if algorithm in ("fd", "gm"):
            return MessageCost(multicasts=3, unicasts=self.n - 1)
        if algorithm == "gm-nonuniform":
            return MessageCost(multicasts=2, unicasts=0)
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def view_change_messages(self) -> MessageCost:
        """Messages of one view change (every member reacts): Section 4.4."""
        # Every member multicasts VIEW_CHANGE and SYNC, the consensus costs a
        # proposal multicast, n - 1 ack unicasts and a decision multicast.
        return MessageCost(multicasts=2 * self.n + 2, unicasts=self.n - 1)


def predicted_latency(
    n: int, algorithm: str = "fd", lambda_cpu: float = 1.0, network_time: float = 1.0
) -> float:
    """Convenience wrapper: zero-load latency prediction in time units (ms)."""
    return CostModel(n=n, lambda_cpu=lambda_cpu, network_time=network_time).normal_latency(
        algorithm
    )
