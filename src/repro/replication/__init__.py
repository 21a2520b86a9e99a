"""Active replication (state-machine replication) on top of atomic broadcast.

Section 5.1 of the paper motivates the latency metric with a service
replicated by active replication: clients atomically broadcast their
requests to the server replicas, every replica executes them in delivery
order, and the client keeps the first reply.  This package provides that
service -- a deterministic key-value store replicated over atomic broadcast,
one :class:`ServiceRequest` per client request, timed to its first reply --
both as a documented example of using the library and as an
integration-test workload.  :mod:`repro.load` is the same service with
admission control in front.
"""

from repro.replication.state_machine import Command, KeyValueStore
from repro.replication.service import ReplicatedService, ServiceRequest

__all__ = [
    "Command",
    "KeyValueStore",
    "ReplicatedService",
    "ServiceRequest",
]
