"""Active replication (state-machine replication) on top of atomic broadcast.

Section 5.1 of the paper motivates the latency metric with a service
replicated by active replication: clients atomically broadcast their
requests to the server replicas, every replica executes them in delivery
order, and the client keeps the first reply.  This package provides that
substrate -- a deterministic key-value store replicated over atomic
broadcast and a client/response-time model -- both as a documented example of using the
library and as an integration-test workload.
"""

from repro.replication.state_machine import Command, KeyValueStore
from repro.replication.service import ClientRequest, ReplicatedService

__all__ = [
    "ClientRequest",
    "Command",
    "KeyValueStore",
    "ReplicatedService",
]
