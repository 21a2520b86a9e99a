"""repro -- reproduction of *Comparison of Failure Detectors and Group
Membership: Performance Study of Two Atomic Broadcast Algorithms* (Urbán,
Shnayderman, Schiper -- DSN 2003).

The package provides:

* a deterministic discrete-event simulation of the paper's contention-aware
  network model (:mod:`repro.sim`),
* QoS-modelled failure detectors (:mod:`repro.failure_detectors`),
* the two atomic broadcast algorithms and their substrates -- reliable
  broadcast, Chandra-Toueg consensus, group membership, state transfer
  (:mod:`repro.core`),
* workload generation, latency metrics and the paper's four benchmark
  scenarios (:mod:`repro.workload`, :mod:`repro.metrics`,
  :mod:`repro.scenarios`),
* the experiment harness regenerating every figure of the evaluation
  (:mod:`repro.experiments`),
* an active-replication example substrate (:mod:`repro.replication`).

Quickstart::

    from repro import SystemConfig, build_system

    with build_system(SystemConfig(n=3, stack="fd", seed=1)) as system:
        system.start()
        system.broadcast(sender=0, payload="hello")
        system.run(until=100.0)
        print(system.abcast(0).delivered)
"""

# Defined before the imports below: submodules (e.g. repro.obs.export) read
# it back during package initialisation to stamp provenance.
__version__ = "1.0.0"

from repro.core.types import AtomicBroadcast, BroadcastID, View
from repro.failure_detectors.heartbeat import HeartbeatConfig
from repro.failure_detectors.qos import QoSConfig
from repro.stacks import (
    StackSpec,
    available_fd_kinds,
    available_stacks,
    register_fd_kind,
    register_stack,
)
from repro.system import BroadcastSystem, NetworkModel, SystemConfig, build_system

__all__ = [
    "AtomicBroadcast",
    "BroadcastID",
    "BroadcastSystem",
    "HeartbeatConfig",
    "NetworkModel",
    "QoSConfig",
    "StackSpec",
    "SystemConfig",
    "View",
    "available_fd_kinds",
    "available_stacks",
    "build_system",
    "register_fd_kind",
    "register_stack",
    "__version__",
]
