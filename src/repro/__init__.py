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

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

# Defined first: submodules (e.g. repro.obs.export) read it back during
# package initialisation to stamp provenance.
__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package re-exporting lazily.

    ``exports`` maps each defining module to the names the package takes
    from it, and is the package's one list of public names: it becomes the
    package's sorted ``__all__``.  A name is imported on its first access --
    an attribute, a ``from package import name`` or a ``from package import
    *`` -- and kept in the package's namespace, so later accesses never come
    back here, and importing the package loads none of its modules.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__
    namespace["__all__"] = sorted(home)

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro": ("__version__",),  # defined above, so never looked up
        "repro.core.types": ("AtomicBroadcast", "BroadcastID", "View"),
        "repro.failure_detectors.heartbeat": ("HeartbeatConfig",),
        "repro.failure_detectors.qos": ("QoSConfig",),
        "repro.stacks.api": ("StackSpec",),
        "repro.stacks.registry": (
            "available_fd_kinds", "available_stacks", "register_fd_kind", "register_stack",
        ),
        "repro.system": ("BroadcastSystem", "NetworkModel", "SystemConfig", "build_system"),
    },
)
