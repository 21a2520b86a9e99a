"""Service load-testing: client populations, request batching, backpressure.

This package promotes the replicated KV store from a demo to a load-tested
service:

* :mod:`repro.load.clients` -- open-loop (Poisson/uniform arrivals) and
  closed-loop (N clients with think time) populations over the KV command
  set;
* :mod:`repro.load.batching` -- :class:`BatchingAtomicBroadcast`, the
  ingress request-batching wrapper that amortizes one ordering step over up
  to ``max_batch`` requests (enabled by the batching layer's ``max_batch`` param);
* :mod:`repro.load.service` -- :class:`LoadTestedService`, the replicated
  service (:mod:`repro.replication`) with an admission window, a FIFO
  queue, load shedding and a local read path.

The ``service-load`` scenario (:func:`repro.scenarios.run_service_load`)
drives all three through the campaign machinery.
"""

from repro.load.batching import BATCH_TAG, BatchingAtomicBroadcast
from repro.load.clients import ARRIVALS, ClosedLoopClients, CommandMix, OpenLoopClients
from repro.load.service import CONSISTENCY_MODES, AdmissionConfig, LoadTestedService

__all__ = [
    "ARRIVALS",
    "BATCH_TAG",
    "BatchingAtomicBroadcast",
    "CONSISTENCY_MODES",
    "AdmissionConfig",
    "ClosedLoopClients",
    "CommandMix",
    "LoadTestedService",
    "OpenLoopClients",
]
