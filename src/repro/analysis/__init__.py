"""Analysis utilities: analytical latency models.

* :mod:`repro.analysis.model` -- closed-form predictions of the zero-load
  latency and per-message cost of both algorithms under the paper's network
  model.  Used to sanity-check the simulator (the simulated latency at very
  low throughput must match the prediction exactly) and handy for quick
  what-if estimates without running a simulation.

What a run did -- the message exchange, the delivery schedule -- is
recorded by the instrumentation layer (:mod:`repro.obs`): read the
timestamped records of ``system.obs.events`` or attach a callable with
``system.obs.subscribe``.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.model": ("CostModel", "MessageCost", "predicted_latency"),
    },
)
