"""Discrete-event simulation substrate.

This package implements the execution environment the paper simulates the
algorithms on:

* :mod:`repro.sim.engine` -- a deterministic discrete-event simulation kernel
  (event queue, simulation clock, timers).
* :mod:`repro.sim.resources` -- FIFO contention resources used to model CPUs
  and the shared network medium.
* :mod:`repro.sim.network` -- the contention-aware network model of the paper
  (Fig. 2): a message occupies the sending CPU for ``lambda`` time units, the
  shared network for one time unit and the receiving CPU for ``lambda`` time
  units, with FIFO queueing in front of every resource.
* :mod:`repro.sim.process` -- simulated processes hosting protocol components
  (the Neko-style protocol stack), timers and software-crash semantics.
* :mod:`repro.sim.rng` -- named, deterministic random streams.

The time unit of the simulation is the network transmission time; following
the paper we interpret it as one millisecond.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.engine": ("EventHandle", "Simulator"),
        "repro.sim.messages": ("Message",),
        "repro.sim.network": ("Network", "NetworkConfig"),
        "repro.sim.process": ("Component", "SimProcess"),
        "repro.sim.resources": ("FIFOResource",),
        "repro.sim.rng": ("RandomStreams",),
    },
)
