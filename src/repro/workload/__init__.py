"""Workload generation for the benchmark scenarios."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workload.generator": ("PoissonWorkload",),
    },
)
