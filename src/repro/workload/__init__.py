"""Workload generation for the benchmark scenarios."""

from repro.workload.generator import PoissonWorkload

__all__ = ["PoissonWorkload"]
