"""Benchmark scenarios: the paper's four plus beyond-paper fault schedules.

* :mod:`~repro.scenarios.registry` -- the seam: :class:`ScenarioKind`,
  :func:`register_kind` and :func:`run_kind`, which runs one point of any
  registered kind directly.
* :mod:`~repro.scenarios.kinds` -- the twelve built-in kinds, one block each
  (params, ``validate``, ``run``, registration).
* :mod:`~repro.scenarios.runner` -- :class:`ScenarioRunner` and the specs it
  executes; :mod:`~repro.scenarios.faults` -- the declarative
  :class:`FaultSchedule` and its events, one class per fault;
  :mod:`~repro.scenarios.results` -- result types.
* :mod:`~repro.scenarios.transient` / :mod:`~repro.scenarios.service_load`
  -- the measurements of ``crash-transient`` and ``service-load``.

Every built-in kind has a direct entry point ``run_<kind>(config,
throughput, num_messages=..., **params)`` -- :func:`run_kind` bound to the
kind's name (``run_normal_steady`` ... ``run_gray_degradation``), so an
omitted parameter has the default a campaign point has.
:func:`run_service_load` is the service measurement itself, which also takes
what a point does not carry (admission bounds, a command mix, a fault schedule).
"""

import functools

from repro.scenarios import kinds  # noqa: F401  (registers the built-in kinds)
from repro.scenarios.faults import (
    CorrelatedCrash,
    CrashAt,
    DegradeAt,
    DegradeLinkAt,
    FaultEvent,
    FaultSchedule,
    HealAt,
    PartitionAt,
    PoissonChurn,
    RecoverAt,
    RestoreAt,
    SuspectDuring,
)
from repro.scenarios.registry import available_kinds, run_kind
from repro.scenarios.results import ScenarioResult, TransientResult
from repro.scenarios.runner import (
    ProbeSpec,
    ReformationSpec,
    ScenarioRunner,
    SteadyStateSpec,
)
from repro.scenarios.service_load import run_service_load

_ENTRY_POINTS = {
    "run_" + _name.replace("-", "_"): functools.partial(run_kind, _name)
    for _name in available_kinds()
}
_ENTRY_POINTS["run_service_load"] = run_service_load
globals().update(_ENTRY_POINTS)

__all__ = sorted(
    [
        "CorrelatedCrash",
        "CrashAt",
        "DegradeAt",
        "DegradeLinkAt",
        "FaultEvent",
        "FaultSchedule",
        "HealAt",
        "PartitionAt",
        "PoissonChurn",
        "ProbeSpec",
        "RecoverAt",
        "ReformationSpec",
        "RestoreAt",
        "ScenarioResult",
        "ScenarioRunner",
        "SteadyStateSpec",
        "SuspectDuring",
        "TransientResult",
        "run_kind",
        *_ENTRY_POINTS,
    ]
)
