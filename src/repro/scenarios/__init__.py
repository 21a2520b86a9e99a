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

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.scenarios.faults": (
            "CorrelatedCrash",
            "CrashAt",
            "DegradeAt",
            "DegradeLinkAt",
            "FaultEvent",
            "FaultSchedule",
            "HealAt",
            "PartitionAt",
            "PoissonChurn",
            "RecoverAt",
            "RestoreAt",
            "SuspectDuring",
        ),
        "repro.scenarios.kinds": (
            "run_asymmetric_qos",
            "run_churn_steady",
            "run_correlated_crash",
            "run_crash_steady",
            "run_crash_transient",
            "run_gray_degradation",
            "run_normal_steady",
            "run_partition_transient",
            "run_suspicion_steady",
            "run_view_majority_loss",
            "run_wan_steady",
        ),
        "repro.scenarios.registry": ("available_kinds", "run_kind"),
        "repro.scenarios.results": ("ScenarioResult", "TransientResult"),
        "repro.scenarios.runner": ("ProbeSpec", "ScenarioRunner", "SteadyStateSpec"),
        "repro.scenarios.service_load": ("run_service_load",),
    },
)
