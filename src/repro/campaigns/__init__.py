"""Declarative experiment campaigns: parallel execution, caching, resumption.

A *campaign* is a declarative grid of scenario runs (the points of a figure,
an ad-hoc parameter sweep, a multi-seed replication).  The subsystem splits
the concern that used to live in hand-written nested loops into four layers:

* :mod:`repro.campaigns.spec`      -- :class:`PointSpec` / :class:`SeriesSpec`
  / :class:`CampaignSpec` describe *what* to run: a scenario kind with its
  params, the system's stack, fd kind and their params, axes and seeds;
* :mod:`repro.campaigns.runner`    -- :class:`CampaignRunner` executes the
  points in one claim-execute-commit loop (in-process, on a worker pool or
  through the work queue of :mod:`repro.campaigns.queue`);
* :mod:`repro.campaigns.store`     -- :class:`ResultStore` caches completed
  points in an append-only JSONL file keyed by the point's content hash;
* :mod:`repro.campaigns.aggregate` -- folds cached records back into the
  result, series and figure containers the experiments operate on.

``python -m repro.campaigns`` runs ad-hoc grids from the command line; the
figures of :mod:`repro.experiments.figures` declare their sweeps as campaigns
and accept a shared runner (``--jobs`` / ``--cache-dir``).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.campaigns.aggregate": (
            "cross_campaign_summary",
            "figure_from_campaign",
            "load_store_table",
            "merge_scenario_results",
            "merge_transient_results",
            "series_from_spec",
        ),
        "repro.campaigns.columnar": ("ColumnarTable",),
        "repro.campaigns.queue": ("QueueWorker", "WorkQueue"),
        "repro.campaigns.records": ("execute_point", "record_to_result", "result_to_record"),
        "repro.campaigns.runner": ("CampaignRun", "CampaignRunner", "execute_chunk"),
        "repro.campaigns.spec": (
            "CampaignSpec",
            "PointSpec",
            "SeriesPointSpec",
            "SeriesSpec",
            "derive_seed",
            "grid",
            "replicate_seeds",
        ),
        "repro.campaigns.store": ("ResultStore",),
        "repro.scenarios.faults": ("crashed_processes",),
    },
)
