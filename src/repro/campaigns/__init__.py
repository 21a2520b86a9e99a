"""Declarative experiment campaigns: parallel execution, caching, resumption.

A *campaign* is a declarative grid of scenario runs (the points of a figure,
an ad-hoc parameter sweep, a multi-seed replication).  The subsystem splits
the concern that used to live in hand-written nested loops into four layers:

* :mod:`repro.campaigns.spec`      -- :class:`PointSpec` / :class:`SeriesSpec`
  / :class:`CampaignSpec` describe *what* to run: a scenario kind registered
  in :mod:`repro.scenarios.registry` with its params, ``SystemConfig``
  fields, sweep axes and seeds, with deterministic per-point
  seed derivation following the :class:`repro.sim.rng.RandomStreams`
  convention;
* :mod:`repro.campaigns.runner`    -- :class:`CampaignRunner` executes the
  points in one claim-execute-commit loop: store hits are claimed, the
  misses run in-process, on a warm worker pool (``jobs=N``) or through the
  shared-directory work queue (:mod:`repro.campaigns.queue`), and every
  record is committed as it arrives, bit-identical whichever way it ran;
* :mod:`repro.campaigns.store`     -- :class:`ResultStore` caches completed
  points in an append-only JSONL file keyed by a stable hash of the point
  configuration, which makes campaigns crash-safe and resumable;
* :mod:`repro.campaigns.aggregate` -- folds cached records back into the
  ``ScenarioResult`` / ``TransientResult`` / ``Series`` / ``FigureResult``
  containers the experiments and reports operate on.

``python -m repro.campaigns`` runs ad-hoc grids from the command line; the
figures of :mod:`repro.experiments.figures` declare their sweeps as campaigns
and accept a shared runner (``--jobs`` / ``--cache-dir``).
"""

from repro.campaigns.aggregate import (
    cross_campaign_summary,
    figure_from_campaign,
    load_store_table,
    merge_scenario_results,
    merge_transient_results,
    series_from_spec,
)
from repro.campaigns.catalog import CampaignCatalog, campaign_spec_hash
from repro.campaigns.columnar import ColumnarTable
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.records import execute_point, record_to_result, result_to_record
from repro.campaigns.runner import CampaignRun, CampaignRunner, execute_chunk
from repro.campaigns.spec import (
    CampaignSpec,
    PointSpec,
    SeriesPointSpec,
    SeriesSpec,
    derive_seed,
    grid,
    replicate_seeds,
)
from repro.campaigns.store import ResultStore
from repro.scenarios.kinds import crashed_processes

__all__ = [
    "CampaignCatalog",
    "CampaignRun",
    "CampaignRunner",
    "CampaignSpec",
    "ColumnarTable",
    "PointSpec",
    "QueueWorker",
    "ResultStore",
    "SeriesPointSpec",
    "SeriesSpec",
    "WorkQueue",
    "campaign_spec_hash",
    "crashed_processes",
    "cross_campaign_summary",
    "derive_seed",
    "execute_chunk",
    "execute_point",
    "figure_from_campaign",
    "grid",
    "load_store_table",
    "merge_scenario_results",
    "merge_transient_results",
    "record_to_result",
    "replicate_seeds",
    "result_to_record",
    "series_from_spec",
]
