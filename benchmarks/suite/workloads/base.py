"""What a workload is, and the steady-state run the first two share."""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import paths  # noqa: F401  (src/ on sys.path)
from checks import require
from harness import PassContext, PassResult
from tracing import Tracer

from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.system import build_system


class Workload:
    """One set of generated inputs and the pass that runs them.

    A pass takes the seed and hands the program only generated inputs
    (configs, specs, grids).  Host side it is one thread running one call
    after another; the simulated arrival process is stated per workload in
    :mod:`spec`.
    """

    name: str = ""
    #: Run one untimed pass first (``figures_quick`` does not: users pay it cold).
    warmup: bool = True
    #: Count the largest child process in ``peak_rss_mb``.
    include_children: bool = False
    #: Modules a fresh interpreter imports before it can run the workload.
    setup_imports: Tuple[str, ...] = ()
    #: Sizes per mode; recorded in every result file's provenance stamp.
    SIZES: Dict[str, Dict[str, Any]] = {}

    def sizes(self, smoke: bool) -> Dict[str, Any]:
        return dict(self.SIZES["smoke" if smoke else "full"])

    def run_pass(
        self, seed: int, sizes: Dict[str, Any], tracer: Tracer, instrument: bool
    ) -> PassResult:
        raise NotImplementedError

    def check_layers(self, values: Dict[str, float], tracer: Tracer) -> None:
        """Assert the separating predictions on the traced pass's rows."""
        require(
            self.name == "service_kv"
            or (values["load.service.shed"] == 0 and values["load.service.queued"] == 0),
            f"{self.name}: load.* counts must be 0 outside service_kv",
        )


def derived_seed(seed: int, label: str) -> int:
    """A seed of its own for each run of a pass.

    Systems built from one seed draw the same arrival times, so their
    simulated durations -- and with them the work of a pass -- would rise and
    fall together from seed to seed.  Independent runs average out instead.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def run_steady(ctx: PassContext, seed: int, spec: SteadyStateSpec, label: str) -> ScenarioResult:
    """Build a system, run one steady-state point on it, check and account it.

    The point runs under its own seed, derived from the pass's and ``label``.
    """
    spec = replace(spec, config=spec.config.with_seed(derived_seed(seed, label)))
    started = time.perf_counter()
    system = build_system(spec.config)
    result = ScenarioRunner().run_steady_on(system, spec)
    ctx.event_wall_s += time.perf_counter() - started
    ctx.events += result.events
    ctx.attempted += result.measured
    ctx.failed += result.undelivered
    ctx.fold(label, result.events, result.latencies)
    ctx.fold_metrics(result.metrics)
    ctx.finish_system(system, label)
    return result


def finish_pass(
    ctx: PassContext,
    started: float,
    exact: Dict[str, float],
    *,
    ops: Optional[int] = None,
    ops_wall_s: Optional[float] = None,
    host: Optional[Dict[str, float]] = None,
    layer: Optional[Dict[str, float]] = None,
) -> PassResult:
    """Stop the pass's clock and assemble its result."""
    wall_s = time.perf_counter() - started - ctx.check_s
    exact = dict(exact)
    exact["failed_share"] = ctx.failed / ctx.attempted if ctx.attempted else 0.0
    return PassResult(
        wall_s=wall_s,
        events=ctx.events,
        event_wall_s=ctx.event_wall_s,
        ops=ctx.attempted if ops is None else ops,
        ops_wall_s=wall_s if ops_wall_s is None else ops_wall_s,
        attempted=ctx.attempted,
        failed=ctx.failed,
        exact=exact,
        sim_digest=ctx.digest(),
        host=host or {},
        layer=layer or {},
        counts=ctx.count_rows() if ctx.instrument else {},
    )
