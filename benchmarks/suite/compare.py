"""``run.py --compare A B``: judge result directory B against baseline A.

One verdict per metric and workload -- improved / unchanged / regressed /
unresolved -- from the metric's fixed bound in :mod:`spec` and a median/MAD
robust score (``(x - median) / (1.4826 * MAD + eps)``, the formula of the OSM
pipeline in SNIPPETS.md), in place of the per-script magic ratios of the
legacy benchmarks:

* a host-time metric *regressed* (*improved*) when B's median is worse
  (better) than A's by more than the bound **and** the difference is at
  least three robust deviations of the noisier side; beyond the bound but
  inside the noise it is *unresolved*; within the bound it is *unchanged*,
  unless the run-to-run spread is itself wider than the bound -- then
  nothing can be said and it is *unresolved* too;
* exact metrics (``sim_*``, pass shares, counts) and the ``sim_digest``
  compare by equality when both sides ran the same seed: equal is
  *unchanged*, anything else is *regressed* or *improved* by direction once
  past the bound, *changed* inside it;
* per-layer rows carry no bound: they are reported as *moved* or *steady*
  by the robust score alone and never fail the comparison.

The exit code is 1 when any end-to-end metric regressed or a digest differs
at the same seed.  This is also the tool for the "two sets of runs of one
commit agree" criterion.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, Tuple

import spec

EPSILON = 1e-12
#: MAD -> standard deviation of a normal distribution.
MAD_SCALE = 1.4826
#: Robust deviations a difference must reach to count as outside the noise.
Z_LIMIT = 3.0
#: Per-layer rows have no bound; most are single samples with no noise
#: estimate, so a change must also exceed this share to read as "moved".
LAYER_MOVE = 0.10

Key = Tuple[str, str]


def load(directory: str) -> Tuple[Dict[Key, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """Rows by (workload, metric) and provenance by file, from a result directory."""
    rows: Dict[Key, Dict[str, Any]] = {}
    stamps: Dict[str, Dict[str, Any]] = {}  # file name -> provenance + its workload
    files = sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))
                   + glob.glob(os.path.join(directory, "trace.*.json")))
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        stamps[os.path.basename(path)] = {
            **payload["provenance"], "workload": payload["rows"][0]["workload"]
        }
        for row in payload["rows"]:
            rows[(row["workload"], row["metric"])] = row
    return rows, stamps


def worsening(metric: spec.Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    delta = (new - base) if metric.better == "lower" else (base - new)
    if base == 0:
        return 0.0 if delta == 0 else (float("inf") if delta > 0 else float("-inf"))
    return delta / abs(base)


def robust_score(base: Dict[str, Any], new: Dict[str, Any]) -> float:
    noise = MAD_SCALE * max(base["mad"], new["mad"])
    return abs(new["median"] - base["median"]) / (noise + EPSILON)


def judge(metric: spec.Metric, base: Dict[str, Any], new: Dict[str, Any], same_seed: bool) -> str:
    worse = worsening(metric, base["median"], new["median"])
    if metric.exact:
        if not same_seed:
            return "other-seed"
        if new["median"] == base["median"]:
            return "unchanged"
        if metric.bound_abs is not None:
            beyond = abs(new["median"] - base["median"]) > metric.bound_abs
        else:
            beyond = metric.bound is None or abs(worse) > metric.bound
        if metric.tier == "layer" or not beyond:
            return "changed"
        return "regressed" if worse > 0 else "improved"
    score = robust_score(base, new)
    if metric.bound is None:
        return "moved" if score >= Z_LIMIT and abs(worse) > LAYER_MOVE else "steady"
    if abs(worse) > metric.bound:
        if score < Z_LIMIT:
            return "unresolved"
        return "regressed" if worse > 0 else "improved"
    spread = MAD_SCALE * max(base["mad"], new["mad"]) / (abs(base["median"]) + EPSILON)
    return "unresolved" if spread > metric.bound else "unchanged"


def main(base_dir: str, new_dir: str) -> int:
    base_rows, base_stamps = load(base_dir)
    new_rows, new_stamps = load(new_dir)
    if not base_rows or not new_rows:
        print(f"no result files in {base_dir if not base_rows else new_dir}")
        return 2
    failed = False
    seeds: Dict[str, bool] = {}
    for name in sorted(set(base_stamps) & set(new_stamps)):
        a, b = base_stamps[name], new_stamps[name]
        same = a["seed"] == b["seed"] and a["sizes"] == b["sizes"]
        seeds[a["workload"]] = seeds.get(a["workload"], True) and same
        if same:
            equal = a["sim_digest"] == b["sim_digest"]
            failed = failed or not equal
            print(f"{name} sim_digest {'unchanged' if equal else 'CHANGED'} "
                  f"({a['sim_digest']} -> {b['sim_digest']})")
        else:
            print(f"{name} sim_digest other-seed (seed or sizes differ; exact rows are skipped)")
    for key in sorted(set(base_rows) & set(new_rows)):
        workload, name = key
        try:
            metric = spec.metric(name)
        except KeyError:
            print(f"{workload} {name} undeclared")
            continue
        base, new = base_rows[key], new_rows[key]
        verdict = judge(metric, base, new, seeds.get(workload, False))
        if metric.tier != "layer" and verdict == "regressed":
            failed = True
        worse = worsening(metric, base["median"], new["median"])
        print(f"{workload} {name} {verdict} {base['median']:.6g} -> {new['median']:.6g} "
              f"{metric.unit} ({-worse * 100:+.2f} % {'better' if worse <= 0 else 'worse'}, "
              f"z {min(robust_score(base, new), 999):.1f}, bound {_bound(metric)})")
    only = sorted(set(base_rows) ^ set(new_rows))
    for workload, name in only:
        print(f"{workload} {name} only in {'A' if (workload, name) in base_rows else 'B'}")
    return 1 if failed else 0


def _bound(metric: spec.Metric) -> str:
    if metric.bound_abs is not None:
        return f"{metric.bound_abs:g} abs"
    return "-" if metric.bound is None else f"{metric.bound * 100:g} %"
