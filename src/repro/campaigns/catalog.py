"""Campaign catalog: named stored campaigns with per-run provenance.

A campaign that took a fleet-night to simulate is only as useful as the
metadata that says *what* it was: which spec, which code, which schema, how
long it took.  The catalog records exactly that, one directory per named
campaign::

    <catalog>/<name>/summary.json    the latest run (atomic overwrite)
    <catalog>/<name>/runs.jsonl      append-only history of every run

``summary.json`` carries the campaign spec hash (a content hash over the
sorted point keys, so two sessions declaring the same grid hash
identically), the cache schema version, the package version, the git
revision the run was produced by (``git_rev``: the short sha of
:func:`repro.obs.export.git_revision`, ``null`` outside a checkout),
wall-clock time and the cache/executed split -- enough to decide, months
later, whether stored results are still trustworthy or need ``--force``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.campaigns.spec import SCHEMA_VERSION, CampaignSpec
from repro.obs.export import git_revision

#: Catalog entry names are directory names: keep them portable.
_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def campaign_spec_hash(campaign: CampaignSpec) -> str:
    """Content hash of a campaign: name-independent identity of its grid.

    Hashes the sorted point keys (each already a content hash of one
    operating point under the current schema), so the hash changes exactly
    when the simulated grid changes.
    """
    payload = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "points": sorted(point.key() for point in campaign.points()),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def catalog_name(name: str) -> str:
    """Sanitise a campaign name into a portable directory name."""
    cleaned = _SAFE_NAME.sub("-", name).strip("-.")
    return cleaned or "campaign"


class CampaignCatalog:
    """Directory of named stored campaigns and their run provenance."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _entry_dir(self, name: str) -> str:
        return os.path.join(self.directory, catalog_name(name))

    def summary_path(self, name: str) -> str:
        return os.path.join(self._entry_dir(name), "summary.json")

    def record_run(
        self,
        campaign: CampaignSpec,
        run: Any,
        *,
        wall_clock_s: float,
        name: Optional[str] = None,
        store_path: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Store the provenance of one completed run; returns the summary path.

        ``run`` is the :class:`repro.campaigns.runner.CampaignRun`;
        ``store_path`` names the result store the records live in (when one
        was used).  ``summary.json`` is replaced atomically, and the same
        summary is appended to ``runs.jsonl`` as history.
        """
        entry_name = catalog_name(name or campaign.name)
        entry_dir = self._entry_dir(entry_name)
        os.makedirs(entry_dir, exist_ok=True)
        summary: Dict[str, Any] = {
            "name": entry_name,
            "campaign": campaign.name,
            "description": campaign.description,
            "spec_hash": campaign_spec_hash(campaign),
            "schema_version": SCHEMA_VERSION,
            "repro_version": __version__,
            "git_rev": git_revision(),
            "recorded_unix": time.time(),
            "wall_clock_s": wall_clock_s,
            "points": len(run.records),
            "executed": run.executed,
            "cache_hits": run.cache_hits,
            "series": [series.label for series in campaign.series],
        }
        if store_path is not None:
            summary["store_path"] = os.path.abspath(store_path)
        if extra:
            summary.update(extra)
        line = json.dumps(summary, sort_keys=True)
        with open(os.path.join(entry_dir, "runs.jsonl"), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        summary_path = self.summary_path(entry_name)
        tmp = f"{summary_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, summary_path)
        return summary_path

    def load(self, name: str) -> Dict[str, Any]:
        """The latest summary of a named campaign (KeyError when absent)."""
        try:
            with open(self.summary_path(name), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            raise KeyError(f"no catalogued campaign named {name!r}") from None

    def history(self, name: str) -> List[Dict[str, Any]]:
        """Every recorded run of a named campaign, oldest first."""
        path = os.path.join(self._entry_dir(name), "runs.jsonl")
        entries: List[Dict[str, Any]] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        entries.append(json.loads(line))
        except OSError:
            pass
        return entries

    def names(self) -> List[str]:
        """Every catalogued campaign name, sorted."""
        try:
            candidates = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            name
            for name in candidates
            if os.path.exists(self.summary_path(name))
        ]

    def summaries(self) -> List[Dict[str, Any]]:
        """The latest summary of every catalogued campaign."""
        return [self.load(name) for name in self.names()]
