"""Tests for the campaign catalog and its provenance records."""

import json
import os
import subprocess

import pytest

from repro import __version__
from repro.obs import export
from repro.campaigns.catalog import CampaignCatalog, campaign_spec_hash, catalog_name
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import SCHEMA_VERSION, grid


def quick_campaign(throughputs=(25.0,)):
    return grid(
        "normal-steady", stacks=("fd",), throughputs=throughputs, num_messages=10
    )


def record_quick_run(catalog):
    """Record one tiny run and return its summary."""
    campaign = quick_campaign()
    catalog.record_run(campaign, CampaignRunner().run(campaign), wall_clock_s=0.0, name="rev")
    return catalog.load("rev")


class TestSpecHash:
    def test_hash_is_stable_for_identical_grids(self):
        assert campaign_spec_hash(quick_campaign()) == campaign_spec_hash(quick_campaign())

    def test_hash_changes_with_the_grid(self):
        assert campaign_spec_hash(quick_campaign((25.0,))) != campaign_spec_hash(
            quick_campaign((50.0,))
        )

    def test_hash_is_name_independent(self):
        renamed = quick_campaign()
        renamed.name = "something-else"
        assert campaign_spec_hash(renamed) == campaign_spec_hash(quick_campaign())


class TestCatalogName:
    def test_passes_portable_names_through(self):
        assert catalog_name("figure4-quick") == "figure4-quick"

    def test_sanitises_hostile_names(self):
        assert "/" not in catalog_name("a/b c:d")
        assert catalog_name("../../etc") == "etc"

    def test_empty_name_gets_a_default(self):
        assert catalog_name("///") == "campaign"


class TestGitRevision:
    def test_resolves_inside_this_checkout(self, tmp_path):
        rev = export.git_revision()
        assert rev is None or (4 <= len(rev) < 40 and all(
            ch in "0123456789abcdef" for ch in rev
        ))
        assert record_quick_run(CampaignCatalog(str(tmp_path)))["git_rev"] == rev

    def test_null_outside_a_checkout(self, tmp_path, monkeypatch):
        def no_checkout(*args, **kwargs):
            raise subprocess.CalledProcessError(128, args[0])

        monkeypatch.setattr(export, "_git_rev_cache", [])
        monkeypatch.setattr(export.subprocess, "run", no_checkout)
        assert record_quick_run(CampaignCatalog(str(tmp_path)))["git_rev"] is None


class TestCampaignCatalog:
    def record_quick_run(self, catalog, name=None, store_path=None):
        campaign = quick_campaign()
        run = CampaignRunner().run(campaign)
        return campaign, catalog.record_run(
            campaign, run, wall_clock_s=1.25, name=name, store_path=store_path
        )

    def test_record_run_writes_summary_and_history(self, tmp_path):
        catalog = CampaignCatalog(str(tmp_path))
        campaign, summary_path = self.record_quick_run(catalog, name="smoke")
        assert os.path.exists(summary_path)
        summary = catalog.load("smoke")
        assert summary["name"] == "smoke"
        assert summary["campaign"] == campaign.name
        assert summary["spec_hash"] == campaign_spec_hash(campaign)
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["repro_version"] == __version__
        assert summary["points"] == 1 and summary["executed"] == 1
        assert summary["cache_hits"] == 0
        assert summary["wall_clock_s"] == 1.25
        assert summary["series"] == [series.label for series in campaign.series]
        assert catalog.history("smoke") == [summary]

    def test_reruns_append_history_and_replace_summary(self, tmp_path):
        catalog = CampaignCatalog(str(tmp_path))
        self.record_quick_run(catalog, name="smoke")
        self.record_quick_run(catalog, name="smoke")
        assert len(catalog.history("smoke")) == 2
        with open(catalog.summary_path("smoke"), encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1  # summary.json is the latest run only
        assert json.loads(lines[0]) == catalog.history("smoke")[-1]

    def test_store_path_recorded_absolute(self, tmp_path):
        catalog = CampaignCatalog(str(tmp_path / "cat"))
        self.record_quick_run(
            catalog, name="stored", store_path=str(tmp_path / "cache" / "results.jsonl")
        )
        assert os.path.isabs(catalog.load("stored")["store_path"])

    def test_names_and_summaries_enumerate_entries(self, tmp_path):
        catalog = CampaignCatalog(str(tmp_path))
        self.record_quick_run(catalog, name="beta")
        self.record_quick_run(catalog, name="alpha")
        assert catalog.names() == ["alpha", "beta"]
        assert [summary["name"] for summary in catalog.summaries()] == ["alpha", "beta"]

    def test_load_unknown_name_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            CampaignCatalog(str(tmp_path)).load("nope")

    def test_default_name_is_the_campaign_name(self, tmp_path):
        catalog = CampaignCatalog(str(tmp_path))
        campaign, _ = self.record_quick_run(catalog)
        assert catalog_name(campaign.name) in catalog.names()
