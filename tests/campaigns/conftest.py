"""Fixtures shared by the campaign tests."""

import json

import pytest


@pytest.fixture
def parses(monkeypatch):
    """Every argument ``json.loads`` is called with (a clock-free work count)."""
    seen = []
    real = json.loads

    def counting(text, *args, **kwargs):
        seen.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return seen
