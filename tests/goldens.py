"""The suite's committed JSON pins, read and compared in one place.

Frozen pins record history and are only ever read, with :func:`load`:
``kind_records.json``, ``kind_keys.json``, ``keys_v11_to_v12.json`` and
``cli_options.json``.  Captured pins record what the code does today, and
:func:`check` compares a fresh capture with the committed file byte for byte:
``fault_events.json``, ``scan_events.json``, ``figures.json``,
``service_points.json`` and ``consensus_counters.json``.

To re-capture a pin after a deliberate change of behaviour, delete its file
and rerun its test.  ``check`` then writes the file and fails, so a new pin is
reviewed and committed, never accepted silently.
"""

import glob
import json
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))


def load(name):
    """The pin called ``name`` (a file under ``tests/*/data/``), parsed."""
    (path,) = glob.glob(os.path.join(TESTS, "*", "data", name))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(path, payload, sort_keys=False):
    """Assert that ``payload`` renders to the pin at ``path`` byte for byte.

    A missing pin is written from ``payload`` and the test fails.
    """
    text = json.dumps(payload, indent=1, sort_keys=sort_keys) + "\n"
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pytest.fail(f"captured {path}: review and commit it")
    with open(path, encoding="utf-8") as handle:
        assert text == handle.read()
