"""The example scripts run end to end against the current API.

Each example is a standalone script (``python examples/<name>.py``) whose
``main()`` takes well under a second, so every one runs here as it does from
the command line (no arguments), plus the replicated KV store's load test
with batching off and on.
"""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "examples")
NAMES = sorted(name[:-3] for name in os.listdir(EXAMPLES) if name.endswith(".py"))


def load(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", os.path.join(EXAMPLES, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_six_examples():
    assert len(NAMES) == 6


@pytest.mark.parametrize("name", NAMES)
def test_example_runs(name, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [os.path.join(EXAMPLES, f"{name}.py")])
    load(name).main()
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("max_batch", [0, 8])
def test_replicated_kv_store_runs(max_batch):
    outcome = load("replicated_kv_store").run_once("fd", max_batch)
    assert outcome["consistent"] and outcome["identical"]
    assert outcome["survivors"] == 5 and outcome["goodput"] > 0
