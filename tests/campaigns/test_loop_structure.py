"""Structural rules of the campaign execution loop, checked on the source.

* The warm pool lives in ``runner.py``; there is no separate pool module.
* Every execution mode commits through one site: ``runner.py`` calls
  ``store.put`` exactly once.
* ``queue.py`` and ``runner.py`` import everything at module level: the
  point executor sits below both, so neither reaches into the other late.

The fourth rule -- the two command lines share no option outside the
execution options -- is ``test_execution.py``'s
``test_what_is_not_shared_stays_with_its_cli``.
"""

import ast
import pathlib

import repro

CAMPAIGNS = pathlib.Path(repro.__file__).resolve().parent / "campaigns"


def _tree(name):
    return ast.parse((CAMPAIGNS / name).read_text(encoding="utf-8"), filename=name)


def test_there_is_no_pool_module():
    assert not (CAMPAIGNS / "pool.py").exists()


def test_the_runner_commits_through_one_store_put():
    puts = [
        node.lineno
        for node in ast.walk(_tree("runner.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "store"
    ]
    assert len(puts) == 1, f"store.put at runner.py lines {puts}"


def test_queue_and_runner_import_nothing_inside_a_function():
    local = [
        f"{name}:{inner.lineno}"
        for name in ("queue.py", "runner.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []
