"""Who owns a system closes it, checked on the source of ``src/``.

A finished :class:`~repro.system.BroadcastSystem` is one reference cycle
until :meth:`~repro.system.BroadcastSystem.close` breaks it.  So every
``build_system(...)`` / ``BroadcastSystem(...)`` call in ``src/repro/``
(outside ``system.py``, which defines both) is the context expression of a
``with`` item: the owner closes the system even when the run raises.
Docstring examples are strings, not calls, and fall outside the rule.

:meth:`ScenarioRunner.run_steady_on
<repro.scenarios.runner.ScenarioRunner.run_steady_on>` is the one entry that
runs a system its caller built and keeps open.
"""

import ast
import inspect
import pathlib

import repro
from repro.scenarios.runner import ScenarioRunner

SRC = pathlib.Path(repro.__file__).resolve().parent
BUILDERS = ("build_system", "BroadcastSystem")


def _called_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _system_constructions():
    """``(where, is_with_item)`` of every system construction in ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "system.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        with_items = {
            id(item.context_expr)
            for node in ast.walk(tree)
            if isinstance(node, ast.With)
            for item in node.items
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in BUILDERS:
                yield f"{path.relative_to(SRC.parent)}:{node.lineno}", id(node) in with_items


def test_every_system_built_in_src_is_a_with_item():
    constructions = list(_system_constructions())
    open_systems = [where for where, closed in constructions if not closed]
    assert open_systems == [], (
        f"build a system as `with build_system(config) as system:` so it is "
        f"closed: {open_systems}"
    )
    # The steady and probe runners and the service-load point: guards the
    # rule above against passing vacuously after a rename.
    assert len(constructions) >= 3


def test_run_steady_on_is_the_one_caller_owned_entry():
    takes_a_system = [
        name
        for name, method in inspect.getmembers(ScenarioRunner, inspect.isfunction)
        if not name.startswith("_") and "system" in inspect.signature(method).parameters
    ]
    assert takes_a_system == ["run_steady_on"]
