"""Structural rules of the kernel seam, checked on the source of ``src/``.

* The clock has one writer: only ``sim/engine.py`` assigns a ``.now``.
* ``post*`` when you drop the handle, ``schedule*`` when you keep it: no
  call to the kernel's ``schedule`` / ``schedule_at`` stands alone as a
  statement, throwing its :class:`~repro.sim.engine.EventHandle` away.
* :class:`~repro.sim.resources.FIFOResource` carries no write-only state.
* There is one event loop: one function of ``sim/engine.py`` pops the heap.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
ENGINE = SRC / "sim" / "engine.py"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _where(path, node):
    return f"{path.relative_to(SRC.parent)}:{node.lineno}"


def test_only_the_kernel_writes_the_clock():
    writes = []
    for path, tree in _trees():
        if path == ENGINE:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                writes.append(_where(path, node))
    assert writes == [], f"`.now` is written outside sim/engine.py: {writes}"


def test_the_kernel_itself_still_writes_it():
    # Guards the rule above against passing vacuously after a rename.
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"))
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "now" and isinstance(node.ctx, ast.Store)
        for node in ast.walk(tree)
    )


def _is_kernel_schedule_call(node):
    """``<x>.schedule(delay, callback, ...)`` / ``<x>.schedule_at(time, callback, ...)``.

    Two or more positional arguments tell the kernel's entry points from
    ``FaultSchedule.schedule(system)``, the one other ``schedule`` in ``src/``.
    """
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("schedule", "schedule_at")
        and len(node.args) >= 2
    )


def test_every_schedule_call_keeps_its_handle():
    dropped = []
    kept = 0
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and _is_kernel_schedule_call(node.value):
                dropped.append(_where(path, node))
            elif _is_kernel_schedule_call(node):
                kept += 1
    assert dropped == [], (
        f"schedule*() called for its side effect only (use post*()): {dropped}"
    )
    # The timers and the failure detector fabric (``_after``, ``_arm``) do
    # keep handles.
    assert kept >= 3


def test_fifo_resource_has_no_write_only_attribute():
    tree = ast.parse((SRC / "sim" / "resources.py").read_text(encoding="utf-8"))
    (cls,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "FIFOResource"
    ]
    written, read = set(), set()
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            (read if isinstance(node.ctx, ast.Load) else written).add(node.attr)
    (slots,) = [
        node.value for node in cls.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__"
    ]
    declared = {element.value for element in slots.elts}
    assert written == declared, "every slot is initialised, and nothing else is"
    assert written - read == set(), f"written and never read: {sorted(written - read)}"


def test_one_function_of_the_kernel_pops_the_heap():
    """A second run loop (say, a hook-free copy of the first) has to pop too."""
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"))
    poppers = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            (isinstance(inner, ast.Name) and inner.id == "heappop")
            or (isinstance(inner, ast.Attribute) and inner.attr == "heappop")
            for inner in ast.walk(node)
        ):
            poppers.append(node.name)
    assert poppers == ["run"], f"functions of sim/engine.py that pop the heap: {poppers}"
