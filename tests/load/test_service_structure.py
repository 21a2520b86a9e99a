"""The replicated KV service has one request path, checked on the source.

In ``src/repro/replication/`` and ``src/repro/load/``:

* only ``ReplicatedService.__init__`` hangs a delivery listener on the
  abcasts, so every abcast carries exactly one listener of the service.
  The batching wrapper is not service code but an atomic broadcast layer of
  its own: it subscribes to the stack it wraps, beneath the service;
* completion is announced through the service-wide completion listeners
  alone: no function takes an ``on_complete`` callback;
* one request record: no ``ClientRequest`` class, and ``ServiceRequest``
  holds no per-request ``callbacks``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
PACKAGES = ("replication", "load")


def _trees():
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC.parent), ast.parse(path.read_text(encoding="utf-8"))


def _functions(tree):
    """``(qualified name, node)`` of every function, methods by ``Class.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.Module):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def test_only_the_replicated_service_constructor_listens_for_deliveries():
    callers = []
    for where, tree in _trees():
        for name, function in _functions(tree):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_delivery_listener"
                ):
                    callers.append(f"{where}:{name}")
    assert sorted(callers) == [
        "repro/load/batching.py:BatchingAtomicBroadcast.__init__",
        "repro/replication/service.py:ReplicatedService.__init__",
    ]


def test_no_function_takes_a_completion_callback():
    takers = []
    for where, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args
                names = [
                    arg.arg
                    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                ]
                if "on_complete" in names:
                    takers.append(f"{where}:{node.lineno}")
    assert takers == []


def test_one_request_record():
    classes = {
        node.name: node
        for _where, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    assert "ClientRequest" not in classes
    fields = [
        statement.target.id
        for statement in classes["ServiceRequest"].body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    ]
    assert "callbacks" not in fields
    assert fields[:4] == ["index", "command", "sender", "submitted_at"]
