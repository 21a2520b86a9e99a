"""Structural rules of the clock-driven failure detector fabrics.

Every pair transition (crash detection, trust restoration, mistake begin /
end, partition detect / trust) is one entry of ``_due[kind][pair]``, armed
by ``_after`` and dropped by ``_cancel``, and one handler serves the exact
and the batched-scan backends.  So in ``failure_detectors/``:

* the kernel's ``schedule`` / ``schedule_at`` are called only by ``_after``
  (a pair transition) and ``_arm`` (the batched scan's one event);
* no ``_scan_*`` handler twin exists beside ``_scan`` itself;
* none of the per-kind handle maps, generation maps or cancel helpers the
  table replaced comes back.
"""

import ast
import pathlib

import repro

FD = pathlib.Path(repro.__file__).resolve().parent / "failure_detectors"

#: Names the pending-transition table replaced.
GONE = {
    "_pending",
    "_pending_detect",
    "_pending_trust",
    "_pending_part_detect",
    "_pending_part_trust",
    "_trust_armed",
    "_cal_gens",
    "_scan_dispatch",
    "_calendar_push",
    "_calendar_cancel",
    "_cancel_trust",
    "_cancel_part_trust",
}


def _functions():
    for path in sorted(FD.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def _schedules(function):
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("schedule", "schedule_at")
        and len(node.args) >= 2
    ]


def test_only_after_and_arm_call_the_kernel_schedule():
    callers = sorted(
        {f"{path.name}:{function.name}" for path, function in _functions() if _schedules(function)}
    )
    assert callers == ["fabric.py:_after", "fabric.py:_arm"]


def test_no_scan_handler_twins():
    twins = [
        f"{path.name}:{function.name}"
        for path, function in _functions()
        if function.name.startswith("_scan_")
    ]
    assert twins == []
    assert any(function.name == "_scan" for _path, function in _functions())


def test_the_replaced_bookkeeping_stays_gone():
    found = []
    for path in sorted(FD.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                else node.id if isinstance(node, ast.Name)
                else None
            )
            if name in GONE:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_transition_kind_has_one_handler():
    from repro.failure_detectors.perfect import PerfectFailureDetectorFabric
    from repro.failure_detectors.qos import QoSFailureDetectorFabric

    for fabric in (PerfectFailureDetectorFabric, QoSFailureDetectorFabric):
        assert len(set(fabric.kinds)) == len(fabric.kinds)
        for kind in fabric.kinds:
            assert callable(getattr(fabric, kind)), f"{fabric.__name__}.{kind}"
