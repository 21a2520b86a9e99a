"""Structural rules of the fault seam, checked on the source of ``src/``.

A fault is one class: each timed :class:`~repro.scenarios.faults.FaultEvent`
subclass posts its own kernel events, so

* ``FaultSchedule.schedule`` is one loop, with no ``isinstance`` ladder;
* every concrete event class but the expanding ``PoissonChurn`` defines
  ``schedule``;
* ``BroadcastSystem`` carries no scheduled twin of a fault (``*_at``) and no
  pass-through of the network's fault methods;
* there is no capability protocol restating the system's fault methods.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
FAULTS = SRC / "scenarios" / "faults.py"
SYSTEM = SRC / "system.py"


def _classes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


def _methods(cls):
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_fault_schedule_schedule_has_no_isinstance():
    schedule = _methods(_classes(FAULTS)["FaultSchedule"])["schedule"]
    calls = [
        node.lineno
        for node in ast.walk(schedule)
        if isinstance(node, ast.Name) and node.id == "isinstance"
    ]
    assert calls == [], f"FaultSchedule.schedule dispatches on type at lines {calls}"


def test_every_timed_event_class_schedules_itself():
    events = {
        name: cls
        for name, cls in _classes(FAULTS).items()
        if any(isinstance(base, ast.Name) and base.id == "FaultEvent" for base in cls.bases)
    }
    assert len(events) >= 10, sorted(events)  # guards against a vacuous pass
    missing = sorted(
        name
        for name, cls in events.items()
        if name != "PoissonChurn" and "schedule" not in _methods(cls)
    )
    assert missing == [], f"fault events without their own schedule(): {missing}"


def test_broadcast_system_has_no_scheduled_fault_twins():
    methods = _methods(_classes(SYSTEM)["BroadcastSystem"])
    scheduled = sorted(name for name in methods if name.endswith("_at"))
    assert scheduled == ["broadcast_at"], f"scheduled twins on BroadcastSystem: {scheduled}"
    network_faults = {"partition", "block_links", "heal", "degrade_cpu", "restore_cpu", "degrade_link"}
    assert network_faults & set(methods) == set()
    assert {"crash", "recover", "suspect_permanently", "suspect_during"} <= set(methods)


def test_no_fault_capability_protocol_in_src():
    # The deleted protocol's name, spelled in two parts so that the only
    # mention left in the repository is none at all.
    name = "Fault" + "Injectable"
    mentions = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if name in text:
            mentions.append(str(path.relative_to(SRC.parent)))
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Protocol" for base in cls.bases
            ):
                faults = sorted(
                    method
                    for method in _methods(cls)
                    if method in ("crash", "recover") or method.endswith("_at")
                )
                if faults:
                    mentions.append(f"{cls.name}: {faults}")
    assert mentions == []
