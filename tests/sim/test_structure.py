"""Structural rules of the kernel seam, checked on the source of ``src/``.

* The clock has one writer: only ``sim/engine.py`` assigns a ``.now``.
* ``post*`` when you drop the handle, ``schedule*`` when you keep it: no
  call to the kernel's ``schedule`` / ``schedule_at`` stands alone as a
  statement, throwing its :class:`~repro.sim.engine.EventHandle` away.
* :class:`~repro.sim.resources.FIFOResource` carries no write-only state.
* There is one event loop: one function of ``sim/engine.py`` pops the heap.
* No program state is write-only and no entry point is uncalled: every
  attribute a class of ``src/repro`` stores is loaded as an attribute
  (``x.name``) by ``src/repro`` or ``benchmarks/suite``, and every public
  function, method and class is loaded by ``src/repro``, ``benchmarks/`` or
  ``examples/`` (a method only as an attribute), unless :data:`TEST_ONLY`
  names it with its reason.  A local or parameter of the same name is no
  read and no call.
* Every process has a failure detector: no expression compares a
  ``.failure_detector`` (or a local bound to one) with ``None``.
"""

import ast
import functools
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
ENGINE = SRC / "sim" / "engine.py"
REPO = SRC.parent.parent


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


_NETWORK_STATS = "read by name through NetworkStats.as_dict(), i.e. system.message_stats()"
_QUEUE = "the queue's progress; its directory layout stays private to the queue"
_MODEL = "the closed-form cost model the analysis tests hold the simulator to"

#: ``Class.name`` (or a module-level ``name``) that no program loads and that
#: stays anyway, with the reason.  Each is a test seam that steers or exposes
#: state no other API does, documented API, or evidence a ROADMAP item reads.
TEST_ONLY = {
    "ReliableBroadcast.relays": "ROADMAP 16's evidence: the relays of a run",
    "ReliableBroadcast.unstable_count": "the unstable-message buffer, no other view",
    "FailureDetector.force_suspect": "steers a detector",
    "FailureDetector.force_trust": "steers a detector",
    "Simulator.pending_events": "the kernel queue's live entries",
    "Simulator.cancelled_pending_events": "the kernel queue's cancelled entries",
    "FIFOResource.queue_length": "FIFO resource stats",
    "FIFOResource.jobs_served": "FIFO resource stats",
    "FIFOResource.busy_time": "FIFO resource stats",
    "FIFOResource.busy": "FIFO resource stats",
    "SimProcess.component": "a process's component by protocol name, no other view",
    "ColumnarTable.row": "one row of the columnar mirror as a dict, no other view",
    "MessageCost.total": _MODEL,
    "Command.request_id": "part of a Command's value: a client's two equal operations stay "
                          "two commands",
    "ScenarioResult.observed_digest": "what the runner goldens pin; ROADMAP 10(a) puts it "
                                      "in records",
    "ServiceRequest.reply": "the reply a client gets, which the KV service tests check",
    "FigurePoint.samples": "the sample count behind a point's CI: the aggregation tests "
                           "see seed pooling in it",
    "Lease.worker": _QUEUE,
    "WorkQueue.results": _QUEUE,
    "Network.network_resource": "the medium, whose FIFO resource stats tests read",
    "Instrumentation.subscribe": "README API; ROADMAP 3(b) builds on it",
    "Instrumentation.unsubscribe": "README API; ROADMAP 3(b) builds on it",
    "Instrumentation.counter": "one counter, 0 when never touched",
    "write_metrics": "README API: writes one metrics.json",
    "unregister_kind": "undoes a registration a test made",
    "unregister_stack": "undoes a registration a test made",
    "unregister_fd_kind": "undoes a registration a test made",
    "stack_variants": "every selectable stack name, which tests sweep",
    "GroupMembership.is_sequencer": "the reference for the cached sequencer flag",
    "BatchingAtomicBroadcast.pending_count": "the batch buffer, no other view",
    "LoadTestedService.inflight": "the admission window's occupancy, no other view",
    "Message.remote_destinations": "the view of the slot the network reads directly",
    **{
        f"Summary.{name}": "a field of Summary, the shape every caller gets"
        for name in ("minimum", "maximum", "std", "confidence")
    },
    "WorkQueue.result_entry": _QUEUE,
    "WorkQueue.pending_count": _QUEUE,
    "WorkQueue.result_count": _QUEUE,
    "CostModel.crash_transient_overhead": _MODEL,
    "CostModel.messages_per_broadcast": _MODEL,
    "CostModel.view_change_messages": _MODEL,
    **{
        f"NetworkStats.{name}": _NETWORK_STATS
        for name in (
            "messages_sent", "unicasts_sent", "multicasts_sent", "deliveries",
            "dropped_sender_crashed", "dropped_receiver_crashed", "duplicated_link",
        )
    },
}


def _loads(*roots):
    """``(names, attributes)``: what AST ``Name`` and ``Attribute`` loads under ``roots`` use.

    An import (a re-export) and an ``__all__`` string are no loads.
    """
    names, attributes = set(), set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
    return names, attributes


def _stored(cls):
    """Names ``cls`` stores on ``self`` or declares as class-body fields."""
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _definitions(body, owner=""):
    """``(qualified name, name)`` of each public def and class, classes recursed."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield f"{owner}{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{node.name}.")


def _findings(trees, read, called):
    """``(write-only attributes, uncalled definitions)`` of ``trees``, qualified.

    ``read`` and ``called`` are :func:`_loads` pairs.  A stored attribute
    counts as read only on an attribute load.  A module-level name counts as
    called on either load; a class member only on an attribute one.
    """
    read = read[1]
    names, attributes = called
    write_only, uncalled = set(), set()
    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            write_only.update(f"{cls.name}.{name}" for name in _stored(cls) if name not in read)
        for qualified, name in _definitions(tree.body):
            if name not in attributes and ("." in qualified or name not in names):
                uncalled.add(qualified)
    return write_only, uncalled


@functools.lru_cache(maxsize=None)
def _source_findings():
    read = _loads(SRC, REPO / "benchmarks" / "suite")
    called = _loads(SRC, REPO / "benchmarks", REPO / "examples")
    return _findings((tree for _path, tree in _trees()), read, called)


def test_no_state_is_write_only():
    write_only, _uncalled = _source_findings()
    unlisted = sorted(write_only - set(TEST_ONLY))
    assert unlisted == [], f"stored and never read by a program, delete them: {unlisted}"


def test_every_public_entry_point_is_called():
    _write_only, uncalled = _source_findings()
    unlisted = sorted(uncalled - set(TEST_ONLY))
    assert unlisted == [], f"no program calls these, delete them: {unlisted}"


def test_the_allowlist_names_only_what_no_program_reads():
    write_only, uncalled = _source_findings()
    stale = sorted(set(TEST_ONLY) - write_only - uncalled)
    assert stale == [], f"a program reads these now, or they are gone: {stale}"


def test_the_rules_see_a_write_only_tally_and_an_uncalled_view(tmp_path):
    # Guards the two rules above against passing vacuously.
    source = (
        "class Detector:\n"
        "    def __init__(self, history):\n"
        "        self.events = 0\n"
        "        self.suspected = set()\n"
        "        self.history = history\n"
        "    def suspect(self, pid):\n"
        "        self.events += 1\n"
        "        self.suspected.add(pid)\n"
        "    def summary(self):\n"
        "        history = len(self.suspected)\n"
        "        return history\n"
        "    def total(self):\n"
        "        return 0\n"
        "total = 1\n"
        "Detector([]).suspect(total)\n"
    )
    (tmp_path / "detector.py").write_text(source, encoding="utf-8")
    loads = _loads(tmp_path)
    assert _findings([ast.parse(source)], loads, loads) == (
        {"Detector.events", "Detector.history"}, {"Detector.summary", "Detector.total"}
    )


def _detector_none_checks(tree):
    """Lines where a ``.failure_detector``, or a local bound to one, is compared with ``None``."""
    def is_detector(node):
        return isinstance(node, ast.Attribute) and node.attr == "failure_detector"

    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        aliases = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and is_detector(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands) and any(
                is_detector(o) or (isinstance(o, ast.Name) and o.id in aliases) for o in operands
            ):
                lines.add(node.lineno)
    return lines


def test_no_process_is_without_a_failure_detector():
    # ``BroadcastSystem._build`` attaches a detector before any component.
    checks = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path, tree in _trees()
        for line in sorted(_detector_none_checks(tree))
    ]
    assert checks == [], f"a process always has a failure detector: {checks}"


def test_the_detector_rule_sees_a_guard_through_a_local():
    # Guards the rule above against passing vacuously.
    source = (
        "def suspects(process, pid):\n"
        "    detector = process.failure_detector\n"
        "    return detector is not None and detector.is_suspected(pid)\n"
        "def start(process):\n"
        "    if process.failure_detector is None:\n"
        "        return\n"
        "def trusted(process):\n"
        "    detector = process.failure_detector\n"
        "    return detector.suspected() is None\n"  # compares what it returns
    )
    assert _detector_none_checks(ast.parse(source)) == {3, 5}
