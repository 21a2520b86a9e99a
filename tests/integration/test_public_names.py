"""Every package keeps its public names, though none is imported eagerly.

A package ``__init__`` resolves the names of its ``__all__`` on first access
(PEP 562).  Each must still resolve as an attribute, be listed by ``dir()``
and be bound by ``from package import *``; the scenario package's
``run_<kind>`` entry points and the built-in kinds, which register on the
first registry call, must look as they did when importing the package
registered them.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from tests.campaigns.test_scenario_kinds import BUILTIN_KINDS, readme_section

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def fresh(program):
    """Run ``program`` in a new interpreter (nothing imported or registered yet)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
    subprocess.run([sys.executable, "-c", program], check=True, env=env)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    fresh(
        f"import {package} as package\n"
        "names = package.__all__\n"
        "assert names and len(set(names)) == len(names), names\n"
        "missing = [name for name in names if name not in dir(package)]\n"
        "assert not missing, ('not in dir()', missing)\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "assert set(names) <= set(star), ('not bound by import *', set(names) - set(star))\n"
        "assert all(star[name] is getattr(package, name) for name in names)\n"
    )


def test_the_package_list_is_complete():
    assert len(PACKAGES) == 14 and "repro.scenarios" in PACKAGES


def test_every_builtin_kind_has_an_entry_point_before_any_registry_call():
    fresh(
        "import functools\n"
        "import repro.scenarios as scenarios\n"
        "from repro.scenarios.service_load import run_service_load\n"
        f"for kind in {BUILTIN_KINDS!r}:\n"
        "    bound = getattr(scenarios, 'run_' + kind.replace('-', '_'))\n"
        "    if kind == 'service-load':\n"
        "        assert bound is run_service_load\n"
        "    else:\n"
        "        assert isinstance(bound, functools.partial), kind\n"
        "        assert bound.func is scenarios.run_kind and bound.args == (kind,), kind\n"
        "from repro.scenarios.registry import available_kinds\n"
        f"assert available_kinds() == {BUILTIN_KINDS!r}, available_kinds()\n"
    )


def test_a_kind_registered_first_follows_the_builtins():
    """The README's hot-sender block, run before anything looks a kind up."""
    code = readme_section("### Adding a scenario kind").split("```python\n")[1].split("```")[0]
    fresh(
        code + "\nfrom repro.scenarios.registry import available_kinds, kind_shorthands\n"
        f"assert available_kinds() == {BUILTIN_KINDS + ('hot-sender',)!r}, available_kinds()\n"
        "assert kind_shorthands()['hot'] == 'hot-sender'\n"
    )
