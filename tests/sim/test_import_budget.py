"""A clock-free budget on what a fresh interpreter imports before it simulates.

Every CLI run, queue worker and benchmark setup starts a new interpreter,
and each module it imports is a file to find, compile (with bytecode caching
off) and execute.  The rule: importing a module loads what that module uses,
not the package tree around it -- package ``__init__``\\ s resolve their names
on first access, the built-in scenario kinds register on the first registry
call, and optional layers (instrumentation, exporters, WAN profiles, group
membership, the work queue, the result store and its mirror, the worker
pool) load where a run uses them.  Module counts, unlike host timings,
repeat exactly, so a new eager import fails here::

    what                                 repro modules  before
    import repro.sim.engine                    3          30
    suspicion_n15 setup, fd n=3 build         32          50
    figures import + one Figure 4 point       44          50
    import repro.experiments.__main__         43          49
    import repro.campaigns.__main__           41          44
"""

import os
import subprocess
import sys

import pytest

#: The benchmark's ``suspicion_n15`` setup command: its imports, then one
#: started fd system of three processes.
SETUP = (
    "import repro.scenarios.runner, repro.scenarios.faults\n"
    "from repro.system import SystemConfig, build_system\n"
    "build_system(SystemConfig(n=3, seed=1)).start()\n"
)

#: Layers that setup command does not use (a prefix ending in ``*`` covers
#: the package and its modules).
UNUSED_BY_SETUP = (
    "repro.load*",
    "repro.replication*",
    "repro.campaigns*",
    "repro.experiments*",
    "repro.scenarios.kinds",
    "repro.obs.export",
    "repro.obs.instrumentation",
    "repro.core.group_membership",
    "repro.core.sequencer_broadcast",
    "repro.sim.wan",
    "subprocess",
)


#: What a figure run starts with: the figure table, then one Figure 4 point.
FIGURE_POINT = (
    "from repro.experiments.figures import FIGURES\n"
    "from repro.campaigns.records import execute_point\n"
    "from repro.campaigns.spec import PointSpec\n"
    "execute_point(PointSpec('normal-steady', throughput=100.0, num_messages=5))\n"
)

#: Layers no figure reads: the KV service and its load, the WAN topologies.
UNUSED_BY_FIGURES = (
    "repro.load*",
    "repro.replication*",
    "repro.scenarios.service_load",
    "repro.sim.wan",
)


#: What neither CLI loads before it runs: the work queue, the exporters and
#: instrumentation, and the stdlib modules behind them (lease host names, the
#: worker pool, git).
UNUSED_BY_THE_CLI = (
    "repro.campaigns.queue",
    "repro.obs*",
    "socket",
    "multiprocessing*",
    "subprocess",
)

#: What a serial, uncached, untraced figure point loads none of: the above,
#: the store and its columnar mirror, and the process pool.
UNUSED_BY_A_SERIAL_RUN = UNUSED_BY_THE_CLI + (
    "repro.campaigns.store",
    "repro.campaigns.columnar",
    "concurrent.futures.process",
)


def loaded_after(program):
    """The modules a fresh interpreter holds after running ``program``."""
    probe = program + "import sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
    done = subprocess.run(
        [sys.executable, "-c", probe], check=True, env=env, capture_output=True, text=True
    )
    return set(done.stdout.split())


def matches(module, pattern):
    if pattern.endswith("*"):
        return module == pattern[:-1] or module.startswith(pattern[:-1] + ".")
    return module == pattern


def test_the_setup_command_loads_no_layer_it_does_not_use():
    loaded = loaded_after(SETUP)
    assert "repro.system" in loaded and "repro.core.fd_broadcast" in loaded
    unused = sorted(
        module for module in loaded if any(matches(module, p) for p in UNUSED_BY_SETUP)
    )
    assert unused == [], f"the fd setup command imports {unused}"


def test_a_figure_point_loads_no_service_layer():
    loaded = loaded_after(FIGURE_POINT)
    assert {"repro.scenarios.kinds", "repro.core.fd_broadcast"} <= loaded
    unused = sorted(
        module for module in loaded if any(matches(module, p) for p in UNUSED_BY_FIGURES)
    )
    assert unused == [], f"a figure point imports {unused}"


def test_a_serial_figure_point_loads_no_queue_store_or_exporter():
    loaded = loaded_after(FIGURE_POINT)
    assert {"repro.campaigns.runner", "repro.campaigns.aggregate"} <= loaded
    unused = sorted(
        module for module in loaded if any(matches(module, p) for p in UNUSED_BY_A_SERIAL_RUN)
    )
    assert unused == [], f"a serial figure point imports {unused}"


@pytest.mark.parametrize("cli", ["repro.experiments.__main__", "repro.campaigns.__main__"])
def test_a_cli_loads_no_queue_or_exporter(cli):
    # The queue loads only under --queue-dir (or the campaigns CLI's
    # --queue-worker).
    loaded = loaded_after(f"import {cli}\n")
    assert "repro.campaigns.execution" in loaded
    unused = sorted(
        module for module in loaded if any(matches(module, p) for p in UNUSED_BY_THE_CLI)
    )
    assert unused == [], f"import {cli} imports {unused}"


def test_a_queue_worker_without_a_queue_dir_still_exits_2():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
    done = subprocess.run(
        [sys.executable, "-m", "repro.campaigns", "--queue-worker"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "--queue-worker needs --queue-dir" in done.stderr


@pytest.mark.parametrize("cli", ["repro.experiments.__main__", "repro.campaigns.__main__"])
def test_a_cli_loads_no_store_without_a_cache_dir(cli):
    # Both parse --durability; the store and its mirror load in
    # open_execution, under --cache-dir only.
    loaded = loaded_after(f"import {cli}\n")
    assert "repro.campaigns.execution" in loaded
    assert {"repro.campaigns.store", "repro.campaigns.columnar"} & loaded == set()


def test_the_kernel_imports_alone():
    loaded = loaded_after("import repro.sim.engine\n")
    assert sorted(m for m in loaded if m.split(".")[0] == "repro") == [
        "repro", "repro.sim", "repro.sim.engine",
    ]


def test_the_budget_sees_an_eager_import():
    # Guards the two rules above against passing vacuously.
    loaded = loaded_after(SETUP + "build_system(SystemConfig(n=3, stack='gm', instrument=True))\n")
    assert {"repro.core.group_membership", "repro.obs.instrumentation"} <= loaded
    assert any(matches("repro.load.service", p) for p in UNUSED_BY_SETUP)
