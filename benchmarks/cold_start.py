"""Cold start: what a fresh interpreter imports before it simulates, and how long that takes.

For each entry point prints the number of ``repro`` modules a fresh
interpreter has loaded when it is done and the median wall time, start to
exit, over ``--samples`` fresh interpreters.  The entry points are the
benchmark suite's five ``setup_s`` commands (each workload's imports, then
one started fd system of three processes), the ``suspicion_n15`` one plus a
gm build, the figures import plus one Figure 4 point (what every figure run
starts with) and ``--help`` of the two CLIs::

    python benchmarks/cold_start.py                    # 9 samples per entry point
    python benchmarks/cold_start.py --samples 3 --list
    python benchmarks/cold_start.py --src OTHER/src    # another checkout's package

``--list`` adds the modules themselves, one per line, so the output of two
checkouts diffs into the modules that left an entry point.  Timings depend
on the host and on bytecode caching (``PYTHONDONTWRITEBYTECODE``): compare
two checkouts on one machine, alternating runs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Printed to stderr by every probe: the loaded ``repro`` modules follow it.
MARKER = "--- repro modules ---"
PROBE = (
    "\nimport sys\n"
    f"print({MARKER!r}, *sorted(m for m in sys.modules if m.split('.')[0] == 'repro'),"
    " sep='\\n', file=sys.stderr)\n"
)


def setup_program(src: str, imports: Tuple[str, ...], stacks: Tuple[str, ...] = ("fd",)) -> str:
    """The suite's setup command: ``imports``, then a started n=3 system per stack."""
    lines = [f"import sys; sys.path.insert(0, {src!r})"]
    lines += [f"import {module}" for module in imports]
    lines.append("from repro.system import SystemConfig, build_system")
    lines += [
        f"build_system(SystemConfig(n=3, stack={stack!r}, seed=1)).start()" for stack in stacks
    ]
    return "\n".join(lines)


def figure_program(src: str) -> str:
    """The figure table, then one Figure 4 point (normal-steady, fd, n=3) executed."""
    return (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from repro.experiments.figures import FIGURES\n"
        "from repro.campaigns.records import execute_point\n"
        "from repro.campaigns.spec import PointSpec\n"
        "execute_point(PointSpec('normal-steady', throughput=100.0, num_messages=5))"
    )


def cli_program(src: str, package: str) -> str:
    """``python -m <package> --help``, with its exit caught so the probe runs."""
    return (
        f"import sys; sys.path.insert(0, {src!r}); sys.argv = [{package!r}, '--help']\n"
        "import runpy\n"
        "try:\n"
        f"    runpy.run_module({package!r}, run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    )


def entry_points(src: str) -> Dict[str, str]:
    sys.path.insert(0, os.path.join(HERE, "suite"))
    from workloads import REGISTRY  # the suite's setup imports

    points = {
        f"setup {name}": setup_program(src, workload.setup_imports)
        for name, workload in REGISTRY.items()
    }
    points["setup suspicion_n15 + gm"] = setup_program(
        src, REGISTRY["suspicion_n15"].setup_imports, ("fd", "gm")
    )
    points["figures import + one Figure 4 point"] = figure_program(src)
    for package in ("repro.experiments", "repro.campaigns"):
        points[f"python -m {package} --help"] = cli_program(src, package)
    return points


def run(program: str, probe: bool) -> Tuple[float, List[str]]:
    """Wall seconds of one fresh interpreter running ``program``, and its modules."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", program + (PROBE if probe else "")],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - started
    modules = done.stderr.split(MARKER, 1)[1].split() if probe else []
    return wall, modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=9, help="fresh interpreters per entry point")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                        help="the directory holding the repro package (default: this checkout's)")
    parser.add_argument("--list", action="store_true", help="print the loaded modules too")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    print(f"{'entry point':40} {'modules':>7} {'median s':>9}   ({args.samples} samples, {src})")
    for name, program in entry_points(src).items():
        _wall, modules = run(program, probe=True)
        walls = [run(program, probe=False)[0] for _ in range(args.samples)]
        print(f"{name:40} {len(modules):7d} {statistics.median(walls):9.3f}")
        if args.list:
            print("".join(f"    {module}\n" for module in modules), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
