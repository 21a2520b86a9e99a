"""Where the suite lives, and ``src/`` on ``sys.path``.

The suite is run as a script (``python3 benchmarks/suite/run.py``) from a
checkout in which the ``repro`` package is not installed, so every module of
the suite imports this one first: it puts the checkout's ``src/`` directory
on ``sys.path``.  In a directory that holds only the suite (no ``src/``) the
first ``import repro`` fails and the run exits non-zero without a result,
which is what the benchmark contract asks for.
"""

from __future__ import annotations

import os
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Result files, trace files and scratch stores; git-ignored.
OUT_DIR = os.path.join(SUITE_DIR, "out")
MANIFEST_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
README_PATH = os.path.join(SUITE_DIR, "README.md")

if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)
