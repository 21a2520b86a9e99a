"""Count the lines of the package source: raw, and code only.

    python benchmarks/src_size.py [--src DIR]

Prints one row per package of ``DIR/repro`` (default: this checkout's
``src``; a module directly under ``repro`` counts as ``repro``) and the
total, each with two counts: raw lines (what ``wc -l`` gives) and code
lines, the lines left without blank lines, comments and docstrings (of a
module, class or function).  A line counts as code when a token other than
a comment starts, ends or continues on it.  Pass ``--src`` to count
another checkout, so a change reports before -> after.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize
from collections import Counter
from typing import Set, Tuple

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """``(raw lines, code lines)`` of one module's ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> None:
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=default, help="the source root holding repro/")
    root = os.path.join(parser.parse_args(argv).src, "repro")
    raw: Counter = Counter()
    code: Counter = Counter()
    for directory, _dirs, files in os.walk(root):
        relative = os.path.relpath(directory, root)
        package = "repro" if relative == "." else relative.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    lines, code_lines = count(handle.read())
                raw[package] += lines
                code[package] += code_lines
    print(f"{'package':<20} {'raw':>7} {'code':>7}")
    for package in sorted(raw, key=lambda name: (-code[name], name)):
        print(f"{package:<20} {raw[package]:>7} {code[package]:>7}")
    print(f"{'total':<20} {sum(raw.values()):>7} {sum(code.values()):>7}")


if __name__ == "__main__":
    main()
