"""A figure is one declaration: structure and import-order tests of the registry."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import figure4, figure5, figure6, figure7, figure8
from repro.experiments.figures import FIGURE6_PANELS, FIGURE7_PANELS, FIGURES

SRC = Path(repro.__file__).parent
DECLARATIONS = SRC / "experiments" / "figures.py"
#: Curve-label fragments that only a figure's label format may spell.
LABEL_FRAGMENTS = ("{algorithm}", "crash(es)", "FD and GM, no", ", T=", ", T_D=", ", T_MR=")


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def code_strings(tree):
    """The module's string constants, f-string parts included, docstrings excluded."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def literal_tuples(tree):
    """The module's tuple displays whose items are all literals."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            try:
                yield ast.literal_eval(node)
            except ValueError:
                continue


class TestOneDeclaration:
    def test_the_registry_holds_the_paper_figures_in_order(self):
        assert list(FIGURES) == ["4", "5", "6", "7", "8"]
        assert [figure4, figure5, figure6, figure7, figure8] == list(FIGURES.values())

    def test_figure_numbers_and_label_fragments_live_in_the_declarations(self):
        for path, tree in modules():
            if path == DECLARATIONS:
                continue
            for text in code_strings(tree):
                assert not re.fullmatch(r"(figure)?[4-8]", text), (path, text)
                assert not any(fragment in text for fragment in LABEL_FRAGMENTS), (path, text)

    def test_each_label_format_and_number_is_written_once(self):
        strings = code_strings(ast.parse(DECLARATIONS.read_text(encoding="utf-8")))
        for number, figure in FIGURES.items():
            assert strings.count(number) == 1
            label_format = getattr(figure.label, "__self__", None)
            if label_format is not None:  # a ``str.format`` label
                assert strings.count(label_format) == 1
        # Figure 5 formats its labels in a function: no crash, or some.
        for fragment in ("FD and GM, no", "crash(es)"):
            assert sum(fragment in text for text in strings) == 1, fragment

    def test_each_panel_tuple_is_written_once(self):
        panels = [*FIGURE6_PANELS, *FIGURE7_PANELS, FIGURE6_PANELS, FIGURE7_PANELS]
        for path, tree in modules():
            counts = {panel: 0 for panel in panels}
            for value in literal_tuples(tree):
                if value in panels:
                    counts[value] += 1
            expected = 1 if path == DECLARATIONS else 0
            assert set(counts.values()) == {expected}, (path, counts)

    @pytest.mark.parametrize("module", ["__main__.py", "shape_checks.py"])
    def test_consumers_keep_no_per_figure_dict(self, module):
        tree = ast.parse((SRC / "experiments" / module).read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Dict) and node.keys]


class TestImportOrder:
    @pytest.mark.parametrize(
        "first, second",
        [("repro.campaigns", "repro.experiments"), ("repro.experiments", "repro.campaigns")],
    )
    def test_either_package_imports_first_in_a_fresh_interpreter(self, first, second):
        program = (
            f"import {first}, {second}\n"
            "from repro.experiments import figure4, figure8\n"
            "from repro.experiments.shape_checks import ALL_CHECKS\n"
            "assert figure4.build_campaign().name == 'figure4' and len(ALL_CHECKS) == 5\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in sys.path if path))
        subprocess.run([sys.executable, "-c", program], check=True, env=env)

    def test_an_unknown_figure_is_an_attribute_error(self):
        import repro.experiments

        with pytest.raises(AttributeError):
            repro.experiments.figure9
        with pytest.raises(ImportError):
            from repro.experiments import figure3  # noqa: F401
