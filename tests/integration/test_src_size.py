"""``benchmarks/src_size.py``: the two line counts a simplicity change reports."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "src_size.py"

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment on a code line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a multi-line string
        that is code"""
        return os.sep + text
'''


def load():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blanks_comments_and_docstrings_are_not_code():
    raw, code = load().count(SAMPLE)
    assert raw == 16
    # import, class, def, the two lines of the string, return.
    assert code == 6


def test_the_report_ends_with_the_total_of_its_rows(capsys):
    load().main([])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *packages, total = rows
    assert total[0] == "total"
    assert "scenarios" in {row[0] for row in packages}
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in packages)
