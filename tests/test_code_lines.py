import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''\
"""Module docstring
over two lines."""

# A comment line.
import os  # a trailing comment


class Thing:
    """Class docstring."""

    value = 1


def f(x):
    """Function docstring
    over two lines.
    """
    text = """a string
that is not a docstring"""
    total = (x
             + 1)
    """A second statement, not a docstring."""
    return text, total
'''

# import, class, value, def, the two lines of the assigned string, the two
# lines of the continued expression, the second string statement, return.
FIXTURE_CODE_LINES = 10


def test_code_lines_counts_fixture(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert tool.code_lines(path) == FIXTURE_CODE_LINES
