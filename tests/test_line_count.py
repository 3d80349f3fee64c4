"""``tools/line_count.py`` on a fixture source."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"
_spec = importlib.util.spec_from_file_location("line_count", _TOOL)
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)

#: Docstring lines 1-2, 11 and 14-16; code lines 4, 8-10, 12-13 and 17-19.
FIXTURE = '''"""A module docstring
over two lines."""

import math

# a comment line
#: an attribute comment
LIMIT = (1 +
         2)      # a trailing comment
def f(x):
    """One line."""
    return x
class C:
    """A class
    docstring.
    """
    text = """not a
    docstring"""
    value = math.pi
'''


def test_counts_code_and_docstring_lines():
    assert line_count.docstring_lines(FIXTURE) == {1, 2, 11, 14, 15, 16}
    assert line_count.count(FIXTURE) == (9, 6)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    assert line_count.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1 0\nb 9 6\ntotal 10 6\n"
    assert line_count.main([str(tmp_path / "a.py")]) == 2
