"""``tools/count_code_lines.py`` counts code lines only."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


def f(x):
    """One-line docstring."""
    # a comment line
    y = (x +
         1)
    return math.sqrt(y), """a string that is a value,
not a docstring"""
'''


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    # import, def, the two lines of y, and the two lines of the return
    assert count_code_lines.count_code_lines(path) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [["a.py", "6"], ["b.py", "1"], ["total", "7"]]
