"""``tools/solve_sweep.py`` prints the same a = b = 0 rows, times aside, for two runs at one ring count.

The golden test checks the rows' bits; this one checks that a tree repeats them.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_sweep.py"


def test_two_runs_print_the_same_lines(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("solve_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    grid, = (grid for grid in sweep.GRIDS if grid.name == "zero_linear")
    first, second = ([line.split("\t")[0] for line in sweep.sweep_lines(grid, 8)] for _ in range(2))
    assert first == second
    assert len(first) == 36  # three geometries, four data, three routes
    assert all(row.split()[1] == "8" and row.split()[4] in ("field", "raises") for row in first)
