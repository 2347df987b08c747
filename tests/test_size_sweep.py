"""``tools/solve_sweep.py`` prints the same size rows, times aside, for two runs at one ring count.

An even and an odd count: at 9 rings every route runs on a hierarchy
whose sampling rows of coarse boundary nodes weight fine interior nodes.
The golden test checks the rows' bits; this one checks that a tree repeats them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_sweep.py"


@pytest.mark.parametrize("n", [8, 9])
def test_two_runs_print_the_same_lines(monkeypatch, n):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("solve_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    grid, = (grid for grid in sweep.GRIDS if grid.name == "size")
    first, second = ([line.split("\t")[0] for line in sweep.sweep_lines(grid, n)] for _ in range(2))
    assert first == second
    assert len(first) == 18  # three geometries, six routes
    assert all(row.split()[1] == str(n) and row.split()[4] in ("field", "raises") for row in first)
