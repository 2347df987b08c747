"""``tools/solve_sweep.py`` prints, times aside, the rows committed in ``golden/solve_sweep.txt``.

The golden rows are the tool's at each grid's pinned ring counts: the
a = b = 0 grid at 8 and 16 rings, and the size grid at 8, 9, 16 and 17,
where odd counts run on hierarchies whose sampling rows of coarse boundary
nodes weight fine interior nodes and 16 rings is the first count with a
cycled level.  A change that moves a row by design rewrites the file (the
command is in the tool's docstring) and says why the row moved.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_sweep.py"


def test_the_sweep_matches_the_committed_rows(monkeypatch, golden):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("solve_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    header, *lines = sweep.rows((grid, grid.pinned) for grid in sweep.GRIDS)
    rows = []
    for line in lines:  # grid, rings, geometry, case, a field digest or "raises", then the time in its own column
        row, seconds = line.split("\t")
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0.0
        rows.append(row)
    fields = [row.split() for row in rows]
    assert all(f[4] == "field" for f in fields if f[0] == "size" and f[2] == "2,1")
    assert any(f[4] == "field" for f in fields if f[0] == "zero_linear")
    golden([header] + rows, "solve_sweep.txt")
