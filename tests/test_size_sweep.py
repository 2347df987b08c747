"""``tools/size_sweep.py`` prints the same lines, times aside, for two runs at one ring count.

An even and an odd count: at 9 rings every route runs on a hierarchy
whose sampling rows of coarse boundary nodes weight fine interior nodes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_sweep.py"


@pytest.mark.parametrize("n", [8, 9])
def test_two_runs_print_the_same_lines(monkeypatch, n):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("size_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    first, second = sweep.sweep_lines(n), sweep.sweep_lines(n)
    rows = [line.split("\t")[0] for line in first]
    assert rows == [line.split("\t")[0] for line in second]
    assert len(first) == 12  # three geometries, four routes
    for line in first:  # rings, geometry, route, a field digest or "raises", then the time in its own column
        fields, seconds = line.split("\t")
        assert fields.split()[0] == str(n) and fields.split()[3] in ("field", "raises")
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0.0
    assert all(row.split()[3] == "field" for row in rows if row.split()[1] == "2,1")
