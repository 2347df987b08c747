"""``tools/zero_linear_sweep.py`` prints the same lines for two runs at one ring count."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "zero_linear_sweep.py"


def test_two_runs_print_the_same_lines(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("zero_linear_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    first, second = sweep.sweep_lines(8), sweep.sweep_lines(8)
    assert first == second
    assert len(first) == 36  # three geometries, four data, three routes
    for line in first:  # rings, geometry, data, route, then a field digest or "raises" and a class
        fields = line.split()
        assert fields[0] == "8" and fields[4] in ("field", "raises")
    assert any(line.split()[4] == "field" for line in first)
