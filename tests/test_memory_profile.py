"""``tools/memory_profile.py`` prints the same tracemalloc lines for two runs at one ring count."""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "memory_profile.py"


def test_two_runs_print_the_same_tracemalloc_lines(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("memory_profile", TOOL)
    memory_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(memory_profile)
    first, second = memory_profile.tracemalloc_lines(8), memory_profile.tracemalloc_lines(8)
    assert first == second
    names = [["8", "build_mesh"], ["8", "assemble"], ["8", "transfer"], ["8", "cache"], ["8", "p1_adds"]]
    assert [line.split()[:2] for line in first] == names
    for line in first[:4]:  # every figure is a positive size
        assert all(float(size) > 0.0 for size in re.findall(r"(\S+) MiB", line))
    assert float(re.findall(r"(\S+) MiB", first[4])[0]) >= 0.0
