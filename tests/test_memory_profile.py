"""``tools/memory_profile.py`` counts every cached buffer and traces the same bytes for two runs."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import torusbvp as tb

TOOL = Path(__file__).resolve().parent.parent / "tools" / "memory_profile.py"


@pytest.fixture
def memory_profile(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("memory_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_buffer_walk_finds_every_array_field_of_the_operators(memory_profile, params):
    """``_buffers`` on one ``assemble`` result finds the buffer of each of its array fields, the stiffness's three."""
    ops = tb.assemble(tb.build_mesh(4), params)
    found = {}
    memory_profile._buffers(ops, found)
    S = ops.stiffness
    arrays = [S.data, S.indices, S.indptr] + [getattr(ops, part.name) for part in dataclasses.fields(ops)
                                              if isinstance(getattr(ops, part.name), np.ndarray)]
    assert len(arrays) == 6
    owners = set()
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners.add(id(a))
    assert owners == set(found)


def test_two_runs_trace_the_same_bytes(memory_profile):
    """Two calls at 11 rings trace each figure within 2 kB, whatever ran before them in the process.

    Calls trace Python objects a little apart: at 11 rings the warm peaks
    move by up to 0.3 kB from call to call, and by up to 1.4 kB at 18
    rings; every other figure moves by tens of bytes.  The
    bytes are compared, not the printed lines: a figure printed to 0.01 MiB,
    about 10.5 kB, can print two ways when it lies near a rounding edge, so
    the comparison is both tighter than the print and free of those edges.
    """
    first, second = memory_profile.tracemalloc_bytes(11), memory_profile.tracemalloc_bytes(11)
    assert first.keys() == second.keys()
    for name in first:
        assert len(first[name]) == len(second[name])
        assert all(abs(x - y) <= 2048 for x, y in zip(first[name], second[name])), name
    lines = memory_profile.tracemalloc_lines(11, first)
    names = [["11", name] for name in ("build_mesh", "assemble", "transfer", "cache", "p1_adds", "warm", "write",
                                       "identity")]
    assert [line.split()[:2] for line in lines] == names
    for name, figures in first.items():  # every figure is a positive size, the P1 solve's addition nonnegative
        assert all(x >= 0 if name == "p1_adds" else x > 0 for x in figures), name
    assert len(re.findall(r"(\S+) MiB", lines[5])) == 2  # the warm P1 and P2 peaks
