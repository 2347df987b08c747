"""``tools/memory_profile.py`` counts every cached buffer and prints the same tracemalloc lines for two runs."""

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


def test_two_runs_print_the_same_tracemalloc_lines(memory_profile):
    """Two calls at 10 rings print the same lines, whatever ran before them in the process.

    Two calls trace a few hundred bytes of Python objects apart, so a
    figure that lies that close to a rounding edge of its 0.01 MiB can
    print two ways.  At 10 rings every figure lies at least 1.6 kB from an
    edge; at 8 rings the ``assemble`` peak lies 230 bytes from one.
    """
    first, second = memory_profile.tracemalloc_lines(10), memory_profile.tracemalloc_lines(10)
    assert first == second
    names = [["10", name] for name in ("build_mesh", "assemble", "transfer", "cache", "p1_adds", "warm")]
    assert [line.split()[:2] for line in first] == names
    for line in first[:4] + first[5:]:  # every figure is a positive size
        assert all(float(size) > 0.0 for size in re.findall(r"(\S+) MiB", line))
    assert float(re.findall(r"(\S+) MiB", first[4])[0]) >= 0.0
    assert len(re.findall(r"(\S+) MiB", first[5])) == 2  # the warm P1 and P2 peaks
