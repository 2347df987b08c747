"""Print the memory that the nested ring meshes take to build, assemble, hold and solve on, per ring count.

For each ring count (default 64, 128 and 256) prints eight lines:

- ``build_mesh``: the tracemalloc peak of ``mesh.build_mesh`` and the
  bytes still traced when it returns, the mesh it keeps;
- ``assemble``: the same two figures for ``mesh._assemble_core`` at
  l, r = 2, 1 on that mesh;
- ``transfer``: the same two figures for ``mesh.ring_interpolation``, the
  level transfer to that mesh from its half-ring mesh;
- ``cache``: the bytes that the mesh, its half-ring meshes and their
  caches hold after one ``solve_p2_newton`` and one ``solve_p1_newton`` on
  the data of the benchmark's ``newton`` workload (γ = 1.5, c = 0.1),
  each array buffer counted once, however many views share it;
- ``p1_adds``: the part of those bytes that the P1 solve added to what
  the P2 solve had cached: whatever a Dirichlet level caches beyond a
  Neumann level;
- ``warm``: the tracemalloc peaks of one more ``solve_p1_newton`` and one
  more ``solve_p2_newton`` on that data, with the caches filled: the
  memory a solve takes beyond its mesh's operators;
- ``rss``: ``ru_maxrss`` of a fresh process that builds the mesh and runs
  one cold ``solve_p1_newton`` on that data;
- ``scan_rss``: ``ru_maxrss`` of a fresh process that runs
  ``cli.main(["scan-gamma", ..., "--threads", "2"])`` on that mesh, six
  gammas from 2/3 to 7/3 and f = 1 + c t, the data of the benchmark's
  ``cli`` workload.

Sizes are in MiB (2^20 bytes), as the benchmark's ``peak_rss_mb``.  The
first six lines repeat from run to run: tracemalloc's figures move by
some hundreds of bytes of Python objects between calls, below their 0.01
MiB, so a figure prints two ways only when it lies that close to a
rounding edge.
The two ``rss`` lines vary by a MiB or so.  Run from the root of each source
checkout and compare the outputs::

    python tools/memory_profile.py [ring count ...]
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # perfbench/workloads.py
from torusbvp import mesh

RINGS = (64, 128, 256)
GAMMA, C = 1.5, 0.1
MIB = 2.0**20

# the rss process: build the mesh and solve P1 once, cold, then print the peak in KiB
COLD_P1 = """
import resource, sys, warnings
sys.path[:0] = %r
import workloads
from torusbvp import mesh
warnings.simplefilter("ignore")
workloads.p1_newton_op(mesh.build_mesh(%d), %r, %r).run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# the scan_rss process: scan six gammas on two threads through the CLI, then print the peak in KiB
SCAN = """
import os, resource, sys, tempfile, warnings
sys.path[:0] = %r
from torusbvp import cli
warnings.simplefilter("ignore")
with tempfile.TemporaryDirectory() as out:
    config = os.path.join(out, "scan.ini")
    with open(config, "w") as f:
        f.write(%r)
    cli.main(["scan-gamma", "--config", config, "--out", out, "--threads", "2"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
SCAN_CONFIG = "[geometry]\nl = 2.0\nr = 1.0\n[mesh]\nn_rings = %d\n[problem]\nf = 1 + %r*t\n[scan]\ngammas = %s\n"
SCAN_GAMMAS = ", ".join("%r" % (0.5 + (k + 0.5) / 3.0) for k in range(6))  # the midpoints of six strata of [0.5, 2.5]


def _traced(fn):
    """``fn()``, its tracemalloc peak and the bytes still traced when it returns."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


def _buffers(obj, found):
    """Add to ``found`` the owner of every array buffer that ``obj`` holds, keyed by ``id``."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif sp.issparse(obj):
        for part in (obj.data, obj.indices, obj.indptr):
            _buffers(part, found)
    elif isinstance(obj, mesh.DiskMesh):
        for part in (obj.nodes, obj.triangles, obj.boundary_nodes, obj._cache):
            _buffers(part, found)
    elif isinstance(obj, mesh.WeightedOperators):
        for part in dataclasses.fields(obj):
            _buffers(getattr(obj, part.name), found)
    elif isinstance(obj, dict):
        _buffers(list(obj.values()), found)
    elif isinstance(obj, (tuple, list)):
        for part in obj:
            _buffers(part, found)
    elif obj is not None:
        raise TypeError("no buffer count for a cached %s" % type(obj).__name__)


def hierarchy_bytes(m) -> int:
    """The bytes of every array buffer that ``m``, its half-ring meshes and their caches hold."""
    found = {}
    _buffers(m, found)
    return sum(array.nbytes for array in found.values())


def tracemalloc_lines(rings: int) -> list:
    """The ``build_mesh``, ``assemble``, ``transfer``, ``cache``, ``p1_adds`` and ``warm`` lines at ``rings`` rings."""
    mesh._assemble_core(mesh.build_mesh(4), 1.0, 0.0)  # first calls allocate lazily: make them untraced
    mesh.ring_interpolation(4, 2)
    m, peak, kept = _traced(lambda: mesh.build_mesh(rings))
    lines = ["%d build_mesh peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB)]
    _, peak, kept = _traced(lambda: mesh._assemble_core(m, workloads.PARAMS.l, workloads.PARAMS.r))
    lines.append("%d assemble   peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB))
    _, peak, kept = _traced(lambda: mesh.ring_interpolation(rings, rings // 2))
    lines.append("%d transfer   peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB))
    p1, p2 = workloads.p1_newton_op(m, GAMMA, C), workloads.p2_newton_op(m, C)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p2.run()
        neumann = hierarchy_bytes(m)
        p1.run()
        cached = hierarchy_bytes(m)
        warm = [_traced(op.run)[1] / MIB for op in (p1, p2)]
    lines.append("%d cache      %.2f MiB" % (rings, cached / MIB))
    lines.append("%d p1_adds    %.2f MiB" % (rings, (cached - neumann) / MIB))
    lines.append("%d warm       p1 peak %.2f MiB p2 peak %.2f MiB" % (rings, *warm))
    return lines


def _peak_mib(code: str) -> float:
    """The peak in MiB that ``code``, run in a fresh Python process, prints on its last line in KiB."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1]) / 1024.0


def rss_lines(rings: int) -> list:
    """The ``rss`` and ``scan_rss`` lines at ``rings`` rings, each from a fresh Python process."""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    return ["%d rss        %.1f MiB" % (rings, _peak_mib(COLD_P1 % (paths, rings, GAMMA, C))),
            "%d scan_rss   %.1f MiB" % (rings, _peak_mib(SCAN % (paths[:1], SCAN_CONFIG % (rings, C, SCAN_GAMMAS))))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rings_list = [int(a) for a in argv] or RINGS
    # Linux carries a process's peak RSS across fork and exec, so the fresh
    # processes run before this one grows
    rss = [rss_lines(rings) for rings in rings_list]
    for rings, rss_of_rings in zip(rings_list, rss):
        for line in tracemalloc_lines(rings) + rss_of_rings:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
