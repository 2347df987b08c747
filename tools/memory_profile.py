"""Print the memory that the nested ring meshes take to build, assemble and hold, per ring count.

For each ring count (default 64, 128 and 256) prints six lines:

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
- ``rss``: ``ru_maxrss`` of a fresh process that builds the mesh and runs
  one cold ``solve_p1_newton`` on that data.

Sizes are in MiB (2^20 bytes), as the benchmark's ``peak_rss_mb``.  The
first five lines repeat from run to run: tracemalloc's figures move by
some bytes of Python objects between calls, far below their 0.01 MiB.
The ``rss`` line varies by a MiB or so.  Run from the root of each source
checkout and compare the outputs::

    python tools/memory_profile.py [ring count ...]
"""

from __future__ import annotations

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
        for part in (obj.stiffness, obj.volume_mass, obj.boundary_mass):
            _buffers(part, found)
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
    """The ``build_mesh``, ``assemble``, ``transfer``, ``cache`` and ``p1_adds`` lines at ``rings`` rings."""
    mesh._assemble_core(mesh.build_mesh(4), 1.0, 0.0)  # first calls allocate lazily: make them untraced
    mesh.ring_interpolation(4, 2)
    m, peak, kept = _traced(lambda: mesh.build_mesh(rings))
    lines = ["%d build_mesh peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB)]
    _, peak, kept = _traced(lambda: mesh._assemble_core(m, workloads.PARAMS.l, workloads.PARAMS.r))
    lines.append("%d assemble   peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB))
    _, peak, kept = _traced(lambda: mesh.ring_interpolation(rings, rings // 2))
    lines.append("%d transfer   peak %.2f MiB kept %.2f MiB" % (rings, peak / MIB, kept / MIB))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workloads.p2_newton_op(m, C).run()
        neumann = hierarchy_bytes(m)
        workloads.p1_newton_op(m, GAMMA, C).run()
    lines.append("%d cache      %.2f MiB" % (rings, hierarchy_bytes(m) / MIB))
    lines.append("%d p1_adds    %.2f MiB" % (rings, (hierarchy_bytes(m) - neumann) / MIB))
    return lines


def rss_line(rings: int) -> str:
    """The ``rss`` line at ``rings`` rings, from a fresh Python process."""
    code = COLD_P1 % ([str(ROOT / "src"), str(ROOT / "perfbench")], rings, GAMMA, C)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return "%d rss        %.1f MiB" % (rings, int(out.stdout.split()[-1]) / 1024.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rings_list = [int(a) for a in argv] or RINGS
    # Linux carries a process's peak RSS across fork and exec, so the fresh
    # processes run before this one grows
    rss = [rss_line(rings) for rings in rings_list]
    for rings, rss_of_rings in zip(rings_list, rss):
        for line in tracemalloc_lines(rings) + [rss_of_rings]:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
