"""Span recorder for the traced benchmark run.

The tracer wraps the names each ``torusbvp`` module looks up from another
module (``PATCHES``), so a span marks every call across a layer boundary.
Spans carry a parent id (the innermost open span on the same thread) and
live in memory behind a lock until the run writes them out.  ``restore``
puts every original object back; untraced runs never construct a tracer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
import weakref

from torusbvp import cli, solvers
from torusbvp.functionals import ProblemP1
from torusbvp.geometry import TorusParams
from torusbvp.mesh import DiskField, build_mesh

SOLVE_SPANS = {
    "solve_p1_newton": "solvers.p1_newton",
    "solve_p2_newton": "solvers.p2_newton",
    "solve_p1_variational": "solvers.p1_variational",
    "solve_p2_variational": "solvers.p2_variational",
    "solve_p2_monotone": "solvers.p2_monotone",
}

# (module, attribute, span name): every cross-module name the layers use
PATCHES = [
    (solvers, "splu", "solvers.factor"),
    (solvers, "assemble", "mesh.assemble"),
    (solvers, "functional_I_p1", "functionals.merit"),
    (solvers, "functional_I_p2", "functionals.merit"),
    (cli, "build_mesh", "mesh.build_mesh"),
    (cli, "assemble", "mesh.assemble"),
    (cli, "write_csv", "cli.write"),
    (cli, "write_report", "cli.write"),
    (cli, "mt_scan", "inequalities.scan"),
    (cli, "corollary_scan", "inequalities.scan"),
] + [(mod, attr, name) for mod in (solvers, cli) for attr, name in SOLVE_SPANS.items()]


class _TracedFactor:
    """Sparse LU factor whose ``solve`` (a pair of triangular solves) is a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("solvers.trisolve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Patches ``PATCHES`` on ``install`` and records spans until ``restore``."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._originals = []
        self._assembled = weakref.WeakKeyDictionary()  # mesh -> {(l, r)} seen

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; the yielded dict takes extra attributes."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            rec = {"id": self._next_id, "parent": stack[-1] if stack else None,
                   "name": name, "thread": threading.get_ident()}
        stack.append(rec["id"])
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def note_assemble(self, rec, mesh, p):
        """Mark ``rec`` cold on the first assembly this trace sees for (mesh, l, r)."""
        with self._lock:  # scan-gamma workers assemble from two threads
            seen = self._assembled.setdefault(mesh, set())
            rec["cold"] = (p.l, p.r) not in seen
            seen.add((p.l, p.r))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if name == "solvers.factor":
                rec["nnz"] = int(result.nnz)
                return _TracedFactor(result, self)
            if name == "mesh.assemble":
                self.note_assemble(rec, *args[:2])
            elif name == "cli.write":
                rec["bytes"] = os.path.getsize(args[0])
            elif name in SOLVE_SPANS.values():
                steps = [s for _, s in result.trace]
                rec["iterations"] = int(result.iterations)
                rec["damped"] = sum(1 for s in steps if 0.0 < s < 1.0)
            return result
        return traced

    def install(self):
        for mod, attr, name in PATCHES:
            orig = getattr(mod, attr)
            self._originals.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def restore(self):
        while self._originals:
            mod, attr, orig = self._originals.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


# the objects ``install`` replaces, taken at import
_ORIGINALS = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]


def restored():
    """True when every patched name is the original object again."""
    return all(getattr(mod, attr) is orig for mod, attr, orig in _ORIGINALS)


def self_test():
    """Two traced P1 Newton solves at n_rings = 8 must give equal counts.

    Each Newton step factors once and solves once, so the factor, iteration
    and triangular-solve counts agree; afterwards every patched name must be
    the original object again.  Returns failure messages.
    """
    m = build_mesh(8)
    prob = ProblemP1(1.5, DiskField(m, 1.0 + 0.2 * m.nodes[:, 0]))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            solvers.solve_p1_newton(m, TorusParams(2.0, 1.0), prob)
        finally:
            tracer.restore()
        counts.append({k: v for k, (v, unit, _) in layer_metrics(tracer.spans, 1).items()
                       if unit in ("count", "bytes")})
    fails = []
    if counts[0] != counts[1]:
        fails.append("traced counts differ between two runs: %r != %r" % tuple(counts))
    c = counts[0]
    if not c["solvers.factor_count"] == c["solvers.iterations"] == c["solvers.trisolve_count"] > 0:
        fails.append("factor, iteration and triangular-solve counts disagree: %d, %d, %d"
                     % (c["solvers.factor_count"], c["solvers.iterations"], c["solvers.trisolve_count"]))
    if not restored():
        fails.append("a patched name was not restored")
    return fails


def _dur(rec):
    return rec["t1"] - rec["t0"]


def layer_metrics(spans, scan_threads):
    """Per-layer totals, counts and ratios from a list of spans.

    Self time is a span's duration minus the durations of its children on
    the same thread.  ``scan_threads`` sizes the parallel efficiency of the
    ``cli.scan-gamma`` spans.  Returns ``{name: (value, unit, samples)}``
    where ``samples`` are the individual span durations behind a time.
    """
    by_name = {}
    child_time = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        if rec["parent"] is not None:
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + _dur(rec)

    def recs(name):
        return by_name.get(name, [])

    def total(name):
        durs = [_dur(r) for r in recs(name)]
        return (sum(durs), "s", durs)

    def count(n, unit="count"):
        return (n, unit, [])

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio", [])

    out = {
        "mesh.build_mesh_s": total("mesh.build_mesh"),
        "mesh.build_mesh_count": count(len(recs("mesh.build_mesh"))),
        "mesh.assemble_s": total("mesh.assemble"),
        "mesh.assemble_cold_count": count(sum(1 for r in recs("mesh.assemble") if r.get("cold"))),
        "solvers.factor_s": total("solvers.factor"),
        "solvers.factor_count": count(len(recs("solvers.factor"))),
    }
    nnz = max((r["nnz"] for r in recs("solvers.factor")), default=0)
    out["solvers.factor_nnz"] = count(nnz)
    out["solvers.factor_bytes_computed"] = count(12 * nnz, "bytes")  # 8-byte value + 4-byte index
    out["solvers.trisolve_s"] = total("solvers.trisolve")
    out["solvers.trisolve_count"] = count(len(recs("solvers.trisolve")))
    out["solvers.trisolves_per_factor"] = ratio(len(recs("solvers.trisolve")), len(recs("solvers.factor")))
    solves = [r for name in SOLVE_SPANS.values() for r in recs(name)]
    iterations = sum(r.get("iterations", 0) for r in solves)  # a solve that raised has none
    out["solvers.iterations"] = count(iterations)
    out["solvers.damped_steps"] = count(sum(r.get("damped", 0) for r in solves))
    for name in SOLVE_SPANS.values():
        selfs = [_dur(r) - child_time.get(r["id"], 0.0) for r in recs(name)]
        out[name + "_s"] = (sum(selfs), "s", selfs)
    out["functionals.merit_s"] = total("functionals.merit")
    out["functionals.merit_count"] = count(len(recs("functionals.merit")))
    out["functionals.merit_per_iter"] = ratio(len(recs("functionals.merit")), iterations)
    out["inequalities.scan_s"] = total("inequalities.scan")
    out["cli.write_s"] = total("cli.write")
    out["cli.bytes_written"] = count(sum(r["bytes"] for r in recs("cli.write")), "bytes")

    worker, budget = 0.0, 0.0
    for scan in recs("cli.scan-gamma"):
        budget += _dur(scan) * scan_threads
        worker += sum(_dur(r) for r in recs("solvers.p1_newton")
                      if r["thread"] != scan["thread"] and scan["t0"] <= r["t0"] <= scan["t1"])
    out["cli.scan_parallel_eff"] = ratio(worker, budget)
    return out

