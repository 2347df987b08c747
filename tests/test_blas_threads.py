"""Reported values do not depend on the BLAS thread count.

Node sums go through ``mesh.weighted_sum``, numpy's pairwise reduction,
which calls no BLAS.  A BLAS dot product splits long vectors over its
threads and so rounds differently with one thread than with two.  Each run
below is a fresh interpreter, because OpenBLAS reads its thread count once,
when it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, math
import torusbvp as tb

p = tb.TorusParams(2.0, 1.0)
mesh = tb.build_mesh(64)
f = tb.DiskField.from_function(mesh, lambda t, s: 1.0 + 0.2 * t)
p1 = tb.solve_p1_newton(mesh, p, tb.ProblemP1(1.5, f))
data = tb.DiskField(mesh, -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0]))
prob = tb.ProblemP2(0.5, 0.5, data, data)
p2 = tb.solve_p2_newton(mesh, p, prob)
alphas = [10.0 ** (-k) for k in range(2, 8)]
rows = tb.mt_scan(mesh, p, tb.interior_orbit_family(p, alphas[0]), alphas)
values = {
    "p1_functional_value": p1.functional_value,
    "p1_constraint_value": p1.constraint_value,
    "p2_identity_6_14_residual": tb.identity_6_14_residual(mesh, p, p2.field, prob),
    "mt_scan": [[r.grad_energy, r.log_integral, r.mean_term, r.ratio, r.c_hat] for r in rows],
    "p1_field": p1.field.values.tolist(),
}
print(json.dumps(values))
"""


def run_with_blas_threads(n):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
               PYTHONPATH=os.pathsep.join([str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout)


def as_hex(value):
    return [as_hex(x) for x in value] if isinstance(value, list) else float.hex(value)


def test_reported_values_are_bit_identical_at_one_and_two_blas_threads():
    one, two = run_with_blas_threads(1), run_with_blas_threads(2)
    assert one.keys() == two.keys()
    for key in one:
        assert as_hex(one[key]) == as_hex(two[key]), key
