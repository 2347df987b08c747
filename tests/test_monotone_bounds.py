"""The monotone bracket check scores each inequality at its own field.

The subsolution's violation is bounded by ``1e-9 (1 + max_i (|c_i| + |w_i|
e^sub_i) / W_i)`` and the supersolution's by the same at ``super``.  One
bound read at ``e^super`` for both admits sub = 0.5, which is no
subsolution, beside super = 30: the shift ``|w| e^30`` made the first
increment fall below the increment stop the route then had, and it
reported a field with residual 7.06 as converged.
"""

import pytest

import torusbvp as tb


@pytest.mark.parametrize("a, b, f, g", [(-1.0, -1.0, 1.0, 1.0), (-1.0, 0.0, 1.0, 0.0)])
def test_a_large_supersolution_does_not_admit_a_false_subsolution(params, mesh16, a, b, f, g):
    prob = tb.ProblemP2(a, b, tb.DiskField.constant(mesh16, f), tb.DiskField.constant(mesh16, g))
    with pytest.raises(tb.OrderingViolation,
                       match=r"^subsolution fails the discrete inequality \(max violation 0\.648721\)$"):
        tb.solve_p2_monotone(mesh16, params, prob, tb.DiskField.constant(mesh16, 0.5),
                             tb.DiskField.constant(mesh16, 30.0))
