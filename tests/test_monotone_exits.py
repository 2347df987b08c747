"""Every exit of the monotone iteration, and its verdict read from the record alone.

The data a = b = -1, f = g = 1 on 16 rings have the exact solution v = 0.
Each failing bracket below reaches one branch of ``solve_p2_monotone``, and
its message pins which.
"""

import numpy as np
import pytest

import torusbvp as tb


def _constant(mesh, value):
    return tb.DiskField.constant(mesh, value)


def _regime(mesh, g=None):
    one = _constant(mesh, 1.0)
    return tb.ProblemP2(-1.0, -1.0, one, one if g is None else g)


@pytest.mark.parametrize("interior_g", [1.0, 1e9])
def test_data_that_leave_the_record_unchanged_get_the_same_verdict(params, mesh16, interior_g):
    """``g`` at interior nodes never enters ``S v + c + w e^v``, so it cannot loosen the bracket check."""
    g = tb.DiskField(mesh16, np.where(np.arange(mesh16.n_nodes) < mesh16.n_interior, interior_g, 1.0))
    with pytest.raises(tb.OrderingViolation,
                       match=r"^subsolution fails the discrete inequality \(max violation 0\.0512711\)$"):
        tb.solve_p2_monotone(mesh16, params, _regime(mesh16, g), _constant(mesh16, 0.05), _constant(mesh16, 0.1))


@pytest.mark.parametrize("lo, hi, message", [
    (-0.2, -0.1, r"^supersolution fails the discrete inequality \(min value -0\.0951626\)$"),
    (1e-10, 0.1, r"^iterate decreased at \d+ nodes \(shift too small\?\)$"),
    (-1.0, -1e-10, r"^iterate escaped above the supersolution at \d+ nodes$"),
])
def test_each_ordering_exit_names_its_branch(params, mesh16, lo, hi, message):
    """A supersolution below the solution, a subsolution above it, and a supersolution just below it."""
    with pytest.raises(tb.OrderingViolation, match=message):
        tb.solve_p2_monotone(mesh16, params, _regime(mesh16), _constant(mesh16, lo), _constant(mesh16, hi))


def test_an_iteration_cap_below_the_steps_needed_is_non_convergence(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: 1.0 + 0.5 * t * t)
    prob = tb.ProblemP2(-1.0, -1.0, f, _constant(mesh16, 1.0))
    sub, sup = tb.find_constant_bracket(mesh16, params, prob)
    with pytest.raises(tb.NonConvergence, match=r"^monotone iteration did not contract below \S+ in 1 steps$"):
        tb.solve_p2_monotone(mesh16, params, prob, sub, sup, opts=tb.SolveOptions(max_monotone_iter=1))


def test_a_large_shift_does_not_stop_on_its_small_first_step(params, mesh16):
    """sub = -5 and super = 30 are a true bracket of v = 0, but the shift ``|w| e^30`` keeps every step tiny.

    A stop on the increment returned the field after one step with residual 10.81.
    """
    message = r"^monotone iteration did not contract below 1e-10 in 500 steps$"
    with pytest.raises(tb.NonConvergence, match=message) as exc:
        tb.solve_p2_monotone(mesh16, params, _regime(mesh16), _constant(mesh16, -5.0), _constant(mesh16, 30.0))
    assert exc.value.iterations == 500  # the steps taken, as a Newton NonConvergence counts them


def test_a_wide_bracket_returns_only_below_the_newton_stop(params, mesh32):
    """On 32 rings, f = 1 + t^2/2, g = 1, between -3 and 2, an increment stop returned at residual 4.0e-8."""
    f = tb.DiskField.from_function(mesh32, lambda t, s: 1.0 + 0.5 * t * t)
    prob = tb.ProblemP2(-1.0, -1.0, f, _constant(mesh32, 1.0))
    rep = tb.solve_p2_monotone(mesh32, params, prob, _constant(mesh32, -3.0), _constant(mesh32, 2.0))
    stop = 1e-10 + 1e-10 * tb.p2_residual_norm(mesh32, params, prob, _constant(mesh32, 0.0))  # Newton's, |c + w|
    assert rep.residual_norm <= stop
    assert rep.residual_norm == tb.p2_residual_norm(mesh32, params, prob, rep.field)
