import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusbvp import TorusParams, build_mesh, solvers


@pytest.fixture(scope="session")
def params():
    return TorusParams(2.0, 1.0)


@pytest.fixture(scope="session")
def mesh16():
    return build_mesh(16)


@pytest.fixture(scope="session")
def mesh32():
    return build_mesh(32)


@pytest.fixture
def splu_sizes(monkeypatch):
    """The row count of every matrix the solvers factor from here on, in call order."""
    sizes = []
    real_splu = solvers.splu

    def counting_splu(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting_splu)
    return sizes


@pytest.fixture
def newton_levels(monkeypatch):
    """``(unknowns, residuals, tol)`` of every Newton loop the solvers run from here on, in call order.

    ``unknowns`` is the record's pin row ``k``, the count of its leading,
    unpinned rows.  ``residuals`` are the loop's own, from its start to where it stopped,
    and ``tol`` is Newton's tolerance on its record, ``tol_abs + tol_rel
    r0`` with ``r0`` the weighted residual of zero.
    """
    levels = []
    real_loop = solvers._newton_loop

    def recording_loop(eq, v0, weights, opts, *args, **kwargs):
        out = real_loop(eq, v0, weights, opts, *args, **kwargs)
        r0 = solvers._weighted_norm(solvers._residual(eq, np.zeros_like(v0)), weights)
        residuals = [res for res, _ in out[2]]
        levels.append((eq[4], residuals, opts.tol_abs + opts.tol_rel * r0))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", recording_loop)
    return levels
