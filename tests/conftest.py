import sys
from pathlib import Path

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
