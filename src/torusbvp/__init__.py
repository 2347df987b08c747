"""Exponential elliptic boundary-value problems on a solid torus.

Rotation-invariant problems on the solid torus reduce to weighted problems
on the unit disk; this package meshes the disk, assembles the weighted
operators, solves the two model problems (Dirichlet volume problem and the
nonlinear-Neumann problem) and probes the sharp exponential-inequality
constants with explicit concentration families.
"""

from .errors import (
    ConfigError,
    DomainError,
    ExistenceWindowWarning,
    InfeasibleError,
    NoBracket,
    NonConvergence,
    NoRootError,
    OrderingViolation,
    SingularJacobian,
    TorusBVPError,
)
from .geometry import (
    TorusParams,
    orbit_distance_disk,
)
from .mesh import (
    DiskField,
    DiskMesh,
    WeightedOperators,
    assemble,
    build_mesh,
    dirichlet_energy,
    integrate_volume,
)
from .functionals import (
    ProblemP1,
    ProblemP2,
    constraint_A_p1,
    constraint_K,
    exp_capped,
    functional_I_p1,
    functional_I_p2,
    grad_energy_weighted,
    identity_6_14_residual,
    mean_value,
    multiplier_kappa,
)
from .solvers import (
    SolveOptions,
    SolveReport,
    find_constant_bracket,
    p1_residual_norm,
    p2_residual_norm,
    solve_p1_newton,
    solve_p1_variational,
    solve_p2_monotone,
    solve_p2_newton,
    solve_p2_variational,
)
from .inequalities import (
    BlowupFamily,
    MTScanRow,
    blowup_closed_forms,
    blowup_field,
    blowup_tube_disk_quadrature,
    corollary_scan,
    interior_orbit_family,
    minimal_orbit_family,
    mt_scan,
    mu_best,
)
from .expressions import compile_expression

__version__ = "0.1.0"
