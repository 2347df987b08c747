"""Exception types shared across the package."""


class TorusBVPError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TorusBVPError):
    """Input violates a documented precondition or invariant."""


class InfeasibleError(TorusBVPError):
    """The constraint set of the requested problem is (detectably) empty."""


class NoRootError(TorusBVPError):
    """A 1D root needed by a construction could not be bracketed."""


class NoBracket(TorusBVPError):
    """No constant sub/supersolution pair satisfies the discrete inequalities."""


class NonConvergence(TorusBVPError):
    """Iteration exhausted its budget without meeting the tolerance.

    Carries the steps taken (if counted) in ``iterations`` for
    diagnostics.
    """

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class SingularJacobian(TorusBVPError):
    """Sparse factorization of a Newton Jacobian failed."""


class OrderingViolation(TorusBVPError):
    """Monotone iteration lost the sub/supersolution bracketing."""


class ConfigError(TorusBVPError):
    """Run configuration failed to parse or validate."""


class ExistenceWindowWarning(UserWarning):
    """Problem data lie outside a sufficient existence window (advisory only)."""
