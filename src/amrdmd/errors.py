"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class AmrDmdError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(AmrDmdError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class InvalidPlanError(AmrDmdError):
    """A refinement/coarsening plan is inconsistent with the mesh."""


class PointNotFoundError(AmrDmdError, LookupError):
    """A query point lies outside the mesh beyond tolerance."""


class AssemblyError(AmrDmdError):
    """Finite-element assembly hit a degenerate element."""


class SolverError(AmrDmdError):
    """A linear system is not positive definite, or its solve missed the
    residual tolerance."""


class NumericError(AmrDmdError):
    """A dense factorization failed to converge, or a result overflowed."""


class CoverageError(AmrDmdError):
    """The donor mesh does not cover every element of the target mesh.

    Carries the offending points in ``points``: the target element centroids
    no donor element holds, or the vertices of elements covered only in part.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points if points is not None else []


class FitError(AmrDmdError):
    """Model fitting failed (empty rank, eigen failure)."""


class StepError(AmrDmdError):
    """A simulation time step failed (e.g. Picard non-convergence)."""


class ConfigError(AmrDmdError):
    """A run-configuration file could not be parsed.

    ``line_no`` is the 1-based offending line, when known.
    """

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class StoreError(AmrDmdError):
    """A snapshot store is missing files or internally inconsistent."""
