"""Exception types shared across the package."""


class CapfoldError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CapfoldError, ValueError):
    """An argument or input document lies outside what a function accepts.

    Also a ``ValueError``, so callers that catch that keep working.
    """


class NegativeDensityError(CapfoldError):
    """A quadrature density was sampled below zero."""


class SpaceMismatchError(CapfoldError):
    """Two measures live on different spaces (disk vs sphere, or different n)."""


class ZeroMassError(CapfoldError):
    """Operation requires a measure with positive total mass."""


class NumericalFailureError(CapfoldError):
    """A solver failed on valid input; no bound was decided either way."""


class NonConvergenceError(NumericalFailureError):
    """The renormalization solver failed to reach the requested residual.

    Typically signals a measure concentrated too close to a single boundary
    point, for which no interior balancing point exists.
    """

    def __init__(self, message, xi=None, residual=None, iterations=None):
        super().__init__(message)
        self.xi = xi
        self.residual = residual
        self.iterations = iterations


class UnivalenceError(CapfoldError):
    """Power-series coefficients failed the univalence certificate."""


class EvaluationOutsideCapError(CapfoldError):
    """A cap-to-disk map was evaluated at a point outside its cap."""


class GridMismatchError(CapfoldError):
    """A measure's atoms are not its rule's own array, or it lacks a polar rule."""


class NotMultipleError(CapfoldError):
    """Measure is not multiple within the requested eigenvalue-gap tolerance."""


class CapScanError(NumericalFailureError):
    """Every Gauss-Newton start of a cap search ended at gap >= eps.

    Carries the smallest-gap cap reached in ``best_cap`` / ``best_gap``.
    """

    def __init__(self, message, best_cap=None, best_gap=None):
        super().__init__(message)
        self.best_cap = best_cap
        self.best_gap = best_gap


class DegenerateFieldError(NumericalFailureError):
    """Direction field degenerates (vanishing gap) along a winding loop."""


class EvenDimensionError(CapfoldError):
    """Degree diagnostics require odd sphere dimension."""


class DimensionUnsupportedError(CapfoldError):
    """Requested sphere dimension is outside the supported scan range."""


class InvalidSpecError(CapfoldError):
    """Unknown or malformed domain specification."""


class NeckTooNarrowError(CapfoldError):
    """Two-disk passage is under-resolved at the requested mesh size."""


class DegenerateTriangleError(CapfoldError):
    """Mesh contains a triangle with non-positive area."""


class EigSolveError(NumericalFailureError):
    """Sparse eigenvalue solve did not converge."""
