"""Exception hierarchy for the quasispherical package.

Every failure mode that callers are expected to catch gets its own class, so
the CLI can map exceptions to machine-readable error reports without string
matching.
"""

from __future__ import annotations


class QuasisphericalError(Exception):
    """Base class for all package-specific errors."""


class NonConvexError(QuasisphericalError):
    """A principal curvature is non-positive somewhere on the surface."""


class DegenerateProfileError(QuasisphericalError):
    """Profile curve is unusable: non-positive radius away from the poles,
    non-monotone height near the poles, or too few samples."""


class StepUnderflowError(QuasisphericalError):
    """The stability-limited step fell below the solver's floor of 1e-12."""


class PositivityLossError(QuasisphericalError):
    """A solver stage produced a non-positive conformal factor.  Raised at
    once; r and dr name the failed step, for a retry with a smaller dr."""

    def __init__(self, message: str, r: float | None = None, dr: float | None = None):
        super().__init__(message)
        self.r = r
        self.dr = dr


class NonFiniteError(QuasisphericalError):
    """NaN or Inf appeared in the evolved field."""


class NotConvergedError(QuasisphericalError):
    """The mass bracket at the final radius is wider than the tolerance, or
    a mu0 probe's rails straddle zero there, so its sign is not certified.

    Carries the partial estimate so callers can inspect it or retry with a
    larger r_max.
    """

    def __init__(self, message: str, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class BracketFailureError(QuasisphericalError):
    """The masses at the two ends of the scaling bracket do not straddle zero."""


class MarginTooSmallError(QuasisphericalError):
    """Certificate margin is below the certified numerical error."""


class NonMonotoneErrorsError(QuasisphericalError):
    """Refinement errors do not decrease monotonically; no order is reported."""


class ExpressionSyntaxError(QuasisphericalError):
    """Malformed expression text; byte offset of the failure in .offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(QuasisphericalError):
    """Expression uses a name outside the allowed variables and functions."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class NonPositiveOnGridError(QuasisphericalError):
    """Expression evaluates to a non-positive value at some grid node."""

    def __init__(self, message: str, theta: float, phi: float | None, value: float):
        super().__init__(message)
        self.theta = theta
        self.phi = phi
        self.value = value
