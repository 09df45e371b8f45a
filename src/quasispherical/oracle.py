"""Independent reference solutions and refinement-order measurement.

On a round sphere with constant initial data the outward marching equation
collapses to the radial ODE

    2 rho du/drho = u - u^3,   rho = rho0 + r,

whose closed-form solution is u(rho) = (1 - 2 m / rho)^(-1/2) with the
mass parameter fixed by the initial value u(rho0) = c:

    m = (rho0 / 2) (1 - c^(-2)).

radial_solve returns that closed form; tests/test_oracle.py checks it
against a direct high-accuracy ODE integration, so the rest of the test
suite can treat it as an independent oracle.  This module imports only
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonMonotoneErrorsError

_DEGENERATE_FLOOR = 1e-13


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form radial profile u(rho) for constant data on a round sphere."""

    rho0: float
    c: float
    m: float

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return 1.0 / np.sqrt(1.0 - 2.0 * self.m / rho)

    def u_at_offset(self, r) -> np.ndarray:
        """Value at offset r from the base sphere (rho = rho0 + r)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("offsets are outward only: r must be >= 0")
        return self(self.rho0 + r)


def radial_solve(rho0: float, c: float) -> RadialSolution:
    """Closed-form radial solution with initial value u(rho0) = c."""
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    if c <= 0:
        raise ValueError(f"initial value c must be positive, got {c}")
    return RadialSolution(rho0=rho0, c=c, m=0.5 * rho0 * (1.0 - 1.0 / (c * c)))


def convergence_order(
    run: Callable[[int], float | np.ndarray],
    resolutions: Sequence[int],
    exact: float | np.ndarray | None = None,
) -> float | None:
    """Observed order of accuracy from a refinement study.

    run(n) evaluates the quantity of interest at resolution n.  Errors are
    measured against `exact` when given, otherwise against the finest run
    (which is then excluded from the fit).  Returns the least-squares slope
    of log(error) versus log(1/n).

    Returns None when every error sits at the roundoff floor, 1e-13 relative
    to the reference (degenerate refinement: nothing left to measure).  Raises NonMonotoneErrorsError
    when the errors fail to decrease monotonically, rather than reporting a
    meaningless order.
    """
    res = [int(n) for n in resolutions]
    if len(res) < (2 if exact is not None else 3):
        raise ValueError("need at least two error samples to fit an order")
    if any(b <= a for a, b in zip(res, res[1:])):
        raise ValueError("resolutions must be strictly increasing")

    values = [np.asarray(run(n), dtype=float) for n in res]
    if exact is not None:
        reference = np.asarray(exact, dtype=float)
        fit_res = res
        fit_vals = values
    else:
        reference = values[-1]
        fit_res = res[:-1]
        fit_vals = values[:-1]

    errors = np.array([float(np.max(np.abs(v - reference))) for v in fit_vals])
    scale = max(1.0, float(np.max(np.abs(reference))))
    if np.all(errors <= _DEGENERATE_FLOOR * scale):
        return None
    if np.any(errors <= 0) or np.any(np.diff(errors) >= 0):
        raise NonMonotoneErrorsError(
            f"refinement errors are not strictly decreasing: {errors.tolist()}"
        )
    slope, _ = np.polyfit(np.log(1.0 / np.asarray(fit_res, dtype=float)), np.log(errors), 1)
    return float(slope)
