"""Outward marching of the conformal factor along the parallel foliation.

The metric u^2 dr^2 + g_r has zero scalar curvature exactly when u solves

    H0_r du/dr = u^2 Lap_r u + (1/2) (u - u^3) R_r,

where Lap_r, H0_r, R_r are the Laplace-Beltrami operator, mean curvature,
and scalar curvature of the leaf Sigma_r.  This module integrates that
equation from r = 0 with positive initial data.

Every step runs one body: the midpoint rule, with leaf geometry evaluated
at the stage radii.  Under ExplicitRK2 the right-hand side uses the full
Laplacian.  Under ThetaExplicitPhiImplicit, on 2-d data, it uses only the
theta part, and the scheme adds a single stage after the body: a
backward-Euler solve of the azimuthal second difference, one cyclic
tridiagonal system per theta ring.  This removes the severe polar
restriction dr ~ (sin(theta) dphi)^2 for non-axisymmetric data.

Data that does not vary in phi is always marched on the one-dimensional
theta grid (the equation preserves axisymmetry, so this is exact, not an
approximation).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from . import geometry
from .errors import NonFiniteError, PositivityLossError, StepUnderflowError
from .geometry import ConvexSurface, FoliationFrame, per_node

logger = logging.getLogger("quasispherical")

# A stability-limited step below this raises StepUnderflowError.
_DR_MIN = 1e-12
# The emission ladder: _OUTPUT_R0 * _OUTPUT_STRIDE^k below r_max.
_OUTPUT_R0 = 0.01
_OUTPUT_STRIDE = 1.2


class Scheme(str, enum.Enum):
    EXPLICIT_RK2 = "explicit_rk2"
    THETA_EXPLICIT_PHI_IMPLICIT = "theta_explicit_phi_implicit"


@dataclass(frozen=True)
class SolverConfig:
    """Marching parameters.

    cfl_safety scales the diffusive stability step (valid range (0, 1]);
    r_max is the final radius, finite and positive.  Emissions happen on
    the fixed geometric ladder r_k = 0.01 * 1.2^k (plus r = 0 and r = r_max,
    always emitted).  The step is not clamped from above: landing on the
    next ladder radius bounds it.  A stability-required step below 1e-12
    raises StepUnderflowError.
    """

    cfl_safety: float = 0.25
    r_max: float = 1000.0
    scheme: Scheme = Scheme.EXPLICIT_RK2

    def __post_init__(self):
        geometry.positive_number(self.cfl_safety, "cfl_safety")
        if self.cfl_safety > 1.0:
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        geometry.positive_number(self.r_max, "r_max")
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))


@dataclass
class QuasiSphericalState:
    """Solution snapshot: radius, conformal factor, and accepted-step count.

    u has shape (n_theta,) for axisymmetric data or (n_theta, n_phi)
    otherwise.
    """

    r: float
    u: np.ndarray
    step_index: int = 0


# lap is geometry.laplacian or its theta part; the reaction coefficient R/2
# is the Gauss curvature K of the leaf.
def _rhs(u: np.ndarray, frame: FoliationFrame, lap) -> np.ndarray:
    H0 = per_node(frame.H0, u)
    K = per_node(frame.K, u)
    uu = u * u
    return (uu * lap(frame, u) + K * (u - uu * u)) / H0


def solve_cyclic_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Solve batched cyclic tridiagonal systems along the last axis.

    Row k of each system reads
        sub[k] x[k-1] + diag[k] x[k] + sup[k] x[k+1] = rhs[k]
    with periodic wraparound (x[-1] = x[n-1], x[n] = x[0]).  All inputs
    share the same shape (..., n).  Sherman-Morrison reduces each ring to a
    plain tridiagonal system; all rings, stacked end to end with their
    couplings across ring boundaries set to zero, are then solved in one
    LAPACK dgtsv call (Gaussian elimination with partial pivoting), with
    the data and the rank-one correction vector as its two right-hand
    sides.  A zero pivot raises NonFiniteError.
    """
    sub = np.asarray(sub, dtype=float)
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[-1]
    if n < 3:
        raise ValueError("cyclic tridiagonal solve needs n >= 3")

    # Any nonzero gamma is valid: -diag[0] (diag[0] - gamma does not
    # cancel) where it is nonzero, 1 elsewhere.
    gamma = np.where(diag[..., 0] != 0.0, -diag[..., 0], 1.0)
    bmod = diag.copy()
    bmod[..., 0] = diag[..., 0] - gamma
    bmod[..., -1] = diag[..., -1] - sup[..., -1] * sub[..., 0] / gamma

    dl = sub.ravel()[1:].copy()
    du = sup.ravel()[:-1].copy()
    dl[n - 1 :: n] = 0.0
    du[n - 1 :: n] = 0.0
    b = np.zeros((rhs.size, 2), order="F")
    b[:, 0] = rhs.ravel()
    b[::n, 1] = gamma.ravel()
    b[n - 1 :: n, 1] = sup[..., -1].ravel()
    x, info = lapack.dgtsv(
        dl, bmod.ravel(), du, b,
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )[3:]
    if info != 0:
        raise NonFiniteError(f"zero pivot in the cyclic solve (dgtsv info={info})")

    y = x[:, 0].reshape(rhs.shape)
    q = x[:, 1].reshape(rhs.shape)
    ratio = sub[..., 0] / gamma
    factor = (y[..., 0] + ratio * y[..., -1]) / (1.0 + q[..., 0] + ratio * q[..., -1])
    return y - factor[..., None] * q


def select_step(
    state: QuasiSphericalState, frame: FoliationFrame, config: SolverConfig
) -> float:
    """Stability-limited step at the current radius.

    dr = cfl_safety * min over nodes of h^2 H0 / (4 u^2), where h is the
    smaller local metric grid spacing.  The azimuthal spacing is excluded
    for axisymmetric data and under the phi-implicit scheme (the implicit
    solve removes that restriction).  A value below 1e-12 raises
    StepUnderflowError.
    """
    u = state.u
    h = np.sqrt(frame.E) * frame.d_theta
    if u.ndim == 2 and config.scheme is Scheme.EXPLICIT_RK2:
        h = np.minimum(h, np.sqrt(frame.G) * frame.d_phi)
    local = per_node(h * h * frame.H0, u) / (4.0 * u * u)
    dr = config.cfl_safety * float(local.min())
    if dr < _DR_MIN:
        raise StepUnderflowError(
            f"stability-limited step {dr:.3e} fell below {_DR_MIN:.0e} "
            f"at r={state.r:.6g}; coarsen the grid or switch scheme"
        )
    return dr


def _check_stage(u: np.ndarray, r: float, dr: float, label: str) -> None:
    # Fast test for the common case; NaN fails the first comparison.
    if u.min() > 0.0 and u.max() < np.inf:
        return
    if not np.all(np.isfinite(u)):
        raise NonFiniteError(f"non-finite values in {label} at r={r:.6g}, dr={dr:.3e}")
    if np.any(u <= 0.0):
        raise PositivityLossError(
            f"conformal factor lost positivity in {label} at r={r:.6g}, dr={dr:.3e}",
            r=r,
            dr=dr,
        )


def step(
    state: QuasiSphericalState,
    surface: ConvexSurface,
    dr: float,
    config: SolverConfig,
    frame0: Optional[FoliationFrame] = None,
) -> QuasiSphericalState:
    """Advance one step of size dr; returns a new state at r + dr.

    Raises PositivityLossError if any stage drives u <= 0 and NonFiniteError
    on NaN/Inf; both name r and dr, and PositivityLossError carries them as
    attributes, so a caller may retry with a smaller dr.
    """
    r = state.r
    u = state.u
    if frame0 is None:
        frame0 = geometry.frame_at(surface, r)

    phi_implicit = u.ndim == 2 and config.scheme is Scheme.THETA_EXPLICIT_PHI_IMPLICIT
    lap = geometry.theta_laplacian if phi_implicit else geometry.laplacian

    k1 = _rhs(u, frame0, lap)
    um = u + 0.5 * dr * k1
    _check_stage(um, r, dr, "midpoint stage")
    fm = geometry.frame_at(surface, r + 0.5 * dr)
    u1 = u + dr * _rhs(um, fm, lap)
    _check_stage(u1, r, dr, "theta stage" if phi_implicit else "update")

    if phi_implicit:
        # Backward-Euler azimuthal solve on the leaf at r + dr.
        f1 = geometry.frame_at(surface, r + dr)
        coef = dr * u1 * u1 / (
            f1.H0[:, None] * f1.G[:, None] * frame0.d_phi * frame0.d_phi
        )
        u1 = solve_cyclic_tridiagonal(-coef, 1.0 + 2.0 * coef, -coef, u1)
        _check_stage(u1, r, dr, "phi-implicit solve")
    return QuasiSphericalState(r=r + dr, u=u1, step_index=state.step_index + 1)


def _normalize_initial(surface: ConvexSurface, u0) -> np.ndarray:
    arr = geometry.node_field(surface, u0, "u0", positive=True)
    if arr.ndim == 2 and np.all(arr == arr[:, :1]):
        arr = arr[:, 0]
    return arr.copy()


def _emission_radii(config: SolverConfig) -> list[float]:
    """The ladder 0.01 * 1.2^k below r_max, then r_max.

    A rung within 1e-12 r_max of r_max is snapped onto it, so it is emitted
    once, as r_max."""
    radii = []
    r = _OUTPUT_R0
    while r < config.r_max:
        radii.append(r)
        r *= _OUTPUT_STRIDE
        if abs(r - config.r_max) < 1e-12 * config.r_max:
            r = config.r_max
    radii.append(config.r_max)
    return radii


def evolve(
    surface: ConvexSurface,
    u0,
    config: SolverConfig,
    observer: Optional[Callable[[QuasiSphericalState], None]] = None,
) -> QuasiSphericalState:
    """March from r = 0 to config.r_max; returns the final state.

    The observer (if given) is called at r = 0, at every ladder radius
    0.01 * 1.2^k below r_max, and at r_max; ladder radii are landed on
    exactly, so runs with different initial data emit at identical radii.
    Each step is taken once: a PositivityLossError or NonFiniteError from
    step propagates at once, with the r and dr of the failed step.
    """
    u = _normalize_initial(surface, u0)
    state = QuasiSphericalState(r=0.0, u=u, step_index=0)
    if observer is not None:
        observer(state)

    log_every = 0.0
    for target in _emission_radii(config):
        while state.r < target:
            frame0 = geometry.frame_at(surface, state.r)
            dr = select_step(state, frame0, config)
            landing = state.r + dr >= target * (1.0 - 1e-14)
            if landing:
                dr = target - state.r

            state = step(state, surface, dr, config, frame0=frame0)
            if landing:
                state.r = target  # exact landing, no accumulation drift
            if state.r >= log_every:
                logger.debug("r=%.6g step=%d", state.r, state.step_index)
                log_every = max(state.r * 2.0, 1e-6)

        if observer is not None:
            observer(state)
    return state
