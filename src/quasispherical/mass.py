"""Mass functionals along the foliation and total-mass estimation.

Two surface functionals bracket the total mass of the constructed extension:

    m_upper(r) = Int_{Sigma_r} H0_r (1 - 1/u)   d sigma_r   (non-increasing)
    m_lower(r) = (1/2) Int_{Sigma_r} H0_r (1 - 1/u^2) d sigma_r   (non-decreasing)

Both converge to 8 pi times the ADM-normalized mass; their difference is the
pointwise-nonnegative integral (1/2) Int H0 (1 - 1/u)^2, so the ordering
m_lower <= m_upper holds unconditionally, not just for monotone data.  The
ADM normalization (division by 8 pi) is applied by estimate_mass and is
calibrated so that constant data on a round sphere reproduces the
Schwarzschild mass parameter exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry
from .errors import NotConvergedError
from .evolution import QuasiSphericalState, SolverConfig, evolve
from .geometry import ConvexSurface, FoliationFrame

logger = logging.getLogger("quasispherical")

ADM_NORMALIZATION = 8.0 * np.pi


def _one_over(u: np.ndarray) -> np.ndarray:
    return 1.0 / np.asarray(u, dtype=float)


def mass_at(frame: FoliationFrame, u) -> float:
    """Upper mass functional Int H0 (1 - 1/u) d sigma at one leaf (raw,
    un-normalized; divide by 8 pi for ADM units)."""
    inv = _one_over(u)
    H0 = geometry.per_node(frame.H0, inv)
    return geometry.integrate(frame, H0 * (1.0 - inv))


def mass_lower_at(frame: FoliationFrame, u) -> float:
    """Lower mass functional (1/2) Int H0 (1 - 1/u^2) d sigma (raw)."""
    inv = _one_over(u)
    H0 = geometry.per_node(frame.H0, inv)
    return 0.5 * geometry.integrate(frame, H0 * (1.0 - inv * inv))


def decrement_rate(frame: FoliationFrame, u) -> float:
    """Exact derivative of the upper functional along the foliation:
    d m_upper / dr = -(1/2) Int R_r (1 - u)^2 / u d sigma_r (raw units).

    Useful as a consistency diagnostic: the measured decrease of m_upper
    between nearby leaves should match this rate.
    """
    uarr = np.asarray(u, dtype=float)
    R = geometry.per_node(frame.R, uarr)
    diff = 1.0 - uarr
    return -0.5 * geometry.integrate(frame, R * diff * diff / uarr)


@dataclass
class MassSeries:
    """Both mass functionals sampled along the emission ladder (raw units)."""

    r: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    step_index: np.ndarray

    def __len__(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class MassEstimate:
    """Total mass in ADM units with the rails' bracket at the final leaf.

    The bracket holds the mass of the discrete solution; it leaves out the
    discretization error of the march (ROADMAP item 4)."""

    value: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    r_final: float

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.bracket_lo, self.bracket_hi)


def compute_mass_series(
    surface: ConvexSurface,
    u0,
    config: SolverConfig,
    observer: Optional[Callable[[QuasiSphericalState], None]] = None,
) -> tuple[MassSeries, QuasiSphericalState]:
    """Evolve the data and sample both mass functionals at every emission."""
    rs: list[float] = []
    ups: list[float] = []
    los: list[float] = []
    steps: list[int] = []

    def collect(state: QuasiSphericalState) -> None:
        frame = geometry.frame_at(surface, state.r)
        rs.append(state.r)
        ups.append(mass_at(frame, state.u))
        los.append(mass_lower_at(frame, state.u))
        steps.append(state.step_index)
        if observer is not None:
            observer(state)

    final = evolve(surface, u0, config, observer=collect)
    series = MassSeries(
        r=np.array(rs),
        upper=np.array(ups),
        lower=np.array(los),
        step_index=np.array(steps, dtype=int),
    )
    return series, final


def estimate_mass(series: MassSeries, tol: float = 1e-3) -> MassEstimate:
    """Total mass from a sampled series, in ADM units.

    The tail of m_upper is fit as m_inf + a/r over the last decade of radii
    and the fitted limit is clamped into the bracket
    (m_lower(r_final), m_upper(r_final)) / 8 pi, which holds the mass of the
    discrete solution but not the march's discretization error.  Raises
    NotConvergedError (carrying the partial estimate) when the bracket is
    wider than tol, and ValueError when tol is not finite and positive or
    the series is too short to fit (< 3 positive-radius samples spanning the
    final decade).
    """
    geometry.positive_number(tol, "tol")
    if len(series) == 0:
        raise ValueError("empty mass series")
    r_final = float(series.r[-1])
    window = (series.r > 0) & (series.r >= 0.1 * r_final)
    if int(np.sum(window)) < 3:
        raise ValueError(
            "mass series too short: need >= 3 samples in the last decade of r "
            f"(got {int(np.sum(window))}); extend r_max"
        )

    rw = series.r[window]
    uw = series.upper[window]
    design = np.column_stack([np.ones_like(rw), 1.0 / rw])
    coef, *_ = np.linalg.lstsq(design, uw, rcond=None)
    m_inf = float(coef[0])
    rms = float(np.sqrt(np.mean((design @ coef - uw) ** 2)))

    lo = float(series.lower[-1]) / ADM_NORMALIZATION
    hi = float(series.upper[-1]) / ADM_NORMALIZATION
    value = min(max(m_inf / ADM_NORMALIZATION, lo), hi)
    estimate = MassEstimate(
        value=value,
        bracket_lo=lo,
        bracket_hi=hi,
        residual=rms / ADM_NORMALIZATION,
        r_final=r_final,
    )
    if hi - lo > tol:
        raise NotConvergedError(
            f"mass bracket width {hi - lo:.3e} exceeds tolerance {tol:.1e} at "
            f"r_final={r_final:.6g}; increase r_max",
            estimate=estimate,
        )
    return estimate
