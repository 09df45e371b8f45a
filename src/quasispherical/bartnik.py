"""Prescribed-mean-curvature data on a convex base surface.

Given the induced metric of the base surface and a prescribed positive
function H (the data's mean curvature), the extension built from initial
factor u0 = H0 / H has total mass controlled by H.  Scaling H down by mu
(equivalently starting from u0 = H0 / (mu H)) moves the mass monotonically,
and there is a unique critical constant mu0 > 0 at which the total mass is
exactly zero:

    mass(H0 / (mu H)) > 0  for mu < mu0,   < 0  for mu > mu0.

mu0 is bracketed by two quadratures of the data alone,

    sqrt( Int H0 / Int H^2/H0 )  <=  mu0  <=  Int H0 / Int H,

with equality on the right exactly when H is a constant multiple of H0
(the Euclidean/rigidity case).  Any fill-in threshold for the data is
bounded above by mu0, which powers the non-existence certificate: if a
candidate mean curvature H_hat satisfies H_hat >= mu0 H strictly, the data
(surface, H_hat) admits no nonnegative-scalar-curvature fill-in, except in
the borderline proportional case where the flat ball itself is the fill-in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import geometry, mass
from .errors import BracketFailureError, MarginTooSmallError, NotConvergedError
from .evolution import SolverConfig
from .geometry import ConvexSurface

logger = logging.getLogger("quasispherical")

PROPORTIONALITY_TOL = 1e-8


@dataclass
class BartnikData:
    """Base surface together with prescribed mean curvature H at the nodes.

    H may be axisymmetric (n_theta,) or full (n_theta, n_phi); it must be
    strictly positive.
    """

    surface: ConvexSurface
    H: np.ndarray

    def __post_init__(self):
        self.H = geometry.node_field(self.surface, self.H, "H", positive=True)


@dataclass(frozen=True)
class Mu0Result:
    """Critical scaling constant with its certification data.

    bracket is the final bisection interval; mass_at_lo / mass_at_hi are the
    total masses (ADM units) at its ends, which straddle zero: each is the
    marched estimate, or the rail bound at r = 0 when the rails there
    settled that end's sign without a march.  After a midpoint whose mass
    vanishes within mass_tol, they are the values at the ends before that
    last narrowing.  iterations counts the marches made.
    lambda0_upper_bound is the certified upper bound for any fill-in
    threshold of the data (the conservative end of the bracket).
    """

    mu0: float
    bracket: tuple[float, float]
    mass_at_lo: float
    mass_at_hi: float
    analytic_lower: float
    analytic_upper: float
    iterations: int
    lambda0_upper_bound: float
    is_euclidean_case: bool


@dataclass(frozen=True)
class Certificate:
    """Outcome of the no-fill-in test for candidate mean curvature H_hat."""

    granted: bool
    exceptional_case: bool
    margin_required: float
    margin_measured: float
    ratio_min: float
    mu0: float
    mu0_bracket: tuple[float, float]
    certified_error: float
    reason: str


def h0_of(surface: ConvexSurface) -> np.ndarray:
    """Mean curvature of the base surface at the grid nodes (sum of the
    principal curvatures; 2/rho on a round sphere of radius rho): the leaf
    at r = 0, so frame_at alone owns the formula."""
    return geometry.frame_at(surface, 0.0).H0


def _base_integrals(data: BartnikData) -> tuple[float, float, float]:
    """Int H0, Int H and Int H^2/H0 over the base surface."""
    frame0 = geometry.frame_at(data.surface, 0.0)
    h0 = geometry.per_node(h0_of(data.surface), data.H)
    return (
        geometry.integrate(frame0, h0 * np.ones_like(data.H)),
        geometry.integrate(frame0, data.H),
        geometry.integrate(frame0, data.H * data.H / h0),
    )


def mu0_bounds(data: BartnikData) -> tuple[float, float]:
    """Quadrature bracket for the critical scaling constant.

    lower = sqrt( Int H0 / Int H^2/H0 ), upper = Int H0 / Int H, both over
    the base surface.  upper equals mu0 exactly when H is proportional to
    H0; lower comes from the non-decreasing lower mass functional.  By
    Cauchy-Schwarz lower <= upper, with equality in the proportional case,
    where the two quadratures can round apart; lower is capped at upper.
    """
    int_h0, int_h, int_h2_over_h0 = _base_integrals(data)
    lower = float(np.sqrt(int_h0 / int_h2_over_h0))
    upper = float(int_h0 / int_h)
    return min(lower, upper), upper


def proportionality_diagnostic(data: BartnikData) -> tuple[bool, float]:
    """Detect H = H0 / k for a constant k (the Euclidean/rigidity case).

    Returns (is_proportional, k) with k = Int H0 / Int H; proportional means
    max |k H - H0| <= PROPORTIONALITY_TOL * max H0.
    """
    int_h0, int_h, _ = _base_integrals(data)
    k = int_h0 / int_h
    h0 = geometry.per_node(h0_of(data.surface), data.H)
    deviation = float(np.max(np.abs(k * data.H - h0)))
    scale = float(np.max(np.abs(h0)))
    return deviation <= PROPORTIONALITY_TOL * scale, float(k)


def scaled_u0(data: BartnikData, mu: float) -> np.ndarray:
    """Initial factor H0 / (mu H) of the data scaled by mu."""
    return geometry.per_node(h0_of(data.surface), data.H) / (mu * data.H)


def _rails_at_base(
    data: BartnikData, mu: float, mass_tol: float
) -> Optional[mass.MassEstimate]:
    """The mass at mu bracketed by the rails at r = 0, when they settle its
    sign; None when a march is needed.

    The lower rail never decreases along the march and the upper rail never
    increases, so the total mass lies between their values on the base
    surface, the first entry the march would emit.  A lower rail above
    mass_tol settles the sign as positive (mu far enough below
    analytic_lower), an upper rail below -mass_tol as negative (mu far
    enough above analytic_upper).  The estimate's value is the settling
    rail.  The discrete lower rail can fall by a small fraction of itself
    (ROADMAP item 4), far too little to flip a sign settled this way.
    """
    frame0 = geometry.frame_at(data.surface, 0.0)
    u0 = scaled_u0(data, mu)
    lower = mass.mass_lower_at(frame0, u0) / mass.ADM_NORMALIZATION
    upper = mass.mass_at(frame0, u0) / mass.ADM_NORMALIZATION
    if lower > mass_tol:
        value = lower
    elif upper < -mass_tol:
        value = upper
    else:
        return None
    return mass.MassEstimate(
        value=value, bracket_lo=lower, bracket_hi=upper, residual=0.0, r_final=0.0
    )


def _probe_mass(
    data: BartnikData, mu: float, config: SolverConfig, mass_tol: float
) -> mass.MassEstimate:
    """Total mass of the extension for the scaled data H0 / (mu H), marched
    to config.r_max."""
    series, _ = mass.compute_mass_series(data.surface, scaled_u0(data, mu), config)
    try:
        return mass.estimate_mass(series, tol=mass_tol)
    except NotConvergedError as err:
        logger.info("probe at mu=%.8g not fully converged: %s", mu, err)
        return err.estimate


def _certified_sign(est: mass.MassEstimate, mu: float, mass_tol: float) -> int:
    """+1 or -1 when both rails lie on that side of zero; 0 when the mass
    vanishes within mass_tol on rails at most 50 mass_tol apart; otherwise
    NotConvergedError, naming the probe's mu and carrying the estimate."""
    if abs(est.value) <= mass_tol and est.bracket_hi - est.bracket_lo <= 50.0 * mass_tol:
        return 0
    if est.bracket_lo > 0.0:
        return 1
    if est.bracket_hi < 0.0:
        return -1
    raise NotConvergedError(
        f"mass rails [{est.bracket_lo:.3e}, {est.bracket_hi:.3e}] straddle zero "
        f"at mu={mu:.8g}, r_final={est.r_final:.6g}, so the sign of the mass is not "
        "certified; increase r_max",
        estimate=est,
    )


def solve_mu0(
    data: BartnikData,
    mu_tol: float = 1e-3,
    mass_tol: float = 1e-6,
    config: Optional[SolverConfig] = None,
) -> Mu0Result:
    """Locate the zero-mass scaling constant by monotone bisection.

    The analytic bounds are widened by 5 percent on each side to form the
    starting bracket; the mass at the two ends must straddle zero
    (BracketFailureError otherwise).  Bisection stops when the bracket is
    narrower than mu_tol * mu0 or the midpoint mass vanishes within
    mass_tol.  Every probe, ends and midpoints alike, first reads the mass
    rails at r = 0 and is marched only when they leave its sign open, so
    the result's iterations counts marches, and a mass_at_lo / mass_at_hi
    may be a rail bound at r = 0 (see Mu0Result).  A marched probe whose
    rails straddle zero at r_max, its mass not within mass_tol of zero,
    raises NotConvergedError; a larger r_max narrows the rails.  mu_tol and
    mass_tol must be finite and positive (ValueError otherwise).
    """
    geometry.positive_number(mu_tol, "mu_tol")
    geometry.positive_number(mass_tol, "mass_tol")
    if config is None:
        config = SolverConfig()
    analytic_lower, analytic_upper = mu0_bounds(data)
    is_euclidean, _ = proportionality_diagnostic(data)
    iterations = 0

    def probe(mu: float) -> mass.MassEstimate:
        nonlocal iterations
        settled = _rails_at_base(data, mu, mass_tol)
        if settled is not None:
            return settled
        iterations += 1
        return _probe_mass(data, mu, config, mass_tol)

    lo = 0.95 * analytic_lower
    hi = 1.05 * analytic_upper
    est_lo = probe(lo)
    est_hi = probe(hi)
    if _certified_sign(est_lo, lo, mass_tol) <= 0:
        raise BracketFailureError(
            f"mass at the low end mu={lo:.8g} is not positive "
            f"(bracket [{est_lo.bracket_lo:.3e}, {est_lo.bracket_hi:.3e}])"
        )
    if _certified_sign(est_hi, hi, mass_tol) >= 0:
        raise BracketFailureError(
            f"mass at the high end mu={hi:.8g} is not negative "
            f"(bracket [{est_hi.bracket_lo:.3e}, {est_hi.bracket_hi:.3e}])"
        )

    while hi - lo > mu_tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        est_mid = probe(mid)
        sign = _certified_sign(est_mid, mid, mass_tol)
        logger.info(
            "bisection after %d marches: mu=[%.8g, %.8g], mid mass %.3e",
            iterations,
            lo,
            hi,
            est_mid.value,
        )
        if sign == 0:
            # The mass at the midpoint vanishes within mass_tol, so mu0 is
            # localized to mass_tol divided by the local slope of the mass
            # in mu; the slope is estimated from the masses at the ends.  A
            # rail bound at r = 0 lies nearer zero than its end's mass (up to
            # the discrete rail's drift), so the slope comes out smaller and
            # the bracket wider.
            slope = (est_lo.value - est_hi.value) / (hi - lo)
            eps = mass_tol / max(slope, 1e-300)
            lo = max(lo, mid - eps)
            hi = min(hi, mid + eps)
            break
        if sign > 0:
            lo, est_lo = mid, est_mid
        else:
            hi, est_hi = mid, est_mid

    mu0 = 0.5 * (lo + hi)
    return Mu0Result(
        mu0=mu0,
        bracket=(lo, hi),
        mass_at_lo=est_lo.value,
        mass_at_hi=est_hi.value,
        analytic_lower=analytic_lower,
        analytic_upper=analytic_upper,
        iterations=iterations,
        lambda0_upper_bound=hi,
        is_euclidean_case=is_euclidean,
    )


def quasilocal_masses(
    data: BartnikData, mu0: Union[Mu0Result, float]
) -> tuple[float, float]:
    """Two quasi-local mass values attached to the data, m2 <= m1.

    m1 = sqrt(|Sigma|/16 pi) (1 - (Int H / Int H0)^2) needs quadratures
    only; m2 = sqrt(|Sigma|/16 pi) (1 - 1/mu0^2) needs the critical scaling
    constant, from solve_mu0 or given as a number.
    """
    int_h0, int_h, _ = _base_integrals(data)
    ratio = int_h / int_h0
    scale = float(np.sqrt(data.surface.area / (16.0 * np.pi)))
    m1 = scale * (1.0 - ratio * ratio)

    mu0_value = mu0.mu0 if isinstance(mu0, Mu0Result) else float(mu0)
    m2 = scale * (1.0 - 1.0 / (mu0_value * mu0_value))
    return float(m1), float(m2)


def certify_no_fill_in(
    data: BartnikData, h_hat: np.ndarray, margin: float, mu0_result: Mu0Result
) -> Certificate:
    """Certificate that (surface, h_hat) admits no compact fill-in with
    nonnegative scalar curvature.

    Granted when min(h_hat / H) clears the certified upper end of the mu0
    bracket by at least the requested relative margin, outside the
    borderline proportional case.  The borderline case (data proportional
    to H0 and h_hat sitting at mu0 H within the margin) is flagged
    exceptional and the certificate is withheld: there the flat ball itself
    provides a fill-in.  mu0_result is the data's solve_mu0 result.  h_hat
    and the data's H may each be axisymmetric or vary in phi; an
    axisymmetric one is spread over phi.

    Raises MarginTooSmallError when the requested margin is below the
    certified relative error of mu0 itself, and ValueError when it is not
    finite and positive.
    """
    geometry.positive_number(margin, "margin")
    h_hat = geometry.node_field(data.surface, h_hat, "h_hat", positive=True)

    mu0 = mu0_result.mu0
    bracket_lo, bracket_hi = mu0_result.bracket
    certified_error = (bracket_hi - bracket_lo) / (2.0 * mu0)
    if margin <= certified_error:
        raise MarginTooSmallError(
            f"requested margin {margin:.3e} is not above the certified relative "
            f"error {certified_error:.3e} of mu0; tighten mu_tol or raise margin"
        )

    # An (n_theta, 1) column broadcasts over phi, so an axisymmetric field
    # pairs with a 2-d one in either order.
    n_theta = data.surface.n_theta
    ratios = h_hat.reshape(n_theta, -1) / data.H.reshape(n_theta, -1)
    ratio_min = float(np.min(ratios))
    ratio_max = float(np.max(ratios))
    margin_measured = ratio_min / bracket_hi - 1.0

    borderline = (
        mu0_result.is_euclidean_case
        and abs(ratio_min / mu0 - 1.0) <= margin
        and abs(ratio_max / mu0 - 1.0) <= margin
    )
    granted = not borderline and margin_measured >= margin
    if borderline:
        reason = (
            "borderline proportional case: data mean curvature is "
            "proportional to the ambient value and h_hat sits at mu0 H, "
            "where the flat ball is a fill-in"
        )
    elif granted:
        reason = f"h_hat >= mu0 H with margin {margin_measured:.3e} >= {margin:.3e}"
    else:
        reason = (
            f"measured margin {margin_measured:.3e} below required {margin:.3e}; "
            "no-fill-in not certified"
        )
    return Certificate(
        granted=granted,
        exceptional_case=borderline,
        margin_required=margin,
        margin_measured=margin_measured,
        ratio_min=ratio_min,
        mu0=mu0,
        mu0_bracket=(bracket_lo, bracket_hi),
        certified_error=certified_error,
        reason=reason,
    )
