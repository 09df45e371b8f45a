"""Self-checks for the discrete operators and the marching solver.

Each check returns a CheckResult with measured numbers in `details`, so a
failing run shows what was violated and by how much.  Checks that probe
discretization error take a tolerance, which run_suite scales by
(64 / n_theta)^2 at resolution n_theta; the reference tolerances are
stated at n_theta = 64.  Roundoff-level invariants (divergence theorem,
operator symmetry, exact fixed point) are never scaled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bartnik, geometry, mass
from .bartnik import BartnikData
from .evolution import SolverConfig, evolve
from .geometry import ConvexSurface, ProfileCurve, Sphere, Spheroid, SurfaceSpec
from .mass import compute_mass_series

logger = logging.getLogger("quasispherical")


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _result(name: str, passed, **details) -> CheckResult:
    clean = {}
    for key, value in details.items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        clean[key] = value
    return CheckResult(name=name, passed=bool(passed), details=clean)


def discretization_scale(n_theta: int) -> float:
    """Relaxation factor for discretization tolerances stated at n = 64."""
    return max(1.0, (64.0 / n_theta) ** 2)


def check_divergence_theorem(surface: ConvexSurface, seed: int = 0) -> CheckResult:
    """Int Lap f = 0 to 1e-10 * max|f| for random fields at several radii."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in (0.0, 0.7, 5.0):
        frame = geometry.frame_at(surface, r)
        for fld in (
            rng.normal(size=surface.n_theta),
            rng.normal(size=(surface.n_theta, surface.n_phi)),
        ):
            total = abs(geometry.integrate(frame, geometry.laplacian(frame, fld)))
            worst = max(worst, total / np.max(np.abs(fld)))
    return _result("divergence_theorem", worst <= 1e-10, worst=worst, tol=1e-10)


def check_laplacian_symmetry(surface: ConvexSurface, seed: int = 1) -> CheckResult:
    """<f, Lap g> = <Lap f, g> to roundoff in the surface inner product."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in (0.0, 2.5):
        frame = geometry.frame_at(surface, r)
        for shape in ((surface.n_theta,), (surface.n_theta, surface.n_phi)):
            f = rng.normal(size=shape)
            g = rng.normal(size=shape)
            a = geometry.integrate(frame, f * geometry.laplacian(frame, g))
            b = geometry.integrate(frame, g * geometry.laplacian(frame, f))
            scale = max(abs(a), abs(b), 1.0)
            worst = max(worst, abs(a - b) / scale)
    return _result("laplacian_symmetry", worst <= 1e-10, worst=worst, tol=1e-10)


def check_eigenfunction_axisym(n_theta: int = 64) -> CheckResult:
    """cos(theta) on the unit sphere: Lap f = -2 f, full-grid max-norm
    second order (tolerance 1.0 * h^2 at the given resolution)."""
    surface = geometry.build_surface(SurfaceSpec(Sphere(1.0), n_theta=n_theta))
    frame = geometry.frame_at(surface, 0.0)
    f = np.cos(surface.theta)
    err = float(np.max(np.abs(geometry.laplacian(frame, f) + 2.0 * f)))
    tol = 1.0 * (np.pi / n_theta) ** 2
    return _result("eigenfunction_axisym", err <= tol, error=err, tol=tol)


def check_eigenfunction_azimuthal(n_theta: int = 64, n_phi: int = 64) -> CheckResult:
    """sin(theta) cos(phi) on the unit sphere: Lap f = -2 f.

    Away from the poles the error is second order; the polar cells carry a
    first-order closure error for this odd-parity mode (inherent to
    latitude-longitude stencils), so the full-grid max-norm is checked at
    first order and the interior at second order.
    """
    surface = geometry.build_surface(
        SurfaceSpec(Sphere(1.0), n_theta=n_theta, n_phi=n_phi)
    )
    frame = geometry.frame_at(surface, 0.0)
    phi = np.arange(n_phi) * surface.d_phi
    f = np.sin(surface.theta)[:, None] * np.cos(phi)[None, :]
    err = np.abs(geometry.laplacian(frame, f) + 2.0 * f)
    h = np.pi / n_theta
    interior = slice(max(1, n_theta // 8), n_theta - max(1, n_theta // 8))
    err_interior = float(np.max(err[interior]))
    err_full = float(np.max(err))
    tol_interior = 1.0 * h * h + 0.35 * surface.d_phi**2
    tol_full = 3.0 * (surface.d_phi**2 / h + h)
    passed = err_interior <= tol_interior and err_full <= tol_full
    return _result(
        "eigenfunction_azimuthal",
        passed,
        error_interior=err_interior,
        tol_interior=tol_interior,
        error_full=err_full,
        tol_full=tol_full,
    )


def check_offset_consistency(n_theta: int = 64) -> CheckResult:
    """Closed-form leaf geometry against an independent rebuild.

    The leaf Sigma_r at r = 0.7 of a spheroid is embedded explicitly (base
    point plus r times the unit normal), resampled as a raw profile curve,
    and pushed through the finite-difference profile pipeline; its
    curvatures must match the offset formulas used by frame_at.
    """
    a, c, r = 1.0, 1.2, 0.7
    dense = 16384
    t = np.linspace(0.0, np.pi, dense + 1)
    x = a * np.sin(t)
    z = c * np.cos(t)
    E = a * a * np.cos(t) ** 2 + c * c * np.sin(t) ** 2
    sqrtE = np.sqrt(E)
    # Outward unit normal of the base profile (x', z') is (-z', x')/|.|.
    nx = c * np.sin(t) / sqrtE
    nz = a * np.cos(t) / sqrtE
    curve = ProfileCurve.from_arrays(t, x + r * nx, z + r * nz)

    spec = SurfaceSpec(curve, n_theta=n_theta)
    rebuilt = geometry.build_surface(spec)
    frame_rebuilt = geometry.frame_at(rebuilt, 0.0)

    base = geometry.build_surface(SurfaceSpec(Spheroid(a, c), n_theta=n_theta))
    frame_direct = geometry.frame_at(base, r)

    err_h0 = float(
        np.max(np.abs(frame_rebuilt.H0 - frame_direct.H0))
        / np.max(np.abs(frame_direct.H0))
    )
    err_r = float(
        np.max(np.abs(frame_rebuilt.R - frame_direct.R)) / np.max(np.abs(frame_direct.R))
    )
    tol = 1e-5
    return _result(
        "offset_consistency",
        err_h0 <= tol and err_r <= tol,
        err_h0=err_h0,
        err_r=err_r,
        tol=tol,
    )


def check_asymptotic_flatness(surface: ConvexSurface) -> CheckResult:
    """r H0 -> 2 and r^2 R -> 2 with first-order decay of the residuals."""
    radii = (1e2, 1e3, 1e4)
    errs_h = []
    errs_r = []
    for r in radii:
        frame = geometry.frame_at(surface, r)
        errs_h.append(float(np.max(np.abs(r * frame.H0 - 2.0))))
        errs_r.append(float(np.max(np.abs(r * r * frame.R - 2.0))))
    ok = True
    for errs in (errs_h, errs_r):
        for a, b in zip(errs, errs[1:]):
            ratio = a / b if b > 0 else np.inf
            # Decade steps: residual should drop by about 10x.
            ok = ok and (3.0 <= ratio <= 30.0)
    return _result(
        "asymptotic_flatness", ok, errors_h=errs_h, errors_r=errs_r, radii=list(radii)
    )


def check_round_sphere_exactness(n_theta: int = 64) -> CheckResult:
    """On round spheres the grid functionals are exact to roundoff."""
    rho = 1.7
    surface = geometry.build_surface(SurfaceSpec(Sphere(rho), n_theta=n_theta))
    area_err = abs(surface.area - 4.0 * np.pi * rho * rho) / (4.0 * np.pi * rho * rho)
    frame = geometry.frame_at(surface, 2.3)
    rr = rho + 2.3
    area_r_err = abs(frame.area - 4.0 * np.pi * rr * rr) / (4.0 * np.pi * rr * rr)
    h0_err = float(np.max(np.abs(frame.H0 - 2.0 / rr)))
    passed = area_err <= 1e-12 and area_r_err <= 1e-12 and h0_err <= 1e-12
    return _result(
        "round_sphere_exactness",
        passed,
        area_err=float(area_err),
        area_r_err=float(area_r_err),
        h0_err=h0_err,
    )


def check_fixed_point(surface: ConvexSurface) -> CheckResult:
    """u = 1 is preserved exactly to r = 20 and carries zero mass."""
    config = SolverConfig(r_max=20.0)
    final = evolve(surface, 1.0, config)
    dev = float(np.max(np.abs(final.u - 1.0)))
    frame = geometry.frame_at(surface, final.r)
    m_up = abs(mass.mass_at(frame, final.u))
    m_lo = abs(mass.mass_lower_at(frame, final.u))
    passed = dev <= 1e-12 and m_up <= 1e-10 and m_lo <= 1e-10
    return _result("fixed_point", passed, deviation=dev, mass_upper=m_up, mass_lower=m_lo)


def check_mass_monotonicity(
    series: mass.MassSeries, per_step_tol: float = 1e-8
) -> CheckResult:
    """m_upper non-increasing and m_lower non-decreasing along the series,
    with violations at most per_step_tol per accepted step, and
    m_lower <= m_upper throughout."""
    up = series.upper
    lo = series.lower
    steps = np.maximum(1, np.diff(series.step_index))
    up_viol = float(np.max(np.diff(up) / steps, initial=0.0))
    lo_viol = float(np.max(-np.diff(lo) / steps, initial=0.0))
    order_viol = float(np.max(lo - up, initial=0.0))
    passed = (
        up_viol <= per_step_tol and lo_viol <= per_step_tol and order_viol <= 1e-10
    )
    return _result(
        "mass_monotonicity",
        passed,
        upper_increase_per_step=up_viol,
        lower_decrease_per_step=lo_viol,
        order_violation=order_viol,
        per_step_tol=per_step_tol,
    )


def check_mass_decrement_match(surface: ConvexSurface, u0, tol: float = 0.05) -> CheckResult:
    """Measured decrease of m_upper between emissions matches the exact
    decrement rate integral to the given relative tolerance (trapezoid in
    r over the emission ladder to r = 20, compared on the radii in
    [0.5, 10])."""
    config = SolverConfig(r_max=20.0)
    rates = []

    def observe(state):
        frame = geometry.frame_at(surface, state.r)
        rates.append(mass.decrement_rate(frame, state.u))

    series, _ = compute_mass_series(surface, u0, config, observer=observe)
    r = series.r
    worst = 0.0
    for i in range(len(r) - 1):
        if not (0.5 <= r[i] and r[i + 1] <= 10.0):
            continue
        measured = series.upper[i + 1] - series.upper[i]
        predicted = 0.5 * (rates[i] + rates[i + 1]) * (r[i + 1] - r[i])
        denom = max(abs(predicted), 1e-30)
        worst = max(worst, abs(measured - predicted) / denom)
    return _result("mass_decrement_match", worst <= tol, worst_rel=worst, tol=tol)


def check_comparison_principle(surface: ConvexSurface) -> CheckResult:
    """Ordered data stays ordered: u0 >= v0 implies u >= v - 1e-8 at every
    emission to r = 10 (v here is the constant equal to min u0)."""
    tol = 1e-8
    u0 = 1.0 + 0.1 * np.cos(surface.theta)
    v0 = float(np.min(u0))
    config = SolverConfig(r_max=10.0)
    emitted_u = []
    emitted_v = []
    evolve(surface, u0, config, observer=lambda s: emitted_u.append(s.u.copy()))
    evolve(surface, v0, config, observer=lambda s: emitted_v.append(s.u.copy()))
    worst = max(
        float(np.max(v - u)) for u, v in zip(emitted_u, emitted_v)
    )
    return _result("comparison_principle", worst <= tol, worst=worst, tol=tol)


def check_scale_monotonicity(surface: ConvexSurface) -> CheckResult:
    """Total mass, bracketed by the rails at r = 200, is strictly increasing
    in t for data t * u0."""
    u0 = 1.0 + 0.3 * np.cos(surface.theta) ** 2
    config = SolverConfig(r_max=200.0)
    masses = []
    for t in (0.5, 0.75, 1.0, 1.5, 2.0):
        series, _ = compute_mass_series(surface, t * u0, config)
        est_lo = series.lower[-1] / mass.ADM_NORMALIZATION
        est_hi = series.upper[-1] / mass.ADM_NORMALIZATION
        masses.append((est_lo, est_hi))
    # Strict increase beyond the bracket widths.
    ok = all(b_lo > a_hi for (a_lo, a_hi), (b_lo, b_hi) in zip(masses, masses[1:]))
    return _result("scale_monotonicity", ok, brackets=[list(m) for m in masses])


def check_expansion_slope(surface: ConvexSurface, tol: float = 0.05) -> CheckResult:
    """Decay calibration: (u - 1) * r at the final leaf, r = 500, equals the
    ADM mass (area average, one constant across different data sets)."""
    config = SolverConfig(r_max=500.0)
    ratios = []
    for c in (0.8, 1.3, 2.0):
        series, final = compute_mass_series(surface, c, config)
        est = series.upper[-1] / mass.ADM_NORMALIZATION
        frame = geometry.frame_at(surface, final.r)
        slope = geometry.integrate(frame, (final.u - 1.0) * final.r) / frame.area
        if abs(est) > 1e-12:
            ratios.append(float(slope / est))
    worst = max(abs(r - 1.0) for r in ratios)
    return _result("expansion_slope", worst <= tol, ratios=ratios, tol=tol)


def check_critical_scaling(n_theta: int = 48) -> CheckResult:
    """One full critical-constant solve (r_max = 300, mu_tol = 2e-3): zero
    crossing, analytic bounds chain, and the strict gap to the upper bound
    for non-proportional data."""
    mu_tol = 2e-3
    surface = geometry.build_surface(SurfaceSpec(Sphere(1.0), n_theta=n_theta))
    h0 = bartnik.h0_of(surface)
    # The tilt amplitude sets the distance between mu0 and the upper bound;
    # 0.6 keeps that gap several bisection tolerances wide so the strict
    # inequality is measurable, not marginal.
    H = h0 * (1.0 + 0.6 * np.cos(surface.theta))
    data = BartnikData(surface=surface, H=H)
    config = SolverConfig(r_max=300.0)
    result = bartnik.solve_mu0(data, mu_tol=mu_tol, mass_tol=1e-5, config=config)
    crossing = result.mass_at_lo > 0.0 > result.mass_at_hi
    chain = (
        result.analytic_lower - mu_tol
        <= result.mu0
        <= result.analytic_upper + mu_tol
    )
    strict_gap = result.bracket[1] < result.analytic_upper - 5.0 * mu_tol
    passed = crossing and chain and strict_gap
    return _result(
        "critical_scaling",
        passed,
        mu0=result.mu0,
        bracket=list(result.bracket),
        analytic_lower=result.analytic_lower,
        analytic_upper=result.analytic_upper,
        mass_at_lo=result.mass_at_lo,
        mass_at_hi=result.mass_at_hi,
        zero_crossing=crossing,
        bounds_chain=chain,
        strict_gap=strict_gap,
    )


def run_suite(
    n_theta: int = 64,
    n_phi: int = 16,
    seed: int = 0,
    checks: Optional[list[str]] = None,
) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results.

    Discretization tolerances are relaxed by discretization_scale(n_theta),
    (64 / n_theta)^2 when running coarser than the reference resolution.
    Roundoff invariants are unaffected by the scale.
    """
    scale = discretization_scale(n_theta)
    sphere = geometry.build_surface(SurfaceSpec(Sphere(1.0), n_theta=n_theta, n_phi=n_phi))
    spheroid = geometry.build_surface(
        SurfaceSpec(Spheroid(1.0, 1.2), n_theta=n_theta, n_phi=n_phi)
    )

    def perturbed_series() -> mass.MassSeries:
        u0 = 1.0 + 0.3 * np.cos(sphere.theta) ** 2
        series, _ = compute_mass_series(sphere, u0, SolverConfig(r_max=50.0))
        return series

    registry: dict[str, Callable[[], CheckResult]] = {
        "divergence_theorem": lambda: check_divergence_theorem(spheroid, seed=seed),
        "laplacian_symmetry": lambda: check_laplacian_symmetry(spheroid, seed=seed + 1),
        "eigenfunction_axisym": lambda: check_eigenfunction_axisym(n_theta=n_theta),
        "eigenfunction_azimuthal": lambda: check_eigenfunction_azimuthal(
            n_theta=n_theta, n_phi=max(n_phi, 32)
        ),
        "offset_consistency": lambda: check_offset_consistency(n_theta=n_theta),
        "asymptotic_flatness": lambda: check_asymptotic_flatness(spheroid),
        "round_sphere_exactness": lambda: check_round_sphere_exactness(n_theta=n_theta),
        "fixed_point": lambda: check_fixed_point(spheroid),
        "mass_monotonicity": lambda: check_mass_monotonicity(
            perturbed_series(), per_step_tol=1e-8 * scale
        ),
        "mass_decrement_match": lambda: check_mass_decrement_match(
            sphere,
            1.0 + 0.3 * np.cos(sphere.theta) ** 2,
            tol=0.05 * scale,
        ),
        "comparison_principle": lambda: check_comparison_principle(sphere),
        "scale_monotonicity": lambda: check_scale_monotonicity(sphere),
        "expansion_slope": lambda: check_expansion_slope(sphere, tol=0.05 * scale),
        "critical_scaling": lambda: check_critical_scaling(
            n_theta=max(32, n_theta // 2)
        ),
    }
    names = list(registry) if checks is None else list(checks)
    results = []
    for name in names:
        if name not in registry:
            raise ValueError(f"unknown check '{name}'; known: {sorted(registry)}")
        logger.info("running check %s", name)
        results.append(registry[name]())
    return results
