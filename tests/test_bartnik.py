"""Prescribed-curvature data sets: analytic bounds, the critical scaling
constant, quasi-local masses, and non-existence certificates.

Calibration identities used throughout: constant H = 2c on the unit
sphere has mu0 = 1/c exactly, and any data proportional to the Euclidean
curvature, H = H0 / k, has mu0 = k with both analytic bounds collapsing
onto it.
"""

import dataclasses
import json

import numpy as np
import pytest
from scipy.integrate import quad

from quasispherical import bartnik, geometry, mass
from quasispherical.bartnik import (
    BartnikData,
    certify_no_fill_in,
    h0_of,
    mu0_bounds,
    proportionality_diagnostic,
    quasilocal_masses,
    solve_mu0,
)
from quasispherical.errors import BracketFailureError, MarginTooSmallError
from quasispherical.evolution import SolverConfig
from quasispherical.geometry import Sphere, Spheroid, SurfaceSpec, build_surface

FAST = SolverConfig(r_max=300.0)


@pytest.fixture(scope="module")
def sphere32m():
    return build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=32))


@pytest.fixture(scope="module")
def spheroid32m():
    return build_surface(
        SurfaceSpec(shape=Spheroid(equatorial_radius=1.0, polar_radius=1.2), n_theta=32)
    )


# ---------------------------------------------------------------------------
# reference curvature and data validation


def test_h0_matches_principal_curvature_sum(sphere64, spheroid64):
    for surf in (sphere64, spheroid64):
        assert np.allclose(h0_of(surf), surf.kappa1 + surf.kappa2, rtol=1e-14)
    assert np.allclose(h0_of(sphere64), 2.0, rtol=1e-14)


def test_data_validation(sphere32m):
    h0 = h0_of(sphere32m)
    with pytest.raises(ValueError):
        BartnikData(surface=sphere32m, H=h0[:-1])
    with pytest.raises(ValueError):
        BartnikData(surface=sphere32m, H=0.0 * h0)
    with pytest.raises(ValueError):
        BartnikData(surface=sphere32m, H=np.where(np.arange(32) == 5, -1.0, 2.0))
    with pytest.raises(ValueError):
        BartnikData(surface=sphere32m, H=np.full(32, np.nan))


# ---------------------------------------------------------------------------
# analytic bounds


def test_bounds_collapse_for_proportional_data(sphere32m, spheroid32m, spheroid64):
    # On spheroid64 the two quadratures round one ulp apart, lower above upper.
    cases = [(sphere32m, 0.5), (sphere32m, 2.0), (spheroid32m, 1.25), (spheroid64, 1.25)]
    for surf, k in cases:
        data = BartnikData(surface=surf, H=h0_of(surf) / k)
        lo, hi = mu0_bounds(data)
        assert lo == pytest.approx(k, rel=1e-12)
        assert hi == pytest.approx(k, rel=1e-12)
        assert lo <= hi


def test_bounds_for_tilted_sphere_data(sphere64):
    # H = 2 (1 + 0.3 cos theta): the mean of H matches H0 so the upper
    # bound is exactly 1, while the lower bound is 1/sqrt(1.03).
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere64.theta))
    lo, hi = mu0_bounds(BartnikData(surface=sphere64, H=H))
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(1.0 / np.sqrt(1.03), abs=1e-4)
    assert lo < hi

    # Independent quadrature of the two bound integrals on the round sphere.
    num, _ = quad(lambda t: 2.0 * np.sin(t), 0.0, np.pi)
    den, _ = quad(lambda t: (2.0 * (1.0 + 0.3 * np.cos(t))) ** 2 / 2.0 * np.sin(t), 0.0, np.pi)
    assert lo**2 == pytest.approx(num / den, abs=2e-4)
    assert num / den == pytest.approx(1.0 / 1.03, abs=1e-12)


def test_bounds_are_ordered_generally(spheroid32m):
    gen = np.random.default_rng(5)
    h0 = h0_of(spheroid32m)
    for _ in range(10):
        H = h0 * np.exp(gen.uniform(-0.5, 0.5, h0.shape))
        lo, hi = mu0_bounds(BartnikData(surface=spheroid32m, H=H))
        assert lo <= hi + 1e-12


def test_proportionality_diagnostic(sphere32m):
    h0 = h0_of(sphere32m)
    flag, k = proportionality_diagnostic(BartnikData(surface=sphere32m, H=0.8 * h0))
    assert flag and k == pytest.approx(1.25, rel=1e-12)
    flag2, k2 = proportionality_diagnostic(
        BartnikData(surface=sphere32m, H=h0 * (1.0 + 0.3 * np.cos(sphere32m.theta)))
    )
    # Mean-preserving tilt: the best-fit constant is 1 but the fit fails.
    assert not flag2 and k2 == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# the critical scaling constant


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_mu0_constant_curvature(sphere32m, c):
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0 * c))
    res = solve_mu0(data, mu_tol=1e-3, mass_tol=1e-6, config=FAST)
    assert res.mu0 == pytest.approx(1.0 / c, abs=2e-5)
    assert res.bracket[0] <= 1.0 / c <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] < 1e-4
    assert res.is_euclidean_case
    assert res.mass_at_lo > 0 > res.mass_at_hi
    assert res.lambda0_upper_bound == res.bracket[1]
    assert res.analytic_lower == pytest.approx(1.0 / c, rel=1e-12)
    assert res.analytic_upper == pytest.approx(1.0 / c, rel=1e-12)


def test_mu0_proportional_spheroid(spheroid32m):
    data = BartnikData(surface=spheroid32m, H=0.8 * h0_of(spheroid32m))
    res = solve_mu0(data, config=FAST)
    assert res.mu0 == pytest.approx(1.25, abs=2e-5)
    assert res.is_euclidean_case


def test_mu0_between_analytic_bounds(sphere32m):
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    data = BartnikData(surface=sphere32m, H=H)
    res = solve_mu0(data, mu_tol=2e-3, config=FAST)
    half = 0.5 * (res.bracket[1] - res.bracket[0])
    assert res.analytic_lower - half <= res.mu0 <= res.analytic_upper + half
    assert res.mu0 < 1.0
    assert not res.is_euclidean_case
    assert res.mass_at_lo > 0 > res.mass_at_hi


def test_mu0_scaling_equivariance(sphere32m):
    # Scaling H by s scales mu0 by 1/s: mu0 is the critical multiplier.
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    r1 = solve_mu0(BartnikData(surface=sphere32m, H=H), mu_tol=1e-3, config=FAST)
    r2 = solve_mu0(BartnikData(surface=sphere32m, H=2.0 * H), mu_tol=1e-3, config=FAST)
    assert r2.mu0 == pytest.approx(0.5 * r1.mu0, rel=2e-3)


def test_mu0_bracket_failure(sphere32m, monkeypatch):
    def always_positive(data, mu, config, mass_tol):
        return mass.MassEstimate(
            value=1.0, bracket_lo=0.9, bracket_hi=1.1, residual=0.0, r_final=300.0
        )

    monkeypatch.setattr(bartnik, "_probe_mass", always_positive)
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    with pytest.raises(BracketFailureError):
        solve_mu0(data, config=FAST)


def test_mu0_result_is_json_serializable(sphere32m):
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    res = solve_mu0(data, config=FAST)
    payload = json.loads(json.dumps(dataclasses.asdict(res), sort_keys=True))
    assert payload["mu0"] == res.mu0


# ---------------------------------------------------------------------------
# quasi-local masses


def test_quasilocal_masses_vanish_in_euclidean_case(sphere32m):
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    m1, m2 = quasilocal_masses(data, solve_mu0(data, config=FAST))
    assert abs(m1) < 1e-12
    assert abs(m2) < 1e-4


def test_quasilocal_masses_ordering_and_formulas(sphere32m):
    # Mean-preserving tilt: m1 = 0 exactly, and mu0 < 1 makes m2 negative.
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    data = BartnikData(surface=sphere32m, H=H)
    res = solve_mu0(data, mu_tol=2e-3, config=FAST)
    m1, m2 = quasilocal_masses(data, mu0=res)
    scale = np.sqrt(data.surface.area / (16.0 * np.pi))
    assert abs(m1) < 1e-10
    assert m2 == pytest.approx(scale * (1.0 - 1.0 / res.mu0**2), rel=1e-12)
    assert m2 < m1


def test_quasilocal_masses_positive_for_weak_curvature(spheroid32m):
    # H below the Euclidean curvature means positive bracketed mass.
    data = BartnikData(surface=spheroid32m, H=0.8 * h0_of(spheroid32m))
    m1, m2 = quasilocal_masses(data, mu0=1.25)
    scale = np.sqrt(data.surface.area / (16.0 * np.pi))
    assert m1 == pytest.approx(scale * (1.0 - 0.8**2), rel=1e-10)
    assert m2 == pytest.approx(scale * (1.0 - 1.0 / 1.25**2), rel=1e-10)
    assert m1 == pytest.approx(m2, rel=1e-9)  # proportional data: bounds coincide


# ---------------------------------------------------------------------------
# certificates


def test_certificate_granted_above_threshold(sphere32m):
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    data = BartnikData(surface=sphere32m, H=H)
    res = solve_mu0(data, mu_tol=1e-3, config=FAST)
    cert = certify_no_fill_in(data, 1.1 * res.mu0 * H, margin=0.05, mu0_result=res)
    assert cert.granted and not cert.exceptional_case
    assert cert.margin_measured == pytest.approx(0.1, abs=5e-3)
    assert cert.ratio_min == pytest.approx(1.1 * res.mu0, rel=1e-12)


def test_certificate_denied_below_threshold(sphere32m):
    H = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    data = BartnikData(surface=sphere32m, H=H)
    res = solve_mu0(data, mu_tol=1e-3, config=FAST)
    cert = certify_no_fill_in(data, 0.9 * res.mu0 * H, margin=0.05, mu0_result=res)
    assert not cert.granted and not cert.exceptional_case
    assert cert.margin_measured < 0


def test_certificate_exceptional_euclidean_case(sphere32m):
    # Exactly Euclidean data with h_hat at the critical multiple: the flat
    # ball itself is a fill-in, so the certificate must be withheld and the
    # borderline flagged.
    data = BartnikData(surface=sphere32m, H=h0_of(sphere32m))
    res = solve_mu0(data, config=FAST)
    cert = certify_no_fill_in(data, res.mu0 * data.H, margin=0.05, mu0_result=res)
    assert not cert.granted
    assert cert.exceptional_case
    assert "fill-in" in cert.reason or "flat" in cert.reason


def test_certificate_margin_too_small(sphere32m):
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    res = solve_mu0(data, config=FAST)
    certified_error = (res.bracket[1] - res.bracket[0]) / (2.0 * res.mu0)
    with pytest.raises(MarginTooSmallError):
        certify_no_fill_in(
            data, 1.5 * data.H, margin=0.5 * certified_error, mu0_result=res
        )


def test_certificate_input_validation(sphere32m):
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    res = solve_mu0(data, config=FAST)
    with pytest.raises(ValueError):
        certify_no_fill_in(data, 1.5 * data.H, margin=0.0, mu0_result=res)
    with pytest.raises(ValueError):
        certify_no_fill_in(data, 1.5 * data.H[:-1], margin=0.05, mu0_result=res)
    with pytest.raises(ValueError):
        certify_no_fill_in(data, -1.5 * data.H, margin=0.05, mu0_result=res)
