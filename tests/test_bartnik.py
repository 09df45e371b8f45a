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
from hypothesis import given, settings
from hypothesis import strategies as st
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
from quasispherical.errors import (
    BracketFailureError,
    MarginTooSmallError,
    NotConvergedError,
)
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


@pytest.mark.parametrize(
    "tolerances",
    [{"mu_tol": np.nan}, {"mu_tol": np.inf}, {"mass_tol": np.nan}, {"mass_tol": 0.0}],
)
def test_mu0_rejects_tolerances_that_are_not_finite_and_positive(
    sphere32m, monkeypatch, tolerances
):
    marched = _counting_marches(monkeypatch)
    with pytest.raises(ValueError, match=next(iter(tolerances))):
        solve_mu0(_tilted(sphere32m), config=FAST, **tolerances)
    assert marched == []


def test_mu0_bracket_failure(sphere32m, monkeypatch):
    def always_positive(data, mu, config, mass_tol):
        return mass.MassEstimate(
            value=1.0, bracket_lo=0.9, bracket_hi=1.1, residual=0.0, r_final=300.0
        )

    monkeypatch.setattr(bartnik, "_probe_mass", always_positive)
    data = BartnikData(surface=sphere32m, H=np.full(32, 2.0))
    # At the default mass_tol the rails at r = 0 settle both ends of the
    # starting bracket (their masses are about +-0.05), so no end would reach
    # the patched march; a mass_tol of 0.1 leaves both ends to it.
    with pytest.raises(BracketFailureError):
        solve_mu0(data, mass_tol=0.1, config=FAST)


@settings(max_examples=300, deadline=None)
@given(
    mass_tol=st.floats(min_value=1e-9, max_value=1e-1),
    units=st.lists(
        st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=3
    ),
)
def test_certified_sign_takes_only_certified_signs(mass_tol, units):
    lo, value, hi = sorted(mass_tol * x for x in units)
    est = mass.MassEstimate(
        value=value, bracket_lo=lo, bracket_hi=hi, residual=0.0, r_final=300.0
    )
    zero_rule = abs(value) <= mass_tol and hi - lo <= 50.0 * mass_tol
    try:
        sign = bartnik._certified_sign(est, mass_tol)
    except NotConvergedError as err:
        assert err.estimate is est
        assert "increase r_max" in str(err)
        assert not zero_rule and lo <= 0.0 <= hi
        return
    if sign == 1:
        assert lo > 0.0
    elif sign == -1:
        assert hi < 0.0
    else:
        assert sign == 0 and zero_rule


def test_mu0_raises_on_a_probe_whose_rails_straddle_zero(sphere32m, monkeypatch):
    # The ends are settled by the rails at r = 0; the first marched
    # midpoint straddles zero, and no sign is taken from its value.
    marched = _counting_marches(monkeypatch)
    probes = []
    # Far outside the sign-0 rule at the default mass_tol of 1e-6.
    est = mass.MassEstimate(
        value=1e-3, bracket_lo=-1e-2, bracket_hi=1e-2, residual=0.0, r_final=300.0
    )

    def straddling(data, mu, config, mass_tol):
        probes.append(mu)
        return est

    monkeypatch.setattr(bartnik, "_probe_mass", straddling)
    with pytest.raises(NotConvergedError, match="increase r_max") as exc:
        solve_mu0(_tilted(sphere32m), config=FAST)
    assert exc.value.estimate is est
    assert len(probes) == 1
    assert marched == []


def _tilted(surface):
    return BartnikData(surface=surface, H=2.0 * (1.0 + 0.3 * np.cos(surface.theta)))


def _tilted_or_proportional(which, sphere, spheroid):
    if which == "tilted":
        return _tilted(sphere)
    return BartnikData(surface=spheroid, H=0.8 * h0_of(spheroid))


def _counting_marches(monkeypatch):
    """Wrap mass.compute_mass_series; returns the list of the u0 it marches."""
    marched = []
    original = mass.compute_mass_series

    def counting(surface, u0, config):
        marched.append(u0)
        return original(surface, u0, config)

    monkeypatch.setattr(mass, "compute_mass_series", counting)
    return marched


def test_mu0_settling_at_r0_changes_only_the_march_count(sphere32m, monkeypatch):
    data = _tilted(sphere32m)
    marched = _counting_marches(monkeypatch)
    settled = solve_mu0(data, config=FAST)
    settled_marches = len(marched)
    monkeypatch.setattr(bartnik, "_rails_at_base", lambda data, mu, mass_tol: None)
    all_marched = solve_mu0(data, config=FAST)
    assert settled.bracket == all_marched.bracket
    assert settled.mu0 == all_marched.mu0
    assert settled.lambda0_upper_bound == all_marched.lambda0_upper_bound
    assert settled.iterations == settled_marches < all_marched.iterations
    assert all_marched.iterations == len(marched) - settled_marches


@pytest.mark.parametrize("which", ["tilted", "proportional"])
def test_mu0_marches_only_what_the_rails_leave_open(sphere32m, spheroid32m, which, monkeypatch):
    data = _tilted_or_proportional(which, sphere32m, spheroid32m)
    mass_tol = 1e-6
    marched = _counting_marches(monkeypatch)
    res = solve_mu0(data, mass_tol=mass_tol, config=FAST)
    assert res.iterations == len(marched) > 0
    frame0 = geometry.frame_at(data.surface, 0.0)
    for u0 in marched:
        assert mass.mass_lower_at(frame0, u0) / mass.ADM_NORMALIZATION <= mass_tol
        assert mass.mass_at(frame0, u0) / mass.ADM_NORMALIZATION >= -mass_tol


def _settled_band_edge(data, settled_mu, open_mu, mass_tol):
    """The mu nearest open_mu whose sign the rails at r = 0 still settle."""
    for _ in range(60):
        mid = 0.5 * (settled_mu + open_mu)
        if bartnik._rails_at_base(data, mid, mass_tol) is None:
            open_mu = mid
        else:
            settled_mu = mid
    return settled_mu


@pytest.mark.parametrize("which", ["tilted", "proportional"])
def test_marched_sign_agrees_with_the_rails_at_base(sphere32m, spheroid32m, which):
    # Where the rails at r = 0 settle a sign by a margin of mass_tol, a march
    # certifies the same sign.  At the very edge of the settled band the
    # march may find the mass zero within mass_tol (on the spheroid it ends
    # 2e-10 below the r = 0 rail), but never of the other sign.
    data = _tilted_or_proportional(which, sphere32m, spheroid32m)
    mass_tol = 1e-6
    lower, upper = mu0_bounds(data)
    for band, strict in ((2.0 * mass_tol, True), (mass_tol, False)):
        edges = (
            _settled_band_edge(data, 0.95 * lower, lower, band),
            _settled_band_edge(data, 1.05 * upper, upper, band),
        )
        for mu, sign in zip(edges, (1, -1)):
            settled = bartnik._rails_at_base(data, mu, mass_tol)
            assert bartnik._certified_sign(settled, mass_tol) == sign
            marched = bartnik._probe_mass(data, mu, FAST, mass_tol)
            if strict:
                assert bartnik._certified_sign(marched, mass_tol) == sign
            assert sign * marched.bracket_lo > 0 and sign * marched.bracket_hi > 0


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
    for margin in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            certify_no_fill_in(data, 1.5 * data.H, margin=margin, mu0_result=res)
    with pytest.raises(ValueError):
        certify_no_fill_in(data, 1.5 * data.H[:-1], margin=0.05, mu0_result=res)
    with pytest.raises(ValueError):
        certify_no_fill_in(data, -1.5 * data.H, margin=0.05, mu0_result=res)


def test_certificate_pairs_axisymmetric_and_azimuthal_fields(sphere32m):
    # A hand-made mu0 result: nothing is marched.
    res = bartnik.Mu0Result(
        mu0=0.8,
        bracket=(0.7995, 0.8005),
        mass_at_lo=1e-3,
        mass_at_hi=-1e-3,
        analytic_lower=0.75,
        analytic_upper=0.85,
        iterations=0,
        lambda0_upper_bound=0.8005,
        is_euclidean_case=False,
    )
    phi = np.arange(sphere32m.n_phi) * sphere32m.d_phi
    axisym = 2.0 * (1.0 + 0.3 * np.cos(sphere32m.theta))
    full = axisym[:, None] * (1.0 + 0.01 * np.cos(phi))[None, :]

    def spread(field):
        return np.broadcast_to(field.reshape(sphere32m.n_theta, -1), full.shape)

    for H, h_hat, ratio_min in (
        (axisym, 1.5 * full, 1.5 * 0.99),
        (full, 1.5 * axisym, 1.5 / 1.01),
    ):
        data = BartnikData(surface=sphere32m, H=H)
        cert = certify_no_fill_in(data, h_hat, margin=0.05, mu0_result=res)
        # The same pair with the axisymmetric field spread over phi.
        both = BartnikData(surface=sphere32m, H=spread(H))
        assert cert == certify_no_fill_in(both, spread(h_hat), margin=0.05, mu0_result=res)
        assert cert.granted
        assert cert.ratio_min == pytest.approx(ratio_min, rel=1e-12)


@pytest.fixture(scope="module")
def tilted32m(sphere32m):
    return _tilted(sphere32m)


@settings(max_examples=200, deadline=None)
@given(
    mu0=st.floats(min_value=0.5, max_value=2.0),
    half_width=st.floats(min_value=1e-6, max_value=1e-2),
    margin=st.floats(min_value=1e-5, max_value=0.2),
    scale=st.floats(min_value=0.8, max_value=1.3),
    tilt=st.floats(min_value=0.0, max_value=0.05),
    euclidean=st.booleans(),
)
def test_certificate_is_never_granted_below_mu0(
    tilted32m, mu0, half_width, margin, scale, tilt, euclidean
):
    # A hand-made mu0 result: nothing is marched.
    lo, hi = mu0 * (1.0 - half_width), mu0 * (1.0 + half_width)
    res = bartnik.Mu0Result(
        mu0=mu0,
        bracket=(lo, hi),
        mass_at_lo=1e-3,
        mass_at_hi=-1e-3,
        analytic_lower=lo,
        analytic_upper=hi,
        iterations=0,
        lambda0_upper_bound=hi,
        is_euclidean_case=euclidean,
    )
    H = tilted32m.H
    h_hat = scale * mu0 * H * (1.0 + tilt * np.cos(tilted32m.surface.theta))
    if margin <= (hi - lo) / (2.0 * mu0):
        with pytest.raises(MarginTooSmallError):
            certify_no_fill_in(tilted32m, h_hat, margin=margin, mu0_result=res)
        return
    cert = certify_no_fill_in(tilted32m, h_hat, margin=margin, mu0_result=res)
    ratios = h_hat / H
    borderline = (
        euclidean
        and abs(ratios.min() / mu0 - 1.0) <= margin
        and abs(ratios.max() / mu0 - 1.0) <= margin
    )
    assert cert.exceptional_case == borderline
    if borderline:
        assert not cert.granted
    if cert.granted:
        # Up to the rounding of the measured margin's division.
        assert ratios.min() >= hi * (1.0 + margin) * (1.0 - 1e-14)
        assert ratios.min() > hi >= mu0
