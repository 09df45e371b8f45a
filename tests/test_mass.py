"""Mass functionals, monotone bracketing, and the asymptotic estimate.

Frozen anchors come from the closed-form radial family: a round data set
(rho0, c) has total mass (rho0 / 2)(1 - c^-2), and on that family the
lower functional is exactly conserved while the upper one decays to the
same limit from above.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasispherical import geometry, mass, oracle
from quasispherical.errors import NotConvergedError
from quasispherical.evolution import SolverConfig
from quasispherical.geometry import Sphere, SurfaceSpec, build_surface, frame_at
from quasispherical.mass import (
    ADM_NORMALIZATION,
    MassSeries,
    compute_mass_series,
    decrement_rate,
    estimate_mass,
    mass_at,
    mass_lower_at,
)


# ---------------------------------------------------------------------------
# pointwise functionals


def test_round_sphere_functional_values(sphere2_64):
    # Radius-2 sphere wearing the radial solution of mass 3/8:
    # u = (1 - 2 m / rho)^(-1/2) = (5/8)^(-1/2) at rho = 2.
    u = float(1.0 / np.sqrt(5.0 / 8.0))
    f0 = frame_at(sphere2_64, 0.0)
    upper = mass_at(f0, np.full(64, u))
    lower = mass_lower_at(f0, np.full(64, u))
    assert upper == pytest.approx(16.0 * np.pi * (1.0 - np.sqrt(5.0 / 8.0)), rel=1e-12)
    assert lower == pytest.approx(3.0 * np.pi, rel=1e-12)
    # The lower functional equals 8 pi m exactly on this family.
    assert lower / ADM_NORMALIZATION == pytest.approx(0.375, rel=1e-12)


def test_flat_data_has_zero_mass(sphere64, spheroid64):
    for surf in (sphere64, spheroid64):
        f0 = frame_at(surf, 0.0)
        ones = np.ones(surf.theta.size)
        assert mass_at(f0, ones) == 0.0
        assert mass_lower_at(f0, ones) == 0.0
        assert decrement_rate(f0, ones) == 0.0


def test_functional_signs_follow_initial_excess(sphere64):
    f0 = frame_at(sphere64, 0.0)
    above = 1.5 * np.ones(64)
    below = 0.7 * np.ones(64)
    assert mass_at(f0, above) > 0 and mass_lower_at(f0, above) > 0
    assert mass_at(f0, below) < 0 and mass_lower_at(f0, below) < 0
    # The upper functional can only decrease, whichever side of 1 u sits on.
    assert decrement_rate(f0, above) < 0 and decrement_rate(f0, below) < 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_upper_dominates_lower_for_any_field(seed):
    # m_upper - m_lower = (1/2) int H0 (1 - 1/u)^2 >= 0 pointwise, for any
    # positive u whatsoever.
    surf = build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=24))
    gen = np.random.default_rng(seed)
    u = np.exp(gen.uniform(-1.0, 1.0, 24))
    f0 = frame_at(surf, 0.0)
    assert mass_at(f0, u) >= mass_lower_at(f0, u) - 1e-12


def test_two_dimensional_fields_supported(sphere64):
    f0 = frame_at(sphere64, 0.0)
    phi = 2.0 * np.pi * np.arange(sphere64.n_phi) / sphere64.n_phi
    u = 1.1 + 0.05 * np.sin(sphere64.theta)[:, None] * np.cos(phi)[None, :]
    assert mass_at(f0, u) > mass_lower_at(f0, u) > 0.0


# ---------------------------------------------------------------------------
# series along an evolution


def test_series_brackets_and_converges_to_oracle(sphere64):
    cfg = SolverConfig(r_max=1000.0)
    series, _ = compute_mass_series(sphere64, 2.0, cfg)
    upper = series.upper / ADM_NORMALIZATION
    lower = series.lower / ADM_NORMALIZATION
    assert np.all(np.diff(upper) <= 1e-12)
    assert np.all(np.diff(lower) >= -1e-12)
    assert np.all(lower <= upper + 1e-12)
    # Both rails close on the radial-family mass.
    assert upper[-1] == pytest.approx(0.375, abs=1e-3)
    assert lower[-1] == pytest.approx(0.375, abs=1e-3)
    assert series.r[0] == 0.0 and series.r[-1] == 1000.0


def test_lower_rail_is_conserved_on_radial_family(sphere64):
    # Exact radial data: the lower functional is a constant of the motion,
    # so it identifies the mass from r = 0 with no marching error budget.
    series, _ = compute_mass_series(sphere64, 2.0, SolverConfig(r_max=50.0))
    lower = series.lower / ADM_NORMALIZATION
    assert np.max(np.abs(lower - 0.375)) < 1e-6


def test_estimate_mass_schwarzschild(sphere64):
    series, _ = compute_mass_series(sphere64, 2.0, SolverConfig(r_max=1000.0))
    est = estimate_mass(series, tol=1e-3)
    assert est.value == pytest.approx(0.375, abs=1e-5)
    # The lower rail rides the marching scheme's O(dr^2) bias, measured at
    # +1.2e-7 for this resolution, so containment is asserted with slack.
    assert est.bracket_lo <= 0.375 + 2e-7
    assert est.bracket_hi >= 0.375
    assert est.r_final == 1000.0


def test_estimate_mass_negative_branch():
    # u0 = 0.5 on the unit sphere is the radial solution of mass -3/2.
    surf = build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=48))
    series, _ = compute_mass_series(surf, 0.5, SolverConfig(r_max=2000.0))
    est = estimate_mass(series, tol=1e-3)
    assert est.value == pytest.approx(-1.5, abs=1e-3)
    assert est.bracket_lo - 1e-6 <= -1.5 <= est.bracket_hi + 1e-6


def test_estimate_mass_requires_converged_bracket(sphere64):
    series, _ = compute_mass_series(sphere64, 2.0, SolverConfig(r_max=5.0))
    with pytest.raises(NotConvergedError) as exc:
        estimate_mass(series, tol=1e-9)
    # The failure still carries the best available estimate.
    assert exc.value.estimate is not None
    assert exc.value.estimate.value == pytest.approx(0.375, abs=0.05)


def test_estimate_mass_needs_enough_samples():
    series = MassSeries(
        r=np.array([0.0, 1.0, 1.05]),
        upper=np.array([1.0, 0.9, 0.89]),
        lower=np.array([0.5, 0.6, 0.61]),
        step_index=np.array([0, 10, 11]),
    )
    with pytest.raises(ValueError):
        estimate_mass(series, tol=10.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_estimate_mass_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # A NaN tolerance would switch off the NotConvergedError check.
    r = np.array([0.0, 100.0, 200.0, 500.0, 1000.0])
    series = MassSeries(
        r=r, upper=1.0 + 1.0 / (1.0 + r), lower=0.5 - 1.0 / (1.0 + r),
        step_index=np.arange(5),
    )
    with pytest.raises(ValueError, match="tol"):
        estimate_mass(series, tol=tol)


# ---------------------------------------------------------------------------
# serialization


def test_estimate_is_json_serializable(sphere32):
    series, _ = compute_mass_series(sphere32, 1.4, SolverConfig(r_max=200.0))
    est = estimate_mass(series, tol=1e-2)
    payload = json.dumps(dataclasses.asdict(est), sort_keys=True)
    assert json.loads(payload)["value"] == est.value
