"""Built-in verification suite: the checks pass on a healthy install,
fail when the operators are broken, and reject unknown names."""

import numpy as np
import pytest

from quasispherical import geometry, verification
from quasispherical.verification import run_suite

FAST_CHECKS = [
    "divergence_theorem",
    "laplacian_symmetry",
    "eigenfunction_axisym",
    "eigenfunction_azimuthal",
    "offset_consistency",
    "asymptotic_flatness",
    "round_sphere_exactness",
    "fixed_point",
]

ALL_CHECKS = FAST_CHECKS + [
    "mass_monotonicity",
    "mass_decrement_match",
    "comparison_principle",
    "scale_monotonicity",
    "expansion_slope",
    "critical_scaling",
]


def test_fast_checks_pass_at_reference_resolution():
    results = run_suite(n_theta=64, checks=FAST_CHECKS)
    assert [r.name for r in results] == FAST_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: {r.details}"


def test_full_suite_passes_coarse_with_scaled_tolerances():
    # Half the reference resolution with the quadratic tolerance relaxation.
    results = run_suite(n_theta=32)
    assert [r.name for r in results] == ALL_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: {r.details}"


def test_default_tolerance_scale_matches_resolution_ratio():
    assert verification.discretization_scale(64) == 1.0
    assert verification.discretization_scale(32) == 4.0
    assert verification.discretization_scale(128) == 1.0  # never tightened


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_suite(checks=["divergence_theorem", "not_a_check"])


def test_results_carry_measured_details():
    (res,) = run_suite(n_theta=32, checks=["divergence_theorem"])
    assert res.name == "divergence_theorem"
    assert "worst" in res.details and "tol" in res.details
    assert res.details["worst"] < res.details["tol"]


def test_checks_fail_when_the_operator_is_broken(monkeypatch):
    # Sanity of the harness itself: a flux-nonconservative "Laplacian"
    # must be caught by the divergence-theorem check.
    real = geometry.laplacian

    def broken(frame, fld):
        out = real(frame, fld)
        return out + 1e-3

    monkeypatch.setattr(verification.geometry, "laplacian", broken)
    (res,) = run_suite(n_theta=32, checks=["divergence_theorem"])
    assert not res.passed


def test_seed_changes_probe_fields_not_outcomes():
    a = run_suite(n_theta=32, checks=["divergence_theorem"], seed=1)[0]
    b = run_suite(n_theta=32, checks=["divergence_theorem"], seed=2)[0]
    assert a.passed and b.passed
    assert a.details != b.details
