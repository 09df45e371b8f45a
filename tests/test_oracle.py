"""Closed-form radial solution and refinement-order estimation.

The radial family is the package's independent calibration target: every
frozen mass value used elsewhere in the suite traces back to the closed
form m = (rho0 / 2)(1 - c^-2) checked here against an ODE integration.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quasispherical import oracle
from quasispherical.errors import NonMonotoneErrorsError


MASS_CASES = [
    # (rho0, c, m): m = (rho0 / 2) * (1 - 1 / c^2)
    (1.0, 1.0, 0.0),
    (1.0, 2.0, 0.375),
    (2.0, 2.0, 0.75),
    (1.0, 0.5, -1.5),
    (3.0, 2.0, 1.125),
]


@pytest.mark.parametrize("rho0,c,m", MASS_CASES)
def test_mass_closed_form(rho0, c, m):
    sol = oracle.radial_solve(rho0, c)
    assert sol.m == pytest.approx(m, abs=1e-14)
    assert sol.m == pytest.approx(0.5 * rho0 * (1.0 - 1.0 / c**2), abs=1e-14)


def test_initial_value_roundtrip():
    for rho0, c, _ in MASS_CASES:
        sol = oracle.radial_solve(rho0, c)
        assert sol.u_at_offset(0.0) == pytest.approx(c, rel=1e-13)


def test_profile_matches_static_formula():
    sol = oracle.radial_solve(1.0, 2.0)
    r = np.linspace(0.0, 50.0, 101)
    rho = 1.0 + r
    expected = 1.0 / np.sqrt(1.0 - 2.0 * sol.m / rho)
    got = sol.u_at_offset(r)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_decay_to_one():
    sol = oracle.radial_solve(1.0, 2.0)
    for r, bound in [(10.0, 0.05), (100.0, 0.005), (1000.0, 0.0005)]:
        assert abs(sol.u_at_offset(r) - 1.0) < bound
    # (u - 1) * rho approaches the constant m: first-order decay.
    r = np.array([100.0, 1000.0, 10000.0])
    scaled = (sol.u_at_offset(r) - 1.0) * (1.0 + r)
    assert np.max(np.abs(scaled - sol.m)) < 0.01


def ode_deviation(rho0, c):
    """Largest gap between the closed form and a DOP853 integration of
    du/drho = (u - u^3) / (2 rho) from rho0 out to 1000 rho0, on a geometric
    sample of radii."""
    sol = oracle.radial_solve(rho0, c)
    rho_eval = np.geomspace(rho0, 1e3 * rho0, 40)
    ivp = solve_ivp(
        lambda rho, u: (u - u**3) / (2.0 * rho),
        (rho0, rho_eval[-1]),
        [c],
        t_eval=rho_eval,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    assert ivp.success, ivp.message
    return float(np.max(np.abs(ivp.y[0] - sol(rho_eval))))


def test_closed_form_matches_ode_integration():
    for rho0, c, _ in MASS_CASES:
        assert ode_deviation(rho0, c) <= 1e-9, (rho0, c)


def test_ode_cross_check_grid():
    for rho0 in [0.5, 1.0, 3.0]:
        for c in [0.5, 0.9, 1.1, 2.0, 4.0]:
            assert ode_deviation(rho0, c) <= 1e-9, (rho0, c)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        oracle.radial_solve(0.0, 2.0)
    with pytest.raises(ValueError):
        oracle.radial_solve(1.0, 0.0)
    with pytest.raises(ValueError):
        oracle.radial_solve(1.0, -2.0)


def test_horizon_guard():
    # c >= ... u blows up when 2m/rho reaches 1 going inward; u_at_offset
    # only goes outward (r >= 0) so every c > 0 stays regular.
    sol = oracle.radial_solve(1.0, 4.0)
    r = np.linspace(0.0, 10.0, 50)
    assert np.all(np.isfinite(sol.u_at_offset(r)))
    with pytest.raises(ValueError):
        sol.u_at_offset(-0.5)


def test_convergence_order_second_order_synthetic():
    p = oracle.convergence_order(lambda n: 3.0 + 5.0 / n**2, [16, 32, 64], exact=3.0)
    assert p == pytest.approx(2.0, abs=1e-10)


def test_convergence_order_first_order_synthetic():
    p = oracle.convergence_order(lambda n: 1.0 - 2.0 / n, [16, 32, 64, 128], exact=1.0)
    assert p == pytest.approx(1.0, abs=1e-10)


def test_convergence_order_without_exact_uses_finest():
    # Against the finest run, e(n) = |5/n^2 - 5/256^2| is still ~n^-2 with
    # a contaminated constant; the fitted slope stays close to 2.
    p = oracle.convergence_order(lambda n: 5.0 / n**2, [16, 32, 64, 256])
    assert 1.8 <= p <= 2.3


def test_convergence_order_vector_values():
    def run(n):
        return np.array([1.0 + 2.0 / n**2, 1.0 - 1.0 / n**2])

    p = oracle.convergence_order(run, [8, 16, 32], exact=np.array([1.0, 1.0]))
    assert p == pytest.approx(2.0, abs=1e-10)


def test_convergence_order_degenerate_returns_none():
    assert oracle.convergence_order(lambda n: 7.0, [16, 32, 64], exact=7.0) is None


def test_convergence_order_non_monotone_raises():
    values = {16: 1.1, 32: 1.2, 64: 1.05}
    with pytest.raises(NonMonotoneErrorsError):
        oracle.convergence_order(lambda n: values[n], [16, 32, 64], exact=1.0)


def test_convergence_order_input_validation():
    with pytest.raises(ValueError):
        oracle.convergence_order(lambda n: 1.0 / n, [16], exact=0.0)
    with pytest.raises(ValueError):
        oracle.convergence_order(lambda n: 1.0 / n, [16, 32], exact=None)
    with pytest.raises(ValueError):
        oracle.convergence_order(lambda n: 1.0 / n, [32, 16, 64], exact=0.0)
