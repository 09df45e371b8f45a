"""Radial marching: step selection, single steps, and full evolutions.

Accuracy anchors come from the closed-form radial family (test_oracle);
structural behavior (exact fixed point, exact emission ladder, positivity
handling, the implicit azimuthal solve) is pinned directly.
"""

import numpy as np
import pytest

from quasispherical import evolution, geometry, oracle
from quasispherical.errors import (
    NonFiniteError,
    PositivityLossError,
    StepUnderflowError,
)
from quasispherical.evolution import (
    QuasiSphericalState,
    Scheme,
    SolverConfig,
    evolve,
    select_step,
    solve_cyclic_tridiagonal,
    step,
)
from quasispherical.geometry import Sphere, SurfaceSpec, build_surface, frame_at


def state_of(u):
    return QuasiSphericalState(r=0.0, u=np.asarray(u, dtype=float), step_index=0)


# ---------------------------------------------------------------------------
# step selection


def test_select_step_round_sphere_value(sphere64):
    # h = d_theta on the unit sphere, H0 = 2, u = 1:
    # dr = cfl * d_theta^2 * 2 / 4.
    cfg = SolverConfig(cfl_safety=0.25)
    f0 = frame_at(sphere64, 0.0)
    dr = select_step(state_of(np.ones(64)), f0, cfg)
    expected = 0.25 * (np.pi / 64.0) ** 2 * 2.0 / 4.0
    assert dr == pytest.approx(expected, rel=1e-12)
    assert dr == pytest.approx(3.0119642337e-4, rel=1e-9)


def test_select_step_scalings(sphere64, sphere32):
    cfg = SolverConfig(cfl_safety=0.25)
    dr64 = select_step(state_of(np.ones(64)), frame_at(sphere64, 0.0), cfg)
    dr32 = select_step(state_of(np.ones(32)), frame_at(sphere32, 0.0), cfg)
    assert dr32 == pytest.approx(4.0 * dr64, rel=1e-12)
    dr_u2 = select_step(state_of(2.0 * np.ones(64)), frame_at(sphere64, 0.0), cfg)
    assert dr_u2 == pytest.approx(dr64 / 4.0, rel=1e-12)
    dr_half_cfl = select_step(
        state_of(np.ones(64)), frame_at(sphere64, 0.0), SolverConfig(cfl_safety=0.125)
    )
    assert dr_half_cfl == pytest.approx(dr64 / 2.0, rel=1e-12)


def test_select_step_grows_with_radius(sphere64):
    cfg = SolverConfig()
    dr0 = select_step(state_of(np.ones(64)), frame_at(sphere64, 0.0), cfg)
    dr9 = select_step(state_of(np.ones(64)), frame_at(sphere64, 9.0), cfg)
    # h^2 H0 = rho^2 d_theta^2 * 2 / rho: linear growth in rho.
    assert dr9 == pytest.approx(10.0 * dr0, rel=1e-12)


def test_select_step_underflows(sphere64):
    # dr scales as 1/u^2: u = 1e6 takes it far below the 1e-12 floor.
    f0 = frame_at(sphere64, 0.0)
    with pytest.raises(StepUnderflowError):
        select_step(state_of(np.full(64, 1e6)), f0, SolverConfig())


def test_select_step_phi_spacing_only_binds_explicit_2d(sphere64):
    # With many azimuthal cells the polar phi spacing is the explicit
    # bottleneck; the implicit scheme must ignore it.
    spec = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=32, n_phi=256)
    surf = build_surface(spec)
    f0 = frame_at(surf, 0.0)
    u2 = np.ones((32, 256))
    dr_rk2 = select_step(state_of(u2), f0, SolverConfig(scheme=Scheme.EXPLICIT_RK2))
    dr_imex = select_step(
        state_of(u2), f0, SolverConfig(scheme=Scheme.THETA_EXPLICIT_PHI_IMPLICIT)
    )
    dr_1d = select_step(state_of(np.ones(32)), f0, SolverConfig())
    assert dr_rk2 < 0.1 * dr_imex
    assert dr_imex == pytest.approx(dr_1d, rel=1e-12)


# ---------------------------------------------------------------------------
# single steps


def test_step_flat_fixed_point_is_exact(sphere64, spheroid64):
    cfg = SolverConfig()
    for surf in (sphere64, spheroid64):
        s0 = state_of(np.ones(surf.theta.size))
        s1 = step(s0, surf, 1e-3, cfg)
        assert np.array_equal(s1.u, s0.u)
        assert s1.r == 1e-3 and s1.step_index == 1


def test_step_local_order_matches_midpoint_scheme(sphere64):
    # One step from exact data: the midpoint rule's local error is O(dr^3),
    # so halving dr divides the defect by about 8.
    sol = oracle.radial_solve(1.0, 2.0)
    cfg = SolverConfig()

    def defect(dr):
        s1 = step(state_of(2.0 * np.ones(64)), sphere64, dr, cfg)
        return float(np.max(np.abs(s1.u - sol.u_at_offset(dr))))

    e1, e2 = defect(2e-3), defect(1e-3)
    assert 6.0 < e1 / e2 < 10.0


def test_step_positivity_loss(sphere64):
    # Large constant u: the reaction term (u - u^3) R / (2 H0) is strongly
    # negative and an oversized step drives the midpoint stage under zero.
    with pytest.raises(PositivityLossError) as exc:
        step(state_of(3.0 * np.ones(64)), sphere64, 1.0, SolverConfig())
    assert exc.value.r == 0.0 and exc.value.dr == 1.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_step_nonfinite_detection(sphere64):
    # u^3 overflows to inf; the stage check must catch it as non-finite.
    with pytest.raises(NonFiniteError):
        step(state_of(np.full(64, 1e200)), sphere64, 1e-3, SolverConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(8,), (8, 4)])
def test_check_stage_flags_nonfinite(bad, shape):
    u = np.ones(shape)
    u.flat[3] = bad
    with pytest.raises(NonFiniteError):
        evolution._check_stage(u, 0.5, 1e-3, "update")


@pytest.mark.parametrize("bad", [0.0, -0.0, -2.0])
@pytest.mark.parametrize("shape", [(8,), (8, 4)])
def test_check_stage_flags_positivity_loss(bad, shape):
    u = np.ones(shape)
    u.flat[5] = bad
    with pytest.raises(PositivityLossError) as exc:
        evolution._check_stage(u, 0.5, 1e-3, "update")
    assert exc.value.r == 0.5 and exc.value.dr == 1e-3


def test_check_stage_accepts_positive_finite_data():
    u = np.array([1e-300, 1.0, np.finfo(float).max])
    assert evolution._check_stage(u, 0.0, 1e-3, "update") is None


# ---------------------------------------------------------------------------
# cyclic tridiagonal solver


def dense_cyclic(sub, diag, sup):
    n = diag.size
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = diag
    A[np.arange(n), (np.arange(n) + 1) % n] = sup
    A[np.arange(n), (np.arange(n) - 1) % n] = sub
    return A


def test_cyclic_tridiagonal_matches_dense_solve():
    gen = np.random.default_rng(11)
    m, n = 5, 13
    sub = gen.uniform(-1.0, 1.0, (m, n))
    sup = gen.uniform(-1.0, 1.0, (m, n))
    diag = 3.0 + gen.uniform(0.0, 1.0, (m, n))  # diagonally dominant
    rhs = gen.uniform(-2.0, 2.0, (m, n))
    x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
    for i in range(m):
        dense = np.linalg.solve(dense_cyclic(sub[i], diag[i], sup[i]), rhs[i])
        assert np.max(np.abs(x[i] - dense)) < 1e-12


def test_cyclic_tridiagonal_constant_row_sums():
    # Row sums diag + sub + sup = s map the constant vector to s * 1, so
    # the solver must return 1/s exactly for a constant right-hand side.
    n = 16
    sub = np.full(n, -0.7)
    sup = np.full(n, -0.3)
    diag = np.full(n, 3.0)
    x = solve_cyclic_tridiagonal(sub, diag, sup, np.ones(n))
    assert np.allclose(x, 0.5, rtol=1e-13)


def test_cyclic_tridiagonal_batch_rings_are_independent():
    # All rings are stacked into one banded system; zeroed couplings at the
    # ring boundaries must leave each ring's solution bit for bit as if it
    # were solved alone.
    gen = np.random.default_rng(5)
    shape = (2, 3, 11)
    sub = gen.uniform(-1.0, 1.0, shape)
    sup = gen.uniform(-1.0, 1.0, shape)
    diag = 3.0 + gen.uniform(0.0, 1.0, shape)
    rhs = gen.uniform(-2.0, 2.0, shape)
    x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
    assert x.shape == shape
    for i in range(shape[0]):
        for j in range(shape[1]):
            alone = solve_cyclic_tridiagonal(sub[i, j], diag[i, j], sup[i, j], rhs[i, j])
            assert np.array_equal(x[i, j], alone)


def test_cyclic_tridiagonal_zero_first_diagonal_entry():
    # A well-conditioned ring (condition number about 12) whose first
    # diagonal entry is zero: the Sherman-Morrison shift must not be zero.
    n = 6
    sub = np.full(n, 0.5)
    sup = np.full(n, 0.5)
    diag = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    rhs = np.ones(n)
    x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
    dense = np.linalg.solve(dense_cyclic(sub, diag, sup), rhs)
    assert np.max(np.abs(x - dense)) < 1e-12


def test_cyclic_tridiagonal_zero_pivot_raises():
    n = 8
    diag = np.full(n, 2.0)
    diag[3] = 0.0
    zeros = np.zeros(n)
    with pytest.raises(NonFiniteError):
        solve_cyclic_tridiagonal(zeros, diag, zeros, np.ones(n))


# ---------------------------------------------------------------------------
# full evolutions


def ladder_radii(config):
    out = [0.0]
    t = 0.01
    while t < config.r_max:
        out.append(t)
        t *= 1.2
    out.append(config.r_max)
    return out


def test_evolve_flat_data_stays_flat_exactly(sphere64, spheroid64):
    cfg = SolverConfig(r_max=10.0)
    for surf in (sphere64, spheroid64):
        emitted = []
        final = evolve(surf, 1.0, cfg, observer=lambda s: emitted.append((s.r, s.u.copy())))
        assert np.array_equal(final.u, np.ones(surf.theta.size))
        for _, u in emitted:
            assert np.array_equal(u, np.ones(surf.theta.size))


def test_evolve_emission_ladder_is_exact(sphere32):
    snap_r_max = 0.01 * 1.2**3 * (1.0 + 1e-13)
    cases = [
        (SolverConfig(r_max=10.0), None),
        # A rung within 1e-12 r_max of r_max is emitted once, as r_max.
        (
            SolverConfig(r_max=snap_r_max),
            [0.0, 0.01, 0.01 * 1.2, 0.01 * 1.2 * 1.2, snap_r_max],
        ),
        # A first rung at or beyond r_max leaves only the end points.
        (SolverConfig(r_max=0.01), [0.0, 0.01]),
        (SolverConfig(r_max=0.005), [0.0, 0.005]),
    ]
    for cfg, expected in cases:
        radii = []
        evolve(sphere32, 1.2, cfg, observer=lambda s: radii.append(s.r))
        assert radii == (ladder_radii(cfg) if expected is None else expected)


def test_evolve_is_deterministic(sphere32):
    cfg = SolverConfig(r_max=5.0)
    runs = []
    for _ in range(2):
        series = []
        final = evolve(sphere32, 1.3, cfg, observer=lambda s: series.append(s.u.copy()))
        runs.append((final, series))
    assert np.array_equal(runs[0][0].u, runs[1][0].u)
    assert runs[0][0].step_index == runs[1][0].step_index
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


def test_evolve_matches_radial_family(sphere64):
    sol = oracle.radial_solve(1.0, 2.0)
    cfg = SolverConfig(r_max=100.0)
    final = evolve(sphere64, 2.0, cfg)
    assert np.max(np.abs(final.u - sol.u_at_offset(100.0))) < 1e-9


def test_evolve_comparison_order_is_preserved(sphere32):
    cfg = SolverConfig(r_max=20.0)
    lo = evolve(sphere32, 1.2, cfg)
    hi = evolve(sphere32, 1.5, cfg)
    assert np.all(hi.u >= lo.u - 1e-12)


def test_evolve_axisym_fastpath_collapses_constant_phi(sphere32):
    cfg = SolverConfig(r_max=2.0)
    u2 = np.tile((1.0 + 0.2 * np.cos(sphere32.theta) ** 2)[:, None], (1, sphere32.n_phi))
    fast = evolve(sphere32, u2, cfg)
    ref = evolve(sphere32, u2[:, 0], cfg)
    assert fast.u.ndim == 1
    assert np.array_equal(fast.u, ref.u)


def test_evolve_2d_stencil_agrees_with_1d_on_axisymmetric_data():
    # evolve() marches phi-constant data on the 1-d grid, so the 2-d stencil
    # is stepped directly.  With the same step sizes the azimuthal
    # difference of a phi-constant field is exactly zero, so the 2-d march
    # reproduces the 1-d one bit for bit.
    spec = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=16, n_phi=8)
    surf = build_surface(spec)
    # dr = 1e-4 is far below the stability limit; 200 steps reach r = 0.02.
    cfg = SolverConfig()
    base = 1.0 + 0.2 * np.cos(surf.theta) ** 2
    u2 = np.tile(base[:, None], (1, 8))
    out2, out1 = state_of(u2), state_of(base)
    for _ in range(200):
        out2 = step(out2, surf, 1e-4, cfg)
        out1 = step(out1, surf, 1e-4, cfg)
    assert out2.u.shape == (16, 8)
    for k in range(8):
        assert np.array_equal(out2.u[:, k], out1.u)


def test_evolve_imex_flat_fixed_point():
    spec = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=24, n_phi=12)
    surf = build_surface(spec)
    cfg = SolverConfig(r_max=5.0, scheme=Scheme.THETA_EXPLICIT_PHI_IMPLICIT)
    # evolve() would march phi-constant data on the 1-d grid; step the 2-d
    # phi-implicit scheme directly with the steps select_step chooses.
    final = state_of(np.ones((24, 12)))
    while final.r < cfg.r_max:
        dr = select_step(final, frame_at(surf, final.r), cfg)
        final = step(final, surf, min(dr, cfg.r_max - final.r), cfg)
    assert np.max(np.abs(final.u - 1.0)) < 1e-11


def test_evolve_imex_consistent_with_explicit():
    spec = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=24, n_phi=12)
    surf = build_surface(spec)
    phi = 2.0 * np.pi * np.arange(12) / 12.0
    u0 = 1.0 + 0.1 * np.sin(surf.theta)[:, None] * np.cos(phi)[None, :]
    explicit = evolve(surf, u0, SolverConfig(r_max=1.0))
    implicit = evolve(
        surf, u0, SolverConfig(r_max=1.0, scheme=Scheme.THETA_EXPLICIT_PHI_IMPLICIT)
    )
    assert np.max(np.abs(explicit.u - implicit.u)) < 5e-3
    assert np.all(implicit.u > 0)


def test_evolve_lands_an_oversized_step_proposal(sphere32, monkeypatch):
    # Force one absurd step proposal of 5.0: the landing cuts it to the
    # first ladder radius, 0.01, and the march still finishes with the
    # correct answer.
    real = evolution.select_step
    calls = {"n": 0}

    def sabotaged(state, frame, config):
        calls["n"] += 1
        if calls["n"] == 1:
            return 5.0
        return real(state, frame, config)

    monkeypatch.setattr(evolution, "select_step", sabotaged)
    cfg = SolverConfig(r_max=10.0)
    final = evolve(sphere32, 2.0, cfg)
    sol = oracle.radial_solve(1.0, 2.0)
    assert np.max(np.abs(final.u - sol.u_at_offset(10.0))) < 1e-6


def test_evolve_raises_the_first_positivity_loss(sphere32, monkeypatch):
    # No retry: the first failed step propagates with its own r and dr.
    calls = []

    def always_fails(state, surface, dr, config, frame0=None):
        calls.append(dr)
        raise PositivityLossError("forced", r=state.r, dr=dr)

    monkeypatch.setattr(evolution, "step", always_fails)
    with pytest.raises(PositivityLossError) as exc:
        evolve(sphere32, 1.5, SolverConfig(r_max=1.0))
    assert len(calls) == 1
    assert exc.value.r == 0.0
    assert exc.value.dr == calls[0]


def test_evolve_input_validation(sphere32):
    cfg = SolverConfig(r_max=1.0)
    with pytest.raises(ValueError):
        evolve(sphere32, -1.0, cfg)
    with pytest.raises(ValueError):
        evolve(sphere32, np.ones(31), cfg)
    with pytest.raises(ValueError):
        evolve(sphere32, np.ones((32, 7)), cfg)
    with pytest.raises(ValueError):
        evolve(sphere32, np.full(32, np.nan), cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r_max=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=1.5)
    for name in ("cfl_safety", "r_max"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
