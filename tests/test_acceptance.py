"""End-to-end acceptance battery.

Eleven criteria covering calibration against the closed-form radial
family, exactness of the flat fixed point, the critical scaling constant
and its analytic bounds, monotone mass rails, the comparison principle,
scaling monotonicity, rigidity of proportional data, mesh convergence,
certificates through the command line, and a full azimuthal run under the
implicit scheme.  Each test prints one PASS/FAIL line to the live
terminal so the battery reads as a checklist.
"""

import contextlib
import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from quasispherical import bartnik, cli, geometry, mass, oracle
from quasispherical.bartnik import BartnikData, h0_of, mu0_bounds, solve_mu0
from quasispherical.evolution import (
    QuasiSphericalState,
    SolverConfig,
    evolve,
    select_step,
    step,
)
from quasispherical.geometry import Sphere, Spheroid, SurfaceSpec, build_surface
from quasispherical.mass import ADM_NORMALIZATION, compute_mass_series, estimate_mass


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(num, description):
        start = time.time()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {num:2d}] FAIL ({time.time() - start:6.1f}s)  {description}")
            raise
        with capsys.disabled():
            print(f"[criterion {num:2d}] PASS ({time.time() - start:6.1f}s)  {description}")

    return _report


def sphere(n_theta, radius=1.0, n_phi=16):
    return build_surface(
        SurfaceSpec(shape=Sphere(radius=radius), n_theta=n_theta, n_phi=n_phi)
    )


def spheroid(n_theta, n_phi=16):
    return build_surface(
        SurfaceSpec(
            shape=Spheroid(equatorial_radius=1.0, polar_radius=1.2),
            n_theta=n_theta,
            n_phi=n_phi,
        )
    )


def test_criterion_01_round_calibration(report):
    with report(1, "round data u0=2: mass 0.375 within 1e-3, bracketed, under 60 s"):
        start = time.time()
        surf = sphere(256)
        series, _ = compute_mass_series(surf, 2.0, SolverConfig(r_max=1000.0))
        est = estimate_mass(series, tol=1e-3)
        elapsed = time.time() - start
        assert abs(est.value - 0.375) <= 1e-3
        # Low-rail containment carries the marching scheme's measured
        # +4.5e-10 second-order bias at this resolution.
        assert est.bracket_lo <= 0.375 + 2e-9
        assert est.bracket_hi >= 0.375
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_flat_fixed_point(report):
    with report(2, "u0=1 stays exactly flat with zero mass on sphere and spheroid"):
        for surf in (sphere(64), spheroid(64)):
            emitted = []

            def observer(state):
                frame = geometry.frame_at(surf, state.r)
                emitted.append(
                    (
                        float(np.max(np.abs(state.u - 1.0))),
                        mass.mass_at(frame, state.u),
                        mass.mass_lower_at(frame, state.u),
                    )
                )

            evolve(surf, 1.0, SolverConfig(r_max=1000.0), observer=observer)
            assert len(emitted) > 50
            for dev, m_up, m_lo in emitted:
                assert dev <= 1e-12
                assert abs(m_up) <= 1e-10
                assert abs(m_lo) <= 1e-10


def test_criterion_03_critical_constant_round(report):
    with report(3, "constant H=2c: mu0 = 1/c within 1e-3 for c in {1/2, 1, 2}"):
        start = time.time()
        surf = sphere(64)
        for c in (0.5, 1.0, 2.0):
            data = BartnikData(surface=surf, H=np.full(64, 2.0 * c))
            res = solve_mu0(data, config=SolverConfig(r_max=1000.0))
            assert abs(res.mu0 - 1.0 / c) <= 1e-3
            assert res.bracket[0] <= 1.0 / c <= res.bracket[1]
        assert time.time() - start <= 600.0


def _walk_rails(surf, u0, config, r_stop):
    """March step by step, tracking the worst per-step rail violation."""
    state = QuasiSphericalState(r=0.0, u=np.asarray(u0, dtype=float), step_index=0)
    frame = geometry.frame_at(surf, 0.0)
    m_up = mass.mass_at(frame, state.u)
    m_lo = mass.mass_lower_at(frame, state.u)
    worst_up_rise = -np.inf
    worst_lo_drop = np.inf
    while state.r < r_stop:
        dr = min(select_step(state, frame, config), r_stop - state.r)
        state = step(state, surf, dr, frame0=frame)
        frame = geometry.frame_at(surf, state.r)
        new_up = mass.mass_at(frame, state.u)
        new_lo = mass.mass_lower_at(frame, state.u)
        assert new_lo <= new_up + 1e-10
        worst_up_rise = max(worst_up_rise, new_up - m_up)
        worst_lo_drop = min(worst_lo_drop, new_lo - m_lo)
        m_up, m_lo = new_up, new_lo
    return worst_up_rise, worst_lo_drop


def test_criterion_04_monotone_rails(report):
    with report(4, "mass rails monotone within 1e-8 per step on five data sets"):
        # r = 10 covers the transient where curvature anisotropy is
        # strongest; beyond it both rails flatten toward their limits.
        cfg = SolverConfig(r_max=10.0)
        runs = [
            (sphere(64), 2.0 * np.ones(64), cfg),
            (sphere(64), 1.0 + 0.3 * np.cos(sphere(64).theta) ** 2, cfg),
            (spheroid(64), 1.0 + 0.2 * np.cos(spheroid(64).theta) ** 2, cfg),
            (sphere(64), 0.7 + 0.2 * np.cos(sphere(64).theta) ** 2, cfg),
        ]
        s2 = sphere(48, radius=1.5, n_phi=32)
        phi = s2.d_phi * np.arange(32)
        u2 = 1.0 + 0.1 * np.sin(s2.theta)[:, None] * np.cos(phi)[None, :]
        runs.append((s2, u2, cfg))
        for surf, u0, config in runs:
            up_rise, lo_drop = _walk_rails(surf, u0, config, 10.0)
            assert up_rise <= 1e-8, f"upper rail rose by {up_rise:.3e}"
            assert lo_drop >= -1e-8, f"lower rail fell by {lo_drop:.3e}"


def test_criterion_05_comparison_principle(report):
    with report(5, "ordered initial data stay ordered nodewise and in mass"):
        cfg = SolverConfig(r_max=500.0)
        surf = sphere(64)
        pairs = [
            (1.5 * np.ones(64), 1.2 * np.ones(64)),
            (1.0 + 0.2 * np.cos(surf.theta) ** 2, np.ones(64)),
        ]
        for u0, v0 in pairs:
            u_emit, v_emit = [], []
            evolve(surf, u0, cfg, observer=lambda s: u_emit.append((s.r, s.u.copy())))
            evolve(surf, v0, cfg, observer=lambda s: v_emit.append((s.r, s.u.copy())))
            assert [r for r, _ in u_emit] == [r for r, _ in v_emit]
            for (_, uu), (_, vv) in zip(u_emit, v_emit):
                assert np.all(uu >= vv - 1e-8)
            series_u, _ = compute_mass_series(surf, u0, cfg)
            series_v, _ = compute_mass_series(surf, v0, cfg)
            est_u = estimate_mass(series_u, tol=1e-3)
            est_v = estimate_mass(series_v, tol=1e-3)
            assert est_u.bracket_lo > est_v.bracket_hi - 1e-9


def test_criterion_06_scaling_monotonicity(report):
    with report(6, "mass increases strictly in the scale factor and brackets t0"):
        surf = sphere(64)
        u0 = 1.0 + 0.3 * np.cos(surf.theta) ** 2
        cfg = SolverConfig(r_max=1000.0)
        ts = [0.5, 0.75, 1.0, 1.5, 2.0]
        estimates = []
        for t in ts:
            series, _ = compute_mass_series(surf, t * u0, cfg)
            estimates.append(estimate_mass(series, tol=1e-3))
        for a, b in zip(estimates, estimates[1:]):
            assert b.bracket_lo > a.bracket_hi, "gaps must exceed the error bars"
        # The zero crossing sits between t = 0.75 and t = 1.
        assert estimates[1].bracket_hi < 0.0 < estimates[2].bracket_lo
        # The critical scale of the matching curvature data inverts it:
        # H = H0 / u0 makes mass(t u0) vanish at t0 = 1 / mu0(H).
        data = BartnikData(surface=surf, H=h0_of(surf) / u0)
        res = solve_mu0(data, config=cfg)
        t0 = 1.0 / res.mu0
        assert 0.75 < t0 < 1.0
        lo, hi = mu0_bounds(data)
        half = 0.5 * (res.bracket[1] - res.bracket[0])
        assert lo - half <= res.mu0 <= hi + half


def test_criterion_07_tilted_critical_constant(report):
    with report(7, "H = 2(1+0.3 cos): mu0 in (0.9707 - 1e-3, 1) with certified gap"):
        surf = sphere(64)
        H = 2.0 * (1.0 + 0.3 * np.cos(surf.theta))
        data = BartnikData(surface=surf, H=H)
        res = solve_mu0(data, config=SolverConfig(r_max=1000.0))
        # Independent quadrature pins the squared lower bound near 0.9707.
        num = quad(lambda t: 2.0 * np.sin(t), 0.0, np.pi)[0]
        den = quad(
            lambda t: (2.0 * (1.0 + 0.3 * np.cos(t))) ** 2 / 2.0 * np.sin(t),
            0.0,
            np.pi,
        )[0]
        assert num / den == pytest.approx(0.9707, abs=2e-4)
        assert res.analytic_lower**2 == pytest.approx(num / den, abs=1e-4)
        assert res.mu0 > 0.9707 - 1e-3
        delta = 1.0 - res.bracket[1]
        assert delta > 0.0, "certified bracket must sit strictly below 1"


def test_criterion_08_rigidity_of_proportional_data(report):
    with report(8, "H = 0.8 H0: mu0 = 1.25 exactly; non-proportional data gap"):
        surf = spheroid(64)
        h0 = h0_of(surf)
        prop = BartnikData(surface=surf, H=0.8 * h0)
        res = solve_mu0(prop, config=SolverConfig(r_max=500.0))
        assert abs(res.mu0 - 1.25) <= 2e-3
        assert abs(res.mu0 - res.analytic_upper) <= 2e-3

        mu_tol = 5e-4
        tilted = BartnikData(surface=surf, H=0.8 * h0 * (1.0 + 0.4 * np.cos(surf.theta)))
        res_t = solve_mu0(tilted, mu_tol=mu_tol, config=SolverConfig(r_max=500.0))
        gap = res_t.analytic_upper - res_t.mu0
        combined = 0.5 * (res_t.bracket[1] - res_t.bracket[0]) + mu_tol * res_t.mu0
        assert gap > 5.0 * combined


def test_criterion_09_mesh_convergence(report):
    with report(9, "mass converges in the grid at order >= 1.8 on the spheroid"):
        cfg = SolverConfig(r_max=100.0, cfl_safety=0.9)

        def mass_at_resolution(n):
            surf = spheroid(n)
            u0 = 1.0 + 0.2 * np.cos(surf.theta) ** 2
            series, _ = compute_mass_series(surf, u0, cfg)
            return estimate_mass(series, tol=1e-2).value

        reference = mass_at_resolution(512)
        p = oracle.convergence_order(
            mass_at_resolution, [64, 128, 256], exact=reference
        )
        assert p is not None and p >= 1.8, f"observed order {p}"


def test_criterion_10_certificates_through_cli(report, tmp_path):
    with report(10, "certify: granted above critical, exceptional on flat data"):
        base = {
            "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 64},
            "solver": {"r_max": 500.0},
            "h": {"expression": "2*(1+0.3*cos(theta))"},
            "h_hat": {"mu0_multiple": 1.1},
            "margin": 0.02,
            "output_dir": str(tmp_path / "granted"),
        }
        cfg = tmp_path / "granted.json"
        cfg.write_text(json.dumps(base))
        assert cli.main(["certify", "--config", str(cfg)]) == 0
        with open(tmp_path / "granted" / "certificate.json") as fh:
            payload = json.load(fh)
        assert payload["granted"] is True and payload["exceptional_case"] is False

        euclid = dict(base)
        euclid["h"] = {"h0_multiple": 1.0}
        euclid["h_hat"] = {"mu0_multiple": 1.0}
        euclid["output_dir"] = str(tmp_path / "euclid")
        cfg2 = tmp_path / "euclid.json"
        cfg2.write_text(json.dumps(euclid))
        assert cli.main(["certify", "--config", str(cfg2)]) == 2
        with open(tmp_path / "euclid" / "certificate.json") as fh:
            payload2 = json.load(fh)
        assert payload2["granted"] is False and payload2["exceptional_case"] is True


def test_criterion_11_azimuthal_implicit_run(report):
    with report(11, "phi-dependent data evolve implicitly, mass between rails"):
        start = time.time()
        surf = sphere(96, n_phi=64)
        phi = surf.d_phi * np.arange(64)
        u0 = 1.0 + 0.1 * np.sin(surf.theta)[:, None] * np.cos(phi)[None, :]
        cfg = SolverConfig(r_max=100.0)

        min_u = []
        series, final = compute_mass_series(
            surf, u0, cfg, observer=lambda s: min_u.append(float(np.min(s.u)))
        )
        assert all(v > 0.0 for v in min_u), "positivity must never be lost"
        assert final.r == 100.0
        est = estimate_mass(series, tol=1e-2)

        cfg1d = SolverConfig(r_max=100.0)
        lo_series, _ = compute_mass_series(surf, 0.9 * np.ones(96), cfg1d)
        hi_series, _ = compute_mass_series(surf, 1.1 * np.ones(96), cfg1d)
        est_lo = estimate_mass(lo_series, tol=1e-2)
        est_hi = estimate_mass(hi_series, tol=1e-2)
        assert est_lo.bracket_hi < est.bracket_lo
        assert est.bracket_hi < est_hi.bracket_lo
        assert time.time() - start <= 900.0
