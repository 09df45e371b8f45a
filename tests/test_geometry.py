"""Surface construction, offset frames, quadrature, and the Laplacian.

The discrete surface operators carry the whole solver, so they get the
strictest checks: exact identities on round spheres, independent
closed-form and symbolic cross-checks on spheroids, and mesh-refinement
orders measured against analytic references.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from quasispherical import geometry, oracle
from quasispherical.errors import DegenerateProfileError, NonConvexError
from quasispherical.geometry import (
    ProfileCurve,
    Sphere,
    Spheroid,
    SurfaceSpec,
    build_surface,
    frame_at,
    integrate,
    laplacian,
)


# ---------------------------------------------------------------------------
# construction: spheres


def test_sphere_node_data_is_exact(sphere64):
    s = sphere64
    assert np.allclose(s.kappa1, 1.0, rtol=1e-14, atol=0)
    assert np.allclose(s.kappa2, 1.0, rtol=1e-14, atol=0)
    assert np.allclose(s.E0, 1.0, rtol=1e-15, atol=0)
    assert np.allclose(s.G0, np.sin(s.theta) ** 2, rtol=1e-13, atol=1e-17)
    assert s.area == pytest.approx(4.0 * np.pi, rel=1e-13)
    # Meridian cell measures sum to the area under the exact 2 pi azimuthal
    # factor (Gauss-Legendre is exact on the polynomial Steiner densities).
    assert 2.0 * np.pi * np.sum(s.w0) == pytest.approx(s.area, rel=1e-13)


def test_sphere_radius_scaling():
    spec = SurfaceSpec(shape=Sphere(radius=2.5), n_theta=32)
    s = build_surface(spec)
    assert np.allclose(s.kappa1, 1.0 / 2.5, rtol=1e-14, atol=0)
    assert s.area == pytest.approx(4.0 * np.pi * 2.5**2, rel=1e-13)


def test_invalid_sphere():
    with pytest.raises(DegenerateProfileError):
        build_surface(SurfaceSpec(shape=Sphere(radius=0.0)))
    with pytest.raises(DegenerateProfileError):
        build_surface(SurfaceSpec(shape=Sphere(radius=-1.0)))


def test_resolution_minimums():
    with pytest.raises(ValueError):
        build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=8))
    with pytest.raises(ValueError):
        build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=32, n_phi=4))


def test_spec_hash_distinguishes_and_repeats():
    a = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=32)
    b = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=32)
    c = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=64)
    d = SurfaceSpec(shape=Spheroid(equatorial_radius=1.0, polar_radius=1.2), n_theta=32)
    assert a.spec_hash() == b.spec_hash()
    assert a.spec_hash() != c.spec_hash()
    assert a.spec_hash() != d.spec_hash()


# ---------------------------------------------------------------------------
# construction: spheroids


def prolate_area(a, c):
    # Closed form for c > a, cross-checked below by direct quadrature.
    e = np.sqrt(1.0 - (a / c) ** 2)
    return 2.0 * np.pi * a**2 * (1.0 + (c / (a * e)) * np.arcsin(e))


def test_spheroid_area_closed_form_and_quadrature(spheroid64):
    a, c = 1.0, 1.2
    closed = prolate_area(a, c)
    # Independent check of the closed form itself: area of a surface of
    # revolution (x, z) = (a sin t, c cos t).
    direct, err = quad(
        lambda t: 2.0
        * np.pi
        * a
        * np.sin(t)
        * np.sqrt(a**2 * np.cos(t) ** 2 + c**2 * np.sin(t) ** 2),
        0.0,
        np.pi,
        epsabs=1e-13,
    )
    assert closed == pytest.approx(direct, abs=1e-10)
    assert spheroid64.area == pytest.approx(closed, rel=1e-12)


def test_spheroid_degenerates_to_sphere():
    sphere = build_surface(SurfaceSpec(shape=Sphere(radius=1.3), n_theta=32))
    spheroid = build_surface(
        SurfaceSpec(shape=Spheroid(equatorial_radius=1.3, polar_radius=1.3), n_theta=32)
    )
    assert np.allclose(spheroid.kappa1, sphere.kappa1, rtol=1e-12)
    assert np.allclose(spheroid.kappa2, sphere.kappa2, rtol=1e-12)
    assert spheroid.area == pytest.approx(sphere.area, rel=1e-12)


def test_spheroid_curvatures_against_symbolic_normal_divergence(spheroid64):
    # Independent route: H = div(grad F / |grad F|) for the implicit
    # ellipsoid F = (x^2 + y^2)/a^2 + z^2/c^2 - 1, evaluated on the
    # meridian, via symbolic differentiation.  This never touches the
    # package's parametric curvature formulas.
    a_v, c_v = 1.0, 1.2
    t, x, y, z = sp.symbols("t x y z", real=True)
    F = (x**2 + y**2) / a_v**2 + z**2 / c_v**2 - 1
    grad = sp.Matrix([sp.diff(F, v) for v in (x, y, z)])
    norm = sp.sqrt(sum(g**2 for g in grad))
    H_sym = sum(sp.diff(grad[i] / norm, v) for i, v in enumerate((x, y, z)))
    H_merid = sp.lambdify(
        t, sp.simplify(H_sym.subs({x: a_v * sp.sin(t), y: 0, z: c_v * sp.cos(t)})), "numpy"
    )
    H_pkg = spheroid64.kappa1 + spheroid64.kappa2
    assert np.max(np.abs(H_pkg - H_merid(spheroid64.theta))) < 1e-10


def test_prolate_curvature_extremes(spheroid64):
    # Mean curvature of a prolate spheroid peaks at the poles (2 c / a^2)
    # and bottoms out at the equator (a / c^2 + 1 / a).
    H = spheroid64.kappa1 + spheroid64.kappa2
    assert np.argmax(H) in (0, H.size - 1)
    assert abs(np.argmin(H) - H.size // 2) <= 1
    assert H.max() < 2.0 * 1.2 / 1.0**2  # pole value is a supremum off-node
    assert H.min() > 1.0 / 1.2**2 + 1.0 / 1.0 - 1e-3


def test_invalid_spheroid():
    with pytest.raises(DegenerateProfileError):
        build_surface(SurfaceSpec(shape=Spheroid(equatorial_radius=0.0, polar_radius=1.0)))
    with pytest.raises(DegenerateProfileError):
        build_surface(SurfaceSpec(shape=Spheroid(equatorial_radius=1.0, polar_radius=-1.0)))


# ---------------------------------------------------------------------------
# construction: sampled profiles


def sphere_profile(n_samples=8192, radius=1.0):
    t = np.linspace(0.0, np.pi, n_samples)
    return ProfileCurve.from_arrays(t, radius * np.sin(t), radius * np.cos(t))


def test_profile_sphere_recovers_round_data():
    surf = build_surface(SurfaceSpec(shape=sphere_profile(), n_theta=32))
    assert np.max(np.abs(surf.kappa1 - 1.0)) < 1e-5
    assert np.max(np.abs(surf.kappa2 - 1.0)) < 1e-5
    assert surf.area == pytest.approx(4.0 * np.pi, rel=1e-6)


def test_profile_orientation_is_normalized():
    # A curve sampled south-to-north (height increasing) describes the same
    # surface and must build identically to the north-first parametrization.
    t = np.linspace(0.0, np.pi, 4096)
    fwd = ProfileCurve.from_arrays(t, np.sin(t), np.cos(t))
    rev = ProfileCurve.from_arrays(t, np.sin(t), -np.cos(t))
    sf = build_surface(SurfaceSpec(shape=fwd, n_theta=32))
    sr = build_surface(SurfaceSpec(shape=rev, n_theta=32))
    assert np.allclose(sf.kappa1, sr.kappa1, rtol=1e-10)
    assert np.allclose(sf.kappa2, sr.kappa2, rtol=1e-10)
    assert sf.area == pytest.approx(sr.area, rel=1e-12)


def test_profile_theta_must_increase():
    t = np.linspace(0.0, np.pi, 4096)
    with pytest.raises(DegenerateProfileError):
        build_surface(
            SurfaceSpec(
                shape=ProfileCurve.from_arrays(t[::-1], np.sin(t)[::-1], np.cos(t)[::-1]),
                n_theta=32,
            )
        )


def test_profile_nonconvex_raises():
    # Peanut: an equatorial waist with a sign change in meridian curvature,
    # while the height stays monotone so only convexity can reject it.
    t = np.linspace(0.0, np.pi, 4096)
    shape = ProfileCurve.from_arrays(t, np.sin(t) + 0.15 * np.sin(3.0 * t), np.cos(t))
    with pytest.raises(NonConvexError):
        build_surface(SurfaceSpec(shape=shape, n_theta=32))


def test_profile_degenerate_raises():
    t = np.linspace(0.0, np.pi, 4096)
    # Height not monotone from the north pole.
    with pytest.raises(DegenerateProfileError):
        build_surface(
            SurfaceSpec(
                shape=ProfileCurve.from_arrays(t, np.sin(t), np.cos(t) + 0.3 * np.sin(t)),
                n_theta=32,
            )
        )
    # Radius does not vanish at the poles.
    with pytest.raises(DegenerateProfileError):
        build_surface(
            SurfaceSpec(
                shape=ProfileCurve.from_arrays(t, np.sin(t) + 0.2, np.cos(t)), n_theta=32
            )
        )
    # Too few samples to form curvatures.
    with pytest.raises(DegenerateProfileError):
        build_surface(
            SurfaceSpec(shape=sphere_profile(n_samples=8), n_theta=32)
        )


# ---------------------------------------------------------------------------
# offset frames


def test_frame_at_zero_matches_base(spheroid64):
    f = frame_at(spheroid64, 0.0)
    assert np.array_equal(f.E, spheroid64.E0)
    assert np.array_equal(f.G, spheroid64.G0)
    assert np.array_equal(f.w, spheroid64.w0)
    assert f.area == pytest.approx(spheroid64.area, rel=1e-14)
    assert np.allclose(f.H0, spheroid64.kappa1 + spheroid64.kappa2, rtol=1e-14)


def test_frame_offset_closed_forms(sphere64):
    # On a unit sphere the offset surface is a round sphere of radius 1+r.
    for r in [0.5, 3.0, 100.0]:
        f = frame_at(sphere64, r)
        rho = 1.0 + r
        assert np.allclose(f.E, rho**2, rtol=1e-13)
        assert np.allclose(f.H0, 2.0 / rho, rtol=1e-13)
        assert np.allclose(f.R, 2.0 / rho**2, rtol=1e-13)
        assert f.area == pytest.approx(4.0 * np.pi * rho**2, rel=1e-13)


def test_frame_offset_spheroid_invariants(spheroid64):
    areas = [frame_at(spheroid64, r).area for r in [0.0, 0.5, 1.0, 4.0]]
    assert all(b > a for a, b in zip(areas, areas[1:]))
    for r in [0.5, 4.0]:
        f = frame_at(spheroid64, r)
        k1 = spheroid64.kappa1 / (1.0 + r * spheroid64.kappa1)
        k2 = spheroid64.kappa2 / (1.0 + r * spheroid64.kappa2)
        assert np.allclose(f.H0, k1 + k2, rtol=1e-13)
        assert np.allclose(f.R, 2.0 * k1 * k2, rtol=1e-13)
        assert np.all(f.H0 > 0) and np.all(f.R > 0) and np.all(f.w > 0)


def test_frame_asymptotic_roundness(spheroid64):
    # r H0 -> 2 and r^2 R -> 2 with first-order remainders.
    errs_h, errs_r = [], []
    for r in [1e2, 1e3, 1e4]:
        f = frame_at(spheroid64, r)
        errs_h.append(np.max(np.abs(r * f.H0 - 2.0)))
        errs_r.append(np.max(np.abs(r**2 * f.R - 2.0)))
    assert errs_h[0] / errs_h[2] > 50.0
    assert errs_r[0] / errs_r[2] > 50.0
    assert errs_h[2] < 1e-3 and errs_r[2] < 1e-3


def test_frame_fields_match_closed_forms(spheroid64):
    # K is stored; R = 2K, E, G and the area are properties. Each must equal
    # its closed form bit for bit.
    for r in [0.0, 0.37, 2.5, 1e3]:
        f = frame_at(spheroid64, r)
        f1 = 1.0 + r * spheroid64.kappa1
        f2 = 1.0 + r * spheroid64.kappa2
        k1 = spheroid64.kappa1 / f1
        k2 = spheroid64.kappa2 / f2
        assert np.array_equal(f.K, k1 * k2)
        assert np.array_equal(f.R, 2.0 * f.K)
        assert np.array_equal(f.R, 2.0 * k1 * k2)
        assert np.array_equal(f.E, spheroid64.E0 * f1 * f1)
        assert np.array_equal(f.G, spheroid64.G0 * f2 * f2)
        w = spheroid64.w0 + r * spheroid64.wH + r * r * spheroid64.wK
        assert np.array_equal(f.w, w)
        assert f.area == 2.0 * np.pi * float(np.sum(w))


def test_frame_negative_offset_rejected(sphere64):
    with pytest.raises(ValueError):
        frame_at(sphere64, -0.1)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constants_and_parity(sphere64):
    f0 = frame_at(sphere64, 0.0)
    assert integrate(f0, np.ones_like(sphere64.theta)) == pytest.approx(
        4.0 * np.pi, rel=1e-13
    )
    assert abs(integrate(f0, np.cos(sphere64.theta))) < 1e-13
    # Second moment: int cos^2 over the unit sphere is 4 pi / 3, reproduced
    # at the quadrature's O(h^2) field-sampling accuracy.
    second = integrate(f0, np.cos(sphere64.theta) ** 2)
    assert second == pytest.approx(4.0 * np.pi / 3.0, rel=5e-4)


def test_integrate_two_dimensional_fields(sphere64):
    f0 = frame_at(sphere64, 0.0)
    phi = 2.0 * np.pi * np.arange(sphere64.n_phi) / sphere64.n_phi
    fld = 1.0 + 0.5 * np.sin(sphere64.theta)[:, None] * np.cos(phi)[None, :]
    # The cos(phi) factor sums to zero exactly on the uniform phi grid.
    assert integrate(f0, fld) == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_integrate_shape_validation(sphere64):
    f0 = frame_at(sphere64, 0.0)
    with pytest.raises(ValueError):
        integrate(f0, np.ones(sphere64.theta.size - 1))
    with pytest.raises(ValueError):
        integrate(f0, np.ones((sphere64.theta.size, sphere64.n_phi + 1)))


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_annihilates_constants(sphere64, spheroid64):
    for surf in (sphere64, spheroid64):
        for r in [0.0, 2.0]:
            f = frame_at(surf, r)
            out = laplacian(f, np.full(surf.theta.shape, 3.7))
            assert np.max(np.abs(out)) == 0.0
            out2 = laplacian(f, np.full((surf.theta.size, surf.n_phi), 3.7))
            assert np.max(np.abs(out2)) == 0.0


def test_laplacian_divergence_theorem(sphere64, spheroid64):
    gen = np.random.default_rng(7)
    for surf in (sphere64, spheroid64):
        f = frame_at(surf, 0.7)
        u = 1.0 + 0.3 * gen.standard_normal(surf.theta.shape)
        total = integrate(f, laplacian(f, u))
        assert abs(total) < 1e-11 * f.area


def test_laplacian_symmetry(sphere64):
    # int u Lap v = int v Lap u: summation-by-parts with the exact cell
    # measures makes the discrete operator self-adjoint.
    gen = np.random.default_rng(3)
    f = frame_at(sphere64, 0.4)
    u = 1.0 + 0.2 * gen.standard_normal(sphere64.theta.shape)
    v = np.cos(sphere64.theta) + 0.1 * gen.standard_normal(sphere64.theta.shape)
    left = integrate(f, u * laplacian(f, v))
    right = integrate(f, v * laplacian(f, u))
    assert abs(left - right) < 1e-11 * max(1.0, abs(left))


def test_laplacian_axisymmetric_eigenfunction_order():
    # Lap cos(theta) = -2 cos(theta) / rho^2 on the round sphere; the
    # mesh-refinement order of the max-norm error must be 2.
    def run(n):
        surf = build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=n))
        f = frame_at(surf, 0.0)
        u = np.cos(surf.theta)
        return float(np.max(np.abs(laplacian(f, u) + 2.0 * u)))

    p = oracle.convergence_order(run, [32, 64, 128], exact=0.0)
    assert p >= 1.9


def test_laplacian_azimuthal_eigenfunction_interior_order():
    # sin(theta) cos(phi) is an l=1 eigenfunction.  The longitude-grid
    # stencil's phi truncation scales like d_phi^2 / sin(theta), so second
    # order holds on any fixed angular window away from the poles while the
    # polar neighborhoods degrade to first order.
    def run(n):
        surf = build_surface(
            SurfaceSpec(shape=Sphere(radius=1.0), n_theta=n, n_phi=max(8, n // 2))
        )
        f = frame_at(surf, 0.0)
        phi = 2.0 * np.pi * np.arange(surf.n_phi) / surf.n_phi
        u = np.sin(surf.theta)[:, None] * np.cos(phi)[None, :]
        err = np.abs(laplacian(f, u) + 2.0 * u)
        window = (surf.theta > np.pi / 8) & (surf.theta < 7 * np.pi / 8)
        return float(np.max(err[window, :]))

    p = oracle.convergence_order(run, [32, 64, 128], exact=0.0)
    assert p >= 1.9


def test_laplacian_azimuthal_full_grid_converges():
    # Including the polar rows the error still vanishes under refinement,
    # at reduced (first) order.
    def run(n):
        surf = build_surface(
            SurfaceSpec(shape=Sphere(radius=1.0), n_theta=n, n_phi=max(8, n // 2))
        )
        f = frame_at(surf, 0.0)
        phi = 2.0 * np.pi * np.arange(surf.n_phi) / surf.n_phi
        u = np.sin(surf.theta)[:, None] * np.cos(phi)[None, :]
        return float(np.max(np.abs(laplacian(f, u) + 2.0 * u)))

    p = oracle.convergence_order(run, [32, 64, 128], exact=0.0)
    assert p >= 0.8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), r=st.floats(0.0, 5.0))
def test_laplacian_flux_sums_to_zero_property(seed, r):
    # The discrete divergence theorem holds for arbitrary fields and
    # offsets, not just the seeded spot-checks above.
    surf = build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=24))
    gen = np.random.default_rng(seed)
    f = frame_at(surf, r)
    u = 1.0 + gen.uniform(-0.5, 0.5, surf.theta.shape)
    assert abs(integrate(f, laplacian(f, u))) < 1e-10 * f.area
