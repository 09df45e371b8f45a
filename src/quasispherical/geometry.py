"""Convex surfaces of revolution and their outward parallel (offset) foliation.

A surface is described by a profile curve (x(theta), z(theta)), theta in
[0, pi], revolved about the z-axis; x > 0 away from the poles and the curve
runs from the north pole (+z) to the south pole (-z).  With the outward unit
normal, both principal curvatures of an admissible surface are positive.

Flowing distance r along the normal gives the parallel surface Sigma_r.  Its
first fundamental form and curvatures follow from the base data in closed
form:

    E_r = E0 (1 + r k1)^2          (meridian metric coefficient)
    G_r = G0 (1 + r k2)^2          (azimuthal metric coefficient)
    k_i(r) = k_i / (1 + r k_i)     (principal curvatures)
    H0_r = k1(r) + k2(r)           (mean curvature, sum convention)
    R_r  = 2 k1(r) k2(r)           (scalar curvature of Sigma_r)

The discrete grid is cell-centered in theta (nodes at (j+1/2) dtheta, faces
at j dtheta) and uniform periodic in phi.  Cell area measures are computed
as exact integrals of the area density over each cell, split by the offset
polynomial: the density sqrt(E_r G_r) equals sqrt(E0 G0) (1 + r k1)(1 + r k2),
so each cell carries three coefficients (w0, wH, wK) and its measure at any
r is w0 + r wH + r^2 wK with no further quadrature error in r.  Integrals,
areas, and the finite-volume Laplacian are built on these measures, which
makes the discrete divergence theorem hold to roundoff and keeps integral
functionals of exactly round data exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DegenerateProfileError, NonConvexError

# Gauss-Legendre rule used once per cell when the measure coefficients are
# built; exact for polynomials of degree < 2*_GL_ORDER.
_GL_ORDER = 12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class Sphere:
    """Round sphere of the given radius."""

    radius: float

    def canonical_dict(self) -> dict:
        return {"kind": "sphere", "radius": float(self.radius)}


@dataclass(frozen=True)
class Spheroid:
    """Ellipsoid of revolution x^2/a^2 + y^2/a^2 + z^2/c^2 = 1.

    a = equatorial_radius, c = polar_radius.  Prolate for c > a, oblate for
    c < a; both are admissible (strictly convex).
    """

    equatorial_radius: float
    polar_radius: float

    def canonical_dict(self) -> dict:
        return {
            "kind": "spheroid",
            "equatorial_radius": float(self.equatorial_radius),
            "polar_radius": float(self.polar_radius),
        }


@dataclass(frozen=True)
class ProfileCurve:
    """Sampled profile curve (x(theta), z(theta)) on [0, pi].

    Samples must include the poles (x = 0 at both ends) and be fine enough
    for centered differences: curvatures are formed on the sample grid and
    restricted to the solver grid, so accuracy is set by the sample spacing.
    """

    theta: tuple
    x: tuple
    z: tuple

    @staticmethod
    def from_arrays(theta, x, z) -> "ProfileCurve":
        return ProfileCurve(
            theta=tuple(float(t) for t in np.asarray(theta, dtype=float)),
            x=tuple(float(v) for v in np.asarray(x, dtype=float)),
            z=tuple(float(v) for v in np.asarray(z, dtype=float)),
        )

    def canonical_dict(self) -> dict:
        return {
            "kind": "profile",
            "theta": [float(f"{v:.17g}") for v in self.theta],
            "x": [float(f"{v:.17g}") for v in self.x],
            "z": [float(f"{v:.17g}") for v in self.z],
        }


Shape = Union[Sphere, Spheroid, ProfileCurve]


@dataclass(frozen=True)
class SurfaceSpec:
    """Shape plus grid resolution.

    n_theta cells cover [0, pi] (nodes at cell centers), n_phi cells cover
    [0, 2 pi) periodically.  Minimum resolutions keep the polar closure and
    the phi stencil meaningful.
    """

    shape: Shape
    n_theta: int = 64
    n_phi: int = 16

    def canonical_dict(self) -> dict:
        d = self.shape.canonical_dict()
        d["n_theta"] = int(self.n_theta)
        d["n_phi"] = int(self.n_phi)
        return d

    def spec_hash(self) -> str:
        text = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class ConvexSurface:
    """Base surface with grid data and offset-ready cell measures.

    Node arrays have length n_theta; the face array aface0 has length
    n_theta + 1.  The principal curvatures are stored stacked: row i of
    kappa holds kappa_i at the n_theta nodes followed by the n_theta + 1
    faces, so that one array operation forms all offset stretch factors
    1 + r kappa.  The face coefficient aface0 = sqrt(G0/E0) vanishes at the
    poles, which closes the polar fluxes of the finite-volume Laplacian
    without special cases.  w0, wH, wK are the cell-measure coefficients
    and area the base area; frame_at(surface, r) gives the leaf at offset r,
    including its area.
    """

    theta: np.ndarray
    d_theta: float
    n_phi: int
    d_phi: float
    E0: np.ndarray
    G0: np.ndarray
    kappa: np.ndarray
    aface0: np.ndarray
    w0: np.ndarray
    wH: np.ndarray
    wK: np.ndarray
    area: float

    @property
    def n_theta(self) -> int:
        return self.theta.shape[0]

    @property
    def kappa1(self) -> np.ndarray:
        return self.kappa[0, : self.n_theta]

    @property
    def kappa2(self) -> np.ndarray:
        return self.kappa[1, : self.n_theta]


@dataclass
class FoliationFrame:
    """Geometry of one leaf Sigma_r: metric, curvatures, and cell measures.

    The fields that every step of the march reads are built eagerly: the
    mean curvature H0, the Gauss curvature K = k1(r) k2(r), the cell
    measures w, and the face transport coefficients aface.  The scalar
    curvature is the property R = 2 K (exact: scaling by 2 does not round).
    The metric coefficients E = E0 f1^2 and G = G0 f2^2 and the leaf area
    2 pi sum(w) are properties; they use the base metric E0, G0 and the node
    stretch factors f1 = 1 + r k1, f2 = 1 + r k2, held as the rows of
    stretch.

    The frame does not store its offset r: the caller that asked
    frame_at(surface, r) for it holds r.  Frames are read-only by
    convention, not frozen: the march builds two per step, and a frozen
    dataclass costs several times more to construct.
    """

    theta: np.ndarray
    d_theta: float
    n_phi: int
    d_phi: float
    H0: np.ndarray
    K: np.ndarray
    w: np.ndarray
    aface: np.ndarray
    E0: np.ndarray
    G0: np.ndarray
    stretch: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.theta.shape[0]

    @property
    def R(self) -> np.ndarray:
        return 2.0 * self.K

    @property
    def E(self) -> np.ndarray:
        f1 = self.stretch[0]
        return self.E0 * f1 * f1

    @property
    def G(self) -> np.ndarray:
        f2 = self.stretch[1]
        return self.G0 * f2 * f2

    @property
    def area(self) -> float:
        return 2.0 * np.pi * float(np.sum(self.w))


def _spheroid_tables(a: float, c: float) -> Callable[[np.ndarray], dict]:
    """Closed-form profile data for x = a sin(theta), z = c cos(theta)."""

    def evaluate(theta: np.ndarray) -> dict:
        st = np.sin(theta)
        ct = np.cos(theta)
        E = a * a * ct * ct + c * c * st * st
        sqrtE = np.sqrt(E)
        x = a * st
        k1 = a * c / (E * sqrtE)
        k2 = c / (a * sqrtE)
        return {
            "E": E,
            "G": x * x,
            "k1": k1,
            "k2": k2,
            "dens": x * sqrtE,
        }

    return evaluate


def _profile_tables(curve: ProfileCurve) -> Callable[[np.ndarray], dict]:
    """Sampled-curve geometry: centered differences on the sample grid, then
    linear restriction to requested angles."""
    theta_s = np.asarray(curve.theta, dtype=float)
    x_s = np.asarray(curve.x, dtype=float)
    z_s = np.asarray(curve.z, dtype=float)

    if theta_s.ndim != 1 or theta_s.shape != x_s.shape or theta_s.shape != z_s.shape:
        raise DegenerateProfileError("profile arrays must be 1-d and equally sized")
    if theta_s.size < 32:
        raise DegenerateProfileError("profile needs at least 32 samples")
    if np.any(np.diff(theta_s) <= 0):
        raise DegenerateProfileError("profile theta samples must be strictly increasing")
    if abs(theta_s[0]) > 1e-12 or abs(theta_s[-1] - np.pi) > 1e-12:
        raise DegenerateProfileError("profile must span [0, pi] including both poles")

    # Accept curves supplied south-to-north by reversing them.
    if z_s[0] < z_s[-1]:
        x_s = x_s[::-1].copy()
        z_s = z_s[::-1].copy()

    pole_tol = 1e-9 * max(1.0, float(np.max(np.abs(x_s))))
    if abs(x_s[0]) > pole_tol or abs(x_s[-1]) > pole_tol:
        raise DegenerateProfileError("profile radius must vanish at both poles")
    if np.any(x_s[1:-1] <= 0):
        raise DegenerateProfileError("profile radius must be positive away from the poles")

    # Height must decrease monotonically near the poles (outward cap geometry).
    cap = max(2, theta_s.size // 10)
    if np.any(np.diff(z_s[: cap + 1]) >= 0) or np.any(np.diff(z_s[-cap - 1 :]) >= 0):
        raise DegenerateProfileError("profile height must decrease near both poles")

    xp = np.gradient(x_s, theta_s, edge_order=2)
    zp = np.gradient(z_s, theta_s, edge_order=2)
    xpp = np.gradient(xp, theta_s, edge_order=2)
    zpp = np.gradient(zp, theta_s, edge_order=2)

    E_s = xp * xp + zp * zp
    sqrtE_s = np.sqrt(E_s)
    # Meridian curvature from the curve, azimuthal from the normal tilt.
    k1_s = (zp * xpp - xp * zpp) / (E_s * sqrtE_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        k2_s = np.where(x_s > pole_tol, -zp / (np.maximum(x_s, pole_tol) * sqrtE_s), k1_s)
    # At the poles the surface is umbilic; reuse the meridian value.
    k2_s[0] = k1_s[0]
    k2_s[-1] = k1_s[-1]

    dens_s = x_s * sqrtE_s

    def evaluate(theta: np.ndarray) -> dict:
        E = np.interp(theta, theta_s, E_s)
        x = np.interp(theta, theta_s, x_s)
        k1 = np.interp(theta, theta_s, k1_s)
        k2 = np.interp(theta, theta_s, k2_s)
        dens = np.interp(theta, theta_s, dens_s)
        return {"E": E, "G": x * x, "k1": k1, "k2": k2, "dens": dens}

    return evaluate


def _shape_tables(shape: Shape) -> Callable[[np.ndarray], dict]:
    if isinstance(shape, Sphere):
        if shape.radius <= 0:
            raise DegenerateProfileError("sphere radius must be positive")
        return _spheroid_tables(shape.radius, shape.radius)
    if isinstance(shape, Spheroid):
        if shape.equatorial_radius <= 0 or shape.polar_radius <= 0:
            raise DegenerateProfileError("spheroid semi-axes must be positive")
        return _spheroid_tables(shape.equatorial_radius, shape.polar_radius)
    if isinstance(shape, ProfileCurve):
        return _profile_tables(shape)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


def build_surface(spec: SurfaceSpec) -> ConvexSurface:
    """Validate the shape, build grid data, and precompute cell measures.

    Raises NonConvexError if a principal curvature is non-positive at any
    node or interior face, DegenerateProfileError for unusable profile data,
    and ValueError for resolutions below the minima (n_theta >= 16,
    n_phi >= 8).
    """
    if spec.n_theta < 16:
        raise ValueError(f"n_theta must be >= 16, got {spec.n_theta}")
    if spec.n_phi < 8:
        raise ValueError(f"n_phi must be >= 8, got {spec.n_phi}")

    n = int(spec.n_theta)
    d_theta = np.pi / n
    theta_faces = np.linspace(0.0, np.pi, n + 1)
    theta = theta_faces[:-1] + 0.5 * d_theta
    n_phi = int(spec.n_phi)
    d_phi = 2.0 * np.pi / n_phi

    tables = _shape_tables(spec.shape)
    at_nodes = tables(theta)
    at_faces = tables(theta_faces)

    k1 = at_nodes["k1"]
    k2 = at_nodes["k2"]
    k1f = at_faces["k1"]
    k2f = at_faces["k2"]
    for name, arr in (("node", np.minimum(k1, k2)), ("face", np.minimum(k1f, k2f))):
        if not np.all(np.isfinite(arr)):
            raise DegenerateProfileError(f"non-finite curvature at a {name}")
        if np.any(arr <= 0):
            j = int(np.argmin(arr))
            angle = (theta if name == "node" else theta_faces)[j]
            raise NonConvexError(
                f"principal curvature {arr[j]:.6g} <= 0 at theta = {angle:.6f} "
                f"({name} {j}); surface must be strictly convex"
            )

    # Face transport coefficient sqrt(G0/E0); exactly zero at the poles.
    aface0 = np.sqrt(at_faces["G"] / at_faces["E"])
    aface0[0] = 0.0
    aface0[-1] = 0.0

    # Cell measures: integrate the density and its curvature-weighted forms
    # over each cell with Gauss-Legendre, once.
    half = 0.5 * d_theta
    sub = theta_faces[:-1, None] + half * (_GL_NODES[None, :] + 1.0)
    at_sub = tables(sub.ravel())
    dens = at_sub["dens"].reshape(n, _GL_ORDER)
    k1s = at_sub["k1"].reshape(n, _GL_ORDER)
    k2s = at_sub["k2"].reshape(n, _GL_ORDER)
    gw = _GL_WEIGHTS[None, :] * half
    w0 = np.sum(dens * gw, axis=1)
    wH = np.sum(dens * (k1s + k2s) * gw, axis=1)
    wK = np.sum(dens * (k1s * k2s) * gw, axis=1)

    area = 2.0 * np.pi * float(np.sum(w0))

    return ConvexSurface(
        theta=theta,
        d_theta=d_theta,
        n_phi=n_phi,
        d_phi=d_phi,
        E0=at_nodes["E"],
        G0=at_nodes["G"],
        kappa=np.stack([np.concatenate([k1, k1f]), np.concatenate([k2, k2f])]),
        aface0=aface0,
        w0=w0,
        wH=wH,
        wK=wK,
        area=area,
    )


def frame_at(surface: ConvexSurface, r: float) -> FoliationFrame:
    """Geometry of the parallel surface at offset r >= 0 in closed form."""
    if r < 0:
        raise ValueError(f"offset r must be >= 0, got {r}")
    n = surface.n_theta
    rr = np.float64(r)
    f = 1.0 + rr * surface.kappa
    kr = surface.kappa[:, :n] / f[:, :n]
    return FoliationFrame(
        theta=surface.theta,
        d_theta=surface.d_theta,
        n_phi=surface.n_phi,
        d_phi=surface.d_phi,
        H0=kr[0] + kr[1],
        K=kr[0] * kr[1],
        w=surface.w0 + rr * surface.wH + rr * rr * surface.wK,
        aface=surface.aface0 * f[1, n:] / f[0, n:],
        E0=surface.E0,
        G0=surface.G0,
        stretch=f[:, :n],
    )


def positive_number(value: float, what: str) -> float:
    """value when it is finite and > 0; otherwise a ValueError naming what."""
    # NaN fails both comparisons.
    if not 0.0 < value < np.inf:
        raise ValueError(f"{what} must be finite and positive, got {value}")
    return value


def node_field(grid, value, what: str, positive: bool = False) -> np.ndarray:
    """A field on the nodes of grid, a ConvexSurface or a FoliationFrame.

    A scalar becomes a constant (n_theta,) field; an array must have shape
    (n_theta,) or (n_theta, n_phi).  With positive, every value must be
    finite and > 0.  Anything else raises ValueError naming what.  The
    result is a float array that may share memory with value.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.n_theta, float(arr))
    elif arr.shape != (grid.n_theta,) and arr.shape != (grid.n_theta, grid.n_phi):
        raise ValueError(
            f"{what} has shape {arr.shape}, not (n_theta,) = ({grid.n_theta},) "
            f"or (n_theta, n_phi) = ({grid.n_theta}, {grid.n_phi})"
        )
    # NaN fails both comparisons.
    if positive and not np.all((arr > 0.0) & (arr < np.inf)):
        raise ValueError(f"{what} must be finite and strictly positive")
    return arr


def integrate(frame: FoliationFrame, fld) -> float:
    """Surface integral of a scalar field over Sigma_r.

    Accepts a python scalar, an axisymmetric (n_theta,) field, or a full
    (n_theta, n_phi) field.  Axisymmetric fields use the 2 pi azimuthal
    factor exactly.
    """
    arr = np.asarray(fld, dtype=float)
    if arr.ndim == 0:
        return float(arr) * frame.area
    arr = node_field(frame, arr, "integrand")
    if arr.ndim == 1:
        return 2.0 * np.pi * float(np.sum(arr * frame.w))
    return frame.d_phi * float(np.sum(arr * frame.w[:, None]))


def per_node(arr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Broadcast a theta-node array against a 1-d or 2-d field."""
    return arr[:, None] if u.ndim == 2 else arr


def theta_laplacian(frame: FoliationFrame, u: np.ndarray) -> np.ndarray:
    """Theta part of laplacian() on a 1-d or 2-d field: the sum of the
    fluxes through each cell's two theta faces over its measure.  The
    field's shape is not checked."""
    flux = np.zeros((frame.n_theta + 1,) + u.shape[1:])
    flux[1:-1] = per_node(frame.aface[1:-1], u) * (u[1:] - u[:-1]) / frame.d_theta
    return (flux[1:] - flux[:-1]) / per_node(frame.w, u)


def laplacian(frame: FoliationFrame, fld: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of Sigma_r on a grid field.

    Finite-volume form: theta-fluxes through cell faces with the transport
    coefficient sqrt(G_r/E_r) (zero at the poles, closing the domain), and a
    centered periodic second difference in phi scaled by 1/G_r.  Constants
    map to exactly zero; the operator is symmetric and conservative with
    respect to integrate().
    """
    u = np.asarray(fld, dtype=float)
    if u.ndim == 0:
        raise ValueError("laplacian needs a 1-d or 2-d field, not a scalar")
    u = node_field(frame, u, "field")
    out = theta_laplacian(frame, u)
    if u.ndim == 2:
        out += (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / (
            frame.G[:, None] * frame.d_phi * frame.d_phi
        )
    return out
