"""The benchmark's workloads: inputs made from a seed, one solve, and checks.

Each workload has three parts.  ``prepare`` builds the inputs (surfaces,
initial fields, config files); it is set-up work.  ``solve`` runs the
timed computation once and returns its raw outputs; it passes the
recorder's observer to every march, so the recorder (``timing.py``) marks
every emission of the mass series.  ``check`` compares those outputs with
references computed here, from closed forms and independent quadratures,
never from the package.

The package modules are imported by ``run.py`` once ``src`` is on the
path, and are reached here through module attributes at call time, so a
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from quasispherical import cli, geometry, mass
from quasispherical.evolution import Scheme, SolverConfig
from quasispherical.geometry import Sphere, SurfaceSpec
from timing import Recorder

# Largest rail rise (upper) or fall (lower) allowed between emissions, and
# the largest overlap of the rails, in the raw units of the mass series.
RAIL_TOL = 1e-8
# |estimate - 0.375| on `extend`.  The tail fit of the upper rail sits
# 6.4e-7 above the exact mass at n_theta = 128 (the low rail 7.2e-9).
EXTEND_MASS_TOL = 1e-5
# max |u_final - closed form| on `extend` (measured 7.2e-12).
EXTEND_U_TOL = 1e-9
# Slack of the comparison principle on `azimuthal`.  The discrete march
# stays strictly inside the closed-form radial envelope (no slack used).
COMPARISON_TOL = 1e-7
# max |u(theta, phi) - u(theta, -phi)| on `azimuthal`, where u is near 1
# (measured up to 1.1e-14: roundoff of the non-mirror-symmetric loops).
SYMMETRY_TOL = 1e-12
# Reported against quadrature analytic bounds on `certify` (measured
# 2.9e-6): the package integrates node values over exact cell measures.
BOUND_TOL = 1e-4


def params_for_seed(seed: int) -> dict:
    """Data parameters: the tilt a of `certify` and the unit vector (b, c)
    of `azimuthal`.  Seed 0 gives the acceptance criteria's data: a = 0.3
    (criterion 7) and (b, c) = (1, 0) (criterion 11)."""
    if seed == 0:
        return {"a": 0.3, "b": 1.0, "c": 0.0}
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.2, 0.4))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return {"a": a, "b": math.cos(angle), "c": math.sin(angle)}


def radial_mass(c: float, rho0: float = 1.0) -> float:
    """Mass parameter of constant data c on the round sphere of radius rho0."""
    return 0.5 * rho0 * (1.0 - 1.0 / (c * c))


def radial_u(m: float, rho: float) -> float:
    """Closed-form radial solution (1 - 2m/rho)^(-1/2)."""
    return 1.0 / math.sqrt(1.0 - 2.0 * m / rho)


class Workload:
    """One march of ``self.u0`` on ``self.surface`` and its mass estimate;
    ``prepare`` sets those, `certify` replaces the solve."""

    ops_per_solve = 1
    estimate_tol = 1e-3

    def __init__(self, params: dict, workdir: Path):
        """params from params_for_seed; workdir for the workload's files."""

    def solve(self, recorder: Recorder):
        series, final = recorder.march(
            mass.compute_mass_series, self.surface, self.u0, self.config
        )
        return series, final, mass.estimate_mass(series, tol=self.estimate_tol)

    @staticmethod
    def fingerprint(outputs) -> tuple:
        series, final, estimate = outputs
        return (
            series.r.tobytes(),
            series.upper.tobytes(),
            series.lower.tobytes(),
            series.step_index.tobytes(),
            final.u.tobytes(),
            final.r,
            final.step_index,
            repr(estimate),
        )

    def march_problems(self, series, final) -> list[str]:
        """The rails monotone and ordered, and the march ended at r_max."""
        problems = []
        rise = float(np.max(np.diff(series.upper)))
        fall = float(np.min(np.diff(series.lower)))
        overlap = float(np.max(series.lower - series.upper))
        if rise > RAIL_TOL:
            problems.append(f"upper rail rose by {rise:.3e}")
        if fall < -RAIL_TOL:
            problems.append(f"lower rail fell by {-fall:.3e}")
        if overlap > RAIL_TOL:
            problems.append(f"lower rail above upper by {overlap:.3e}")
        if final.r != self.config.r_max:
            problems.append(f"march ended at r = {final.r!r}, not {self.config.r_max}")
        return problems

    @staticmethod
    def failed(outputs) -> int:
        """Operations of one solve that returned an error status."""
        return 0

    @staticmethod
    def mu0_iterations(outputs) -> int:
        """Marches the program reports for its mu0 searches."""
        return 0


class Extend(Workload):
    """Round calibration: u0 = 2 on the unit sphere, n_theta = 128."""

    def prepare(self) -> None:
        self.surface = geometry.build_surface(
            SurfaceSpec(shape=Sphere(radius=1.0), n_theta=128)
        )
        self.u0 = 2.0
        self.config = SolverConfig(r_max=1000.0)

    def check(self, outputs, recorder: Recorder) -> list[str]:
        series, final, estimate = outputs
        m = radial_mass(self.u0)
        problems = self.march_problems(series, final)
        if abs(estimate.value - m) > EXTEND_MASS_TOL:
            problems.append(f"estimate {estimate.value!r} is not {m} within {EXTEND_MASS_TOL}")
        u_ref = radial_u(m, 1.0 + self.config.r_max)
        dev = float(np.max(np.abs(final.u - u_ref)))
        if dev > EXTEND_U_TOL:
            problems.append(f"u_final is {dev:.3e} from the closed form {u_ref!r}")
        return problems


class Azimuthal(Workload):
    """u0 = 1 + 0.1 (b sin(theta) cos(phi) + c cos(theta)) on a 48 x 32 unit
    sphere, marched with the theta-explicit, phi-implicit scheme."""

    estimate_tol = 1e-2

    def __init__(self, params: dict, workdir: Path):
        self.b = params["b"]
        self.c = params["c"]

    def prepare(self) -> None:
        self.surface = geometry.build_surface(
            SurfaceSpec(shape=Sphere(radius=1.0), n_theta=48, n_phi=32)
        )
        theta = self.surface.theta[:, None]
        phi = self.surface.d_phi * np.arange(self.surface.n_phi)[None, :]
        self.u0 = 1.0 + 0.1 * (
            self.b * np.sin(theta) * np.cos(phi) + self.c * np.cos(theta)
        )
        self.config = SolverConfig(
            r_max=100.0, scheme=Scheme.THETA_EXPLICIT_PHI_IMPLICIT
        )

    def check(self, outputs, recorder: Recorder) -> list[str]:
        series, final, estimate = outputs
        problems = self.march_problems(series, final)
        m_lo = radial_mass(float(self.u0.min()))
        m_hi = radial_mass(float(self.u0.max()))
        n_phi = self.surface.n_phi
        mirror = (-np.arange(n_phi)) % n_phi
        worst_below = worst_above = worst_asym = 0.0
        for r, u in recorder.emitted:
            if not np.all(u > 0.0):
                problems.append(f"u is not positive at r = {r!r}")
            rho = 1.0 + r
            worst_below = max(worst_below, radial_u(m_lo, rho) - float(u.min()))
            worst_above = max(worst_above, float(u.max()) - radial_u(m_hi, rho))
            worst_asym = max(worst_asym, float(np.max(np.abs(u - u[:, mirror]))))
        if worst_below > COMPARISON_TOL or worst_above > COMPARISON_TOL:
            problems.append(
                "comparison principle: u leaves the radial envelope by "
                f"{max(worst_below, worst_above):.3e}"
            )
        if worst_asym > SYMMETRY_TOL:
            problems.append(f"u(theta, phi) - u(theta, -phi) reaches {worst_asym:.3e}")
        lo = m_lo - COMPARISON_TOL
        hi = m_hi + COMPARISON_TOL
        if not (lo <= estimate.bracket_lo and estimate.bracket_hi <= hi):
            problems.append(
                f"mass bracket {estimate.bracket} leaves the radial envelope [{m_lo}, {m_hi}]"
            )
        return problems


def sphere_quadrature_bounds(a: float) -> tuple[float, float]:
    """mu0 bounds sqrt(Int H0 / Int H^2/H0) and Int H0 / Int H for
    H = 2 (1 + a cos(theta)) on the unit sphere (H0 = 2), by quad."""

    def integral(f):
        return quad(lambda t: f(t) * math.sin(t), 0.0, math.pi)[0]

    int_h0 = integral(lambda t: 2.0)
    int_h = integral(lambda t: 2.0 * (1.0 + a * math.cos(t)))
    int_h2 = integral(lambda t: (2.0 * (1.0 + a * math.cos(t))) ** 2 / 2.0)
    return math.sqrt(int_h0 / int_h2), int_h0 / int_h


class Certify(Workload):
    """`quasispherical certify` through cli.main on two configs:
    tilted data on the unit sphere (granted) and proportional data on the
    1.0/1.2 spheroid (the exceptional borderline case)."""

    ops_per_solve = 2
    proportional_mu0 = 1.25

    def __init__(self, params: dict, workdir: Path):
        self.a = params["a"]
        self.workdir = workdir

    def prepare(self) -> None:
        common = {"solver": {"r_max": 500.0}, "margin": 0.02}
        configs = {
            "tilted": {
                "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 64},
                "h": {"expression": f"2*(1+{self.a!r}*cos(theta))"},
                "h_hat": {"mu0_multiple": 1.1},
            },
            "proportional": {
                "surface": {
                    "kind": "spheroid",
                    "equatorial_radius": 1.0,
                    "polar_radius": 1.2,
                    "n_theta": 64,
                },
                "h": {"h0_multiple": 0.8},
                "h_hat": {"mu0_multiple": 1.0},
            },
        }
        self.config_paths = {}
        for name, config in configs.items():
            config.update(common, output_dir=str(self.workdir / name))
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(config))
            self.config_paths[name] = path

    def solve(self, recorder: Recorder):
        original = mass.compute_mass_series

        def with_observer(surface, u0, config, observer=None):
            if observer is not None:
                raise ValueError("certify marches are not expected to carry an observer")
            return recorder.march(original, surface, u0, config)

        outputs = {}
        mass.compute_mass_series = with_observer
        try:
            for name, path in self.config_paths.items():
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(["certify", "--config", str(path)])
                certificate = self.workdir / name / "certificate.json"
                text = certificate.read_bytes() if code != 1 else b""
                if code != 1:
                    certificate.unlink()
                outputs[name] = (code, text)
        finally:
            mass.compute_mass_series = original
        return outputs

    @staticmethod
    def fingerprint(outputs) -> tuple:
        return tuple(sorted(outputs.items()))

    @staticmethod
    def failed(outputs) -> int:
        return sum(1 for code, _ in outputs.values() if code == 1)

    @staticmethod
    def mu0_iterations(outputs) -> int:
        return sum(
            json.loads(text)["mu0_detail"]["iterations"]
            for code, text in outputs.values()
            if code != 1
        )

    def check(self, outputs, recorder: Recorder) -> list[str]:
        problems = []
        code, text = outputs["tilted"]
        if code != 1:
            cert = json.loads(text)
            detail = cert["mu0_detail"]
            if code != 0 or not cert["granted"] or cert["exceptional_case"]:
                problems.append(f"tilted certificate not granted (exit {code})")
            lower, upper = sphere_quadrature_bounds(self.a)
            for key, ref in (("analytic_lower", lower), ("analytic_upper", upper)):
                if abs(detail[key] - ref) > BOUND_TOL:
                    problems.append(f"{key} {detail[key]!r} differs from quad {ref!r}")
            lo, hi = detail["bracket"]
            if not (lower <= lo <= hi <= upper):
                problems.append(f"mu0 bracket [{lo}, {hi}] not inside [{lower}, {upper}]")
            if not (detail["mass_at_lo"] > 0.0 > detail["mass_at_hi"]):
                problems.append("masses at the mu0 bracket ends do not straddle zero")
        code, text = outputs["proportional"]
        if code != 1:
            cert = json.loads(text)
            if code != 2 or cert["granted"] or not cert["exceptional_case"]:
                problems.append(f"proportional certificate not exceptional (exit {code})")
            lo, hi = cert["mu0_bracket"]
            if not (lo <= self.proportional_mu0 <= hi):
                problems.append(f"mu0 bracket [{lo}, {hi}] does not contain 1.25")
        return problems


WORKLOADS = {"extend": Extend, "certify": Certify, "azimuthal": Azimuthal}
