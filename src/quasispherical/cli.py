"""Command-line interface.

Subcommands:

    extend   march initial data outward, write the mass series, the final
             factor, and the mass estimate
    mu0      solve for the critical scaling constant of Bartnik data
    certify  no-fill-in certificate for a candidate mean curvature
    verify   run the numerical self-check battery
    sweep    run one of the above over a list of config overrides

verify reads only surface.n_theta, surface.n_phi, seed, checks and
tolerance_scale: it runs on its built-in surfaces (the unit sphere, the
1.0/1.2 spheroid and a few fixed others) and ignores the surface kind.

Configuration is a JSON file (--config) plus dotted-path overrides
(--set a.b.c=value, value parsed as JSON when possible).  All outputs are
deterministic: JSON is written with sorted keys and no timestamps, CSV
numbers use 17 significant digits, and each JSON document embeds the
canonical effective config so outputs are reproducible byte for byte from
themselves.  Exit codes: 0 success (certificate granted), 2 certificate
inconclusive, 1 error (a machine-readable error.json is written when the
output directory is known).

The QS_LOG environment variable (debug/info/warning/error) controls log
verbosity on stderr and nothing else.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import bartnik, geometry, mass, verification
from .errors import QuasisphericalError
from .evolution import SolverConfig
from .expressions import HExpression
from .geometry import ProfileCurve, Sphere, Spheroid, SurfaceSpec

logger = logging.getLogger("quasispherical")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


# ---------------------------------------------------------------------------
# config handling


def canonical_config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def _set_by_path(config: dict, dotted: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    keys = dotted.split(".")
    target = config
    for key in keys[:-1]:
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            raise ValueError(f"cannot override non-object config node '{key}'")
    target[keys[-1]] = value


def load_config(path: Optional[str], overrides: list[str]) -> dict:
    config: dict = {}
    if path is not None:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _set_by_path(config, dotted, raw)
    return config


def parse_surface_spec(config: dict) -> SurfaceSpec:
    section = config.get("surface")
    if not isinstance(section, dict):
        raise ValueError("config needs a 'surface' object")
    kind = section.get("kind")
    n_theta = int(section.get("n_theta", 64))
    n_phi = int(section.get("n_phi", 16))
    if kind == "sphere":
        shape = Sphere(float(section["radius"]))
    elif kind == "spheroid":
        shape = Spheroid(
            float(section["equatorial_radius"]), float(section["polar_radius"])
        )
    elif kind == "profile":
        if "csv" in section:
            rows = _read_csv_columns(section["csv"], ["theta", "x", "z"])
            shape = ProfileCurve.from_arrays(rows["theta"], rows["x"], rows["z"])
        else:
            shape = ProfileCurve.from_arrays(
                section["theta"], section["x"], section["z"]
            )
    else:
        raise ValueError(f"unknown surface kind {kind!r}")
    return SurfaceSpec(shape=shape, n_theta=n_theta, n_phi=n_phi)


def parse_solver_config(config: dict) -> SolverConfig:
    section = config.get("solver", {})
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(section) - known
    if unknown:
        raise ValueError(f"unknown solver options {sorted(unknown)}")
    return SolverConfig(**section)


def _read_csv_columns(path: str, names: list[str]) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != names:
            raise ValueError(f"{path}: expected header {names}, got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    columns = list(zip(*rows))
    return {name: np.array(col) for name, col in zip(names, columns)}


def _parse_field(
    section: dict, surface: geometry.ConvexSurface, what: str
) -> np.ndarray:
    """Positive node field from one of: expression, node-aligned CSV,
    h0_multiple."""
    if not isinstance(section, dict):
        raise ValueError(f"config '{what}' must be an object")
    modes = [k for k in ("expression", "csv", "h0_multiple") if k in section]
    if len(modes) != 1:
        raise ValueError(
            f"config '{what}' needs exactly one of expression/csv/h0_multiple"
        )
    mode = modes[0]
    if mode == "expression":
        expr = HExpression.parse(section["expression"])
        values = expr.evaluate_positive_on_grid(surface)
    elif mode == "h0_multiple":
        values = float(section["h0_multiple"]) * bartnik.h0_of(surface)
    else:
        cols = _read_csv_columns(section["csv"], ["theta", what])
        theta = cols["theta"]
        if theta.shape != surface.theta.shape or np.max(
            np.abs(theta - surface.theta)
        ) > 1e-9 * max(1.0, float(np.max(np.abs(surface.theta)))):
            raise ValueError(
                f"{section['csv']}: theta column must match the {surface.n_theta}-node "
                "grid (cell centers of [0, pi])"
            )
        values = cols[what]
    return geometry.node_field(surface, values, what, positive=True)


def _provenance(spec: SurfaceSpec, solver: SolverConfig) -> dict:
    solver_dict = dataclasses.asdict(solver)
    solver_dict["scheme"] = solver.scheme.value
    return {
        "surface_spec_hash": spec.spec_hash(),
        "n_theta": spec.n_theta,
        "n_phi": spec.n_phi,
        "solver": solver_dict,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_config_text(payload))


def _output_dir(config: dict) -> Path:
    return Path(config.get("output_dir", "out"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_extend(config: dict) -> int:
    """Evolve initial data outward and estimate the total mass."""
    spec = parse_surface_spec(config)
    surface = geometry.build_surface(spec)
    solver = parse_solver_config(config)
    if ("u0" in config) == ("h" in config):
        raise ValueError("extend needs exactly one of 'u0' or 'h' in the config")
    if "u0" in config:
        u0 = _parse_field(config["u0"], surface, "u0")
    else:
        H = _parse_field(config["h"], surface, "h")
        u0 = geometry.per_node(bartnik.h0_of(surface), H) / H
    mass_tol = float(config.get("mass_tol", 1e-3))

    series, final = mass.compute_mass_series(surface, u0, solver)
    out = _output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    series.to_csv(out / "mass_series.csv")
    _write_u_csv(out / "u_final.csv", surface, final.u)

    estimate = mass.estimate_mass(series, tol=mass_tol)
    payload = dataclasses.asdict(estimate)
    payload["provenance"] = _provenance(spec, solver)
    payload["config"] = config
    _write_json(out / "estimate.json", payload)
    print(
        f"mass {estimate.value:.10g} in [{estimate.bracket_lo:.10g}, "
        f"{estimate.bracket_hi:.10g}] at r={estimate.r_final:.6g}"
    )
    return EXIT_OK


def _write_u_csv(path: Path, surface: geometry.ConvexSurface, u: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        if u.ndim == 1:
            fh.write("theta,u\n")
            for th, val in zip(surface.theta, u):
                fh.write(f"{th:.17g},{val:.17g}\n")
        else:
            fh.write("theta,phi,u\n")
            phi = np.arange(surface.n_phi) * surface.d_phi
            for j, th in enumerate(surface.theta):
                for k, ph in enumerate(phi):
                    fh.write(f"{th:.17g},{ph:.17g},{u[j, k]:.17g}\n")


def _bartnik_from_config(config: dict) -> tuple[SurfaceSpec, bartnik.BartnikData]:
    spec = parse_surface_spec(config)
    surface = geometry.build_surface(spec)
    if "h" not in config:
        raise ValueError("config needs an 'h' object with the data mean curvature")
    H = _parse_field(config["h"], surface, "h")
    return spec, bartnik.BartnikData(surface=surface, H=H)


def _mu0_payload(result: bartnik.Mu0Result) -> dict:
    payload = dataclasses.asdict(result)
    payload["bracket"] = list(result.bracket)
    return payload


def cmd_mu0(config: dict) -> int:
    """Solve for the critical scaling constant."""
    spec, data = _bartnik_from_config(config)
    solver = parse_solver_config(config)
    mu_tol = float(config.get("mu_tol", 1e-3))
    mass_tol = float(config.get("mass_tol", 1e-6))
    result = bartnik.solve_mu0(data, mu_tol=mu_tol, mass_tol=mass_tol, config=solver)
    m1, m2 = bartnik.quasilocal_masses(data, mu0=result)

    payload = _mu0_payload(result)
    payload["quasilocal_m1"] = m1
    payload["quasilocal_m2"] = m2
    payload["provenance"] = _provenance(spec, solver)
    payload["config"] = config
    out = _output_dir(config)
    _write_json(out / "mu0.json", payload)
    print(
        f"mu0 = {result.mu0:.10g} in [{result.bracket[0]:.10g}, "
        f"{result.bracket[1]:.10g}] ({result.iterations} evolutions)"
    )
    return EXIT_OK


def cmd_certify(config: dict) -> int:
    """No-fill-in certificate for a candidate mean curvature h_hat."""
    spec, data = _bartnik_from_config(config)
    solver = parse_solver_config(config)
    mu_tol = float(config.get("mu_tol", 1e-3))
    mass_tol = float(config.get("mass_tol", 1e-6))
    margin = float(config.get("margin", 0.02))
    section = config.get("h_hat")
    if not isinstance(section, dict):
        raise ValueError("certify needs an 'h_hat' object")

    result = bartnik.solve_mu0(data, mu_tol=mu_tol, mass_tol=mass_tol, config=solver)
    if "mu0_multiple" in section:
        h_hat = float(section["mu0_multiple"]) * result.mu0 * data.H
    else:
        h_hat = _parse_field(section, data.surface, "h_hat")

    certificate = bartnik.certify_no_fill_in(
        data, h_hat, margin, mu0_result=result
    )
    payload = dataclasses.asdict(certificate)
    payload["mu0_bracket"] = list(certificate.mu0_bracket)
    payload["mu0_detail"] = _mu0_payload(result)
    payload["provenance"] = _provenance(spec, solver)
    payload["config"] = config
    out = _output_dir(config)
    _write_json(out / "certificate.json", payload)

    status = "granted" if certificate.granted else (
        "inconclusive (exceptional case)" if certificate.exceptional_case
        else "inconclusive"
    )
    print(f"certificate {status}: {certificate.reason}")
    return EXIT_OK if certificate.granted else EXIT_INCONCLUSIVE


def cmd_verify(config: dict) -> int:
    """Run the self-check battery and write a report."""
    section = config.get("surface", {"kind": "sphere", "radius": 1.0})
    n_theta = int(section.get("n_theta", 64))
    n_phi = int(section.get("n_phi", 16))
    seed = int(config.get("seed", 0))
    checks = config.get("checks")
    tolerance_scale = config.get("tolerance_scale")
    if tolerance_scale is not None:
        tolerance_scale = float(tolerance_scale)
    results = verification.run_suite(
        n_theta=n_theta,
        n_phi=n_phi,
        seed=seed,
        checks=checks,
        tolerance_scale=tolerance_scale,
    )
    all_passed = all(r.passed for r in results)
    payload = {
        "passed": all_passed,
        "checks": [dataclasses.asdict(r) for r in results],
        "config": config,
    }
    out = _output_dir(config)
    _write_json(out / "verify.json", payload)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    return EXIT_OK if all_passed else EXIT_ERROR


def cmd_sweep(config: dict, jobs: int = 1) -> int:
    """Run a subcommand over a list of config overrides.

    config['sweep'] is a list of override objects merged (deep) over the
    base config; config['command'] names the subcommand.  Entry outputs go
    to <output_dir>/<index>/ and a sweep.json summary is written.
    """
    entries = config.get("sweep")
    command = config.get("command")
    if not isinstance(entries, list) or not entries:
        raise ValueError("sweep needs a non-empty 'sweep' list of override objects")
    if command not in _SWEEP_COMMANDS:
        raise ValueError(
            f"sweep 'command' must be one of {sorted(_SWEEP_COMMANDS)}, got {command!r}"
        )
    base = {k: v for k, v in config.items() if k not in ("sweep", "command")}
    out = _output_dir(config)

    def merge(dst: dict, src: dict) -> dict:
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], value)
            else:
                dst[key] = value
        return dst

    configs = []
    for index, overrides in enumerate(entries):
        if not isinstance(overrides, dict):
            raise ValueError(f"sweep entry {index} must be an object")
        entry_config = merge(copy.deepcopy(base), copy.deepcopy(overrides))
        entry_config["output_dir"] = str(out / f"{index:03d}")
        configs.append(entry_config)

    commands = [command] * len(configs)
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_sweep_entry, commands, configs))
    else:
        codes = list(map(_run_sweep_entry, commands, configs))
    summary = [
        {"index": index, "overrides": overrides, "exit_code": code,
         "output_dir": f"{index:03d}"}
        for index, (overrides, code) in enumerate(zip(entries, codes))
    ]

    payload = {"command": command, "entries": summary, "config": config}
    _write_json(out / "sweep.json", payload)
    worst = max(entry["exit_code"] for entry in summary)
    return EXIT_OK if worst == EXIT_OK else worst


def _run_sweep_entry(command: str, entry_config: dict) -> int:
    try:
        return _SWEEP_COMMANDS[command](entry_config)
    except (QuasisphericalError, ValueError, OSError) as err:
        _report_error(entry_config, err)
        return EXIT_ERROR


# The subcommands that take only a config: a sweep runs them, and main()
# looks them up here.
_SWEEP_COMMANDS = {"extend": cmd_extend, "mu0": cmd_mu0, "certify": cmd_certify}


# ---------------------------------------------------------------------------
# entry point


def _report_error(config: dict, err: Exception) -> None:
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    text = canonical_config_text(payload)
    sys.stderr.write(text)
    try:
        out = _output_dir(config)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w") as fh:
            fh.write(text)
    except OSError:
        pass


def _configure_logging() -> None:
    level_name = os.environ.get("QS_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(message)s")
    logger.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasispherical",
        description=(
            "Quasi-spherical extensions: mass estimation, critical scaling, "
            "and no-fill-in certificates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("extend", "march initial data outward and estimate the total mass"),
        ("mu0", "solve for the critical scaling constant"),
        ("certify", "certify non-existence of fill-ins for h_hat"),
        ("verify", "run the numerical self-check battery"),
        ("sweep", "run a subcommand over a list of config overrides"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a config entry by dotted path (value parsed as JSON)",
        )
        p.add_argument("--output-dir", help="override the output directory")
        if name == "sweep":
            p.add_argument(
                "--jobs", type=int, default=1, help="parallel sweep processes"
            )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict = {}
    try:
        config = load_config(args.config, args.overrides)
        if args.output_dir is not None:
            config["output_dir"] = args.output_dir
        if args.command == "sweep":
            return cmd_sweep(config, jobs=args.jobs)
        if args.command == "verify":
            return cmd_verify(config)
        return _SWEEP_COMMANDS[args.command](config)
    except (QuasisphericalError, ValueError, OSError, json.JSONDecodeError) as err:
        _report_error(config if isinstance(config, dict) else {}, err)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main(sys.argv[1:]))
