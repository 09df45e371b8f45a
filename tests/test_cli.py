"""Command-line interface: subcommands, config handling, deterministic
outputs, exit codes, and machine-readable errors.

Everything drives cli.main() in process with tmp_path output directories;
exit code 0 is success, 2 an inconclusive certificate, 1 an error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasispherical
from quasispherical import bartnik, cli, geometry, mass
from quasispherical.evolution import Scheme, SolverConfig
from quasispherical.expressions import HExpression
from quasispherical.geometry import Sphere, SurfaceSpec


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def marches(monkeypatch):
    """Wrap mass.compute_mass_series; the list grows by one per march."""
    calls = []
    original = mass.compute_mass_series

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mass, "compute_mass_series", counting)
    return calls


def extend_config(out, n_theta=48, r_max=200.0, u0="2"):
    return {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": n_theta},
        "solver": {"r_max": r_max},
        "u0": {"expression": u0},
        "output_dir": str(out),
    }


# ---------------------------------------------------------------------------
# extend


def test_extend_round_data(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", extend_config(tmp_path / "out"))
    assert cli.main(["extend", "--config", cfg]) == 0
    est = read_json(tmp_path / "out" / "estimate.json")
    assert est["value"] == pytest.approx(0.375, abs=2e-3)
    assert est["bracket_lo"] <= est["value"] <= est["bracket_hi"]
    assert (tmp_path / "out" / "mass_series.csv").exists()
    assert (tmp_path / "out" / "u_final.csv").exists()
    assert "mass" in capsys.readouterr().out
    # The effective config and grid provenance ride along in the payload.
    assert est["config"]["surface"]["radius"] == 1.0
    spec = SurfaceSpec(shape=Sphere(radius=1.0), n_theta=48, n_phi=16)
    assert est["provenance"]["surface_spec_hash"] == spec.spec_hash()


def test_extend_outputs_are_deterministic(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = extend_config(out)
        del cfg["output_dir"]
        path = write_config(tmp_path, f"{tag}.json", cfg)
        assert cli.main(["extend", "--config", path, "--output-dir", str(out)]) == 0
        runs.append(
            (
                read_json(out / "estimate.json"),
                (out / "mass_series.csv").read_bytes(),
                (out / "u_final.csv").read_bytes(),
            )
        )
    # The numeric products are byte-identical; the JSON differs only in the
    # embedded output directory string.
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    est_a, est_b = runs[0][0], runs[1][0]
    est_a.pop("config")
    est_b.pop("config")
    assert est_a == est_b


def test_extend_set_overrides(tmp_path):
    cfg = write_config(tmp_path, "c.json", extend_config(tmp_path / "out"))
    assert (
        cli.main(["extend", "--config", cfg, "--set", "solver.r_max=150"]) == 0
    )
    est = read_json(tmp_path / "out" / "estimate.json")
    assert est["r_final"] == 150.0
    assert est["config"]["solver"]["r_max"] == 150


def test_extend_mass_series_header_and_format(tmp_path):
    cfg = write_config(tmp_path, "c.json", extend_config(tmp_path / "out", r_max=150.0))
    assert cli.main(["extend", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "mass_series.csv").read_text().splitlines()
    assert lines[0] == "r,m_upper,m_lower"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # 17 significant digits round-trip doubles exactly.
    assert float(first[1]) == float(repr(float(first[1])))


@pytest.mark.parametrize(
    "u0, n_phi, scheme",
    [
        ("1.5 + 0.2*cos(theta)", 8, "explicit_rk2"),
        ("1.5 + 0.2*sin(theta)*cos(phi)", 8, "theta_explicit_phi_implicit"),
    ],
)
def test_extend_csv_files_hold_the_library_arrays(tmp_path, u0, n_phi, scheme):
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 16, "n_phi": n_phi},
        "solver": {"r_max": 20.0, "scheme": scheme},
        "u0": {"expression": u0},
        "mass_tol": 1.0,
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["extend", "--config", write_config(tmp_path, "c.json", config)]) == 0

    surface = geometry.build_surface(
        SurfaceSpec(shape=Sphere(radius=1.0), n_theta=16, n_phi=n_phi)
    )
    field = HExpression.parse(u0).evaluate_positive_on_grid(surface)
    series, final = mass.compute_mass_series(
        surface, field, SolverConfig(r_max=20.0, scheme=Scheme(scheme))
    )
    out = tmp_path / "out"
    rails = cli._read_csv_columns(out / "mass_series.csv", ["r", "m_upper", "m_lower"])
    assert np.array_equal(rails["r"], series.r)
    assert np.array_equal(rails["m_upper"], series.upper)
    assert np.array_equal(rails["m_lower"], series.lower)
    if final.u.ndim == 1:
        cols = cli._read_csv_columns(out / "u_final.csv", ["theta", "u"])
        assert np.array_equal(cols["theta"], surface.theta)
        assert np.array_equal(cols["u"], final.u)
    else:
        # One row per node, theta-major: phi runs fastest.
        cols = cli._read_csv_columns(out / "u_final.csv", ["theta", "phi", "u"])
        phi = np.arange(n_phi) * surface.d_phi
        assert np.array_equal(cols["theta"], np.repeat(surface.theta, n_phi))
        assert np.array_equal(cols["phi"], np.tile(phi, 16))
        assert np.array_equal(cols["u"], final.u.ravel())


@pytest.mark.parametrize(
    "command, edit, named",
    [
        ("extend", lambda c: c["surface"].pop("radius"), "radius"),
        ("extend", lambda c: c["surface"].update(kind="spheroid", equatorial_radius=1.0),
         "polar_radius"),
        ("extend", lambda c: c["surface"].update(kind="profile"), "theta"),
        ("extend", lambda c: c.update(solver=5), "solver"),
        ("verify", lambda c: c.update(surface=5), "surface"),
    ],
)
def test_malformed_config_writes_error_json(tmp_path, command, edit, named):
    config = extend_config(tmp_path / "out")
    edit(config)
    assert cli.main([command, "--config", write_config(tmp_path, "c.json", config)]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert f"'{named}'" in err["error"]["message"]


@pytest.mark.parametrize("override", ["surface.radius=[1]", "surface.n_theta=null"])
def test_config_value_of_the_wrong_type_writes_error_json(tmp_path, override):
    config = extend_config(tmp_path / "out")
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg, "--set", override]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "TypeError"


def test_output_dir_of_the_wrong_type_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", extend_config("unused"))
    assert cli.main(["extend", "--config", cfg, "--set", "output_dir=5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "'output_dir'" in err["error"]["message"]
    # No directory can be named by 5, so nothing is written.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_extend_from_prescribed_curvature(tmp_path):
    # h = 0.8 H0 corresponds to u0 = 1.25, a round data set of mass
    # (1/2)(1 - 1/1.25^2) = 0.18.
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 48},
        "solver": {"r_max": 200.0},
        "h": {"h0_multiple": 0.8},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 0
    est = read_json(tmp_path / "out" / "estimate.json")
    assert est["value"] == pytest.approx(0.18, abs=1e-3)


def test_extend_u0_from_csv(tmp_path):
    surf = geometry.build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=16))
    rows = "\n".join(f"{t:.17g},{1.5}" for t in surf.theta)
    csv_path = tmp_path / "u0.csv"
    csv_path.write_text("theta,u0\n" + rows + "\n")
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 16},
        "solver": {"r_max": 100.0},
        "u0": {"csv": str(csv_path)},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 0
    est = read_json(tmp_path / "out" / "estimate.json")
    # u0 = 1.5 on the unit sphere: mass (1/2)(1 - 1/2.25) = 5/18.
    assert est["value"] == pytest.approx(5.0 / 18.0, abs=2e-3)


def test_extend_u0_csv_grid_mismatch(tmp_path):
    csv_path = tmp_path / "u0.csv"
    theta = np.linspace(0.0, np.pi, 16)  # endpoints, not cell centers
    csv_path.write_text(
        "theta,u0\n" + "\n".join(f"{t:.17g},1.5" for t in theta) + "\n"
    )
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 16},
        "u0": {"csv": str(csv_path)},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert "grid" in err["error"]["message"]


@pytest.mark.parametrize("ragged", [False, True])
def test_extend_malformed_u0_csv_is_an_error(tmp_path, ragged):
    # An empty file, or a file on the grid whose last row lacks its value.
    text = ""
    if ragged:
        surf = geometry.build_surface(SurfaceSpec(shape=Sphere(radius=1.0), n_theta=16))
        rows = [f"{t:.17g},1.5" for t in surf.theta]
        rows[-1] = f"{surf.theta[-1]:.17g}"
        text = "theta,u0\n" + "\n".join(rows) + "\n"
    csv_path = tmp_path / "u0.csv"
    csv_path.write_text(text)
    config = extend_config(tmp_path / "out", n_theta=16)
    config["u0"] = {"csv": str(csv_path)}
    assert cli.main(["extend", "--config", write_config(tmp_path, "c.json", config)]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(str(csv_path))


def test_extend_rejects_ambiguous_initial_data(tmp_path):
    config = extend_config(tmp_path / "out")
    config["h"] = {"h0_multiple": 0.8}
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert "exactly one" in err["error"]["message"]


def test_extend_h_csv_with_a_zero_names_h(tmp_path):
    surface = geometry.build_surface(
        SurfaceSpec(shape=Sphere(radius=1.0), n_theta=16)
    )
    h = np.full(16, 2.0)
    h[5] = 0.0
    csv_path = tmp_path / "h.csv"
    csv_path.write_text(
        "theta,h\n"
        + "\n".join(f"{t:.17g},{v:.17g}" for t, v in zip(surface.theta, h))
        + "\n"
    )
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 16},
        "h": {"csv": str(csv_path)},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith("h ")
    assert "u0" not in err["error"]["message"]


def test_extend_nonpositive_expression_is_an_error(tmp_path):
    config = extend_config(tmp_path / "out", u0="cos(theta)")
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "NonPositiveOnGridError"


def test_unknown_surface_kind(tmp_path):
    config = {
        "surface": {"kind": "torus", "radius": 1.0},
        "u0": {"expression": "2"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert "torus" in err["error"]["message"]


# ---------------------------------------------------------------------------
# mu0


def test_mu0_constant_curvature(tmp_path, capsys):
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 32},
        "solver": {"r_max": 300.0},
        "h": {"expression": "4"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["mu0", "--config", cfg]) == 0
    payload = read_json(tmp_path / "out" / "mu0.json")
    assert payload["mu0"] == pytest.approx(0.5, abs=1e-4)
    assert payload["is_euclidean_case"] is True
    assert payload["bracket"][0] <= 0.5 <= payload["bracket"][1]
    # H = 2 H0: quasi-local masses are (1/2)(1 - 4) = -3/2 on both rails.
    assert payload["quasilocal_m1"] == pytest.approx(-1.5, abs=1e-3)
    assert payload["quasilocal_m2"] == pytest.approx(-1.5, abs=2e-3)
    assert payload["lambda0_upper_bound"] == payload["bracket"][1]
    assert "mu0 = " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# certify


def test_certify_checks_h_hat_before_the_mu0_search(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("solve_mu0 ran before h_hat was checked")

    monkeypatch.setattr(bartnik, "solve_mu0", no_search)
    config = certify_config(tmp_path / "out")
    config["h_hat"] = {"expression": "cos(theta)"}
    assert cli.main(["certify", "--config", write_config(tmp_path, "c.json", config)]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "NonPositiveOnGridError"


def certify_config(out, h_expr="2*(1+0.3*cos(theta))", mu0_multiple=1.1):
    return {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 32},
        "solver": {"r_max": 300.0},
        "h": {"expression": h_expr},
        "h_hat": {"mu0_multiple": mu0_multiple},
        "margin": 0.02,
        "output_dir": str(out),
    }


@pytest.mark.parametrize(
    "h_hat, named",
    [
        ({"mu0_multiple": 1.1, "expression": "0.1"}, "exactly one"),
        ({"mu0_multiple": -1}, "'h_hat.mu0_multiple'"),
        ({"mu0_multiple": 0}, "'h_hat.mu0_multiple'"),
        ({"mu0_multiple": "x"}, "'x'"),
        ({"expression": 2}, "'h_hat.expression'"),
    ],
)
def test_certify_rejects_a_malformed_h_hat_before_any_march(
    tmp_path, marches, h_hat, named
):
    config = certify_config(tmp_path / "out")
    config["h_hat"] = h_hat
    assert cli.main(["certify", "--config", write_config(tmp_path, "c.json", config)]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert named in err["error"]["message"]
    if list(h_hat) == ["mu0_multiple"]:
        assert "'h_hat.mu0_multiple'" in err["error"]["message"]
    assert marches == []


@pytest.mark.parametrize(
    "command, override, named",
    [
        ("extend", "solver.r_max=NaN", "r_max"),
        ("extend", "solver.output_stride=NaN", "output_stride"),
        ("extend", "solver.output_r0=Infinity", "output_r0"),
        ("extend", "mass_tol=NaN", "'mass_tol'"),
        ("extend", "mass_tol=abc", "'mass_tol'"),
        ("extend", "u0.expression=2", "'u0.expression'"),
        ("mu0", "mu_tol=NaN", "'mu_tol'"),
        ("mu0", "mass_tol=0", "'mass_tol'"),
        ("certify", "margin=NaN", "'margin'"),
        ("certify", "mu_tol=Infinity", "'mu_tol'"),
    ],
)
def test_numbers_that_are_not_finite_and_positive_fail_before_any_march(
    tmp_path, marches, command, override, named
):
    make = extend_config if command == "extend" else certify_config
    cfg = write_config(tmp_path, "c.json", make(tmp_path / "out"))
    assert cli.main([command, "--config", cfg, "--set", override]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert named in err["error"]["message"]
    assert marches == []


@pytest.mark.parametrize(
    "command, override, named",
    [
        ("extend", "surface.ntheta=17", "'ntheta'"),
        ("extend", "mas_tol=1e-3", "'mas_tol'"),
        ("certify", "h_hats.mu0_multiple=1.1", "'h_hats'"),
    ],
)
def test_misspelt_config_keys_fail_before_any_march(
    tmp_path, marches, command, override, named
):
    make = extend_config if command == "extend" else certify_config
    cfg = write_config(tmp_path, "c.json", make(tmp_path / "out"))
    assert cli.main([command, "--config", cfg, "--set", override]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "ValueError"
    assert named in err["error"]["message"]
    assert marches == []


def test_certify_reports_a_probe_whose_rails_straddle_zero(
    tmp_path, marches, monkeypatch
):
    def straddling(data, mu, config, mass_tol):
        return mass.MassEstimate(
            value=1e-3, bracket_lo=-1e-2, bracket_hi=1e-2, residual=0.0, r_final=300.0
        )

    monkeypatch.setattr(bartnik, "_probe_mass", straddling)
    cfg = write_config(tmp_path, "c.json", certify_config(tmp_path / "out"))
    assert cli.main(["certify", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert err["error"]["type"] == "NotConvergedError"
    assert "increase r_max" in err["error"]["message"]
    assert not (tmp_path / "out" / "certificate.json").exists()
    assert marches == []


def test_certify_pairs_an_azimuthal_h_hat_with_axisymmetric_h(tmp_path):
    config = certify_config(tmp_path / "out")
    config["h_hat"] = {"expression": "3 + 0.01*cos(phi)"}
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["certify", "--config", cfg]) == 0
    payload = read_json(tmp_path / "out" / "certificate.json")
    assert payload["granted"] is True
    # The smallest h_hat / H: phi = pi (node 8 of 16) over the largest H.
    h_max = 2.0 * (1.0 + 0.3 * np.cos(np.pi / 64))
    assert payload["ratio_min"] == pytest.approx(2.99 / h_max, rel=1e-12)


def test_certify_grants_above_critical(tmp_path):
    cfg = write_config(tmp_path, "c.json", certify_config(tmp_path / "out"))
    assert cli.main(["certify", "--config", cfg]) == 0
    payload = read_json(tmp_path / "out" / "certificate.json")
    assert payload["granted"] is True
    assert payload["exceptional_case"] is False
    assert payload["margin_measured"] > payload["margin_required"]
    assert payload["mu0_detail"]["iterations"] >= 3


def test_certify_inconclusive_below_critical(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", certify_config(tmp_path / "out", mu0_multiple=0.9)
    )
    assert cli.main(["certify", "--config", cfg]) == 2
    payload = read_json(tmp_path / "out" / "certificate.json")
    assert payload["granted"] is False
    assert payload["exceptional_case"] is False


def test_certify_exceptional_euclidean_data(tmp_path, capsys):
    config = certify_config(tmp_path / "out", mu0_multiple=1.0)
    config["h"] = {"h0_multiple": 1.0}
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["certify", "--config", cfg]) == 2
    payload = read_json(tmp_path / "out" / "certificate.json")
    assert payload["granted"] is False
    assert payload["exceptional_case"] is True
    assert "exceptional" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify


def test_verify_subcommand(tmp_path, capsys):
    config = {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 32},
        "checks": ["divergence_theorem", "round_sphere_exactness", "fixed_point"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["verify", "--config", cfg]) == 0
    payload = read_json(tmp_path / "out" / "verify.json")
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == config["checks"]
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


# ---------------------------------------------------------------------------
# sweep


def test_sweep_runs_entries_and_summarizes(tmp_path):
    config = extend_config(tmp_path / "out", n_theta=32, r_max=100.0)
    config["command"] = "extend"
    config["sweep"] = [
        {"u0": {"expression": "1.2"}},
        {"u0": {"expression": "1.5"}},
    ]
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 0
    summary = read_json(tmp_path / "out" / "sweep.json")
    assert [e["exit_code"] for e in summary["entries"]] == [0, 0]
    m_12 = read_json(tmp_path / "out" / "000" / "estimate.json")["value"]
    m_15 = read_json(tmp_path / "out" / "001" / "estimate.json")["value"]
    assert m_12 == pytest.approx(0.5 * (1.0 - 1.2**-2), abs=2e-3)
    assert m_15 == pytest.approx(0.5 * (1.0 - 1.5**-2), abs=2e-3)
    assert m_12 < m_15


def test_sweep_isolates_entry_failures(tmp_path):
    config = extend_config(tmp_path / "out", n_theta=32, r_max=100.0)
    config["command"] = "extend"
    config["sweep"] = [
        {"u0": {"expression": "1.2"}},
        {"u0": {"expression": "cos(theta)"}},  # not positive: fails
    ]
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 1
    summary = read_json(tmp_path / "out" / "sweep.json")
    assert [e["exit_code"] for e in summary["entries"]] == [0, 1]
    assert (tmp_path / "out" / "000" / "estimate.json").exists()
    assert (tmp_path / "out" / "001" / "error.json").exists()


def test_sweep_isolates_malformed_entries(tmp_path):
    config = extend_config(tmp_path / "out", n_theta=32, r_max=100.0)
    config["command"] = "extend"
    config["sweep"] = [
        {"u0": {"expression": "1.2"}},
        {"surface": {"kind": "spheroid", "equatorial_radius": 1.0}},
    ]
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 1
    summary = read_json(tmp_path / "out" / "sweep.json")
    assert [e["exit_code"] for e in summary["entries"]] == [0, 1]
    err = read_json(tmp_path / "out" / "001" / "error.json")
    assert "'polar_radius'" in err["error"]["message"]


def test_sweep_isolates_entries_with_values_of_the_wrong_type(tmp_path):
    config = extend_config(tmp_path / "out", n_theta=32, r_max=100.0)
    config["command"] = "extend"
    config["sweep"] = [{"u0": {"expression": "1.2"}}, {"surface": {"radius": [1]}}]
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 1
    summary = read_json(tmp_path / "out" / "sweep.json")
    assert [e["exit_code"] for e in summary["entries"]] == [0, 1]
    err = read_json(tmp_path / "out" / "001" / "error.json")
    assert err["error"]["type"] == "TypeError"


def test_sweep_parallel_jobs_match_serial(tmp_path):
    base = extend_config(tmp_path / "serial", n_theta=32, r_max=100.0)
    base["command"] = "extend"
    base["sweep"] = [{"u0": {"expression": e}} for e in ("1.1", "1.3")]
    cfg = write_config(tmp_path, "serial.json", base)
    assert cli.main(["sweep", "--config", cfg]) == 0

    base2 = dict(base)
    base2["output_dir"] = str(tmp_path / "par")
    cfg2 = write_config(tmp_path, "par.json", base2)
    assert cli.main(["sweep", "--config", cfg2, "--jobs", "2"]) == 0

    for idx in ("000", "001"):
        a = read_json(tmp_path / "serial" / idx / "estimate.json")
        b = read_json(tmp_path / "par" / idx / "estimate.json")
        assert a["value"] == b["value"]
        assert a["bracket_lo"] == b["bracket_lo"]


def test_sweep_rejects_a_misspelt_entry_key_before_its_march(tmp_path, marches):
    config = extend_config(tmp_path / "out", n_theta=32, r_max=100.0)
    config["command"] = "extend"
    config["sweep"] = [
        {"mas_tol": 1e-3},
        # Keys of another surface kind are fine; the data then fails.
        {
            "surface": {"kind": "spheroid", "equatorial_radius": 1.0, "polar_radius": 1.2},
            "u0": {"expression": "cos(theta)"},
        },
    ]
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 1
    summary = read_json(tmp_path / "out" / "sweep.json")
    assert [e["exit_code"] for e in summary["entries"]] == [1, 1]
    err = read_json(tmp_path / "out" / "000" / "error.json")
    assert "'mas_tol'" in err["error"]["message"]
    err = read_json(tmp_path / "out" / "001" / "error.json")
    assert err["error"]["type"] == "NonPositiveOnGridError"
    assert marches == []


def test_sweep_validation(tmp_path):
    config = {"command": "extend", "sweep": [], "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["sweep", "--config", cfg]) == 1
    config2 = {
        "command": "reticulate",
        "sweep": [{}],
        "output_dir": str(tmp_path / "out2"),
    }
    cfg2 = write_config(tmp_path, "c2.json", config2)
    assert cli.main(["sweep", "--config", cfg2]) == 1


# ---------------------------------------------------------------------------
# config plumbing


def test_set_parses_json_values():
    config = cli.load_config(None, ["a.b=1.5", "a.flag=true", "name=plain-text"])
    assert config == {"a": {"b": 1.5, "flag": True}, "name": "plain-text"}


def test_set_requires_key_value():
    with pytest.raises(ValueError):
        cli.load_config(None, ["just-a-key"])


def test_unknown_solver_option_is_an_error(tmp_path):
    config = extend_config(tmp_path / "out")
    config["solver"]["warp_factor"] = 9
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main(["extend", "--config", cfg]) == 1
    err = read_json(tmp_path / "out" / "error.json")
    assert "warp_factor" in err["error"]["message"]


def test_python_m_runs_the_cli():
    src = Path(quasispherical.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "quasispherical", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "certify" in proc.stdout


def test_cli_import_loads_neither_the_oracle_nor_scipy_integrate():
    src = Path(quasispherical.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, quasispherical.cli; "
        "print([m for m in ('scipy.integrate', 'quasispherical.oracle') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
