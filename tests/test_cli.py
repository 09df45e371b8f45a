"""Command-line interface: subcommands, config handling, deterministic
outputs, exit codes, and machine-readable errors.

Everything drives cli.main() in process with tmp_path output directories;
exit code 0 is success, 2 an inconclusive certificate, 1 an error.
"""

import json

import numpy as np
import pytest

from quasispherical import cli, geometry
from quasispherical.geometry import Sphere, SurfaceSpec


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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


def certify_config(out, h_expr="2*(1+0.3*cos(theta))", mu0_multiple=1.1):
    return {
        "surface": {"kind": "sphere", "radius": 1.0, "n_theta": 32},
        "solver": {"r_max": 300.0},
        "h": {"expression": h_expr},
        "h_hat": {"mu0_multiple": mu0_multiple},
        "margin": 0.02,
        "output_dir": str(out),
    }


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
