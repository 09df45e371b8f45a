"""The names the benchmark under perfbench/ pins: its tracer wraps package
functions by name and its workloads call them in fixed forms.  The
benchmark files are loaded by path and nothing is marched."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from quasispherical import mass
from quasispherical.evolution import Scheme, SolverConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    # workloads.py imports timing.py as a top-level module; no bytecode is
    # written next to the benchmark's files.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return load("run"), load("workloads")


def test_trace_targets_exist_and_are_callable(perfbench):
    run, workloads = perfbench
    targets = run.trace_targets(workloads.Recorder)
    assert targets
    for owner, attribute, label in targets:
        assert callable(getattr(owner, attribute, None)), label


def test_workload_call_forms_still_bind(perfbench):
    _, workloads = perfbench
    assert workloads.Scheme.THETA_EXPLICIT_PHI_IMPLICIT is Scheme.THETA_EXPLICIT_PHI_IMPLICIT
    inspect.signature(mass.compute_mass_series).bind(
        "surface", "u0", "config", observer="observer"
    )
    inspect.signature(mass.estimate_mass).bind("series", tol=1e-3)
    inspect.signature(SolverConfig).bind(
        r_max=100.0, scheme=Scheme.THETA_EXPLICIT_PHI_IMPLICIT
    )
