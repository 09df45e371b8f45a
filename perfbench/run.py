"""Run one benchmark workload in one process and print its metrics.

    python3 perfbench/run.py --workload extend --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src``.  The workload's solve is repeated until ``--seconds`` have passed,
at least twice; with ``--trace 1`` at least once, and then once more under
the tracer.  Every repetition is checked against references computed by
the benchmark, and all repetitions must return bit-identical results.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Program output goes to standard
error.  CLI output files go to a temporary directory under
``.perfbench-out/``, which also receives the trace's spans.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("extend", "certify", "azimuthal")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def trace_targets(recorder_cls):
    from quasispherical import bartnik, cli, evolution, geometry, mass

    # Each function is wrapped at the name its callers look up.  The
    # benchmark's own observer is a span too, so that its time (the speed
    # kernel) is not counted in the self time of evolve.
    return [
        (recorder_cls, "observe", "benchmark.observer"),
        (geometry, "build_surface", "geometry.build_surface"),
        (geometry, "frame_at", "geometry.frame_at"),
        (geometry, "laplacian", "geometry.laplacian"),
        (mass, "evolve", "evolution.evolve"),
        (evolution, "step", "evolution.step"),
        (evolution, "select_step", "evolution.select_step"),
        (evolution, "solve_cyclic_tridiagonal", "evolution.solve_cyclic_tridiagonal"),
        (mass, "compute_mass_series", "mass.compute_mass_series"),
        (mass, "mass_at", "mass.mass_at"),
        (mass, "mass_lower_at", "mass.mass_lower_at"),
        (mass, "estimate_mass", "mass.estimate_mass"),
        (bartnik, "solve_mu0", "bartnik.solve_mu0"),
        (bartnik, "certify_no_fill_in", "bartnik.certify_no_fill_in"),
        (cli, "main", "cli.main"),
    ]


def per_layer_metrics(table, traced_s, emissions, solve_s, steps) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in (
        "geometry.build_surface",
        "geometry.frame_at",
        "geometry.laplacian",
        "evolution.evolve",
        "evolution.step",
        "evolution.select_step",
        "evolution.solve_cyclic_tridiagonal",
        "mass.estimate_mass",
    ):
        put(f"{name}.calls", table.calls(name), "count")
        put(f"{name}.self_s", table.self_s(name), "s")
    put("evolution.step.retries",
        table.calls("evolution.step") - table.returns("evolution.step"), "count")
    put("evolution.us_per_step", 1e6 * solve_s / steps, "us")
    put("mass.emissions", emissions, "count")
    for name in ("mass.mass_at", "mass.mass_lower_at", "bartnik.solve_mu0",
                 "bartnik.certify_no_fill_in", "cli.main"):
        put(f"{name}.self_s", table.self_s(name), "s")
    put("bartnik.solve_mu0.probes", table.calls("mass.compute_mass_series"), "count")
    put("trace.overhead_s", traced_s - solve_s, "s")
    return out


def run(args) -> int:
    if not (ROOT / "src" / "quasispherical" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads
    from timing import Recorder, Repetition, fastest_segments_s
    from tracer import SpanTable, Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        params = workloads.params_for_seed(args.seed)
        workload = workloads.WORKLOADS[args.workload](params, workdir)
        workload.prepare()

        first_solve = time.perf_counter()
        setup_s = first_solve - _START
        min_reps = 1 if args.trace else 2
        reps = []
        while len(reps) < min_reps or time.perf_counter() - first_solve < args.seconds:
            reps.append(Repetition(workload))

        traced = None
        if args.trace:
            with Tracer(trace_targets(Recorder)) as tracer:
                workload.prepare()
                traced = Repetition(workload)
            spans = tracer.spans()
            np.savez_compressed(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz",
                                names=np.array(tracer.names), **spans)
            reps.append(traced)

        problems = []
        ok_reps = [rep for rep in reps if rep.outputs is not None and rep.failed == 0]
        for rep in ok_reps:
            problems += workload.check(rep.outputs, rep.recorder)
            for index, march in enumerate(rep.recorder.marches):
                if march.observer_calls != march.series_len:
                    problems.append(f"march {index}: {march.observer_calls} observer "
                                    f"calls for a series of {march.series_len}")
        if len({workload.fingerprint(rep.outputs) for rep in ok_reps}) > 1:
            problems.append("repetitions returned different results")
        step_counts = {sum(m.steps for m in rep.recorder.marches) for rep in ok_reps}
        if len(step_counts) > 1 or len({len(rep.segments_s) for rep in ok_reps}) > 1:
            problems.append("repetitions differ in steps or emissions")

        timed = [rep for rep in ok_reps if rep is not traced]
        metrics = {}
        if not timed:
            problems.append("no repetition completed")
        else:
            steps = min(step_counts)
            solve_s = fastest_segments_s(timed)
            print(f"{len(timed)} repetitions: solve_s {solve_s:.4f} s; unscaled "
                  f"{fastest_segments_s(timed, scaled=False):.4f} s", file=sys.stderr)
        if timed and not args.trace:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "solve_s": {"value": solve_s, "unit": "s"},
                "march_steps": {"value": steps, "unit": "steps"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        elif timed and traced in ok_reps:
            table = SpanTable(tracer.names, spans, traced.scale_at(spans["start"]))
            accepted = table.returns("evolution.step")
            if accepted != steps:
                problems.append(f"{accepted} accepted step spans, {steps} steps reported")
            probes = table.calls_under("mass.compute_mass_series", "bartnik.solve_mu0")
            iterations = workload.mu0_iterations(traced.outputs)
            if probes != iterations:
                problems.append(f"{probes} marches under solve_mu0, {iterations} reported")
            metrics = per_layer_metrics(
                table, float(np.sum(traced.scaled_s)), len(traced.recorder.stamps),
                solve_s, steps,
            )
        elif args.trace:
            problems.append("the traced repetition failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": workload.ops_per_solve * len(reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
