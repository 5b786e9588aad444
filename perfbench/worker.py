"""One repetition of a benchmark workload, in a fresh process.

Usage (run.py starts it; PYTHONPATH must name the checkout's ``src``):

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|traced
        --out RESULT.json --workdir DIR [--smoke]

``setup`` only imports sapflow and builds and validates the input; ``run``
also runs the workload untraced and checks its outputs; ``traced`` does the
same with every layer wrapped and writes the spans next to the result.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy and sapflow load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sapflow  # noqa: E402
from sapflow import cli, diagnostics, mesh as meshmod  # noqa: E402

from workloads import (  # noqa: E402
    DENT_AMPLITUDE,
    DENT_WIDTH,
    ELLIPSOID_AXES,
    SMOKE_SUBDIVISIONS,
    SMOKE_T_MAX,
    WORKLOADS,
)

# -- seeded inputs --------------------------------------------------------------


def dent_direction(seed):
    """+z for seed 0, otherwise a uniformly random unit vector."""
    if seed == 0:
        return (0.0, 0.0, 1.0)
    v = np.random.default_rng(seed).normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def rotation(seed):
    """Identity for seed 0, otherwise a uniformly random proper rotation."""
    if seed == 0:
        return np.eye(3)
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def build_input(spec, seed, subdivisions):
    if spec.shape == "ellipsoid":
        base = meshmod.gen_ellipsoid(*ELLIPSOID_AXES, subdivisions)
        return meshmod.TriMesh(base.vertices @ rotation(seed).T, base.faces)
    bump = meshmod.GaussianDentBump(direction=dent_direction(seed), width=DENT_WIDTH)
    return meshmod.gen_perturbed_sphere(1.0, DENT_AMPLITUDE, bump, subdivisions)


# -- correctness gate -------------------------------------------------------------


def check_outputs(series, termination, final_mesh):
    """Failure reasons (empty when correct) and the accuracy figures.

    The limits mirror tests/test_acceptance.py and compare with tolerances,
    so a reordering that moves the last bits of the series still passes.
    """
    failures = []
    area = np.array([r.area for r in series.records])
    vol = np.array([r.volume for r in series.records])
    a0 = area[0]
    target = math.sqrt(a0 / (4.0 * math.pi))
    fit = diagnostics.best_fit_sphere(final_mesh)
    drift = float(np.abs(area - a0).max() / a0)
    radius_err = abs(fit.radius - target) / target
    last = series.records[-1]
    if termination != "converged":
        failures.append(f"termination is {termination}, not converged")
    if drift > 1e-12:
        failures.append(f"area drift {drift:.3e} > 1e-12")
    if len(vol) > 1 and float((np.diff(vol) / vol[:-1]).min()) < -1e-8:
        failures.append("relative volume change per snapshot < -1e-8")
    if fit.rms_residual > 0.005 * fit.radius:
        failures.append(f"best-fit rms/r {fit.rms_residual / fit.radius:.3e} > 0.5%")
    if radius_err > 0.01:
        failures.append(f"radius error {radius_err:.3e} > 1%")
    if not last.min_H > 0:
        failures.append(f"final min_H {last.min_H:.3e} <= 0")
    if not last.diameter_est >= math.pi * target:
        failures.append(f"final diameter_est {last.diameter_est:.6f} < pi R")
    return failures, {"area_drift_rel": drift, "radius_err_rel": radius_err}


def same_summary(a, b, rel=1e-12):
    """Equal JSON summaries, floats equal to a relative tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_summary(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_summary(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel)
    return a == b


# -- the workloads ----------------------------------------------------------------


def span(tracer, name):
    """A root span of the traced run; nothing when untraced."""
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_library(mesh, config, tracer):
    """sapflow.run_flow to termination (timed), then the in-process summary."""
    c0, t0 = time.process_time(), time.perf_counter()
    with span(tracer, "bench.wall"):
        result = sapflow.run_flow(mesh, config, keep_meshes=False)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    termination = str(result.termination)
    with span(tracer, "bench.post"):
        diagnostics.make_summary(result.series, termination=termination)
        diagnostics.best_fit_sphere(result.final_state.mesh)
    if tracer:
        tracer.active = False
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "series": result.series,
        "termination": termination,
        "final_mesh": result.final_state.mesh,
        "steps": result.final_state.step_index,
        "series_bytes": diagnostics.series_to_csv_bytes(result.series),
        "failures": [],
    }


def run_cli(seed, subdivisions, config, workdir, tracer):
    """``sapflow run --manifest`` into workdir, then ``sapflow analyze``."""
    outdir = os.path.join(workdir, "run")
    manifest = dict(
        generator="perturbed",
        radius=1.0,
        amplitude=DENT_AMPLITUDE,
        bump="dent",
        width=DENT_WIDTH,
        direction=list(dent_direction(seed)),
        subdivisions=subdivisions,
        output_dir=outdir,
        **config,
    )
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    series_path = os.path.join(outdir, "series.csv")
    analyzed_path = os.path.join(workdir, "summary_analyzed.json")
    sink = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with span(tracer, "bench.wall"):
        with contextlib.redirect_stdout(sink):
            rc_run = cli.main(["run", "--manifest", manifest_path])
            t1 = time.perf_counter()
            rc_analyze = cli.main(["analyze", series_path, "-o", analyzed_path])
    t2, cpu = time.perf_counter(), time.process_time() - c0
    if tracer:
        tracer.active = False
    failures = []
    if rc_run != 0 or rc_analyze != 0:
        failures.append(f"exit codes run={rc_run} analyze={rc_analyze}")
        return {"wall_s": t2 - t0, "cpu_s": cpu, "failures": failures}
    with open(os.path.join(outdir, "summary.json"), encoding="ascii") as fh:
        run_summary = json.load(fh)
    with open(analyzed_path, encoding="ascii") as fh:
        analyzed = json.load(fh)
    if not same_summary(run_summary, analyzed):
        failures.append("re-analysed summary differs from the one run wrote")
    with open(series_path, "rb") as fh:
        series_bytes = fh.read()
    series = diagnostics.TimeSeries.from_csv(io.StringIO(series_bytes.decode("ascii")))
    return {
        "wall_s": t2 - t0,
        "cpu_s": cpu,
        "analyze_s": t2 - t1,
        "series": series,
        "termination": run_summary["termination"],
        "final_mesh": meshmod.load_mesh(os.path.join(outdir, "meshes", "final.off")),
        "steps": len(series) - 1,  # one row per step: snapshot_every is 1
        "series_bytes": series_bytes,
        "failures": failures,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "run", "traced"])
    p.add_argument("--out", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    spec = WORKLOADS[args.workload]
    subdivisions = SMOKE_SUBDIVISIONS if args.smoke else spec.subdivisions
    config = dict(spec.config, **({"t_max": SMOKE_T_MAX} if args.smoke else {}))

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}/seed{args.seed}/{os.getpid()}")
        tracer.install()
        tracer.active = True
    with span(tracer, "bench.setup"):
        mesh = build_input(spec, args.seed, subdivisions)
        report = meshmod.validate(mesh)
    setup_s = time.perf_counter() - _T0
    out = {
        "setup_s": setup_s,
        "sapflow_file": sapflow.__file__,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if not (report.is_closed and report.is_oriented):
        out["failures"] = ["input mesh is not closed and oriented"]
    elif args.mode != "setup":
        try:
            if spec.kind == "library":
                res = run_library(mesh, sapflow.FlowConfig(**config), tracer)
            else:
                res = run_cli(args.seed, subdivisions, config, args.workdir, tracer)
        except Exception as exc:  # a run that raised counts as failed, not as a crash
            traceback.print_exc()
            res = {"wall_s": None, "cpu_s": None,
                   "failures": [f"raised {type(exc).__name__}: {exc}"]}
        if tracer:
            tracer.active = False
            tracer.write(args.out[: -len(".json")] + "-spans.json")
        failures = res["failures"]
        out.update(wall_s=res["wall_s"], cpu_s=res["cpu_s"], failures=failures)
        if "analyze_s" in res:
            out["analyze_s"] = res["analyze_s"]
        if "series" in res:
            gate_failures, accuracy = check_outputs(
                res["series"], res["termination"], res["final_mesh"]
            )
            failures.extend(gate_failures)
            steps = res["steps"]
            out.update(
                accuracy,
                steps=steps,
                rows=len(res["series"]),
                series_sha256=hashlib.sha256(res["series_bytes"]).hexdigest(),
            )
            if tracer:
                out["layers"] = tracer.layer_metrics(steps)
                out["interception_failures"] = tracer.interception_failures(
                    steps,
                    semi_implicit=config["stepping"] == "semi-implicit",
                    rows=len(res["series"]),
                    cli=spec.kind == "cli",
                    traced_wall=res["wall_s"],
                )
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
