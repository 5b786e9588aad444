"""Command-line interface: generate | run | analyze.

Runs are configured by a flat JSON manifest plus flag overrides (flags win),
so checked-in manifests reproduce results exactly. All floating output uses
17 significant digits for lossless round trips; ``analyze`` re-derives the
summary of a finished run from its artifacts alone.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import SapflowError
from . import diagnostics, flow, geometry, mesh as meshmod


MANIFEST_DEFAULTS = {
    "mesh": None,
    "generator": None,
    "radius": 1.0,
    "axes": [1.0, 1.0, 1.0],
    "subdivisions": 3,
    "amplitude": 0.0,
    "bump": "harmonic",  # "harmonic" | "dent"
    "harmonic": [2, 0],
    "width": 0.3,
    "direction": [0.0, 0.0, 1.0],
    "stepping": "explicit",
    "cfl_safety": 0.5,
    "dt_max": 0.05,
    "area_projection": True,
    "t_max": 10.0,
    "roundness_tol": 1e-6,
    "blowup_max_A": None,
    "snapshot_every": 1,
    "output_dir": "sapflow_out",
    "mesh_cadence": 1,
}


def load_manifest(path=None, overrides=None):
    manifest = dict(MANIFEST_DEFAULTS)
    if path is not None:
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
        unknown = set(data) - set(MANIFEST_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        manifest.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            manifest[key] = value
    if (manifest["mesh"] is None) == (manifest["generator"] is None):
        raise ValueError("exactly one of 'mesh' and 'generator' must be set")
    return manifest


def _bump_from(manifest):
    if manifest["bump"] == "dent":
        return meshmod.GaussianDentBump(
            direction=tuple(manifest["direction"]), width=manifest["width"]
        )
    l, m = manifest["harmonic"]
    return meshmod.SphericalHarmonicBump(int(l), int(m))


def build_input_mesh(manifest):
    if manifest["mesh"] is not None:
        return meshmod.load_mesh(manifest["mesh"])
    kind = manifest["generator"]
    sub = int(manifest["subdivisions"])
    if kind == "icosphere":
        return meshmod.gen_icosphere(manifest["radius"], (0.0, 0.0, 0.0), sub)
    if kind == "ellipsoid":
        a, b, c = manifest["axes"]
        return meshmod.gen_ellipsoid(a, b, c, sub)
    if kind == "perturbed":
        return meshmod.gen_perturbed_sphere(
            manifest["radius"], manifest["amplitude"], _bump_from(manifest), sub
        )
    raise ValueError(f"unknown generator {kind!r}")


def flow_config(manifest):
    return flow.FlowConfig(
        stepping=manifest["stepping"],
        cfl_safety=manifest["cfl_safety"],
        dt_max=manifest["dt_max"],
        area_projection=manifest["area_projection"],
        t_max=manifest["t_max"],
        roundness_tol=manifest["roundness_tol"],
        blowup_max_A=manifest["blowup_max_A"],
        snapshot_every=int(manifest["snapshot_every"]),
    )


# -- subcommands --------------------------------------------------------------


def cmd_generate(args):
    manifest = {
        **MANIFEST_DEFAULTS,
        "generator": args.shape,
        "radius": args.radius,
        "subdivisions": args.subdiv,
        "amplitude": args.amplitude,
        "bump": "dent" if args.dent else "harmonic",
        "width": args.width,
    }
    if args.axes:
        manifest["axes"] = [float(x) for x in args.axes.split(",")]
    if args.harmonic:
        manifest["harmonic"] = [int(x) for x in args.harmonic.split(",")]
    if args.direction:
        manifest["direction"] = [float(x) for x in args.direction.split(",")]
    out_mesh = build_input_mesh(manifest)
    meshmod.save_mesh(out_mesh, args.output)
    if args.shape == "perturbed":
        H = geometry.compute_cache(out_mesh).mean_curvature
        print(f"min discrete H = {H.min():.6g}", file=sys.stderr)
    print(args.output)
    return 0


def cmd_run(args):
    overrides = {
        "mesh": args.mesh,
        "generator": args.generator,
        "output_dir": args.output_dir,
        "stepping": args.stepping,
        "cfl_safety": args.cfl_safety,
        "dt_max": args.dt_max,
        "t_max": args.t_max,
        "roundness_tol": args.roundness_tol,
        "snapshot_every": args.snapshot_every,
        "mesh_cadence": args.mesh_cadence,
        "subdivisions": args.subdiv,
        "blowup_max_A": args.blowup_max_a,
    }
    if args.axes:
        overrides["axes"] = [float(x) for x in args.axes.split(",")]
    if args.projection is not None:
        overrides["area_projection"] = args.projection
    manifest = load_manifest(args.manifest, overrides)
    input_mesh = build_input_mesh(manifest)
    config = flow_config(manifest)

    result = flow.run_flow(input_mesh, config, keep_meshes=True)
    series = result.series
    series.metadata["manifest"] = manifest

    outdir = manifest["output_dir"]
    os.makedirs(os.path.join(outdir, "meshes"), exist_ok=True)
    series.to_csv(os.path.join(outdir, "series.csv"))

    cadence = max(int(manifest["mesh_cadence"]), 1)
    mesh_rows = list(range(0, len(series), cadence))
    last = len(series) - 1
    if mesh_rows[-1] != last:
        mesh_rows.append(last)
    ext = "csv" if input_mesh.mode == "curve" else "off"
    for row in mesh_rows:
        meshmod.save_mesh(
            result.snapshot_meshes[row],
            os.path.join(outdir, "meshes", f"step_{row:06d}.{ext}"),
        )
    meshmod.save_mesh(
        result.snapshot_meshes[last], os.path.join(outdir, "meshes", f"final.{ext}")
    )

    summary = diagnostics.make_summary(
        series,
        [result.snapshot_meshes[r] for r in mesh_rows],
        termination=str(result.termination),
        rows=mesh_rows,
    )
    diagnostics.write_summary(summary, os.path.join(outdir, "summary.json"))
    with open(os.path.join(outdir, "run_meta.json"), "w", encoding="ascii") as fh:
        json.dump(
            {"termination": str(result.termination), "metadata": series.metadata},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(json.dumps(summary["max_residuals"]))
    print(f"termination: {result.termination}")
    return 0 if result.termination.kind in ("converged", "time_limit") else 2


def cmd_analyze(args):
    rundir = os.path.dirname(os.path.abspath(args.series))
    meta = {}
    meta_path = os.path.join(rundir, "run_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="ascii") as fh:
            meta = json.load(fh)
    series = diagnostics.TimeSeries.from_csv(args.series, meta.get("metadata"))
    mesh_dir = os.path.join(rundir, "meshes")
    mesh_rows, meshes = [], []
    if os.path.isdir(mesh_dir):
        for name in sorted(os.listdir(mesh_dir)):
            if name.startswith("step_") and name.endswith((".off", ".csv")):
                row = int(name[5:-4])
                if row < len(series):
                    mesh_rows.append(row)
                    meshes.append(meshmod.load_mesh(os.path.join(mesh_dir, name)))
    if "metadata" not in meta and meshes:
        # without run_meta.json the snapshots tell the mode (step_*.csv: curve)
        series.metadata["mode"] = meshes[0].mode
    summary = diagnostics.make_summary(
        series, meshes, termination=meta.get("termination"), rows=mesh_rows
    )
    out = args.output or os.path.join(rundir, "summary.json")
    diagnostics.write_summary(summary, out)
    print(out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sapflow",
        description="Surface-area-preserving curvature flow simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a generator mesh to OFF/OBJ")
    g.add_argument("shape", choices=["icosphere", "ellipsoid", "perturbed"])
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--subdiv", type=int, default=3)
    g.add_argument("--axes", help="a,b,c semi-axes (ellipsoid)")
    g.add_argument("--amplitude", type=float, default=0.0)
    g.add_argument("--dent", action="store_true", help="Gaussian dent bump")
    g.add_argument("--width", type=float, default=0.3, help="dent width (radians)")
    g.add_argument("--direction", help="x,y,z dent direction")
    g.add_argument("--harmonic", help="l,m spherical harmonic bump")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="evolve a mesh and write run artifacts")
    r.add_argument("--manifest", help="JSON manifest; flags override its keys")
    r.add_argument("--mesh", help="input mesh file (OFF/OBJ/CSV)")
    r.add_argument("--generator", choices=["icosphere", "ellipsoid", "perturbed"])
    r.add_argument("--axes")
    r.add_argument("--subdiv", type=int)
    r.add_argument("--stepping", choices=["explicit", "semi-implicit"])
    r.add_argument("--cfl-safety", type=float, dest="cfl_safety")
    r.add_argument("--dt-max", type=float, dest="dt_max")
    r.add_argument("--t-max", type=float, dest="t_max")
    r.add_argument("--roundness-tol", type=float, dest="roundness_tol")
    r.add_argument("--blowup-max-a", type=float, dest="blowup_max_a")
    r.add_argument("--snapshot-every", type=int, dest="snapshot_every")
    r.add_argument("--mesh-cadence", type=int, dest="mesh_cadence")
    r.add_argument("--projection", dest="projection", action="store_true", default=None)
    r.add_argument("--no-projection", dest="projection", action="store_false")
    r.add_argument("-o", "--output-dir", dest="output_dir")
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("analyze", help="recompute the summary from run artifacts")
    a.add_argument("series", help="path to series.csv")
    a.add_argument("-o", "--output", help="summary path (default: sibling summary.json)")
    a.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SapflowError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
