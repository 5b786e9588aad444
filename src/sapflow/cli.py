"""Command-line interface: generate | run | analyze.

Runs are configured by a flat JSON manifest plus flag overrides (flags win),
so checked-in manifests reproduce results exactly. Text output writes floats
with 17 significant digits and snapshot meshes are binary ``.npz`` arrays,
so every round trip is lossless; ``analyze`` re-derives the summary of a
finished run from its artifacts alone.
"""

import argparse
import json
import os
import platform
import re
import sys
from dataclasses import asdict, fields

import numpy as np
import scipy

from .errors import SapflowError
from . import __version__, diagnostics, flow, geometry, mesh as meshmod
from .flow import FlowConfig
from .mesh import INPUT_CHECKS, _check_fields, _integer


# the flow keys and their defaults are FlowConfig's; flags share the key names
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
    **asdict(FlowConfig()),
    "output_dir": "sapflow_out",
    "mesh_cadence": 1,
}


# generator -> its mesh, built from the manifest's input keys
_GENERATORS = {
    "icosphere": lambda m: meshmod.gen_icosphere(m["radius"], (0.0, 0.0, 0.0), m["subdivisions"]),
    "ellipsoid": lambda m: meshmod.gen_ellipsoid(*m["axes"], m["subdivisions"]),
    "perturbed": lambda m: meshmod.gen_perturbed_sphere(
        m["radius"], m["amplitude"], _bump_from(m), m["subdivisions"]
    ),
}


# the rule of each key that no constructor owns; FlowConfig's rules
# (flow._SETTING_CHECKS) and the generators' and bumps' (mesh.INPUT_CHECKS)
# hold the others: key -> (what it must be, test of its value)
_MANIFEST_CHECKS = {
    "mesh": ("a path or null", lambda x: x is None or isinstance(x, str)),
    "generator": (", ".join(_GENERATORS) + " or null", lambda x: x in (None, *_GENERATORS)),
    "bump": ("harmonic or dent", lambda x: x in ("harmonic", "dent")),
    "harmonic": ("a list [degree, order]", lambda x: type(x) in (list, tuple) and len(x) == 2),
    "output_dir": ("a path", lambda x: isinstance(x, str)),
    "mesh_cadence": ("an integer >= 1", lambda x: _integer(x) and x >= 1),
}


def _read_json(path):
    """The JSON value in the file at ``path``; an error that names the file
    if it does not parse."""
    with open(path, encoding="ascii") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def load_manifest(path=None, overrides=None):
    """Defaults, then the manifest file, then the overrides that are not None;
    a comma-list override of a list key (``--axes 1.2,1,0.85``) is parsed."""
    manifest = dict(MANIFEST_DEFAULTS)
    if path is not None:
        data = _read_json(path)
        if not isinstance(data, dict):
            raise ValueError("manifest must be a JSON object")
        unknown = set(data) - set(MANIFEST_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        manifest.update(data)
    for key, value in (overrides or {}).items():
        default = MANIFEST_DEFAULTS.get(key)
        if isinstance(value, str) and isinstance(default, list):
            try:
                value = [type(default[0])(x) for x in value.split(",")]
            except ValueError:
                pass  # the text stays, and the key's rule refuses a string
        if value is not None:
            manifest[key] = value
    if (manifest["mesh"] is None) == (manifest["generator"] is None):
        raise ValueError("exactly one of 'mesh' and 'generator' must be set")
    # every key and pair is checked before any mesh is built or any file is written
    _check_fields(manifest, {**_MANIFEST_CHECKS, **INPUT_CHECKS, **flow._SETTING_CHECKS})
    _check_fields(dict(zip(("degree", "order"), manifest["harmonic"])))
    return manifest


def _bump_from(manifest):
    if manifest["bump"] == "dent":
        return meshmod.GaussianDentBump(tuple(manifest["direction"]), manifest["width"])
    return meshmod.SphericalHarmonicBump(*manifest["harmonic"])


def build_input_mesh(manifest):
    if manifest["mesh"] is not None:
        return meshmod.load_mesh(manifest["mesh"])
    return _GENERATORS[manifest["generator"]](manifest)


def flow_config(manifest):
    return FlowConfig(**{f.name: manifest[f.name] for f in fields(FlowConfig)})


def _overrides(args):
    """The parsed flags that name a manifest key."""
    return {k: v for k, v in vars(args).items() if k in MANIFEST_DEFAULTS}


# -- subcommands --------------------------------------------------------------


def cmd_generate(args):
    out_mesh = build_input_mesh(load_manifest(overrides=_overrides(args)))
    meshmod.save_mesh(out_mesh, args.output)
    if args.generator == "perturbed":
        H = geometry.compute_cache(out_mesh).mean_curvature
        print(f"min discrete H = {H.min():.6g}", file=sys.stderr)
    print(args.output)
    return 0


# a snapshot file of sapflow run: the row, then the format; .off and .csv
# are the formats of earlier versions, still read and still cleaned up
_SNAPSHOT = re.compile(r"step_(\d{6,})\.(npz|off|csv)")


class _SnapshotWriter:
    """The run observer of ``sapflow run``.

    At every ``cadence``-th row it writes ``meshes/step_NNNNNN.npz`` as the
    row is recorded, and keeps the row's ODE right-hand sides, taken from the
    geometry cache the run built for it: the cache that ``analyze`` rebuilds
    from the file, since the ``.npz`` save/load round trip is bit-exact. The
    run holds no mesh but its current one. The meshes directory is made at
    the first row, so an error on the input mesh writes nothing; there the
    snapshot and ``final`` mesh files of an earlier run are removed, in the
    current or an earlier format, and nothing else, so that ``analyze``
    pairs no row with an earlier run's mesh.
    """

    def __init__(self, outdir, cadence):
        self.mesh_dir = os.path.join(outdir, "meshes")
        self.cadence = cadence
        self.recorded = 0
        self.rows = []  # the rows whose mesh is written
        self.rhs = []  # their ODE right-hand sides

    def write(self, mesh, row):
        meshmod.save_mesh(mesh, os.path.join(self.mesh_dir, f"step_{row:06d}.npz"))
        self.rows.append(row)

    def __call__(self, state, cache, record):
        row = self.recorded
        self.recorded += 1
        if row % self.cadence:
            return
        if row == 0:
            os.makedirs(self.mesh_dir, exist_ok=True)
            for name in os.listdir(self.mesh_dir):
                if _SNAPSHOT.fullmatch(name) or name in ("final.off", "final.csv"):
                    os.remove(os.path.join(self.mesh_dir, name))
        self.write(state.mesh, row)
        self.rhs.append(diagnostics._ode_rhs(cache, record.h, record.int_H2))


def cmd_run(args):
    manifest = load_manifest(args.manifest, _overrides(args))
    config = flow_config(manifest)
    input_mesh = build_input_mesh(manifest)
    outdir = manifest["output_dir"]
    writer = _SnapshotWriter(outdir, manifest["mesh_cadence"])

    result = flow.run_flow(input_mesh, config, observer=writer)
    series = result.series
    series.metadata["manifest"] = manifest
    series.to_csv(os.path.join(outdir, "series.csv"))

    # the last row always has a mesh file; final.off (final.csv for a curve)
    # repeats it as text, for viewers
    last = len(series) - 1
    final_mesh = result.final_state.mesh
    if writer.rows[-1] != last:
        writer.write(final_mesh, last)
    ext = "csv" if final_mesh.mode == "curve" else "off"
    meshmod.save_mesh(final_mesh, os.path.join(writer.mesh_dir, f"final.{ext}"))

    # the right-hand sides of every persisted row but the last
    residuals = diagnostics.ode_residuals(
        series.subset(writer.rows), writer.rhs[: len(writer.rows) - 1]
    )
    summary = diagnostics.make_summary(
        series, final_mesh, termination=str(result.termination), residuals=residuals
    )
    diagnostics.write_summary(summary, os.path.join(outdir, "summary.json"))
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sapflow": __version__,
    }
    diagnostics.write_summary(
        {
            "termination": str(result.termination),
            "metadata": series.metadata,
            "versions": versions,
        },
        os.path.join(outdir, "run_meta.json"),
    )
    print(json.dumps(summary["max_residuals"]))
    print(f"termination: {result.termination}")
    return 0 if result.termination.kind in ("converged", "time_limit") else 2


def _snapshot_files(mesh_dir):
    """``(row, path)`` of each snapshot file in ``mesh_dir``, by row.

    By row, not by name: ``step_1000000`` sorts between ``step_100000`` and
    ``step_100001`` by name. The names are those the run writes and cleans
    up, so a name with fewer than six digits is not a snapshot. Empty when
    ``mesh_dir`` does not exist; a ``ValueError`` when two files name one
    row, say ``step_000003.off`` beside ``step_000003.npz``.
    """
    if not os.path.isdir(mesh_dir):
        return []
    found = {}
    for name in os.listdir(mesh_dir):
        match = _SNAPSHOT.fullmatch(name)
        if match:
            row = int(match[1])
            if row in found:
                raise ValueError(f"two snapshot files for row {row}")
            found[row] = os.path.join(mesh_dir, name)
    return sorted(found.items())


def cmd_analyze(args):
    rundir = os.path.dirname(os.path.abspath(args.series))
    meta = {}
    meta_path = os.path.join(rundir, "run_meta.json")
    if os.path.exists(meta_path):
        meta = _read_json(meta_path)
        if not isinstance(meta, dict) or not isinstance(meta.get("metadata", {}), dict):
            raise ValueError("run_meta.json must be a JSON object with an object 'metadata'")
    series = diagnostics.TimeSeries.from_csv(args.series, meta.get("metadata"))
    snapshots = _snapshot_files(os.path.join(rundir, "meshes"))
    snapshots = [(row, path) for row, path in snapshots if row < len(series)]
    final_mesh = residuals = None
    if snapshots:
        rows, paths = zip(*snapshots)
        first = meshmod.load_mesh(paths[0])
        if "metadata" not in meta:
            # without run_meta.json the snapshots tell the mode (no faces: curve)
            series.metadata["mode"] = first.mode

        def meshes():
            # one snapshot loaded at a time, onto the first one's connectivity;
            # the last one stays, for the summary's final sphere
            nonlocal final_mesh
            final_mesh = first
            yield first
            for path in paths[1:]:
                final_mesh = meshmod.load_mesh(path, like=first)
                yield final_mesh

        residuals = diagnostics.identity_residuals(series.subset(rows), meshes())
    summary = diagnostics.make_summary(
        series, final_mesh, termination=meta.get("termination"), residuals=residuals
    )
    out = args.output or os.path.join(rundir, "summary.json")
    diagnostics.write_summary(summary, out)
    print(out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code (argparse's 2 is a blow-up here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="sapflow",
        description="Surface-area-preserving curvature flow simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the input flags, each of which sets the manifest key of its dest
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--radius", type=float)
    inputs.add_argument("--subdiv", type=int, dest="subdivisions")
    inputs.add_argument("--axes", help="a,b,c semi-axes (ellipsoid)")
    inputs.add_argument("--amplitude", type=float)
    inputs.add_argument("--dent", action="store_const", const="dent", dest="bump",
                        help="Gaussian dent bump")
    inputs.add_argument("--width", type=float, help="dent width (radians)")
    inputs.add_argument("--direction", help="x,y,z dent direction")
    inputs.add_argument("--harmonic", help="l,m spherical harmonic bump")

    g = sub.add_parser("generate", parents=[inputs], help="write a generator mesh to OFF/OBJ/NPZ")
    g.add_argument("generator", metavar="shape", choices=list(_GENERATORS))
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", parents=[inputs], help="evolve a mesh and write run artifacts")
    r.add_argument("--manifest", help="JSON manifest; flags override its keys")
    r.add_argument("--mesh", help="input mesh file (OFF/OBJ/CSV/NPZ)")
    r.add_argument("--generator", choices=list(_GENERATORS))
    r.add_argument("--stepping", choices=["explicit", "semi-implicit"])
    r.add_argument("--cfl-safety", type=float)
    r.add_argument("--dt-max", type=float)
    r.add_argument("--t-max", type=float)
    r.add_argument("--roundness-tol", type=float)
    r.add_argument("--blowup-max-a", type=float, dest="blowup_max_A")
    r.add_argument("--snapshot-every", type=int)
    r.add_argument("--mesh-cadence", type=int)
    r.add_argument("--projection", dest="area_projection", action="store_true",
                   default=None)
    r.add_argument("--no-projection", dest="area_projection", action="store_false")
    r.add_argument("-o", "--output-dir")
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("analyze", help="recompute the summary from run artifacts")
    a.add_argument("series", help="path to series.csv")
    a.add_argument("-o", "--output", help="summary path (default: sibling summary.json)")
    a.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SapflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
