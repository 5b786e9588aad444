import json
import os
import platform

import numpy as np
import pytest
import scipy

import sapflow
from sapflow import (
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    GaussianDentBump,
    SphericalHarmonicBump,
    flow,
    gen_perturbed_sphere,
    geometry,
    load_mesh,
    save_mesh,
)
from sapflow import mesh as meshmod
from sapflow import cli
from sapflow.cli import MANIFEST_DEFAULTS, main
from sapflow.diagnostics import RECORD_FIELDS, DiagnosticsRecord, TimeSeries
from conftest import (
    cg_not_converged,
    count_calls,
    fail_on_call,
    jittered_icosphere,
    replace_on_call,
    run_sapflow,
    sliver_sphere,
)


def run_cli(*argv):
    return main(list(argv))


def test_generate_icosphere(tmp_path, capsys):
    out = tmp_path / "s.off"
    assert run_cli("generate", "icosphere", "--radius", "1", "--subdiv", "3",
                   "-o", str(out)) == 0
    mesh = load_mesh(out)
    assert mesh.n_faces == 1280


def test_generate_ellipsoid(tmp_path):
    out = tmp_path / "e.off"
    assert run_cli("generate", "ellipsoid", "--axes", "1.2,1,0.85",
                   "--subdiv", "2", "-o", str(out)) == 0
    assert load_mesh(out).n_faces == 320


def test_generate_dented_reports_min_H(tmp_path, capsys):
    out = tmp_path / "p.off"
    code = run_cli(
        "generate", "perturbed", "--radius", "1", "--amplitude", "-0.35",
        "--dent", "--width", "0.3", "--subdiv", "3", "-o", str(out),
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "min discrete H" in err
    assert float(err.split("=")[1]) < 0


@pytest.mark.parametrize(
    "flags, bump",
    [
        (("--dent", "--direction", "1,0,0", "--width", "0.4"),
         GaussianDentBump(direction=(1.0, 0.0, 0.0), width=0.4)),
        (("--harmonic", "3,1"), SphericalHarmonicBump(3, 1)),
    ],
)
def test_generate_bump_flags(tmp_path, flags, bump):
    out = tmp_path / "p.off"
    assert run_cli("generate", "perturbed", "--amplitude", "-0.3", "--subdiv", "2",
                   *flags, "-o", str(out)) == 0
    want = gen_perturbed_sphere(1.0, -0.3, bump, 2)
    assert np.array_equal(load_mesh(out).vertices, want.vertices)


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "ellipsoid", "--axes", "1,x"),
        ("generate", "perturbed", "--amplitude", "0.1", "--harmonic", "2,x"),
        ("generate", "perturbed", "--amplitude", "-0.3", "--dent", "--direction", "1,0,x"),
        ("run", "--generator", "ellipsoid", "--axes", "1,x"),
    ],
)
def test_malformed_list_is_input_error(tmp_path, capsys, argv):
    # exit 2 is a blow-up, so a bad flag value is an input error like a bad manifest
    assert run_cli(*argv, "-o", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def run_manifest(tmp_path, **kw):
    manifest = {
        "generator": "ellipsoid",
        "axes": [1.2, 1.0, 0.85],
        "subdivisions": 2,
        "stepping": "explicit",
        "t_max": 0.2,
        "snapshot_every": 2,
        "mesh_cadence": 1,
        "output_dir": str(tmp_path / "out"),
        **kw,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path, manifest


def test_run_writes_artifacts(tmp_path):
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    outdir = manifest["output_dir"]
    assert os.path.exists(os.path.join(outdir, "series.csv"))
    assert os.path.exists(os.path.join(outdir, "summary.json"))
    assert os.path.exists(os.path.join(outdir, "meshes", "final.off"))
    assert os.path.exists(os.path.join(outdir, "meshes", "step_000000.npz"))
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["termination"] == "time_limit"
    assert summary["max_residuals"]["area"] <= 1e-12


def test_run_missing_mesh_is_input_error(tmp_path, capsys):
    assert run_cli("run", "--mesh", str(tmp_path / "missing.off")) == 1
    assert "error:" in capsys.readouterr().err


def test_run_non_finite_input_is_input_error(tmp_path, capsys):
    # a NaN coordinate is refused at load, before the first row writes anything
    mesh = tmp_path / "ico.off"
    assert run_cli("generate", "icosphere", "--subdiv", "1", "-o", str(mesh)) == 0
    lines = mesh.read_text().split("\n")
    lines[2] = "nan " + lines[2].split(" ", 1)[1]
    mesh.write_text("\n".join(lines))
    out = tmp_path / "out"
    assert run_cli("run", "--mesh", str(mesh), "--t-max", "0.1", "-o", str(out)) == 1
    assert "non-finite coordinate" in capsys.readouterr().err
    assert not out.exists()


def test_run_nan_blowup_limit_is_input_error(tmp_path, capsys):
    # NaN would switch the max|A| guard off and write a bare NaN into
    # run_meta.json, which is not JSON
    out = tmp_path / "out"
    argv = ("run", "--generator", "icosphere", "--blowup-max-a", "nan", "-o", str(out))
    assert run_cli(*argv) == 1
    assert "error: blowup_max_A must be" in capsys.readouterr().err
    assert not out.exists()


def test_generate_negative_harmonic_degree_is_input_error(tmp_path, capsys):
    # it said that |order| must not exceed degree
    out = tmp_path / "h.off"
    argv = ("generate", "perturbed", "--harmonic=-1,0", "--amplitude", "0.1")
    assert run_cli(*argv, "-o", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: degree must be an integer >= 0")
    assert not out.exists()


def test_run_blowup_exit_code(tmp_path):
    manifest_path, _ = run_manifest(tmp_path, blowup_max_A=1.0)
    assert run_cli("run", "--manifest", str(manifest_path)) == 2


def test_run_midrun_geometry_error_keeps_artifacts(tmp_path, monkeypatch):
    fail_on_call(monkeypatch, geometry, "compute_cache", 3, DegenerateGeometryError)
    manifest_path, manifest = run_manifest(tmp_path, snapshot_every=1)
    assert run_cli("run", "--manifest", str(manifest_path)) == 2
    outdir = manifest["output_dir"]
    series = TimeSeries.from_csv(os.path.join(outdir, "series.csv"))
    assert len(series) == 2
    assert os.path.exists(os.path.join(outdir, "meshes", "final.off"))
    with open(os.path.join(outdir, "summary.json")) as fh:
        assert json.load(fh)["termination"] == "blow_up(degenerate_geometry)"


def test_run_unconverged_solve_keeps_artifacts(tmp_path, monkeypatch):
    replace_on_call(monkeypatch, flow.spla, "cg", 4, cg_not_converged)
    manifest_path, manifest = run_manifest(
        tmp_path, stepping="semi-implicit", dt_max=0.01, snapshot_every=1
    )
    assert run_cli("run", "--manifest", str(manifest_path)) == 2
    outdir = manifest["output_dir"]
    series = TimeSeries.from_csv(os.path.join(outdir, "series.csv"))
    assert len(series) == 2
    assert os.path.exists(os.path.join(outdir, "meshes", "final.off"))
    with open(os.path.join(outdir, "summary.json")) as fh:
        assert json.load(fh)["termination"] == "blow_up(linear_solve)"


def test_run_mesh_degeneracy_keeps_artifacts(tmp_path):
    mesh_path = tmp_path / "sliver.off"
    save_mesh(sliver_sphere(gap=5e-4), mesh_path)
    outdir = tmp_path / "out"
    assert run_cli("run", "--mesh", str(mesh_path), "-o", str(outdir)) == 2
    assert len(TimeSeries.from_csv(outdir / "series.csv")) == 1
    assert (outdir / "meshes" / "final.off").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["termination"] == "blow_up(mesh_degeneracy)"


def test_run_degenerate_H_on_input_is_input_error(tmp_path, monkeypatch, capsys):
    fail_on_call(monkeypatch, flow, "compute_h", 1, DegenerateMeanCurvatureError)
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 1
    assert "error: injected" in capsys.readouterr().err
    assert not os.path.exists(manifest["output_dir"])


def test_flag_overrides_win(tmp_path):
    manifest_path, manifest = run_manifest(tmp_path, t_max=50.0)
    outdir = manifest["output_dir"]
    assert run_cli("run", "--manifest", str(manifest_path), "--t-max", "0.1") == 0
    series = TimeSeries.from_csv(os.path.join(outdir, "series.csv"))
    assert series.records[-1].t <= 0.1 + 1e-12


@pytest.mark.parametrize(
    "mesh_cadence,extra,fail_at,code",
    [
        pytest.param(1, {}, None, 0, id="1"),
        pytest.param(2, {}, None, 0, id="2"),
        # the last of 9 rows, 8, is off cadence
        pytest.param(3, {}, None, 0, id="last-off-cadence"),
        # the fields of step 11 fail: blow_up(degenerate_geometry) at row 10
        pytest.param(3, {"snapshot_every": 1}, 12, 2, id="blow-up"),
    ],
)
def test_analyze_idempotent(tmp_path, monkeypatch, mesh_cadence, extra, fail_at, code):
    if fail_at is not None:
        fail_on_call(monkeypatch, geometry, "compute_cache", fail_at, DegenerateGeometryError)
    manifest_path, manifest = run_manifest(tmp_path, mesh_cadence=mesh_cadence, **extra)
    assert run_cli("run", "--manifest", str(manifest_path)) == code
    outdir = manifest["output_dir"]
    last = len(TimeSeries.from_csv(os.path.join(outdir, "series.csv"))) - 1
    rows = sorted({*range(0, last + 1, mesh_cadence), last})
    steps = sorted(n for n in os.listdir(os.path.join(outdir, "meshes")) if n != "final.off")
    assert steps == [f"step_{row:06d}.npz" for row in rows]
    summary_path = os.path.join(outdir, "summary.json")
    with open(summary_path, "rb") as fh:
        original = fh.read()
    redone = tmp_path / "summary2.json"
    assert run_cli("analyze", os.path.join(outdir, "series.csv"),
                   "-o", str(redone)) == 0
    assert redone.read_bytes() == original


def test_run_into_an_earlier_runs_directory(tmp_path):
    # the second run removes the first run's mesh files, and only those, so
    # analyze pairs each row with this run's mesh; the text snapshots of an
    # earlier version go too
    manifest_path, manifest = run_manifest(tmp_path, t_max=0.3)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    outdir = manifest["output_dir"]
    mesh_dir = os.path.join(outdir, "meshes")
    (tmp_path / "out" / "meshes" / "notes.txt").write_text("kept\n")
    save_mesh(load_mesh(os.path.join(mesh_dir, "final.off")),
              os.path.join(mesh_dir, "step_000001.off"))
    assert run_cli("run", "--manifest", str(manifest_path),
                   "--t-max", "0.1", "--mesh-cadence", "3") == 0
    last = len(TimeSeries.from_csv(os.path.join(outdir, "series.csv"))) - 1
    rows = sorted({*range(0, last + 1, 3), last})
    steps = sorted(n for n in os.listdir(mesh_dir) if n.startswith("step_"))
    assert steps == [f"step_{row:06d}.npz" for row in rows]
    assert not os.path.exists(os.path.join(mesh_dir, "step_000001.off"))
    assert os.path.exists(os.path.join(mesh_dir, "notes.txt"))
    redone = tmp_path / "summary2.json"
    assert run_cli("analyze", os.path.join(outdir, "series.csv"), "-o", str(redone)) == 0
    with open(os.path.join(outdir, "summary.json"), "rb") as fh:
        assert redone.read_bytes() == fh.read()


@pytest.mark.parametrize("mesh_cadence", [1, 2])
def test_run_takes_one_geometry_pass_per_row(tmp_path, monkeypatch, mesh_cadence):
    # the summary's ODE right-hand sides come from the run's own caches
    calls = count_calls(monkeypatch, geometry, "compute_cache")
    manifest_path, manifest = run_manifest(
        tmp_path, snapshot_every=1, mesh_cadence=mesh_cadence
    )
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    series = TimeSeries.from_csv(os.path.join(manifest["output_dir"], "series.csv"))
    assert len(calls) == len(series)


def test_run_meta_records_versions(tmp_path):
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    outdir = manifest["output_dir"]
    with open(os.path.join(outdir, "run_meta.json")) as fh:
        versions = json.load(fh)["versions"]
    assert versions == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sapflow": sapflow.__version__,
    }
    with open(os.path.join(outdir, "summary.json")) as fh:
        assert "versions" not in fh.read()


def test_analyze_builds_one_connectivity(tmp_path, monkeypatch):
    # the snapshots are loaded onto the first one's connectivity, so its edge
    # table and its one incidence operator (ring; face is a view of it) are
    # built once in all
    manifest_path, manifest = run_manifest(tmp_path)
    builds = count_calls(monkeypatch, meshmod, "_incidence")
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    assert len(builds) == 1
    builds.clear()
    loads = count_calls(monkeypatch, meshmod, "load_mesh")
    tables = count_calls(monkeypatch, meshmod.TriMesh, "_build_edge_table")
    series = os.path.join(manifest["output_dir"], "series.csv")
    assert run_cli("analyze", series, "-o", str(tmp_path / "summary2.json")) == 0
    assert len(loads) > 2
    assert len(builds) == 1
    assert len(tables) == 1


def test_snapshot_files_ordered_by_row(tmp_path):
    # by name, step_1000000 would sort between step_100000 and step_100001
    rows = [0, 5, 99999, 100000, 100001, 1000000, 1000001]
    for row in rows:
        (tmp_path / f"step_{row:06d}.npz").touch()
    for name in ("final.off", "step_000007.npz.tmp", "notes.txt"):
        (tmp_path / name).touch()
    found = cli._snapshot_files(str(tmp_path))
    assert found == [(row, str(tmp_path / f"step_{row:06d}.npz")) for row in rows]
    assert cli._snapshot_files(str(tmp_path / "missing")) == []


def test_analyze_reads_the_text_snapshots_of_earlier_versions(tmp_path):
    # a run directory with step_*.off snapshots still analyzes to its summary
    manifest_path, manifest = run_manifest(tmp_path, mesh_cadence=2)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    mesh_dir = os.path.join(manifest["output_dir"], "meshes")
    for row, path in cli._snapshot_files(mesh_dir):
        save_mesh(load_mesh(path), os.path.join(mesh_dir, f"step_{row:06d}.off"))
        os.remove(path)
    redone = tmp_path / "summary2.json"
    series = os.path.join(manifest["output_dir"], "series.csv")
    assert run_cli("analyze", series, "-o", str(redone)) == 0
    with open(os.path.join(manifest["output_dir"], "summary.json"), "rb") as fh:
        assert redone.read_bytes() == fh.read()


def test_snapshot_with_a_short_name_is_ignored(tmp_path):
    # step_3.off is no name a run writes or cleans up: analyze reading it
    # paired row 3 with two meshes and divided by a zero time step
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    mesh_dir = os.path.join(manifest["output_dir"], "meshes")
    stray = load_mesh(os.path.join(mesh_dir, "final.off"))
    save_mesh(stray.with_vertices(1.1 * stray.vertices), os.path.join(mesh_dir, "step_3.off"))
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    assert os.path.exists(os.path.join(mesh_dir, "step_3.off"))
    assert [row for row, _ in cli._snapshot_files(mesh_dir)].count(3) == 1
    redone = tmp_path / "summary2.json"
    series = os.path.join(manifest["output_dir"], "series.csv")
    assert run_cli("analyze", series, "-o", str(redone)) == 0
    with open(os.path.join(manifest["output_dir"], "summary.json"), "rb") as fh:
        assert redone.read_bytes() == fh.read()


def test_two_snapshot_files_for_one_row_is_input_error(tmp_path, capsys):
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    mesh_dir = os.path.join(manifest["output_dir"], "meshes")
    save_mesh(load_mesh(os.path.join(mesh_dir, "step_000003.npz")),
              os.path.join(mesh_dir, "step_000003.off"))
    capsys.readouterr()
    series = os.path.join(manifest["output_dir"], "series.csv")
    assert run_cli("analyze", series, "-o", str(tmp_path / "summary2.json")) == 1
    err = capsys.readouterr().err
    assert err == "error: two snapshot files for row 3\n"
    assert not (tmp_path / "summary2.json").exists()


def test_inward_snapshot_is_input_error(tmp_path, capsys):
    # a later snapshot with the first one's faces is loaded onto its
    # connectivity, and still rejected as a file on its own is
    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    path = os.path.join(manifest["output_dir"], "meshes", "step_000001.npz")
    snapshot = load_mesh(path)
    save_mesh(snapshot.with_vertices(snapshot.vertices * [-1.0, 1.0, 1.0]), path)
    capsys.readouterr()
    series = os.path.join(manifest["output_dir"], "series.csv")
    assert run_cli("analyze", series, "-o", str(tmp_path / "summary2.json")) == 1
    err = capsys.readouterr().err
    assert err == "error: inward orientation (negative enclosed volume)\n"
    assert not (tmp_path / "summary2.json").exists()


def test_analyze_synthetic_decay_csv(tmp_path):
    t = np.arange(0.0, 4.001, 0.05)
    records = []
    for ti in t:
        row = {name: 1.0 for name in RECORD_FIELDS}
        row["t"] = ti
        row["int_traceless_sq"] = float(np.exp(-0.5 * ti))
        records.append(DiagnosticsRecord(**row))
    series = TimeSeries(records=records, metadata={})
    csv_path = tmp_path / "series.csv"
    series.to_csv(csv_path)
    out = tmp_path / "summary.json"
    assert run_cli("analyze", str(csv_path), "-o", str(out)) == 0
    summary = json.loads(out.read_text())
    assert summary["fitted_rate"] == pytest.approx(0.5, abs=1e-9)
    assert summary["termination"] is None
    assert summary["max_residuals"]["h_ode"] is None


def test_analyze_nonmonotone_time_fails(tmp_path, capsys):
    rows = [",".join(RECORD_FIELDS)]
    for ti in (0.0, 0.2, 0.1):
        row = ["1"] * len(RECORD_FIELDS)
        row[0] = str(ti)
        rows.append(",".join(row))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert run_cli("analyze", str(bad)) == 1
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("last_row", ["0.1,2.3", ",".join(["1"] * 19)], ids=["short", "long"])
def test_analyze_rejects_a_row_of_the_wrong_length(tmp_path, capsys, last_row):
    # a killed write leaves a cut last row; a long row must not be cut to fit
    row = ",".join(["0"] + ["1"] * (len(RECORD_FIELDS) - 1))
    bad = tmp_path / "series.csv"
    bad.write_text("\n".join([",".join(RECORD_FIELDS), row, last_row]) + "\n")
    assert run_cli("analyze", str(bad)) == 1
    fields = last_row.count(",") + 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: series line 3 has {fields} fields, not {len(RECORD_FIELDS)}")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
def test_analyze_rejects_a_non_finite_field(tmp_path, capsys, cell):
    # analyze exited 0 and wrote "area": NaN under max_residuals; "abc" was
    # "could not convert string to float", which named no line or column
    rows = [[ti] + ["1"] * (len(RECORD_FIELDS) - 1) for ti in ("0", "0.1", "0.2")]
    rows[1][RECORD_FIELDS.index("int_H")] = cell
    bad = tmp_path / "series.csv"
    bad.write_text("\n".join(",".join(r) for r in [RECORD_FIELDS, *rows]) + "\n")
    assert run_cli("analyze", str(bad)) == 1
    err = capsys.readouterr().err
    assert err == f"error: series line 3, column int_H: '{cell}' is not a finite number\n"
    assert not (tmp_path / "summary.json").exists()


def test_manifest_roundtrip_through_run_meta(tmp_path):
    from sapflow.cli import load_manifest

    manifest_path, manifest = run_manifest(tmp_path)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    with open(os.path.join(manifest["output_dir"], "run_meta.json")) as fh:
        echoed = json.load(fh)["metadata"]["manifest"]
    reparsed = load_manifest(overrides=echoed)
    assert reparsed == echoed
    for key, value in manifest.items():
        assert echoed[key] == value


@pytest.mark.parametrize("projection", ["--projection", "--no-projection"])
def test_every_run_flag_reaches_the_manifest(tmp_path, projection):
    path = tmp_path / "manifest.json"
    base = {"generator": "icosphere", "area_projection": projection == "--no-projection"}
    path.write_text(json.dumps(base))
    outdir = tmp_path / "out"
    argv = [
        "--generator", "ellipsoid", "--axes", "1.3,1,0.8", "--subdiv", "1",
        "--stepping", "semi-implicit", "--cfl-safety", "0.4", "--dt-max", "0.02",
        "--t-max", "0.1", "--roundness-tol", "1e-3", "--blowup-max-a", "1e6",
        "--snapshot-every", "2", "--mesh-cadence", "2", projection, "-o", str(outdir),
        "--radius", "1.1", "--amplitude", "-0.2", "--dent", "--width", "0.25",
        "--direction", "0,1,0", "--harmonic", "3,1",
    ]
    expected = {
        "generator": "ellipsoid",
        "radius": 1.1,
        "axes": [1.3, 1.0, 0.8],
        "subdivisions": 1,
        "amplitude": -0.2,
        "bump": "dent",
        "harmonic": [3, 1],
        "width": 0.25,
        "direction": [0.0, 1.0, 0.0],
        "stepping": "semi-implicit",
        "cfl_safety": 0.4,
        "dt_max": 0.02,
        "t_max": 0.1,
        "roundness_tol": 1e-3,
        "blowup_max_A": 1e6,
        "snapshot_every": 2,
        "mesh_cadence": 2,
        "area_projection": projection == "--projection",
        "output_dir": str(outdir),
    }
    # every flag moves its key away from the manifest's value or the default
    assert all({**MANIFEST_DEFAULTS, **base}[k] != v for k, v in expected.items())
    assert run_cli("run", "--manifest", str(path), *argv) == 0
    meta = json.loads((outdir / "run_meta.json").read_text())["metadata"]
    assert {k: meta["manifest"][k] for k in expected} == expected
    for key, value in meta["config"].items():
        assert value == expected[key]


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_max", "0.1"),
        ("area_projection", "false"),
        ("snapshot_every", 2.5),
        # the keys outside FlowConfig, checked when the manifest is loaded
        ("radius", "1"),
        ("radius", -1.0),
        ("amplitude", "0.1"),
        ("width", 0),
        ("subdivisions", 1.5),
        ("subdivisions", True),
        ("axes", [1.2, 1.0]),
        ("axes", [1.2, "1", 0.85]),
        ("harmonic", [2.0, 0]),
        ("direction", [0, 0, 0]),
        ("bump", "bogus"),
        ("mesh_cadence", 2.5),
        ("mesh_cadence", "x"),
        ("output_dir", 5),
        ("t_max", float("inf")),
        ("generator", "cube"),
        ("generator", 5),
        # each numeric input key, non-finite (json.dumps writes NaN and Infinity)
        ("radius", float("inf")),
        ("axes", [1.0, float("inf"), 1.0]),
        ("amplitude", float("nan")),
        ("width", float("inf")),  # with the default bump, "harmonic"
        ("direction", [float("inf"), 0.0, 0.0]),
    ],
)
def test_manifest_value_of_wrong_type_is_input_error(tmp_path, capsys, key, value):
    path = tmp_path / "m.json"
    outdir = tmp_path / "out"
    path.write_text(json.dumps({"generator": "icosphere", "output_dir": str(outdir),
                                key: value}))
    assert run_cli("run", "--manifest", str(path)) == 1
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not outdir.exists()


def test_manifest_non_finite_value_unused_by_the_mesh_is_input_error(tmp_path, capsys):
    # a mesh input uses no amplitude or width: the run exited 0 and wrote NaN
    # and Infinity into run_meta.json, which is then not strict JSON
    mesh_path = tmp_path / "ico.off"
    save_mesh(meshmod.gen_icosphere(1.0, subdivisions=1), mesh_path)
    path = tmp_path / "m.json"
    outdir = tmp_path / "out"
    path.write_text(json.dumps({"mesh": str(mesh_path), "amplitude": float("nan"),
                                "width": float("inf"), "output_dir": str(outdir)}))
    assert run_cli("run", "--manifest", str(path), "--t-max", "0.1") == 1
    assert capsys.readouterr().err.startswith("error: amplitude must be a finite number")
    assert not outdir.exists()


def test_nonpositive_input_h_is_input_error(tmp_path, capsys):
    # an input of the fuzz probe with int H dmu < 0 ran as blow_up(nonpositive_h)
    # at step 0, exit 2 with artifacts
    mesh_path = tmp_path / "jittered.npz"
    save_mesh(jittered_icosphere(14), mesh_path)
    outdir = tmp_path / "out"
    assert run_cli("run", "--mesh", str(mesh_path), "-o", str(outdir)) == 1
    assert capsys.readouterr().err.startswith("error: nonpositive h = ")
    assert not outdir.exists()


def test_every_manifest_key_has_one_rule():
    from sapflow.cli import _MANIFEST_CHECKS

    tables = [flow._SETTING_CHECKS, _MANIFEST_CHECKS, meshmod.INPUT_CHECKS]
    for key in MANIFEST_DEFAULTS:
        assert sum(key in table for table in tables) == 1, key


def test_run_takes_the_input_flags(tmp_path):
    # run had no --amplitude or --dent: "unrecognized arguments", exit 1
    outdir = tmp_path / "out"
    argv = ("run", "--generator", "perturbed", "--amplitude", "-0.35", "--dent",
            "--width", "0.3", "--subdiv", "1", "--t-max", "0.1", "-o", str(outdir))
    assert run_cli(*argv) == 0
    manifest = json.loads((outdir / "run_meta.json").read_text())["metadata"]["manifest"]
    assert (manifest["amplitude"], manifest["bump"], manifest["width"]) == (-0.35, "dent", 0.3)
    first = load_mesh(outdir / "meshes" / "step_000000.npz")
    assert first == gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 1)


@pytest.mark.parametrize(
    "argv", [("--t-max", "abc"), ("--stepping", "bogus"), ("--subdiv", "1.5")]
)
def test_usage_error_is_input_error(tmp_path, capsys, argv):
    # argparse's own exit code 2 would read as a blow-up
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--generator", "icosphere", *argv, "-o", str(outdir))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sapflow run") and "error: argument" in err
    assert not outdir.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sapflow run")


def test_manifest_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "m.json"
    for key in ("bogus_key", "deterministic", "seed", "min_angle_limit"):
        path.write_text(json.dumps({"generator": "icosphere", key: 1}))
        assert run_cli("run", "--manifest", str(path)) == 1
        assert "unknown manifest keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", ["5", "null", '["mesh"]', '"mesh"'], ids=["int", "null", "list", "str"]
)
def test_manifest_that_is_not_an_object_is_input_error(tmp_path, capsys, content):
    # 5 and null ended in a TypeError traceback, ["mesh"] in a dict() message
    path = tmp_path / "m.json"
    path.write_text(content)
    assert run_cli("run", "--manifest", str(path)) == 1
    assert capsys.readouterr().err == "error: manifest must be a JSON object\n"


@pytest.mark.parametrize(
    "meta",
    [[1, 2], 5, {"metadata": [1]}, {"metadata": None}],
    ids=["list", "int", "list-metadata", "null-metadata"],
)
def test_run_meta_that_is_not_an_object_is_input_error(tmp_path, capsys, meta):
    # [1, 2] ended in an AttributeError traceback
    row = {name: 1.0 for name in RECORD_FIELDS}
    TimeSeries(records=[DiagnosticsRecord(**row)], metadata={}).to_csv(tmp_path / "series.csv")
    (tmp_path / "run_meta.json").write_text(json.dumps(meta))
    assert run_cli("analyze", str(tmp_path / "series.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run_meta.json must be a JSON object") and "\n" not in err[:-1]
    assert not (tmp_path / "summary.json").exists()


def test_manifest_requires_exactly_one_source(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({}))
    assert run_cli("run", "--manifest", str(path)) == 1


def run_ellipse_curve(tmp_path):
    """``sapflow run`` on a 64-vertex 1.3 x 0.8 ellipse to t = 0.5; returns the run dir."""
    th = 2 * np.pi * np.arange(64) / 64
    curve = tmp_path / "ellipse.csv"
    np.savetxt(curve, np.column_stack([1.3 * np.cos(th), 0.8 * np.sin(th)]),
               fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    assert run_cli("run", "--mesh", str(curve), "--t-max", "0.5", "-o", str(out)) == 0
    return out


def test_curve_run_then_analyze(tmp_path):
    out = run_ellipse_curve(tmp_path)
    names = sorted(os.listdir(out / "meshes"))
    assert names[0] == "final.csv" and all(n.endswith(".npz") for n in names[1:])
    assert names[1] == "step_000000.npz"
    assert load_mesh(out / "meshes" / names[1]).mode == "curve"
    analyzed = tmp_path / "analyzed.json"
    assert run_cli("analyze", str(out / "series.csv"), "-o", str(analyzed)) == 0
    assert analyzed.read_bytes() == (out / "summary.json").read_bytes()
    assert json.loads(analyzed.read_text())["max_residuals"]["h_ode"] is not None


def test_curve_analyze_without_run_meta(tmp_path):
    # the mode comes from the snapshots, which have no faces: the decay bound
    # uses n = 1
    out = run_ellipse_curve(tmp_path)
    run_summary = json.loads((out / "summary.json").read_text())
    os.remove(out / "run_meta.json")
    analyzed = tmp_path / "analyzed.json"
    assert run_cli("analyze", str(out / "series.csv"), "-o", str(analyzed)) == 0
    summary = json.loads(analyzed.read_text())
    assert summary["delta_paper"] == run_summary["delta_paper"]
    assert summary == {**run_summary, "termination": None}


def test_console_entry_point(tmp_path):
    out = tmp_path / "s.off"
    proc = run_sapflow("generate", "icosphere", "--subdiv", "1", "-o", str(out))
    assert proc.returncode == 0
    assert out.exists()


def test_deterministic_env_runs_byte_identical(tmp_path):
    csvs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        proc = run_sapflow(
            "run", "--generator", "ellipsoid", "--axes", "1.2,1,0.85",
            "--subdiv", "2", "--t-max", "0.1", "--snapshot-every", "2",
            "-o", str(outdir),
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append((outdir / "series.csv").read_bytes())
    assert csvs[0] == csvs[1]
