import json
import os

import numpy as np
import pytest

from sapflow import DegenerateGeometryError, flow, geometry, load_mesh
from sapflow.cli import main
from sapflow.diagnostics import RECORD_FIELDS, DiagnosticsRecord, TimeSeries
from conftest import cg_not_converged, fail_on_call, replace_on_call, run_sapflow


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
    assert os.path.exists(os.path.join(outdir, "meshes", "step_000000.off"))
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["termination"] == "time_limit"
    assert summary["max_residuals"]["area"] <= 1e-12


def test_run_missing_mesh_is_input_error(tmp_path, capsys):
    assert run_cli("run", "--mesh", str(tmp_path / "missing.off")) == 1
    assert "error:" in capsys.readouterr().err


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


def test_flag_overrides_win(tmp_path):
    manifest_path, manifest = run_manifest(tmp_path, t_max=50.0)
    outdir = manifest["output_dir"]
    assert run_cli("run", "--manifest", str(manifest_path), "--t-max", "0.1") == 0
    series = TimeSeries.from_csv(os.path.join(outdir, "series.csv"))
    assert series.records[-1].t <= 0.1 + 1e-12


@pytest.mark.parametrize("mesh_cadence", [1, 2])
def test_analyze_idempotent(tmp_path, mesh_cadence):
    manifest_path, manifest = run_manifest(tmp_path, mesh_cadence=mesh_cadence)
    assert run_cli("run", "--manifest", str(manifest_path)) == 0
    outdir = manifest["output_dir"]
    summary_path = os.path.join(outdir, "summary.json")
    with open(summary_path, "rb") as fh:
        original = fh.read()
    redone = tmp_path / "summary2.json"
    assert run_cli("analyze", os.path.join(outdir, "series.csv"),
                   "-o", str(redone)) == 0
    assert redone.read_bytes() == original


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


def test_manifest_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "m.json"
    for key in ("bogus_key", "deterministic", "seed"):
        path.write_text(json.dumps({"generator": "icosphere", key: 1}))
        assert run_cli("run", "--manifest", str(path)) == 1
        assert "unknown manifest keys" in capsys.readouterr().err


def test_manifest_requires_exactly_one_source(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({}))
    assert run_cli("run", "--manifest", str(path)) == 1


def test_curve_run_then_analyze(tmp_path):
    th = 2 * np.pi * np.arange(64) / 64
    curve = tmp_path / "ellipse.csv"
    np.savetxt(curve, np.column_stack([1.3 * np.cos(th), 0.8 * np.sin(th)]),
               fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    assert run_cli("run", "--mesh", str(curve), "--t-max", "0.5", "-o", str(out)) == 0
    names = sorted(os.listdir(out / "meshes"))
    assert names[0] == "final.csv" and all(n.endswith(".csv") for n in names)
    analyzed = tmp_path / "analyzed.json"
    assert run_cli("analyze", str(out / "series.csv"), "-o", str(analyzed)) == 0
    assert analyzed.read_bytes() == (out / "summary.json").read_bytes()
    assert json.loads(analyzed.read_text())["max_residuals"]["h_ode"] is not None


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
