"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Heavy flow runs are shared across criteria through module-scoped
fixtures; the whole module targets desk-scale hardware (subdivision 3 is
1280 faces).
"""

from dataclasses import replace

import numpy as np
import pytest

from sapflow import (
    FlowConfig,
    FlowState,
    GaussianDentBump,
    SphericalHarmonicBump,
    advance,
    best_fit_sphere,
    compute_cache,
    compute_h,
    fit_exponential_rate,
    gen_ellipsoid,
    gen_icosphere,
    gen_perturbed_sphere,
    identity_residuals,
    mean_convexity_onset,
    decay_rate_lower_bound,
    run_flow,
    select_timestep,
    sphere_mode_rate,
    sphere_reference,
)
from sapflow.diagnostics import area_identity_residuals
from conftest import run_keeping_meshes, run_sapflow


def ok(criterion, message):
    print(f"PASS: criterion {criterion} - {message}")


# -- shared runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def ellipsoid_run():
    """The reference run: ellipsoid(1.2, 1, 0.85) at subdivision 3, explicit
    stepping, projection on, per-step snapshots, roundness tolerance 1e-6."""
    mesh = gen_ellipsoid(1.2, 1.0, 0.85, 3)
    config = FlowConfig(
        stepping="explicit",
        cfl_safety=0.5,
        dt_max=0.05,
        area_projection=True,
        t_max=10.0,
        roundness_tol=1e-6,
        snapshot_every=1,
    )
    return run_flow(mesh, config)


@pytest.fixture(scope="module")
def drift_runs():
    """Unprojected fixed-step runs at dt and dt/2 over a fixed horizon."""
    mesh = gen_ellipsoid(1.2, 1.0, 0.85, 3)
    out = {}
    for dt in (0.004, 0.002):
        config = FlowConfig(
            stepping="explicit",
            cfl_safety=1.0,
            dt_max=dt,
            area_projection=False,
            t_max=1.6,
            roundness_tol=1e-12,
            snapshot_every=5,
        )
        out[dt] = run_flow(mesh, config)
    return out


@pytest.fixture(scope="module")
def dented_run():
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 3)
    config = FlowConfig(
        stepping="explicit",
        t_max=10.0,
        roundness_tol=1e-6,
        snapshot_every=5,
    )
    return run_flow(mesh, config)


@pytest.fixture(scope="module")
def si_residual_runs():
    """Semi-implicit near-sphere runs at dt and dt/2 for the ODE residuals:
    dt -> (result, the mesh of every row)."""
    mesh = gen_perturbed_sphere(1.0, 0.05, SphericalHarmonicBump(2, 0), 3)
    out = {}
    for dt in (0.04, 0.02):
        config = FlowConfig(
            stepping="semi-implicit",
            cfl_safety=1.0,
            dt_max=dt,
            t_max=0.64,
            roundness_tol=1e-12,
            snapshot_every=1,
        )
        out[dt] = run_keeping_meshes(mesh, config)
    return out


@pytest.fixture(scope="module")
def stationarity_displacements():
    """Max vertex displacement after 100 explicit steps at default CFL."""
    out = {}
    for sub in (2, 3, 4):
        mesh = gen_icosphere(1.0, (0.0, 0.0, 0.0), sub)
        config = FlowConfig(stepping="explicit", cfl_safety=0.5, dt_max=1e9)
        state = FlowState(mesh=mesh)
        for _ in range(100):
            cache = compute_cache(state.mesh)
            state = replace(state, h=compute_h(cache))
            dt = select_timestep(state.mesh, cache, state.h, config)
            state = advance(state, cache, config, dt)
        out[sub] = float(
            np.linalg.norm(state.mesh.vertices - mesh.vertices, axis=1).max()
        )
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_1_sphere_stationarity(stationarity_displacements):
    E = stationarity_displacements
    assert E[3] < 1e-4  # refinement-controlled tolerance (continuum limit 0)
    assert E[2] / E[3] >= 2.0
    assert E[3] / E[4] >= 2.0
    ok(1, f"E(2)={E[2]:.2e} E(3)={E[3]:.2e} E(4)={E[4]:.2e}, ratios "
          f"{E[2]/E[3]:.1f}x and {E[3]/E[4]:.1f}x")


def test_criterion_2_area_conservation(ellipsoid_run, drift_runs):
    area = ellipsoid_run.series.column("area")
    rel = np.abs(area - area[0]) / area[0]
    assert rel.max() <= 1e-11

    drifts = {}
    for dt, result in drift_runs.items():
        a = result.series.column("area")
        drifts[dt] = np.abs(a - a[0]).max() / a[0]
    ratio = drifts[0.004] / drifts[0.002]
    assert 4.0 / 3.0 <= ratio <= 4.0
    ok(2, f"projected drift {rel.max():.2e} <= 1e-11; "
          f"unprojected drift ratio {ratio:.2f} (dt halved)")


def test_criterion_3_area_identity_every_run(
    ellipsoid_run, drift_runs, dented_run, si_residual_runs
):
    worst = 0.0
    runs = [ellipsoid_run, dented_run, *drift_runs.values(),
            *(r for r, _ in si_residual_runs.values())]
    for result in runs:
        worst = max(worst, area_identity_residuals(result.series).max())
    assert worst <= 1e-12
    ok(3, f"max |int H(1-hH) dmu| residual over {len(runs)} runs = {worst:.2e}")


def test_criterion_4_volume_monotonicity(ellipsoid_run):
    vol = ellipsoid_run.series.column("volume")
    rel = np.diff(vol) / vol[:-1]
    assert rel.min() >= -1e-8
    ok(4, f"min per-snapshot relative volume change = {rel.min():.2e} >= -1e-8")


def test_criterion_5_convergence_to_round_sphere(ellipsoid_run):
    series = ellipsoid_run.series
    assert ellipsoid_run.termination.kind == "converged"
    ts = series.column("int_traceless_sq")
    assert ts[-1] < 1e-6 * ts[0]
    fit = best_fit_sphere(ellipsoid_run.final_state.mesh)
    target = np.sqrt(series.records[0].area / (4.0 * np.pi))
    assert fit.rms_residual <= 0.005 * fit.radius
    assert abs(fit.radius - target) <= 0.01 * target
    ok(5, f"converged at t={series.records[-1].t:.2f}; rms/r={fit.rms_residual/fit.radius:.1e}; "
          f"radius err {abs(fit.radius-target)/target:.2%}")


def test_criterion_6_exponential_decay(ellipsoid_run):
    fit = fit_exponential_rate(ellipsoid_run.series, "int_traceless_sq")
    delta = decay_rate_lower_bound(ellipsoid_run.series)
    assert fit.r_squared >= 0.99
    assert fit.rate >= 2.0 * delta
    ok(6, f"rate={fit.rate:.3f} R2={fit.r_squared:.6f}; bound 2*delta={2*delta:.2e}")


def test_criterion_7_mean_convexity_onset(dented_run):
    series = dented_run.series
    assert series.records[0].min_H < 0
    onset = mean_convexity_onset(series)
    assert onset is not None and onset > 0
    min_H = series.column("min_H")
    t = series.column("t")
    assert (min_H[t >= onset] > 0).all()
    assert dented_run.termination.kind == "converged"
    ok(7, f"min H(0)={series.records[0].min_H:.2f} < 0; onset t={onset:.3f}; "
          f"positive thereafter until convergence")


def test_criterion_8_ode_residuals_first_order(si_residual_runs):
    res = {
        dt: identity_residuals(r.series, meshes)
        for dt, (r, meshes) in si_residual_runs.items()
    }
    ratio_h = res[0.04].h_ode.max() / res[0.02].h_ode.max()
    ratio_H2 = res[0.04].H2_ode.max() / res[0.02].H2_ode.max()
    assert ratio_h >= 1.5
    assert ratio_H2 >= 1.5
    ok(8, f"dt halving shrinks r_h by {ratio_h:.2f}x, r_H2 by {ratio_H2:.2f}x")


def test_criterion_9_operator_convergence():
    # unit icospheres at levels 2-5 against the exact sphere; orders are the
    # log2 ratios of successive errors
    ref = sphere_reference(1.0)
    area_err, H_err = [], []
    for level in (2, 3, 4, 5):
        cache = compute_cache(gen_icosphere(1.0, (0.0, 0.0, 0.0), level))
        area_err.append(abs(cache.total_area - ref.area_exact))
        H_err.append(np.abs(cache.mean_curvature - ref.H_exact).max())
    area_orders = np.log2(np.divide(area_err[:-1], area_err[1:]))
    H_orders = np.log2(np.divide(H_err[:-1], H_err[1:]))
    assert all(abs(o - 2.0) <= 0.3 for o in area_orders)
    assert all(o >= 1.0 for o in H_orders)
    ok(9, f"area orders {['%.2f' % o for o in area_orders]}; "
          f"H orders {['%.2f' % o for o in H_orders]}")


def test_criterion_10_linear_regime_oracle():
    # the measured decay of int |Adev|^2 for single harmonic modes of the
    # unit sphere against the exact linearized rate; the explicit step's
    # time-discretization factor lies below the bound
    config = FlowConfig(stepping="explicit", t_max=0.6, roundness_tol=1e-8, snapshot_every=5)
    gaps = []
    for degree, amplitude in ((2, 0.02), (2, 0.01), (3, 0.02), (4, 0.02)):
        mesh = gen_perturbed_sphere(1.0, amplitude, SphericalHarmonicBump(degree, 0), 3)
        fit = fit_exponential_rate(run_flow(mesh, config).series, "int_traceless_sq")
        exact = sphere_mode_rate(degree, 1.0)
        gaps.append(f"l={degree} a={amplitude}: {fit.rate:.4f} vs {exact:g} "
                    f"({fit.rate / exact - 1:+.2%})")
        assert abs(fit.rate / exact - 1) <= 0.015, gaps[-1]
    ok(10, "fitted vs exact rates: " + "; ".join(gaps))


def test_criterion_11_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        proc = run_sapflow(
            "run", "--generator", "ellipsoid", "--axes", "1.2,1,0.85",
            "--subdiv", "2", "--t-max", "0.15", "--snapshot-every", "2",
            "-o", str(outdir),
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((outdir / "series.csv").read_bytes())
    assert blobs[0] == blobs[1]
    ok(11, f"two runs, byte-identical series.csv ({len(blobs[0])} bytes)")
