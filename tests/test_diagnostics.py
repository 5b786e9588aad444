import io
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapflow import (
    DegenerateFitError,
    FlowConfig,
    NonPositiveSamplesError,
    WindowTooSmallError,
    best_fit_sphere,
    compute_cache,
    compute_h,
    fit_exponential_rate,
    gen_ellipsoid,
    gen_icosphere,
    gen_perturbed_sphere,
    GaussianDentBump,
    identity_residuals,
    mean_convexity_onset,
    decay_rate_lower_bound,
    record_snapshot,
    run_flow,
)
from sapflow.diagnostics import (
    RECORD_FIELDS,
    DiagnosticsRecord,
    TimeSeries,
    _ode_rhs,
    area_identity_residuals,
    make_summary,
    ode_residuals,
)
from sapflow import TriMesh, geometry
from sapflow.flow import FlowState
from conftest import count_calls


def series_from_columns(t, **overrides):
    base = {name: 1.0 for name in RECORD_FIELDS}
    records = []
    for i, ti in enumerate(t):
        row = dict(base)
        row["t"] = ti
        for key, values in overrides.items():
            row[key] = values[i]
        records.append(DiagnosticsRecord(**row))
    return TimeSeries(records=records, metadata={})


@pytest.fixture(scope="module")
def sphere_snapshot(icosphere):
    m = icosphere(1.0, 3)
    cache = compute_cache(m)
    state = FlowState(mesh=m, h=compute_h(cache), initial_area=cache.total_area)
    return record_snapshot(state, cache)


def test_sphere_snapshot_values(sphere_snapshot):
    r = sphere_snapshot
    assert r.h == pytest.approx(0.5, rel=1e-4)
    assert r.sup_one_minus_hH < 1e-4
    assert r.max_traceless < 1e-6
    assert r.area == pytest.approx(4 * np.pi, rel=5e-3)
    assert r.int_Hpow == pytest.approx(8 * np.pi, rel=5e-3)
    assert r.min_angle > 0.5


def test_snapshot_fields_finite_on_ellipsoid():
    m = gen_ellipsoid(1.0, 1.0, 2.0, 2)
    cache = compute_cache(m)
    state = FlowState(mesh=m, h=compute_h(cache), initial_area=cache.total_area)
    r = record_snapshot(state, cache)
    assert all(np.isfinite(getattr(r, name)) for name in RECORD_FIELDS)
    assert r.min_H < r.max_H
    assert r.int_traceless_sq > 0


# -- residuals -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(stepping="explicit", t_max=0.4, snapshot_every=1)
    return run_flow(m, config)


def test_area_residual_machine_level(small_run):
    assert area_identity_residuals(small_run.series).max() <= 1e-12


def test_ode_residuals_projection_compensated(small_run):
    res = identity_residuals(small_run.series, small_run.snapshot_meshes)
    assert len(res.h_ode) == len(small_run.series) - 1
    assert res.h_ode.max() < 0.05
    assert res.H2_ode.max() < 5.0
    # same run without projection gives near-identical residuals
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(
        stepping="explicit", t_max=0.4, snapshot_every=1, area_projection=False
    )
    raw = run_flow(m, config)
    res2 = identity_residuals(raw.series, raw.snapshot_meshes)
    assert res2.h_ode.max() == pytest.approx(res.h_ode.max(), rel=0.1)


def test_residuals_require_aligned_meshes(small_run):
    with pytest.raises(ValueError):
        identity_residuals(small_run.series, small_run.snapshot_meshes[:-1])


def test_ode_residuals_from_the_run_caches_equal_the_mesh_recompute():
    # the observer sees each row as it is recorded, the final off-cadence row
    # included, with the cache the run built for its mesh
    seen = []

    def observer(state, cache, row):
        seen.append((state.mesh, row, _ode_rhs(cache, row.h, row.int_H2)))

    config = FlowConfig(stepping="explicit", t_max=0.3, snapshot_every=4)
    result = run_flow(gen_ellipsoid(1.2, 1.0, 0.85, 2), config, observer=observer)
    assert [row for _, row, _ in seen] == result.series.records
    assert all(a is b for (a, _, _), b in zip(seen, result.snapshot_meshes))
    assert result.final_state.step_index % 4  # the last row is off the cadence
    from_run = ode_residuals(result.series, [rhs for _, _, rhs in seen[:-1]])
    from_meshes = identity_residuals(result.series, result.snapshot_meshes)
    assert np.array_equal(from_run.h_ode, from_meshes.h_ode)
    assert np.array_equal(from_run.H2_ode, from_meshes.H2_ode)
    with pytest.raises(ValueError):
        ode_residuals(result.series, [rhs for _, _, rhs in seen])


def ellipse(a, b, n):
    th = 2 * np.pi * np.arange(n) / n
    return TriMesh(np.column_stack([a * np.cos(th), b * np.sin(th)]), mode="curve")


def unprojected_residuals(series, meshes):
    """Reference: undo each right endpoint's rescaling on its mesh, then
    recompute h and int H^2 dmu from the geometry of every mesh."""

    def terms(mesh):
        cache = compute_cache(mesh)
        va, H = cache.vertex_area, cache.mean_curvature
        int_H2 = float(np.dot(H**2, va))
        h = float(np.dot(H, va)) / int_H2
        one = 1.0 - h * H
        A2 = cache.second_form_norm**2
        g2 = float(np.dot(cache.grad_H_norm**2, va))
        rhs_h = (float(np.dot(-(1 - 2 * h * H) * one * A2 + H**2 * one**2, va))
                 + 2 * h**2 * g2) / int_H2
        rhs_H2 = float(np.dot(H**3 * one - 2 * one * H * A2, va)) - 2 * h * g2
        return h, int_H2, rhs_h, rhs_H2

    r_h, r_H2 = [], []
    for k in range(len(meshes) - 1):
        left, right = series.records[k], series.records[k + 1]
        h_l, int_H2_l, rhs_h, rhs_H2 = terms(meshes[k])
        # the centre of the rescaling does not matter: h and int H^2 are
        # invariant under translations
        pre = meshes[k + 1].with_vertices(
            meshes[k + 1].vertices / right.area_scale_applied
        )
        h_pre, int_H2_pre, _, _ = terms(pre)
        dt = right.t - left.t
        r_h.append(abs((h_pre - h_l) / dt - rhs_h))
        r_H2.append(abs((int_H2_pre - int_H2_l) / dt - rhs_H2))
    return np.array(r_h), np.array(r_H2)


@pytest.fixture(scope="module")
def projected_runs(small_run):
    semi = run_flow(
        gen_ellipsoid(1.2, 1.0, 0.85, 2),
        FlowConfig(stepping="semi-implicit", dt_max=0.01, t_max=0.2),
    )
    curve = run_flow(ellipse(1.3, 0.8, 64), FlowConfig(stepping="explicit", t_max=0.1))
    return {"explicit": small_run, "semi-implicit": semi, "curve": curve}


@pytest.mark.parametrize("kind", ["explicit", "semi-implicit", "curve"])
def test_ode_residuals_match_unprojected_recompute(projected_runs, kind, monkeypatch):
    run = projected_runs[kind]
    meshes = run.snapshot_meshes
    assert any(r.area_scale_applied != 1.0 for r in run.series.records[1:])
    ref_h, ref_H2 = unprojected_residuals(run.series, meshes)
    calls = count_calls(monkeypatch, geometry, "compute_cache")
    res = identity_residuals(run.series, meshes)
    # one geometry pass per interval, on its left mesh
    assert len(calls) == len(meshes) - 1
    # relative to the run's largest residual: both sides divide a rounding
    # level difference of h or int H^2 by dt, which is smallest on the last,
    # t_max-clamped interval
    for got, want in ((res.h_ode, ref_h), (res.H2_ode, ref_H2)):
        assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_ode_residuals_shrink_under_joint_refinement():
    # halving dt together with one mesh refinement shrinks both ODE residuals
    from sapflow import SphericalHarmonicBump, gen_perturbed_sphere

    maxima = []
    for sub, dt in ((2, 0.004), (3, 0.002)):
        m = gen_perturbed_sphere(1.0, 0.05, SphericalHarmonicBump(2, 0), sub)
        config = FlowConfig(
            stepping="explicit", cfl_safety=1.0, dt_max=dt, t_max=0.24,
            snapshot_every=1, roundness_tol=1e-12,
        )
        result = run_flow(m, config)
        res = identity_residuals(result.series, result.snapshot_meshes)
        maxima.append((res.h_ode.max(), res.H2_ode.max()))
    assert maxima[1][0] < 0.5 * maxima[0][0]
    assert maxima[1][1] < 0.5 * maxima[0][1]


# -- exponential fit ------------------------------------------------------------


def test_fit_exact_log_linear_data():
    t = np.arange(0.0, 4.05, 0.1)
    series = series_from_columns(t, int_traceless_sq=np.exp(-0.5 * t))
    fit = fit_exponential_rate(series, "int_traceless_sq", window=(0.0, 4.0))
    assert fit.rate == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series_rate_zero():
    t = np.linspace(0.0, 2.0, 21)
    series = series_from_columns(t, int_traceless_sq=np.full(21, 2.5))
    fit = fit_exponential_rate(series, "int_traceless_sq", window=(0.0, 2.0))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    C=st.floats(min_value=1e-6, max_value=1e6),
    lam=st.floats(min_value=1e-3, max_value=50.0),
)
def test_fit_recovers_rate_property(C, lam):
    t = np.linspace(0.0, 3.0, 40)
    series = series_from_columns(t, int_traceless_sq=C * np.exp(-lam * t))
    fit = fit_exponential_rate(series, "int_traceless_sq", window=(0.0, 3.0))
    assert abs(fit.rate - lam) <= 1e-9 * max(1.0, lam)


def test_fit_window_default_skips_transient():
    t = np.linspace(0.0, 10.0, 101)
    series = series_from_columns(t, int_traceless_sq=np.exp(-t))
    fit = fit_exponential_rate(series, "int_traceless_sq")
    assert fit.rate == pytest.approx(1.0, abs=1e-9)


def test_fit_nonpositive_raises():
    t = np.linspace(0.0, 1.0, 11)
    y = np.exp(-t)
    y[5] = 0.0
    series = series_from_columns(t, int_traceless_sq=y)
    with pytest.raises(NonPositiveSamplesError):
        fit_exponential_rate(series, "int_traceless_sq", window=(0.0, 1.0))


def test_fit_window_too_small():
    t = np.linspace(0.0, 1.0, 11)
    series = series_from_columns(t, int_traceless_sq=np.exp(-t))
    with pytest.raises(WindowTooSmallError):
        fit_exponential_rate(series, "int_traceless_sq", window=(0.0, 0.2))


# -- decay bound -------------------------------------------------------------------


def test_decay_bound_exact_sphere_values():
    t = np.linspace(0.0, 1.0, 6)
    n_rows = len(t)
    series = series_from_columns(
        t,
        area=np.full(n_rows, 4 * np.pi),
        max_abs_A=np.full(n_rows, np.sqrt(2.0)),
        h=np.full(n_rows, 0.5),
        int_H2=np.full(n_rows, 16 * np.pi),
    )
    delta = decay_rate_lower_bound(series)
    assert delta == 1.0 / (8.0 * (16 * np.pi) ** 2 * 4 * np.pi)
    assert delta == pytest.approx(3.94e-6, rel=1e-2)


def test_decay_bound_positive_and_quarter_scaling(small_run):
    delta = decay_rate_lower_bound(small_run.series)
    assert delta > 0
    # doubling Lambda1 (via doubled int_H2 dominating) quarters delta
    t = np.linspace(0.0, 1.0, 6)
    mk = lambda lam: series_from_columns(
        t,
        area=np.ones(6),
        max_abs_A=np.ones(6),
        h=np.ones(6),
        int_H2=np.full(6, lam),
    )
    assert decay_rate_lower_bound(mk(40.0)) == pytest.approx(
        decay_rate_lower_bound(mk(20.0)) / 4.0
    )


def test_decay_bound_of_curve_run_uses_n_1():
    # the bound reads the mode from the series: n = 1 for a curve, as in the summary
    run = run_flow(ellipse(1.3, 0.8, 64), FlowConfig(stepping="explicit", t_max=0.5))
    delta = decay_rate_lower_bound(run.series)
    assert delta == make_summary(run.series)["delta_paper"]
    surface = TimeSeries(records=run.series.records, metadata={"mode": "surface"})
    assert delta == 2.0 * decay_rate_lower_bound(surface)


# -- sphere fit ----------------------------------------------------------------------


def test_best_fit_sphere_exact_data(icosphere):
    m = icosphere(2.0, 3, (1.0, 2.0, 3.0))
    fit = best_fit_sphere(m)
    assert np.linalg.norm(fit.center - np.array([1.0, 2.0, 3.0])) < 1e-9
    assert fit.radius == pytest.approx(2.0, abs=1e-9)
    assert fit.rms_residual < 1e-9


def test_best_fit_sphere_rejects_ellipsoid_shape():
    fit = best_fit_sphere(gen_ellipsoid(1.0, 1.0, 2.0, 2))
    assert fit.rms_residual > 0.1


def test_best_fit_sphere_equivariance(icosphere):
    m = icosphere(1.0, 2)
    theta = 1.1
    rot = np.array(
        [
            [1, 0, 0],
            [0, np.cos(theta), -np.sin(theta)],
            [0, np.sin(theta), np.cos(theta)],
        ]
    )
    shift = np.array([0.4, -2.0, 0.9])
    fit0 = best_fit_sphere(m)
    fit1 = best_fit_sphere(m.vertices @ rot.T + shift)
    assert np.linalg.norm(fit1.center - (rot @ fit0.center + shift)) < 1e-10
    assert fit1.radius == pytest.approx(fit0.radius, abs=1e-10)
    assert fit1.rms_residual == pytest.approx(fit0.rms_residual, abs=1e-10)


def test_best_fit_sphere_coplanar_raises(flat_patch):
    with pytest.raises(DegenerateFitError):
        best_fit_sphere(flat_patch.vertices)


# -- mean convexity onset --------------------------------------------------------------


def test_onset_zero_for_convex_series():
    t = np.linspace(0.0, 1.0, 6)
    series = series_from_columns(t, min_H=np.full(6, 0.5))
    assert mean_convexity_onset(series) == 0.0


def test_onset_after_sign_change():
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    series = series_from_columns(t, min_H=np.array([-1.0, -0.2, 0.1, 0.3, 0.5]))
    assert mean_convexity_onset(series) == pytest.approx(0.2)


def test_onset_none_when_never_positive():
    t = np.array([0.0, 0.1, 0.2])
    series = series_from_columns(t, min_H=np.array([-1.0, -0.5, -0.1]))
    assert mean_convexity_onset(series) is None


def test_onset_requires_staying_positive():
    t = np.array([0.0, 0.1, 0.2, 0.3])
    series = series_from_columns(t, min_H=np.array([-1.0, 0.5, -0.1, 0.4]))
    assert mean_convexity_onset(series) == pytest.approx(0.3)


def test_dented_sphere_onset_is_finite():
    m = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    config = FlowConfig(stepping="explicit", t_max=0.6, snapshot_every=5)
    result = run_flow(m, config)
    series = result.series
    assert series.records[0].min_H < 0
    onset = mean_convexity_onset(series)
    assert onset is not None and 0 < onset < 0.6


# -- csv / series ------------------------------------------------------------------------


def test_series_csv_roundtrip(small_run):
    buf = io.StringIO()
    small_run.series.to_csv(buf)
    buf.seek(0)
    back = TimeSeries.from_csv(buf)
    for a, b in zip(small_run.series.records, back.records):
        for name in RECORD_FIELDS:
            assert getattr(a, name) == getattr(b, name)


def test_series_rejects_nonmonotone_time():
    t = np.array([0.0, 0.2, 0.1])
    series = series_from_columns(t)
    buf = io.StringIO()
    series.to_csv(buf)
    buf.seek(0)
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries.from_csv(buf)


def test_series_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        TimeSeries.from_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_summary_structure(small_run):
    summary = make_summary(
        small_run.series,
        small_run.final_state.mesh,
        small_run.termination,
        identity_residuals(small_run.series, small_run.snapshot_meshes),
    )
    assert set(summary) == {
        "termination",
        "fitted_rate",
        "R2",
        "delta_paper",
        "final_sphere",
        "mean_convexity_onset",
        "max_residuals",
    }
    assert summary["max_residuals"]["area"] <= 1e-12
    assert summary["final_sphere"]["radius"] > 0


def test_snapshot_suprema_bitwise_recomputable(small_run):
    idx = len(small_run.series) // 2
    rec = small_run.series.records[idx]
    cache = compute_cache(small_run.snapshot_meshes[idx])
    assert float(np.abs(1 - rec.h * cache.mean_curvature).max()) == rec.sup_one_minus_hH
    assert float(cache.traceless_norm.max()) == rec.max_traceless
    assert float(cache.grad_H_norm.max()) == rec.max_grad_H


def test_topping_ratio_bounded(small_run):
    series = small_run.series
    ratio = series.column("diameter_est") / series.column("int_Hpow")
    assert np.isfinite(ratio).all()
    assert ratio.max() < 100.0


# -- invariance of the row under rigid motions and relabelling -------------------


def random_shape(kind, rng):
    """A generic closed shape: an ellipsoid with three distinct semi-axes, or
    an ellipse polygon with a random vertex count."""
    if kind == "ellipsoid":
        return gen_ellipsoid(1.0, rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.5), 2)
    n = int(rng.integers(24, 97))
    th = 2 * np.pi * np.arange(n) / n
    xy = np.column_stack([rng.uniform(1.1, 1.5) * np.cos(th), np.sin(th)])
    return TriMesh(xy, mode="curve")


def rigid_motion(mesh, rng):
    d = mesh.vertices.shape[1]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))  # uniformly random orthogonal matrix
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]  # a rotation keeps the orientation
    return mesh.with_vertices(mesh.vertices @ q.T + rng.uniform(-3.0, 3.0, size=d))


def relabel(mesh, rng):
    if mesh.mode == "curve":
        # the vertex order is the curve: relabelling is a cyclic shift
        shift = int(rng.integers(1, mesh.n_vertices))
        return TriMesh(np.roll(mesh.vertices, shift, axis=0), mode="curve")
    perm = rng.permutation(mesh.n_vertices)  # new vertex j is old vertex perm[j]
    new_label = np.empty_like(perm)
    new_label[perm] = np.arange(len(perm))
    return TriMesh(mesh.vertices[perm], new_label[mesh.faces])


def snapshot_row(mesh):
    cache = compute_cache(mesh)
    h = compute_h(cache)
    state = FlowState(mesh=mesh, t=0.25, h=h, last_projection_scale=0.99)
    return record_snapshot(state, cache)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["ellipsoid", "curve"]), seed=st.integers(0, 2**32 - 1))
def test_snapshot_row_invariance_property(kind, seed):
    # every column, the cache-derived volume and min_angle included, is
    # unchanged up to rounding by a rigid motion and by a relabelling of the
    # vertices; diameter_est is exempt from relabelling only, because its
    # first Dijkstra source is drawn by vertex index
    rng = np.random.default_rng(seed)
    mesh = random_shape(kind, rng)
    row = snapshot_row(mesh)
    cases = [(rigid_motion(mesh, rng), ()), (relabel(mesh, rng), ("diameter_est",))]
    for moved, exempt in cases:
        other = snapshot_row(moved)
        for name in RECORD_FIELDS:
            if name in exempt:
                continue
            a, b = getattr(row, name), getattr(other, name)
            assert abs(a - b) <= 1e-10 * abs(a), (name, a, b)
