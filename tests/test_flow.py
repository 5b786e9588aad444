import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.sparse import diags as sparse_diags
from hypothesis import given, settings
from hypothesis import strategies as st

from sapflow import (
    BlowUpError,
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    FlowConfig,
    FlowState,
    GeometryCache,
    OrientationError,
    TriMesh,
    advance,
    compute_cache,
    compute_h,
    enforce_area_constraint,
    flow_velocity,
    gen_ellipsoid,
    gen_circle,
    gen_icosphere,
    gen_perturbed_sphere,
    GaussianDentBump,
    SphericalHarmonicBump,
    run_flow,
    select_timestep,
    surface_integral,
    validate,
    vertex_area_weights,
)
from sapflow import diagnostics, flow, geometry
from sapflow.diagnostics import area_identity_residuals, best_fit_sphere, series_to_csv_bytes
from conftest import (
    cg_not_converged,
    fail_on_call,
    jittered_icosphere,
    replace_on_call,
    run_keeping_meshes,
    sliver_sphere,
    zero_area_cube,
)


def synthetic_cache(mesh, H_value, normals=None):
    cache = compute_cache(mesh)
    cache.mean_curvature = np.full(mesh.n_vertices, float(H_value))
    if normals is not None:
        cache.normal = normals
    return cache


STEP_MESHES = {
    "icosphere": lambda: gen_icosphere(1.0, subdivisions=2),
    "dented": lambda: gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2),
    "circle": lambda: gen_circle(1.0, 64),
    "sliver": sliver_sphere,
}


# -- config ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, value",
    [
        ("stepping", "implicit"),
        ("cfl_safety", 1.5),
        ("cfl_safety", "0.5"),
        ("dt_max", 0.0),
        ("dt_max", True),
        # an infinite cap was written into run_meta.json as Infinity, not JSON
        ("dt_max", float("inf")),
        ("area_projection", 1),
        ("t_max", "0.1"),
        ("t_max", float("nan")),
        ("t_max", float("inf")),
        ("roundness_tol", 1.0),
        ("blowup_max_A", "1e3"),
        ("blowup_max_A", float("nan")),
        ("blowup_max_A", float("inf")),
        ("blowup_max_A", 0.0),
        ("blowup_max_A", -1.0),
        ("snapshot_every", 0),
        ("snapshot_every", 2.0),
        ("snapshot_every", True),
    ],
)
def test_config_rejects_invalid_setting(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        FlowConfig(**{name: value})


def test_config_accepts_numpy_numbers():
    config = FlowConfig(t_max=np.float64(0.5), blowup_max_A=np.float32(1e3),
                        snapshot_every=np.int64(2))
    assert config.snapshot_every == 2


# -- compute_h -------------------------------------------------------------------


@pytest.mark.parametrize("radius,expected", [(1.0, 0.5), (2.0, 1.0)])
def test_h_on_spheres(icosphere, radius, expected):
    m = icosphere(radius, 3)
    assert compute_h(compute_cache(m)) == pytest.approx(expected, rel=1e-4)


def test_h_degenerate_guard(icosphere):
    m = icosphere(1.0, 1)
    cache = synthetic_cache(m, 0.0)
    with pytest.raises(DegenerateMeanCurvatureError):
        compute_h(cache)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["harmonic", "dent", "ellipsoid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_area_identity_property(shape, seed):
    # H is the area gradient projected on the velocity's normal and h is built
    # from the same fields, so int H (1 - h H) dmu vanishes up to rounding
    rng = np.random.default_rng(seed)
    if shape == "ellipsoid":
        mesh = gen_ellipsoid(*rng.uniform(0.6, 1.5, size=3), subdivisions=2)
    else:
        if shape == "harmonic":
            degree = int(rng.integers(2, 6))
            bump = SphericalHarmonicBump(degree, int(rng.integers(-degree, degree + 1)))
        else:
            bump = GaussianDentBump(tuple(rng.normal(size=3)), rng.uniform(0.2, 0.6))
        mesh = gen_perturbed_sphere(1.0, rng.uniform(-0.3, 0.3), bump, 2)
    cache = compute_cache(mesh)
    h = compute_h(cache)
    H, w = cache.mean_curvature, cache.vertex_area
    scale = surface_integral(w, np.abs(H)) + h * surface_integral(w, H**2)
    assert abs(surface_integral(w, H * (1.0 - h * H))) <= 1e-13 * scale


# -- velocity -----------------------------------------------------------------------


def test_velocity_vanishes_on_exact_sphere_values(icosphere):
    m = icosphere(1.0, 2)
    cache = synthetic_cache(m, 2.0)
    v = flow_velocity(cache, h=0.5)
    assert np.abs(v).max() == 0.0


def test_velocity_h_zero_is_unit_normal(icosphere):
    m = icosphere(1.0, 2)
    cache = compute_cache(m)
    v = flow_velocity(cache, h=0.0)
    assert np.allclose(v, cache.normal)


def test_velocity_sign_flips_where_H_exceeds_1_over_h(icosphere):
    m = icosphere(1.0, 2)
    cache = compute_cache(m)
    h = 1.0  # 1/h = 1 < H ~ 2 everywhere
    v = flow_velocity(cache, h)
    inward = np.einsum("ij,ij->i", v, cache.normal)
    assert (inward < 0).all()


# -- timestep ----------------------------------------------------------------------


def test_explicit_timestep_formula(icosphere):
    m = icosphere(1.0, 3)
    cache = compute_cache(m)
    h = compute_h(cache)
    config = FlowConfig(stepping="explicit", cfl_safety=0.5, dt_max=1e9)
    expected = 0.5 * m.edge_lengths().min() ** 2 / (4.0 * h)
    assert select_timestep(m, cache, h, config) == expected


def test_timestep_linear_in_cfl(icosphere):
    m = icosphere(1.0, 2)
    cache = compute_cache(m)
    h = compute_h(cache)
    one = select_timestep(m, cache, h, FlowConfig(cfl_safety=0.4, dt_max=1e9))
    two = select_timestep(m, cache, h, FlowConfig(cfl_safety=0.8, dt_max=1e9))
    assert two == pytest.approx(2 * one, rel=1e-14)


def test_semi_implicit_near_stationary_hits_dt_max(icosphere):
    m = icosphere(1.0, 3)
    cache = compute_cache(m)
    h = compute_h(cache)
    config = FlowConfig(stepping="semi-implicit", dt_max=0.05)
    assert select_timestep(m, cache, h, config) == 0.05


# -- advance ------------------------------------------------------------------------


def test_one_step_decreases_roundness_deficit():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    cache = compute_cache(m)
    h = compute_h(cache)
    state = FlowState(mesh=m, h=h, initial_area=cache.total_area)
    config = FlowConfig(stepping="explicit")
    out = advance(state, cache, config, select_timestep(m, cache, h, config))
    new_cache = compute_cache(out.mesh)
    before = surface_integral(cache.vertex_area, cache.traceless_norm**2)
    after = surface_integral(new_cache.vertex_area, new_cache.traceless_norm**2)
    assert after < before


def test_sphere_stationarity_displacement_shrinks(icosphere):
    config = FlowConfig(stepping="explicit", dt_max=1e9)
    displacements = []
    for sub in (2, 3):
        m = icosphere(1.0, sub)
        state = FlowState(mesh=m)
        for _ in range(50):
            cache = compute_cache(state.mesh)
            state = replace(state, h=compute_h(cache))
            dt = select_timestep(state.mesh, cache, state.h, config)
            state = advance(state, cache, config, dt)
        displacements.append(
            np.linalg.norm(state.mesh.vertices - m.vertices, axis=1).max()
        )
    assert displacements[0] > 2 * displacements[1]


# -- area constraint -----------------------------------------------------------------


def test_projection_identity_when_area_matches(icosphere):
    m = icosphere(1.0, 2)
    area = vertex_area_weights(m).sum()
    state = FlowState(mesh=m, initial_area=area)
    out = enforce_area_constraint(state)
    assert out.last_projection_scale == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(out.mesh.vertices, m.vertices, atol=1e-12)


def test_projection_inverts_uniform_scaling(icosphere):
    m = icosphere(1.0, 2)
    area = vertex_area_weights(m).sum()
    inflated = m.with_vertices(1.1 * m.vertices)
    state = FlowState(mesh=inflated, initial_area=area)
    out = enforce_area_constraint(state)
    assert out.last_projection_scale == pytest.approx(1 / 1.1, rel=1e-12)
    restored = vertex_area_weights(out.mesh).sum()
    assert abs(restored - area) < 1e-12 * area


@pytest.mark.parametrize("name", sorted(STEP_MESHES))
def test_projection_restores_face_area_sum(name):
    # the projection measures the face areas (segment lengths of a curve)
    mesh = STEP_MESHES[name]()
    area = geometry._area_centroid(geometry._configuration(mesh))[0]
    moved = mesh.with_vertices(1.3 * mesh.vertices + 0.2)
    out = enforce_area_constraint(FlowState(mesh=moved, initial_area=area))
    restored = geometry._area_centroid(geometry._configuration(out.mesh))[0]
    assert abs(restored - area) <= 1e-12 * area


def test_projection_curve_mode_exponent():
    c = gen_circle(1.0, 64)
    length = vertex_area_weights(c).sum()
    state = FlowState(mesh=c.with_vertices(1.25 * c.vertices), initial_area=length)
    out = enforce_area_constraint(state)
    assert out.last_projection_scale == pytest.approx(1 / 1.25, rel=1e-12)
    assert vertex_area_weights(out.mesh).sum() == pytest.approx(length, rel=1e-12)


# -- run_flow ------------------------------------------------------------------------


def test_sphere_run_hits_time_limit(icosphere):
    m = icosphere(1.0, 2)
    config = FlowConfig(stepping="explicit", t_max=0.2, snapshot_every=5)
    result = run_flow(m, config)
    assert result.termination.kind == "time_limit"
    drift = np.linalg.norm(
        result.final_state.mesh.vertices - m.vertices, axis=1
    ).max()
    assert drift < 5e-5


def test_ellipsoid_run_converges_small():
    m = gen_ellipsoid(1.15, 1.0, 0.9, 2)
    config = FlowConfig(stepping="explicit", t_max=20.0, roundness_tol=1e-5,
                        snapshot_every=10)
    result = run_flow(m, config)
    assert result.termination.kind == "converged"
    records = result.series.records
    target = np.sqrt(records[0].area / (4 * np.pi))
    fit = best_fit_sphere(result.final_state.mesh)
    assert fit.radius == pytest.approx(target, rel=0.01)
    assert fit.rms_residual < 0.005 * fit.radius


def test_blowup_guard_reports_cleanly():
    m = gen_ellipsoid(1.0, 1.0, 2.5, 2)
    config = FlowConfig(blowup_max_A=1.0, t_max=5.0)
    result = run_flow(m, config)
    assert result.termination.kind == "blow_up"
    assert "max_A" in result.termination.detail


@pytest.mark.parametrize(
    "error,kind",
    [(DegenerateGeometryError, "degenerate_geometry"), (OrientationError, "orientation")],
)
def test_midrun_geometry_error_is_blowup(monkeypatch, error, kind):
    fail_on_call(monkeypatch, geometry, "compute_cache", 4, error)
    result, meshes = run_keeping_meshes(
        gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig(t_max=5.0)
    )
    assert result.termination.kind == "blow_up"
    assert result.termination.detail == kind
    assert len(result.series) == 3
    # the fields of step 3 failed: the run ends at step 2, which has a row
    assert len(meshes) == 3
    assert result.final_state.step_index == 2


def test_projection_geometry_error_is_blowup(monkeypatch):
    fail_on_call(monkeypatch, flow, "enforce_area_constraint", 2, DegenerateGeometryError)
    result = run_flow(gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig(t_max=5.0))
    assert str(result.termination) == "blow_up(degenerate_geometry)"
    # the step whose projection failed is discarded; its start has a row
    assert len(result.series) == 2
    assert result.final_state.step_index == 1


def test_geometry_error_on_input_propagates(monkeypatch):
    fail_on_call(monkeypatch, geometry, "compute_cache", 1, DegenerateGeometryError)
    with pytest.raises(DegenerateGeometryError):
        run_flow(gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig(t_max=5.0))


def test_area_identity_and_cauchy_schwarz_every_snapshot():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(stepping="explicit", t_max=0.5, snapshot_every=2)
    result = run_flow(m, config)
    series = result.series
    assert area_identity_residuals(series).max() <= 1e-12
    area = series.column("area")
    gap = area - series.column("int_H") ** 2 / series.column("int_H2")
    assert gap.min() >= -1e-10


def test_volume_nondecreasing_between_snapshots():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(stepping="explicit", t_max=1.0, snapshot_every=1)
    result = run_flow(m, config)
    vol = result.series.column("volume")
    rel = np.diff(vol) / vol[:-1]
    assert rel.min() >= -1e-8


def test_area_drift_halves_with_dt():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    drifts = []
    for dt in (0.004, 0.002):
        config = FlowConfig(
            stepping="explicit", cfl_safety=1.0, dt_max=dt,
            area_projection=False, t_max=1.0, snapshot_every=5,
        )
        result = run_flow(m, config)
        area = result.series.column("area")
        drifts.append(np.abs(area - area[0]).max() / area[0])
    assert 4 / 3 <= drifts[0] / drifts[1] <= 4.0


def test_explicit_and_semi_implicit_agree():
    m = gen_ellipsoid(1.15, 1.0, 0.9, 2)
    fits = []
    for stepping, dt_max in (("explicit", 0.05), ("semi-implicit", 0.01)):
        config = FlowConfig(
            stepping=stepping, dt_max=dt_max, t_max=20.0, roundness_tol=1e-5,
            snapshot_every=10,
        )
        result = run_flow(m, config)
        assert result.termination.kind == "converged"
        fits.append(best_fit_sphere(result.final_state.mesh))
    assert fits[0].radius == pytest.approx(fits[1].radius, rel=0.005)
    assert np.linalg.norm(fits[0].center - fits[1].center) < 0.005 * fits[0].radius


def test_run_is_deterministic():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(stepping="explicit", t_max=0.3, snapshot_every=2)
    a = run_flow(m, config)
    b = run_flow(m, config)
    assert series_to_csv_bytes(a.series) == series_to_csv_bytes(b.series)


def test_semi_implicit_run_is_deterministic():
    # the start of each solve comes from the run's own previous steps: a
    # second run, and a run after a run on another mesh of the same size,
    # start afresh
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    other = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    assert other.n_vertices == m.n_vertices
    config = FlowConfig(stepping="semi-implicit", dt_max=0.01, t_max=0.3, snapshot_every=2)
    a = run_flow(m, config)
    b = run_flow(m, config)
    run_flow(other, config)
    c = run_flow(m, config)
    assert series_to_csv_bytes(a.series) == series_to_csv_bytes(b.series)
    assert series_to_csv_bytes(a.series) == series_to_csv_bytes(c.series)


def test_curve_run_time_limit():
    # n = 1 sanity regime: traceless is identically zero, so the run goes to
    # the time limit while preserving length under projection
    c = gen_circle(1.0, 96)
    config = FlowConfig(stepping="explicit", t_max=0.3, snapshot_every=10)
    result = run_flow(c, config)
    assert result.termination.kind == "time_limit"
    length = result.series.column("area")
    assert np.abs(length - length[0]).max() < 1e-11 * length[0]


def test_curve_semi_implicit_step():
    c = gen_circle(1.0, 96)
    config = FlowConfig(stepping="semi-implicit", dt_max=0.01, t_max=0.2,
                        snapshot_every=5)
    result = run_flow(c, config)
    assert result.termination.kind == "time_limit"
    assert result.series.records[-1].h == pytest.approx(1.0, abs=2e-3)


# -- the semi-implicit step's linear algebra ------------------------------------------


def start_histories(correction):
    """Corrections (d, j, n) that a solve's start is projected onto: none,
    the true correction repeated, collinear ones, all zero, and the true one
    among noise."""
    c = correction.T[:, None]
    noise = np.random.default_rng(0).normal(size=c.shape)
    return {
        "none": None,
        "repeated": np.concatenate([c, c, c], axis=1),
        "collinear": np.concatenate([c, -2.0 * c, 1e-9 * c], axis=1),
        "zero": np.zeros((c.shape[0], 4, c.shape[2])),
        "noisy": np.concatenate([noise, c + 1e-6 * noise, 3.0 * noise], axis=1),
    }


@pytest.mark.parametrize("name", sorted(STEP_MESHES))
def test_semi_implicit_step_solves_the_system(name):
    mesh = STEP_MESHES[name]()
    cache = compute_cache(mesh)
    if name == "sliver":
        assert 1e-3 < cache.min_angle < 1e-2
    h, dt = compute_h(cache), 0.05
    explicit = mesh.vertices + dt * flow_velocity(cache, h)
    L = geometry.cotangent_stiffness(mesh, cache.stiffness_weight)
    A = np.diag(cache.vertex_area) + dt * h * L.toarray()
    rhs = cache.vertex_area[:, None] * (mesh.vertices + dt * cache.normal)
    solved = np.linalg.solve(A, rhs)
    for kind, history in start_histories(solved - explicit).items():
        x = flow._semi_implicit_step(mesh, cache, h, dt, explicit, history)
        # CG stops at a residual of _CG_RTOL |rhs| per coordinate, from any
        # start; these meshes have unit size, so x is off by about as much
        residual = np.linalg.norm(A @ x - rhs, axis=0)
        assert (residual <= 10 * flow._CG_RTOL * np.linalg.norm(rhs, axis=0)).all(), kind
        assert np.abs(x - solved).max() <= 100 * flow._CG_RTOL, kind


def test_projected_start_is_finite_and_no_worse_in_the_a_norm():
    # the start is the A-norm-closest point of x + span(V): never farther
    # from the solution than x, and x itself when V spans nothing
    mesh = STEP_MESHES["dented"]()
    cache = compute_cache(mesh)
    h, dt = compute_h(cache), 0.05
    A = geometry.cotangent_stiffness(mesh, cache.stiffness_weight)
    A = (A * (dt * h) + sparse_diags(cache.vertex_area)).tocsr()
    rhs = cache.vertex_area * (mesh.vertices[:, 2] + dt * cache.normal[:, 2])
    x = mesh.vertices[:, 2] + dt * flow_velocity(cache, h)[:, 2]
    solved = np.linalg.solve(A.toarray(), rhs)

    def a_norm(e):
        return np.sqrt(e @ (A @ e))

    for kind, history in start_histories((solved - x)[:, None]).items():
        if history is None:
            continue
        start = flow._projected_start(A, rhs, x, history[0])
        assert np.isfinite(start).all(), kind
        assert a_norm(start - solved) <= a_norm(x - solved) * (1 + 1e-12), kind
        if kind == "zero":
            assert np.array_equal(start, x)


def test_corrections_are_the_last_few_newest_first():
    # the state hands on x' - x_explicit of its last _START_HISTORY
    # semi-implicit steps; an explicit step keeps none
    mesh = STEP_MESHES["dented"]()
    state = FlowState(mesh=mesh, h=compute_h(compute_cache(mesh)))
    semi = FlowConfig(stepping="semi-implicit")
    for j in range(flow._START_HISTORY + 2):
        cache = compute_cache(state.mesh)
        explicit = state.mesh.vertices + 0.01 * flow_velocity(cache, state.h)
        previous = state.corrections
        state = advance(state, cache, semi, 0.01)
        history = state.corrections
        assert history.shape == (3, min(j + 1, flow._START_HISTORY), mesh.n_vertices)
        assert np.array_equal(history[:, 0], (state.mesh.vertices - explicit).T)
        if previous is not None:
            assert np.array_equal(history[:, 1:], previous[:, : flow._START_HISTORY - 1])
    explicit_step = advance(state, compute_cache(state.mesh), FlowConfig(), 1e-4)
    assert explicit_step.corrections is None


def count_cg_iterations(monkeypatch):
    """Count the iterations of every ``spla.cg`` call the flow makes."""
    real, count = flow.spla.cg, [0]

    def counting(*args, **kwargs):
        def tick(xk):
            count[0] += 1

        return real(*args, callback=tick, **kwargs)

    monkeypatch.setattr(flow.spla, "cg", counting)
    return count


def test_projected_start_halves_the_cg_iterations(monkeypatch):
    # the subdivision-2 dent run to convergence: 749 iterations from the
    # projected start, 2358 from the explicit step (1885 from the explicit
    # step plus the previous correction alone)
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    config = FlowConfig(stepping="semi-implicit", snapshot_every=5)
    count = count_cg_iterations(monkeypatch)
    projected = run_flow(mesh, config)
    iterations = count[0]
    monkeypatch.setattr(flow, "_projected_start", lambda A, b, x, V: x)
    count[0] = 0
    explicit = run_flow(mesh, config)
    assert projected.termination.kind == explicit.termination.kind == "converged"
    assert projected.final_state.step_index == explicit.final_state.step_index
    assert iterations <= 0.5 * count[0]


def dent_run(monkeypatch, rtol, **config):
    monkeypatch.setattr(flow, "_CG_RTOL", rtol)
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    config = FlowConfig(**{"stepping": "semi-implicit", "snapshot_every": 5, **config})
    result = run_flow(mesh, config)
    assert result.termination.kind == "converged"
    return result


def test_cg_tolerance_below_the_time_step_error(monkeypatch):
    # the derivation of flow._CG_RTOL, at subdivision 2: against a run solved
    # to 1e-12, a run at _CG_RTOL moves every column, over the rows and on the
    # final (converged) row, by at most 1 % of the gap to a run at dt_max / 2
    # (rows every step, interpolated to the same times)
    rtol = flow._CG_RTOL
    solved = dent_run(monkeypatch, 1e-12).series
    loose = dent_run(monkeypatch, rtol).series
    half = dent_run(monkeypatch, 1e-12, dt_max=0.025, snapshot_every=1).series
    assert len(loose) == len(solved)
    t, t_half = solved.column("t"), half.column("t")
    common = t <= t_half[-1]
    # t is the abscissa; the projection holds the area to rounding
    names = [f.name for f in fields(diagnostics.DiagnosticsRecord)]
    for name in [n for n in names if n not in ("t", "area")]:
        ref, moved, fine = solved.column(name), loose.column(name), half.column(name)
        gap = np.abs(ref - np.interp(t, t_half, fine))[common].max()
        assert np.abs(moved - ref).max() <= 0.01 * gap, name
        assert abs(moved[-1] - ref[-1]) <= 0.01 * abs(ref[-1] - fine[-1]), name


@pytest.mark.parametrize("name", sorted(STEP_MESHES))
def test_cache_min_angle_matches_validate(name):
    # the cache takes arctan2(1, max cot), validate arctan2(|u x v|, u . v)
    mesh = STEP_MESHES[name]()
    expected = validate(mesh).min_angle
    assert abs(compute_cache(mesh).min_angle - expected) <= 1e-14 * expected


def test_unconverged_solve_is_blowup(monkeypatch):
    # three solves per step: the 4th call is the first coordinate of step 2
    replace_on_call(monkeypatch, flow.spla, "cg", 4, cg_not_converged)
    config = FlowConfig(stepping="semi-implicit", dt_max=0.01, t_max=5.0)
    result, meshes = run_keeping_meshes(gen_ellipsoid(1.2, 1.0, 0.85, 2), config)
    assert str(result.termination) == "blow_up(linear_solve)"
    assert len(result.series) == 2
    assert len(meshes) == 2
    assert result.final_state.step_index == 1


# -- every blow-up kind ends at a state that has a row ------------------------------


def assert_ends_at_last_row(result, meshes, termination, rows):
    assert str(result.termination) == termination
    assert len(result.series) == rows
    assert result.series.records[-1].t == result.final_state.t
    assert meshes[-1] is result.final_state.mesh


def test_mesh_degeneracy_on_input_is_invalid_input():
    # a sliver input is refused before its first row, as h <= 0 is, not a
    # blow-up at step 0; the guard itself is covered by INJECTED_BLOWUPS
    sliver = sliver_sphere(gap=5e-4)
    assert compute_cache(sliver).min_angle < flow.MIN_ANGLE_LIMIT
    rows = []
    with pytest.raises(BlowUpError, match="min angle") as info:
        run_flow(sliver, FlowConfig(t_max=5.0), observer=lambda *row: rows.append(row))
    assert info.value.kind == "invalid_input"
    assert rows == []


def _raise_degenerate_H(cache):
    raise DegenerateMeanCurvatureError("injected")


def _sliver_cache(mesh, real=geometry.compute_cache):
    # the cache of mesh, with a min angle below the mesh-degeneracy guard
    return replace(real(mesh), min_angle=0.5 * flow.MIN_ANGLE_LIMIT)


# kind -> (module, function, the call that is replaced, substitute): the k-th
# compute_h (compute_cache) call gives the h (cache) of step k - 1 and the
# k-th flow_velocity call makes step k, so each run ends at step 3
INJECTED_BLOWUPS = {
    "nonpositive_h": (flow, "compute_h", 4, lambda cache: -0.5),
    "dt_underflow": (flow, "compute_h", 4, lambda cache: 1e20),
    "nan": (flow, "flow_velocity", 4, lambda cache, h: np.full_like(cache.normal, np.nan)),
    "degenerate_H: injected": (flow, "compute_h", 5, _raise_degenerate_H),
    "mesh_degeneracy": (geometry, "compute_cache", 4, _sliver_cache),
}


@pytest.mark.parametrize("kind", sorted(INJECTED_BLOWUPS))
def test_injected_blowup_ends_at_last_row(monkeypatch, kind):
    module, name, k, substitute = INJECTED_BLOWUPS[kind]
    replace_on_call(monkeypatch, module, name, k, substitute)
    config = FlowConfig(stepping="explicit", t_max=5.0, snapshot_every=2)
    result, meshes = run_keeping_meshes(gen_ellipsoid(1.2, 1.0, 0.85, 2), config)
    # rows at steps 0 and 2 on the cadence, then step 3, the final state
    assert_ends_at_last_row(result, meshes, f"blow_up({kind})", rows=3)
    assert result.final_state.step_index == 3


def test_degenerate_H_on_input_propagates(monkeypatch):
    replace_on_call(monkeypatch, flow, "compute_h", 1, _raise_degenerate_H)
    with pytest.raises(DegenerateMeanCurvatureError):
        run_flow(gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig(t_max=5.0))


def test_keep_meshes_true_is_rejected(icosphere):
    # the observer is the one way to see the meshes of the rows
    with pytest.raises(ValueError, match="observer"):
        run_flow(icosphere(1.0, 1), FlowConfig(), keep_meshes=True)


def test_edge_shared_by_four_faces_is_invalid_input(two_tetrahedra):
    with pytest.raises(BlowUpError, match="edge shared by more than two faces") as info:
        run_flow(two_tetrahedra, FlowConfig())
    assert info.value.kind == "invalid_input"


def test_clockwise_curve_is_invalid_input():
    clockwise = TriMesh(gen_circle(1.0, 16).vertices[::-1])
    with pytest.raises(BlowUpError, match="clockwise curve") as info:
        run_flow(clockwise, FlowConfig())
    assert info.value.kind == "invalid_input"


def test_nonpositive_input_h_is_invalid_input():
    # an input of the fuzz probe with int H dmu < 0: refused before its
    # first row, not a blow-up at step 0
    mesh = jittered_icosphere(14)
    assert compute_h(compute_cache(mesh)) <= 0
    rows = []
    with pytest.raises(BlowUpError, match="nonpositive h") as info:
        run_flow(mesh, FlowConfig(), observer=lambda *row: rows.append(row))
    assert info.value.kind == "invalid_input"
    assert rows == []


# the blow-up kinds that README documents; degenerate_H carries its message
DOCUMENTED_BLOW_UPS = {
    "max_A_exceeded", "nonpositive_h", "mesh_degeneracy", "dt_underflow", "nan",
    "linear_solve", "degenerate_geometry", "orientation",
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuzz_probe_ends_documented(seed):
    # the fuzz probe: a jittered icosphere of any scale s, run with both
    # steppings to t_max = 0.02 s^2 at dt_max = 0.05 s^2, the same flow in
    # its own units, ends in a documented termination or raises a documented
    # input error before its first row, and no RuntimeWarning fires
    mesh = jittered_icosphere(seed)
    s2 = float((mesh.vertices**2).sum(axis=1).mean())  # the input's scale, squared
    for stepping in ("explicit", "semi-implicit"):
        config = FlowConfig(stepping=stepping, t_max=0.02 * s2, dt_max=0.05 * s2)
        rows = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                termination = run_flow(
                    mesh, config, observer=lambda *row: rows.append(row)
                ).termination
            except BlowUpError as exc:
                assert exc.kind == "invalid_input", exc
                termination = None
            except (DegenerateGeometryError, OrientationError, DegenerateMeanCurvatureError):
                termination = None  # the input's geometry pass
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if termination is None:
            assert rows == []
        elif termination.kind == "blow_up":
            detail = termination.detail
            assert detail in DOCUMENTED_BLOW_UPS or detail.startswith("degenerate_H: ")
        else:
            assert termination.kind in ("converged", "time_limit")


def test_zero_area_input_face_propagates():
    # load_mesh accepts the mesh; its first geometry pass raises, before any row
    rows = []
    with pytest.raises(DegenerateGeometryError, match="^zero-area face$"):
        run_flow(zero_area_cube(), FlowConfig(), observer=lambda *row: rows.append(row))
    assert rows == []


def test_bowtie_is_invalid_input(bowtie):
    with pytest.raises(BlowUpError) as info:
        run_flow(bowtie, FlowConfig())
    assert info.value.kind == "invalid_input"
