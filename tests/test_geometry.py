import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

import sapflow
from sapflow import (
    DegenerateGeometryError,
    FlowConfig,
    GaussianDentBump,
    GeometryCache,
    OrientationError,
    TriMesh,
    gen_circle,
    gen_ellipsoid,
    gen_icosphere,
    gen_perturbed_sphere,
    compute_cache,
    compute_h,
    diameter_estimate,
    enclosed_volume,
    run_flow,
    surface_integral,
    validate,
    vertex_area_weights,
)
from sapflow import geometry, mesh as meshmod
from sapflow.geometry import cotangent_stiffness
from conftest import count_calls, make_cylinder_patch, run_keeping_meshes


# -- area weights ---------------------------------------------------------------


def test_cube_weights_sum_to_area(unit_cube):
    w = vertex_area_weights(unit_cube)
    assert w.sum() == pytest.approx(6.0, abs=1e-13)


def test_icosphere_weights_near_sphere_area(icosphere):
    w = vertex_area_weights(icosphere(1.0, 3))
    assert w.sum() == pytest.approx(4 * np.pi, rel=5e-3)


def test_icosahedron_weights_all_equal(icosphere):
    w = vertex_area_weights(icosphere(1.0, 0))
    assert np.abs(w - w[0]).max() < 1e-13


def test_weights_partition_of_unity(icosphere):
    m = gen_ellipsoid(1.3, 0.9, 0.7, 2)
    w = vertex_area_weights(m)
    p = m.vertices[m.faces]
    face_total = 0.5 * np.linalg.norm(
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
    ).sum()
    assert abs(w.sum() - face_total) < 1e-12 * face_total


def test_obtuse_fallback_partition():
    # one obtuse triangle pair: weights must still sum to the face areas
    verts = np.array(
        [[0, 0, 0], [4, 0, 0], [2, 0.5, 0], [2, -0.5, 0]], dtype=float
    )
    m = TriMesh(verts, [[0, 1, 2], [0, 3, 1]])
    w = vertex_area_weights(m)
    assert w.sum() == pytest.approx(2 * 0.5 * 4 * 0.5, abs=1e-14)
    assert (w > 0).all()


# -- normals ----------------------------------------------------------------------


def test_cube_corner_normal_symmetry(unit_cube):
    n = compute_cache(unit_cube).normal
    expect = np.ones(3) / np.sqrt(3.0)
    assert np.allclose(n[6], expect, atol=1e-14)
    assert np.allclose(n[0], -expect, atol=1e-14)


def test_icosphere_normal_error_decreases(icosphere):
    tilts = []
    for sub in (2, 3, 4):
        m = icosphere(1.0, sub)
        n = compute_cache(m).normal
        radial = m.vertices / np.linalg.norm(m.vertices, axis=1)[:, None]
        tilts.append(np.linalg.norm(n - radial, axis=1).max())
    assert tilts[0] / tilts[1] > 1.8
    assert tilts[1] / tilts[2] > 1.8


def test_inward_mesh_raises(tetrahedron):
    flipped = TriMesh(tetrahedron.vertices, tetrahedron.faces[:, ::-1])
    with pytest.raises(OrientationError):
        compute_cache(flipped)


# -- mean curvature ----------------------------------------------------------------


@pytest.mark.parametrize("radius,expected", [(1.0, 2.0), (2.0, 1.0)])
def test_sphere_mean_curvature(icosphere, radius, expected):
    m = icosphere(radius, 3)
    H = compute_cache(m).mean_curvature
    assert np.abs(H - expected).max() < 2e-4 * expected


def test_mean_curvature_refinement(icosphere):
    # levels 0-1 have fully symmetric vertex stars and are exact to rounding;
    # generic-vertex convergence starts at level 2
    errs = {}
    for sub in (1, 2, 3, 4):
        m = icosphere(1.0, sub)
        H = compute_cache(m).mean_curvature
        errs[sub] = np.abs(H - 2.0).max()
    assert errs[1] < 1e-12
    assert errs[2] > errs[3] > errs[4]


def test_polygon_curvature_approaches_circle():
    errs = []
    for sides in (16, 32, 64):
        c = gen_circle(1.0, sides)
        k = compute_cache(c).mean_curvature
        errs.append(np.abs(k - 1.0).max())
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 2e-3


# -- second fundamental form ---------------------------------------------------------


def test_sphere_traceless_floor_and_second_form(icosphere):
    for sub in (2, 3):
        cache = compute_cache(icosphere(1.0, sub))
        assert cache.traceless_norm.max() < 1e-6
        assert np.abs(cache.second_form_norm - np.sqrt(2.0)).max() < 1e-3


def test_ellipsoid_anisotropy_detected():
    m = gen_ellipsoid(1.0, 1.0, 2.0, 3)
    traceless = compute_cache(m).traceless_norm
    # equator vertices (z ~ 0) have k1 != k2
    eq = np.abs(m.vertices[:, 2]) < 0.2
    assert traceless[eq].min() > 0.05


def test_cylinder_patch_traceless():
    # the sphere-fit normals are exactly radial on the structured interior,
    # so |Adev|^2 = 1/2 holds to rounding there
    for n_theta, n_z in ((24, 9), (48, 17)):
        m, interior = make_cylinder_patch(n_theta, n_z)
        sq = compute_cache(m).traceless_norm[interior] ** 2
        assert np.abs(sq - 0.5).max() < 1e-10


def test_pointwise_traceless_identity(icosphere):
    c = compute_cache(gen_ellipsoid(1.2, 1.0, 0.85, 2))
    lhs = c.traceless_norm**2
    rhs = c.second_form_norm**2 - c.mean_curvature**2 / 2.0
    assert np.abs(lhs - rhs).max() < 1e-10


# -- gradients -------------------------------------------------------------------------


def gradient_norm(mesh, f):
    """|grad f| of an arbitrary vertex field, by the formula of grad_H_norm:
    on a curve the centred difference along arc length."""
    conf = geometry._configuration(mesh)
    if mesh.mode == "curve":
        ln = conf.area
        return np.abs(np.roll(f, -1) - np.roll(f, 1)) / (ln + np.roll(ln, 1))
    return geometry._gradient_norm(mesh, conf, f)


def test_gradient_constant_field(icosphere):
    m = icosphere(1.0, 2)
    g = gradient_norm(m, np.full(m.n_vertices, 3.7))
    assert np.abs(g).max() < 1e-12


def test_gradient_affine_exactness(flat_patch):
    g = gradient_norm(flat_patch, flat_patch.vertices[:, 0])
    assert np.abs(g - 1.0).max() < 1e-12


def test_gradient_of_H_vanishes_under_refinement(icosphere):
    maxima = []
    for sub in (2, 3, 4):
        m = icosphere(1.0, sub)
        maxima.append(compute_cache(m).grad_H_norm.max())
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


# -- integrals, volume, diameter ----------------------------------------------------------


def test_surface_integral_constants(unit_cube):
    w = vertex_area_weights(unit_cube)
    assert surface_integral(w, np.ones(8)) == pytest.approx(6.0, abs=1e-13)


def test_sphere_curvature_integrals(icosphere):
    c = compute_cache(icosphere(1.0, 3))
    w, H = c.vertex_area, c.mean_curvature
    assert surface_integral(w, H) == pytest.approx(8 * np.pi, rel=5e-3)
    assert surface_integral(w, H**2) == pytest.approx(16 * np.pi, rel=5e-3)


def test_enclosed_volume_exact_polyhedra(unit_cube, tetrahedron):
    assert enclosed_volume(unit_cube) == pytest.approx(1.0, abs=1e-14)
    assert enclosed_volume(tetrahedron) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_enclosed_volume_sphere_convergence(icosphere):
    errs = [
        abs(enclosed_volume(icosphere(1.0, s)) - 4 * np.pi / 3) for s in (2, 3, 4)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def estimate(mesh):
    """The diameter estimate at the edge lengths of the mesh's geometry pass."""
    return diameter_estimate(mesh, compute_cache(mesh).edge_length)


def test_diameter_icosphere(icosphere):
    d = estimate(icosphere(1.0, 3))
    assert abs(d - np.pi) < 0.1 * np.pi


def test_diameter_scales_with_radius(icosphere):
    d1 = estimate(icosphere(1.0, 2))
    d2 = estimate(icosphere(2.0, 2))
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_diameter_two_source_lower_bound(icosphere):
    m = icosphere(1.0, 2)
    est = estimate(m)
    # graph distances dominate Euclidean ones; the farthest pair spans 2r
    assert est >= 2.0 - 1e-9


def test_diameter_curve():
    c = gen_circle(1.0, 256)
    assert estimate(c) == pytest.approx(np.pi, rel=1e-3)


def test_diameter_curve_matches_all_pairs():
    # the antipode search against the maximum arc distance over all vertex
    # pairs, on polygons inscribed in ellipses and radially perturbed ones
    rng = np.random.default_rng(0)
    for k in range(200):
        n = int(rng.integers(3, 400))
        th = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        if k % 2:
            a = b = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)
        else:
            a, b = rng.uniform(0.5, 2.0, 2)
        v = np.column_stack([a * np.cos(th), b * np.sin(th)])
        ln = np.linalg.norm(np.diff(np.vstack([v, v[:1]]), axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(ln)])
        arc = np.abs(cum[:, None] - cum[None, :-1])
        brute = np.minimum(arc, cum[-1] - arc).max()
        got = estimate(TriMesh(v))
        assert got == pytest.approx(brute, rel=1e-15, abs=0.0)


def diameter_32_sources(mesh):
    """The earlier estimator: 32 farthest-point sources by edge-length distance,
    one Dijkstra sweep each, the first drawn by ``np.random.default_rng(0)``."""
    n = mesh.n_vertices
    e = mesh.edges
    g = sparse.csr_matrix((mesh.edge_lengths(), (e[:, 0], e[:, 1])), shape=(n, n))
    g = g.maximum(g.T)
    dist = csgraph.dijkstra(g, indices=[int(np.random.default_rng(0).integers(n))])
    best, min_to_sources = float(dist.max()), dist.ravel()
    for _ in range(min(32, n) - 1):
        dist = csgraph.dijkstra(g, indices=[int(np.argmax(min_to_sources))]).ravel()
        best = max(best, float(dist.max()))
        min_to_sources = np.minimum(min_to_sources, dist)
    return best


def graph_diameter(mesh):
    """Largest edge-length graph distance over all vertex pairs."""
    n = mesh.n_vertices
    e = mesh.edges
    g = sparse.csr_matrix((mesh.edge_lengths(), (e[:, 0], e[:, 1])), shape=(n, n))
    return float(csgraph.dijkstra(g, directed=False).max())


@pytest.mark.parametrize("subdivisions", [2, 3])
def test_diameter_graph_weights_from_cache_lengths(subdivisions):
    # keyed by half-edge and weighted by the cache's half-edge lengths, the
    # graph is bit for bit the symmetric edge graph of mesh.edge_lengths(); the
    # graph lists each row in ring order, so the matrices are compared with
    # sorted indices
    base = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), subdivisions)
    rng = np.random.default_rng(subdivisions)
    mesh = base.with_vertices(base.vertices + 0.01 * rng.normal(size=base.vertices.shape))
    cache = compute_cache(mesh)
    graph = mesh._connectivity.diameter_graph
    n, e = mesh.n_vertices, mesh.edges
    want = sparse.csr_matrix(
        (np.tile(mesh.edge_lengths(), 2),
         (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    )
    want.sort_indices()
    got = sparse.csr_matrix(
        (cache.edge_length[graph.slot], graph.indices.copy(), graph.indptr.copy()),
        shape=(n, n),
    )
    got.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    # the estimate is that of the same sources on the edge graph
    sweep = csgraph.dijkstra(want, indices=graph.sources)
    assert diameter_estimate(mesh, cache.edge_length) == float(sweep.max())


def test_diameter_graph_read_only_and_unchanged_by_estimates():
    # the graph's CSR arrays are the ring operator's own: an in-place sort
    # (scipy's sort_indices) would reorder every later row's weights
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    graph = mesh._connectivity.diameter_graph
    ring = mesh._connectivity.ring
    assert graph.slot is ring.indices and graph.indptr is ring.indptr
    arrays = (graph.slot, graph.indices, graph.indptr, graph.sources)
    before = [a.copy() for a in arrays]
    assert not any(a.flags.writeable for a in arrays)
    moved = mesh.with_vertices(1.1 * mesh.vertices)
    estimate(mesh)
    diameter_estimate(moved, compute_cache(moved).edge_length)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def _hop_spread_sources(graph, n):
    """The diameter sources as the graph's docstring states them, on ``graph``."""
    sources = [int(np.random.default_rng(0).integers(n))]
    hops = np.full(n, np.inf)
    for _ in range(meshmod.DIAMETER_SOURCES - 1):
        hops = np.minimum(hops, csgraph.dijkstra(graph, unweighted=True, indices=sources[-1]))
        sources.append(int(np.argmax(hops)))
    return sources


@pytest.mark.parametrize("name", ["ellipsoid", "two-spheres"])
def test_one_half_edge_adjacency_per_connectivity(name):
    # the component count and the diameter graph each built the half-edge
    # graph of their own; both read the one table, which holds every
    # half-edge a -> b as the graph of the directed edges does
    mesh = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    if name == "two-spheres":
        mesh = TriMesh(np.vstack([mesh.vertices, mesh.vertices + 3.0]),
                       np.vstack([mesh.faces, mesh.faces + mesh.n_vertices]))
    conn, n = mesh._connectivity, mesh.n_vertices
    a, b = mesh.directed_edges.T
    coo = sparse.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    assert (conn.adjacency != coo).nnz == 0
    assert conn.components == csgraph.connected_components(coo, directed=False)[0]
    assert conn.components == (2 if name == "two-spheres" else 1)
    graph = conn.diameter_graph
    assert graph.indices is conn.adjacency.indices and graph.indptr is conn.adjacency.indptr
    if name == "ellipsoid":
        assert graph.sources.tolist() == _hop_spread_sources(coo, n)


def test_diameter_needs_closed_oriented_surface(flat_patch, icosphere):
    # the graph's edges are the half-edges: only on a closed, consistently
    # oriented surface do they run both ways along every edge; the check comes
    # before the lengths are read
    with pytest.raises(ValueError, match="closed, consistently oriented"):
        diameter_estimate(flat_patch, np.ones(3 * flat_patch.n_faces))
    sphere = icosphere(1.0, 2)
    faces = sphere.faces.copy()
    faces[0] = faces[0, ::-1]
    flipped = TriMesh(sphere.vertices, faces)
    assert flipped.is_closed
    with pytest.raises(ValueError, match="closed, consistently oriented"):
        diameter_estimate(flipped, np.ones(3 * flipped.n_faces))


def test_unreferenced_vertex_has_no_area_weight(icosphere):
    # closed and outward, so the cache gets as far as the vertex weights
    m = icosphere(1.0, 0)
    mesh = TriMesh(np.vstack([m.vertices, [[0.0, 0.0, 0.0]]]), m.faces)
    with pytest.raises(DegenerateGeometryError, match="^non-positive vertex area weight$"):
        compute_cache(mesh)


def test_out_and_back_spike_is_a_cusp():
    # a counter-clockwise square whose top edge sends a spike up to (0.5, 2)
    # and back down the same line: the two segment normals there cancel
    spiked = TriMesh([[0, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 2], [0.5, 1.5], [0, 1]])
    assert validate(spiked).volume > 0
    with pytest.raises(DegenerateGeometryError, match="^cusp vertex on curve$"):
        compute_cache(spiked)


def test_diameter_graph_shared_by_derived_meshes():
    mesh = gen_perturbed_sphere(1.0, 0.2, GaussianDentBump(), 2)
    d = estimate(mesh)
    moved = mesh.with_vertices(1.5 * mesh.vertices)
    assert moved._connectivity.diameter_graph is mesh._connectivity.diameter_graph
    assert estimate(moved) == pytest.approx(1.5 * d, rel=1e-13)


def test_diameter_one_sweep_per_row(monkeypatch):
    mesh = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    estimate(mesh)  # builds the graph and its sources
    calls = count_calls(monkeypatch, csgraph, "dijkstra")
    estimate(mesh.with_vertices(0.9 * mesh.vertices))
    assert len(calls) == 1


def full_diameter_estimate(mesh, edge_length):
    """The estimate from every source of the diameter graph, in one Dijkstra call."""
    graph = mesh._connectivity.diameter_graph
    n = mesh.n_vertices
    g = sparse.csr_matrix(
        (edge_length[graph.slot], graph.indices, graph.indptr), shape=(n, n)
    )
    return float(csgraph.dijkstra(g, indices=graph.sources).max())


def record_sources(monkeypatch):
    """The number of sources of each later Dijkstra call, as a growing list."""
    real, counts = csgraph.dijkstra, []

    def counted(*args, **kwargs):
        counts.append(len(np.atleast_1d(kwargs["indices"])))
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    return counts


def ellipsoid_run(observer):
    run_flow(gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig(t_max=1.0), observer=observer)


@pytest.fixture(scope="module")
def ellipsoid_rows():
    """(mesh, edge_length, diameter_est) of every row of a short explicit run."""
    rows = []
    ellipsoid_run(lambda state, cache, record: rows.append(
        (state.mesh, cache.edge_length, record.diameter_est)))
    return rows


def test_diameter_rows_equal_full_estimate(ellipsoid_rows):
    # the memo skips sources but never moves the value, by a single bit
    assert len(ellipsoid_rows) > 50
    for mesh, edge_length, got in ellipsoid_rows:
        assert got == full_diameter_estimate(mesh, edge_length)


def test_diameter_independent_of_history(ellipsoid_rows):
    # the same configurations in reverse order: other memos, the same values
    for mesh, edge_length, got in ellipsoid_rows[::-1]:
        assert diameter_estimate(mesh, edge_length) == got


def test_diameter_sources_per_row_below_all(monkeypatch):
    counts = record_sources(monkeypatch)
    ellipsoid_run(lambda state, cache, record: None)
    # the source selection's 7 hop sweeps, then one call per row
    rows = counts[meshmod.DIAMETER_SOURCES - 1:]
    assert rows[0] == meshmod.DIAMETER_SOURCES  # nothing to bound on the first call
    assert np.mean(rows) < meshmod.DIAMETER_SOURCES


@pytest.mark.parametrize("move", ["scale-2", "one-vertex-far-out"])
def test_diameter_after_a_large_move_equals_full_estimate(move):
    base = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    rng = np.random.default_rng(1)
    mesh = base.with_vertices(base.vertices + 0.01 * rng.normal(size=base.vertices.shape))
    estimate(mesh)
    v = mesh.vertices.copy()
    if move == "scale-2":
        v *= 2.0
    else:
        v[17] *= 6.0
    moved = mesh.with_vertices(v)
    edge_length = compute_cache(moved).edge_length
    got = diameter_estimate(moved, edge_length)
    assert got == full_diameter_estimate(moved, edge_length)
    if move == "scale-2":
        # every length doubles exactly, so the value does too
        assert got == 2.0 * estimate(mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_diameter_non_finite_ratio_takes_all_sources(monkeypatch, value):
    mesh = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    estimate(mesh)
    edge_length = compute_cache(mesh.with_vertices(0.9 * mesh.vertices)).edge_length
    edge_length[5] = value  # a ratio of NaN, inf or 0
    counts = record_sources(monkeypatch)
    got = diameter_estimate(mesh, edge_length)
    assert counts == [meshmod.DIAMETER_SOURCES]
    assert got == full_diameter_estimate(mesh, edge_length)


@pytest.mark.parametrize("subdivisions", [1, 2, 3, 4, 5])
def test_diameter_close_to_32_source_estimate_icosphere(icosphere, subdivisions):
    mesh = icosphere(1.0, subdivisions)
    d = estimate(mesh)
    assert d >= np.pi
    assert d == pytest.approx(diameter_32_sources(mesh), rel=1e-2)


@pytest.mark.parametrize(
    "mesh, config",
    [
        (gen_ellipsoid(1.2, 1.0, 0.85, 2), FlowConfig()),
        (
            gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 3),
            FlowConfig(stepping="semi-implicit"),
        ),
    ],
    ids=["explicit-ellipsoid-s2", "semi-implicit-dent-s3"],
)
def test_diameter_close_to_32_source_estimate_along_runs(mesh, config):
    result, meshes = run_keeping_meshes(mesh, config)
    assert result.termination.kind == "converged"
    new = result.series.column("diameter_est")
    old = np.array([diameter_32_sources(m) for m in meshes])
    assert (new >= 0.99 * old).all()
    # both are eccentricities of the same graph, so the only way above the
    # 32-source value is a longer graph path it missed (on the ellipsoid run
    # the new value is up to 1.3 % higher, where the old one falls 1.6 % short)
    for row in np.flatnonzero(new > 1.01 * old):
        assert new[row] <= graph_diameter(meshes[row]) * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(1e-12, 1e-8))
def test_diameter_continuous_in_positions_property(seed, eps):
    # the sources follow from the connectivity alone, so no rounding-level move
    # can switch them: each path length moves by at most 2 eps per edge
    rng = np.random.default_rng(seed)
    base = gen_icosphere(1.0, subdivisions=2)
    mesh = base.with_vertices(
        base.vertices + 0.1 * rng.uniform(-1.0, 1.0, size=base.vertices.shape)
    )
    step = rng.normal(size=mesh.vertices.shape)
    step *= eps * rng.uniform(0.0, 1.0, size=(len(step), 1)) / np.linalg.norm(
        step, axis=1, keepdims=True
    )
    moved = mesh.with_vertices(mesh.vertices + step)
    bound = 2.0 * eps * mesh.n_vertices
    assert abs(estimate(moved) - estimate(mesh)) <= bound


# -- cache-level invariants ------------------------------------------------------------


def test_scale_covariance(icosphere):
    m = icosphere(1.0, 2)
    scaled = m.with_vertices(2.0 * m.vertices)
    c1, c2 = compute_cache(m), compute_cache(scaled)
    assert np.allclose(c2.vertex_area, 4.0 * c1.vertex_area, rtol=1e-10)
    assert np.allclose(c2.mean_curvature, 0.5 * c1.mean_curvature, atol=1e-10)
    # |Adev| on an exact sphere sits at the rounding floor (~1e-8); the
    # covariance there is only meaningful at floor precision
    assert np.allclose(c2.traceless_norm, 0.5 * c1.traceless_norm, atol=1e-7)
    assert enclosed_volume(scaled) == pytest.approx(8 * enclosed_volume(m), rel=1e-10)

    e = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    se = e.with_vertices(2.0 * e.vertices)
    d1, d2 = compute_cache(e), compute_cache(se)
    assert np.allclose(d2.traceless_norm, 0.5 * d1.traceless_norm, atol=1e-10)
    assert np.allclose(d2.second_form_norm, 0.5 * d1.second_form_norm, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.0, 0.2),
    s=st.floats(0.1, 10.0),
    curve=st.booleans(),
)
def test_scaling_homogeneity_property(seed, amplitude, s, curve):
    # the premise of the projection compensation in identity_residuals:
    # x -> s x maps H to H/s, area to s^n area, h to s h and int H^2 dmu to
    # s^(n-2) int H^2 dmu
    rng = np.random.default_rng(seed)
    base = gen_circle(1.0, 64) if curve else gen_icosphere(1.0, subdivisions=2)
    n = 1 if curve else 2
    radial = 1.0 + amplitude * rng.uniform(-1.0, 1.0, size=base.n_vertices)
    mesh = base.with_vertices(radial[:, None] * base.vertices)
    scaled = mesh.with_vertices(s * mesh.vertices)
    c1, c2 = compute_cache(mesh), compute_cache(scaled)
    H1 = c1.mean_curvature / s
    assert np.abs(c2.mean_curvature - H1).max() <= 1e-12 * np.abs(H1).max()
    assert c2.total_area == pytest.approx(s**n * c1.total_area, rel=1e-12, abs=0)
    assert compute_h(c2) == pytest.approx(s * compute_h(c1), rel=1e-12, abs=0)
    int_H2 = [surface_integral(c.vertex_area, c.mean_curvature**2) for c in (c1, c2)]
    assert int_H2[1] == pytest.approx(s ** (n - 2) * int_H2[0], rel=1e-12, abs=0)


def cube_with_face_centres(unit_cube):
    """The unit cube with a vertex at each face centre (valences 3 to 6)."""
    corners = unit_cube.vertices
    quads = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [2, 3, 7, 6], [1, 2, 6, 5], [0, 4, 7, 3]]
    centres = corners[quads].mean(axis=1)
    faces = [[q[k], q[(k + 1) % 4], 8 + i] for i, q in enumerate(quads) for k in range(4)]
    return TriMesh(np.vstack([corners, centres]), faces)


def test_flat_ring_sphere_fit_falls_back_to_vertex_normal(unit_cube):
    # a vertex at each face centre of the cube: its 1-ring is flat, so the
    # 4x4 osculating-sphere fit there is exactly singular
    mesh = cube_with_face_centres(unit_cube)
    report = validate(mesh)
    assert (mesh.n_vertices, mesh.n_faces) == (14, 24)
    assert report.is_closed and report.is_oriented and report.is_vertex_manifold
    cache = compute_cache(mesh)
    assert all(np.isfinite(getattr(cache, f)).all() for f in CACHE_FIELDS)
    reference = cache.normal
    moments = geometry._ring_moments(mesh, geometry._configuration(mesh))
    fitted = geometry._sphere_fit_normals(mesh, moments, reference.T).T
    assert np.array_equal(fitted[8:], reference[8:])
    assert np.allclose(reference[8:], [[0, 0, -1], [0, 0, 1], [0, -1, 0],
                                       [0, 1, 0], [1, 0, 0], [-1, 0, 0]])


def test_rigid_motion_invariance():
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    # a surface, and a curve under the planar rotation and translation
    motions = [
        (gen_ellipsoid(1.2, 1.0, 0.85, 2), rot, [0.3, -1.2, 2.0]),
        (CACHE_MESHES["ellipse"](), rot[:2, :2], [0.3, -1.2]),
    ]
    for m, r, shift in motions:
        moved = m.with_vertices(m.vertices @ r.T + np.array(shift))
        c1, c2 = compute_cache(m), compute_cache(moved)
        assert np.allclose(c2.normal, c1.normal @ r.T, atol=1e-10)
        assert np.allclose(c2.mean_curvature, c1.mean_curvature, atol=1e-10)
        assert np.allclose(c2.second_form_norm, c1.second_form_norm, atol=1e-10)
        assert np.allclose(c2.traceless_norm, c1.traceless_norm, atol=1e-10)
        assert c2.total_area == pytest.approx(c1.total_area, rel=1e-12)
        assert enclosed_volume(moved) == pytest.approx(enclosed_volume(m), rel=1e-10)


def test_unit_normals_everywhere(icosphere):
    c = compute_cache(gen_ellipsoid(1.1, 0.9, 1.0, 2))
    assert np.abs(np.linalg.norm(c.normal, axis=1) - 1.0).max() < 1e-12


def test_curve_cache_traceless_zero():
    c = compute_cache(gen_circle(2.0, 64))
    assert np.all(c.traceless_norm == 0)
    assert np.allclose(c.mean_curvature, 0.5, rtol=1e-3)
    assert c.total_area == pytest.approx(2 * np.pi * 2.0, rel=1e-3)


# -- the cache and the standalone operations ------------------------------------------

ELLIPSE_ANGLES = 2 * np.pi * np.arange(64) / 64
CACHE_MESHES = {
    "ellipsoid": lambda: gen_ellipsoid(1.2, 1.0, 0.85, 2),
    "dented": lambda: gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2),
    "circle": lambda: gen_circle(1.0, 48),
    "ellipse": lambda: TriMesh(
        np.column_stack([1.3 * np.cos(ELLIPSE_ANGLES), 0.8 * np.sin(ELLIPSE_ANGLES)])
    ),
}
CACHE_FIELDS = [f.name for f in fields(GeometryCache)]
# every field but the per-face-corner (per-segment) stiffness weights and
# edge lengths and the scalars volume and min_angle
VERTEX_FIELDS = [
    name for name in CACHE_FIELDS
    if name not in ("stiffness_weight", "edge_length", "volume", "min_angle")
]


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_cache_equals_standalone_operations(name):
    # the operations kept beside the cache share its field helpers
    mesh = CACHE_MESHES[name]()
    cache = compute_cache(mesh)
    assert np.array_equal(cache.vertex_area, vertex_area_weights(mesh))
    assert np.array_equal(cache.grad_H_norm, gradient_norm(mesh, cache.mean_curvature))
    assert cache.volume == enclosed_volume(mesh)


@pytest.mark.parametrize("name", ["dented", "ellipse"])
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_cache_independent_of_vertex_layout(name, layout):
    # TriMesh keeps the caller's array; the pass gives the same bits from a
    # Fortran-ordered array or a strided view as from a C-ordered one
    mesh = CACHE_MESHES[name]()
    v = np.ascontiguousarray(mesh.vertices)
    if layout == "fortran":
        other = np.asfortranarray(v)
    else:
        other = np.zeros((len(v), 2 * v.shape[1]))[:, ::2]
        other[:] = v
    assert not other.flags.c_contiguous
    want = compute_cache(TriMesh(v, mesh.faces))
    got = compute_cache(TriMesh(other, mesh.faces))
    for field in CACHE_FIELDS:
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), field


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(CACHE_MESHES)), seed=st.integers(0, 2**32 - 1))
def test_cache_relabelling_property(name, seed):
    # new vertex j is old vertex perm[j]; every field must follow the labels
    mesh = CACHE_MESHES[name]()
    rng = np.random.default_rng(seed)
    if mesh.mode == "curve":
        # a polyline stays a polyline only under a cyclic shift, which moves
        # segment j (vertex j to j + 1) with vertex j
        perm = np.roll(np.arange(mesh.n_vertices), -int(rng.integers(mesh.n_vertices)))
        relabelled = TriMesh(mesh.vertices[perm])
        element = perm
    else:
        perm = rng.permutation(mesh.n_vertices)
        new_label = np.empty_like(perm)
        new_label[perm] = np.arange(len(perm))
        relabelled = TriMesh(mesh.vertices[perm], new_label[mesh.faces])
        element = slice(None)  # faces keep their order
    c1, c2 = compute_cache(mesh), compute_cache(relabelled)
    for field in VERTEX_FIELDS:
        assert np.allclose(
            getattr(c2, field), getattr(c1, field)[perm], rtol=0, atol=1e-10
        ), field
    # the per-corner (per-segment) weights and edge lengths follow their
    # elements, and the minima over them do not move
    assert np.array_equal(c2.stiffness_weight, c1.stiffness_weight[element])
    assert np.array_equal(c2.edge_length, c1.edge_length[element])
    assert [c2.min_angle, c2.min_edge] == [c1.min_angle, c1.min_edge]
    if mesh.mode == "curve":  # the shoelace sum starts at another vertex
        assert c2.volume == pytest.approx(c1.volume, rel=1e-14)
    else:
        assert c2.volume == c1.volume


# -- cotangent stiffness ----------------------------------------------------------------


def stiffness_weight(mesh):
    """The half-edge weights of ``mesh``; a curve's come from its cache pass."""
    if mesh.mode == "curve":
        return compute_cache(mesh).stiffness_weight
    return geometry._stiffness_weight(mesh, geometry._configuration(mesh))


def stiffness(mesh):
    """The cotangent stiffness at the half-edge weights of ``mesh``."""
    return cotangent_stiffness(mesh, stiffness_weight(mesh))


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_stiffness_reproduces_area_gradient(name):
    mesh = CACHE_MESHES[name]()
    conf = geometry._configuration(mesh)
    weight = stiffness_weight(mesh)
    L = cotangent_stiffness(mesh, weight)
    if mesh.mode == "curve":
        area_gradient = np.roll(conf.tangent, 1, axis=1) - conf.tangent  # of the length
    else:
        area_gradient = geometry._area_gradient(mesh, conf, weight)
    assert np.allclose(L @ mesh.vertices, area_gradient.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_stiffness_symmetric_with_zero_row_sums(name):
    L = stiffness(CACHE_MESHES[name]())
    assert abs(L - L.T).max() == 0
    assert np.abs(L.sum(axis=1)).max() <= 1e-13 * abs(L).max()


def test_stiffness_pattern_shared_by_derived_meshes():
    mesh = CACHE_MESHES["dented"]()
    L = stiffness(mesh)
    moved = mesh.with_vertices(1.5 * mesh.vertices)
    assert moved._connectivity.stiffness_pattern is mesh._connectivity.stiffness_pattern
    # a uniform scale leaves every cotangent unchanged
    assert np.allclose(stiffness(moved).data, L.data, rtol=1e-13, atol=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.3))
def test_stiffness_positive_semidefinite_property(seed, amplitude):
    # the premise of the semi-implicit step's CG: M + dt h L is SPD for h > 0
    rng = np.random.default_rng(seed)
    base = gen_icosphere(1.0, subdivisions=2)
    noise = amplitude * rng.uniform(-1.0, 1.0, size=base.vertices.shape)
    mesh = base.with_vertices(base.vertices + noise)
    L = stiffness(mesh)
    for f in rng.normal(size=(5, mesh.n_vertices)):
        assert f @ (L @ f) >= -1e-12 * (f @ f)


# -- the incidence operators and the previous bincount geometry pass -------------


def bincount_sum(index, values, n):
    """Sum the rows of ``values`` into ``n`` bins by ``index``, in input order:
    the scatter the incidence operators replace, column by column."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    return np.column_stack(
        [np.bincount(index, weights=values[:, c], minlength=n)
         for c in range(values.shape[1])]
    )


def relabelled_dent():
    mesh = CACHE_MESHES["dented"]()
    perm = np.random.default_rng(0).permutation(mesh.n_vertices)
    new_label = np.empty_like(perm)
    new_label[perm] = np.arange(len(perm))
    return TriMesh(mesh.vertices[perm], new_label[mesh.faces])


OPERATOR_MESHES = {
    "icosphere": lambda cube: gen_icosphere(1.0, subdivisions=2),
    "dented": lambda cube: CACHE_MESHES["dented"](),
    "relabelled": lambda cube: relabelled_dent(),
    "cube-face-centres": cube_with_face_centres,
}


def spread_values(rng, *shape):
    # magnitudes over 16 decades, so that another summation order rounds
    # differently
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)


@pytest.mark.parametrize("name", sorted(OPERATOR_MESHES))
def test_incidence_operators_match_bincount(name, unit_cube):
    mesh = OPERATOR_MESHES[name](unit_cube)
    conn = mesh._connectivity
    f, n, m = mesh.faces, mesh.n_vertices, mesh.n_faces
    rng = np.random.default_rng(1)
    corner = f.T.ravel()  # the source of each half-edge, corner-major
    for shape in ((3 * m,), (3 * m, 3), (3 * m, 7)):
        x = spread_values(rng, *shape)
        assert np.array_equal(conn.ring @ x, bincount_sum(corner, x, n))
    for shape in ((m,), (m, 3)):
        y = spread_values(rng, *shape)
        tiled = np.tile(y, (3,) + (1,) * (y.ndim - 1))
        assert np.array_equal(conn.face @ y, bincount_sum(corner, tiled, n))
    # the area gradient: each half-edge's weight times its vector x, -x into
    # its source and x into its target, the source of the next half-edge of
    # its face; the weight is half the cotangent of the corner opposite the
    # half-edge, and the half-edge leaving corner k is opposite corner k - 1
    conf = geometry._configuration(mesh)
    weight = 0.5 * conf.cot[[2, 0, 1]]
    assert np.array_equal(geometry._stiffness_weight(mesh, conf), weight.ravel())
    x = weight * conf.edge  # component, corner, face
    expected = bincount_sum(corner, (x[:, [2, 0, 1]] - x).reshape(3, -1).T, n)
    assert np.array_equal(geometry._area_gradient(mesh, conf, weight.ravel()).T, expected)
    # the stiffness slot scatter: -w into (a, b) and (b, a), w into (a, a) and
    # (b, b) for each half-edge a -> b
    a, b = mesh.directed_edges.T
    keys = np.concatenate([a, b, a, b]) * n + np.concatenate([b, a, a, b])
    _, slot = np.unique(keys, return_inverse=True)
    w = spread_values(rng, 3 * m)
    pattern = conn.stiffness_pattern
    expected = bincount_sum(slot, np.concatenate([-w, -w, w, w]), len(pattern.indices))
    assert np.array_equal(cotangent_stiffness(mesh, w).data, expected)


def refined_solve(G, rhs):
    """Solutions of the batched systems ``G x = rhs``: LAPACK's, then three
    steps of iterative refinement with the residuals in ``np.longdouble``
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12)."""
    x = np.linalg.solve(G, rhs[:, :, None])[:, :, 0]
    wide = G.astype(np.longdouble)
    for _ in range(3):
        residual = rhs - np.einsum("nij,nj->ni", wide, x)
        x = x + np.linalg.solve(G, residual.astype(np.float64)[:, :, None])[:, :, 0]
    return x


def sphere_fit_system(mesh):
    """The (n, 4, 4) normal equations G (c, rho) = rhs of the sphere fits
    |p - x_i|^2 = 2 c.(p - x_i) + rho over each vertex and its 1-ring, with
    all nine second moments."""
    v, n = mesh.vertices, mesh.n_vertices
    e = mesh.directed_edges
    src, dst = e[:, 1], e[:, 0]
    d = v[src] - v[dst]
    q = np.einsum("ij,ij->i", d, d)
    s2 = bincount_sum(dst, (d[:, :, None] * d[:, None, :]).reshape(len(d), -1), n)
    G = np.zeros((n, 4, 4))
    G[:, :3, :3] = 4.0 * s2.reshape(n, 3, 3)
    G[:, :3, 3] = G[:, 3, :3] = 2.0 * bincount_sum(dst, d, n)
    G[:, 3, 3] = np.bincount(dst, minlength=n) + 1.0
    rhs = np.zeros((n, 4))
    rhs[:, :3] = 2.0 * bincount_sum(dst, q[:, None] * d, n)
    rhs[:, 3] = bincount_sum(dst, q, n)
    return G, rhs


def refined_sphere_fit_normals(G, rhs, normal):
    """Sphere-fit normals from the (n, 4, 4) normal equations ``G`` (c, rho)
    = ``rhs`` by :func:`refined_solve`; the vertex normal where ``G`` is
    exactly singular (a flat 1-ring)."""
    ok = np.abs(np.linalg.det(G)) > 0
    sol = np.zeros(rhs.shape)
    sol[ok] = refined_solve(G[ok], rhs[ok])
    centre = sol[:, :3]
    dist = np.linalg.norm(centre, axis=1)
    usable = ok & (dist > 1e-300)
    nsf = normal.copy()
    nsf[usable] = -centre[usable] / dist[usable, None]
    flip = np.einsum("ij,ij->i", nsf, normal) < 0
    nsf[flip] = -nsf[flip]
    return nsf


def previous_cache(mesh):
    """(vertex_area, normal, H, |A|, |Adev|, |grad H|) by the formulas of the
    bincount geometry pass: cotangents from per-corner cross products, area
    weights scattered face by face, all nine second moments of the sphere fit
    and one half-edge gather per curvature fit. The sphere fits are solved
    by :func:`refined_solve`, a reference more accurate than either LAPACK's
    bare solve or the closed form of the geometry pass."""
    v, F, n = mesh.vertices, mesh.faces, mesh.n_vertices
    p = v[F]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    area = 0.5 * np.linalg.norm(cross, axis=1)
    face_normal = cross / (2.0 * area)[:, None]
    cot = np.empty((len(p), 3))
    opp2 = np.empty((len(p), 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        w = p[:, (k + 2) % 3] - p[:, k]
        cot[:, k] = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        opp = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        opp2[:, k] = np.einsum("ij,ij->i", opp, opp)

    w = np.empty((len(p), 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w[:, i] = (opp2[:, j] * cot[:, j] + opp2[:, k] * cot[:, k]) / 8.0
    obtuse = cot < 0
    for i in range(3):
        at_i = obtuse.any(axis=1) & obtuse[:, i]
        w[at_i, i] = area[at_i] / 2.0
        for d in (1, 2):
            w[at_i, (i + d) % 3] = area[at_i] / 4.0
    weights = bincount_sum(F.ravel(), w.ravel(), n)

    corner = F.T.ravel()
    normal = bincount_sum(corner, np.tile(face_normal * area[:, None], (3, 1)), n)
    normal /= np.linalg.norm(normal, axis=1)[:, None]

    index, values = [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        c = 0.5 * cot[:, k][:, None] * (p[:, i] - p[:, j])
        index += [F[:, i], F[:, j]]
        values += [c, -c]
    mcv = bincount_sum(np.concatenate(index), np.concatenate(values), n)
    H = np.einsum("ij,ij->i", mcv, normal) / weights

    # osculating-sphere normals
    nsf = refined_sphere_fit_normals(*sphere_fit_system(mesh), normal)

    # shape-operator fit
    e = mesh.directed_edges
    seed = np.where(np.abs(nsf[:, 0:1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = np.cross(nsf, seed)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(nsf, t1)
    i, j = e[:, 0], e[:, 1]
    ev = v[j] - v[i]
    dn = nsf[j] - nsf[i]
    u1 = np.einsum("ij,ij->i", t1[i], ev)
    u2 = np.einsum("ij,ij->i", t2[i], ev)
    w1 = np.einsum("ij,ij->i", t1[i], dn)
    w2 = np.einsum("ij,ij->i", t2[i], dn)
    s11, s12, s22 = bincount_sum(i, np.column_stack([u1 * u1, u1 * u2, u2 * u2]), n).T
    G = np.zeros((n, 3, 3))
    G[:, 0, 0] = s11
    G[:, 0, 1] = G[:, 1, 0] = G[:, 1, 2] = G[:, 2, 1] = s12
    G[:, 1, 1] = bincount_sum(i, u1 * u1 + u2 * u2, n)
    G[:, 2, 2] = s22
    R = bincount_sum(i, np.column_stack([u1 * w1, u2 * w1 + u1 * w2, u2 * w2]), n)
    a, b, c = np.linalg.solve(G, R[:, :, None])[:, :, 0].T
    trace = a + c
    disc = np.sqrt(0.25 * (a - c) ** 2 + b**2)
    scale = np.ones(n)
    nonzero = np.abs(trace) > 0.05 * np.maximum(np.abs(a) + np.abs(c) + 2 * np.abs(b), 1e-300)
    scale[nonzero] = H[nonzero] / trace[nonzero]
    k1, k2 = (0.5 * trace - disc) * scale, (0.5 * trace + disc) * scale
    second = np.sqrt(k1**2 + k2**2)
    traceless = np.sqrt(np.maximum(second**2 - H**2 / 2.0, 0.0))

    # area-averaged face gradients of H
    g = np.zeros((len(F), 3))
    for k in range(3):
        opp = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        g += H[F[:, k]][:, None] * np.cross(face_normal, opp) / (2.0 * area)[:, None]
    vg = bincount_sum(corner, np.tile(g * area[:, None], (3, 1)), n)
    vg /= bincount_sum(corner, np.tile(area, 3), n)[:, None]
    return weights, normal, H, second, traceless, np.linalg.norm(vg, axis=1)


PREVIOUS_PASS_MESHES = {
    **OPERATOR_MESHES,
    "ellipsoid-s3": lambda cube: gen_ellipsoid(1.2, 1.0, 0.85, 3),
    "dented-s5": lambda cube: gen_perturbed_sphere(
        1.0, -0.35, GaussianDentBump(width=0.3), 5
    ),
    "cylinder-patch": lambda cube: make_cylinder_patch(24, 9),
}


@pytest.mark.parametrize("name", sorted(PREVIOUS_PASS_MESHES))
def test_cache_matches_previous_bincount_pass(name, unit_cube):
    # the summation order changed, so the fields agree to a tolerance fixed
    # relative to each field's scale, not bit for bit
    mesh = PREVIOUS_PASS_MESHES[name](unit_cube)
    # on the open cylinder the sphere fits of the boundary rings are so
    # ill-conditioned that rounding moves them: compare its interior only
    mesh, keep = mesh if isinstance(mesh, tuple) else (mesh, slice(None))
    cache = compute_cache(mesh)
    ref = [f[keep] for f in previous_cache(mesh)]
    area, normal, H, second, traceless, grad_H = ref
    for got, want in zip(
        (cache.vertex_area, cache.normal, cache.mean_curvature, cache.second_form_norm),
        (area, normal, H, second),
    ):
        assert np.abs(got[keep] - want).max() <= 1e-12 * np.abs(want).max()
    h_scale = np.abs(H).max() / mesh.edge_lengths().min()
    assert np.abs(cache.grad_H_norm[keep] - grad_H).max() <= 1e-12 * h_scale
    assert np.abs(cache.traceless_norm[keep] ** 2 - traceless**2).max() <= (
        1e-12 * (second**2).max()
    )


def test_sphere_fit_normals_match_refined_solve():
    # on the dented V = 10242 sphere, whose bottom rings hold the worst
    # conditioned fits, the closed form is within 1e-13 of the refined solve
    # (measured 1.0e-14; LAPACK's bare solve of the same systems is off by
    # 3.7e-13 there)
    mesh = PREVIOUS_PASS_MESHES["dented-s5"](None)
    normal = compute_cache(mesh).normal
    want = refined_sphere_fit_normals(*sphere_fit_system(mesh), normal)
    moments = geometry._ring_moments(mesh, geometry._configuration(mesh))
    got = geometry._sphere_fit_normals(mesh, moments, normal.T).T
    assert np.abs(got - want).max() <= 1e-13


# -- the moment-form shape fit and the previous batched solve ---------------------


def lapack_shape_operator_eigen(mesh, conf, nsf, H):
    """The shape fit before the moment form: its sums gathered per half-edge
    from t1, t2 and the normals at both ends, the (n, 3, 3) normal equations
    of S = [[a, b], [b, c]] by np.linalg.solve, then the trace
    reconciliation."""
    n = mesh.n_vertices
    seed = np.where(np.abs(nsf[:, 0:1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = np.cross(nsf, seed)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(nsf, t1)
    i, j = mesh.directed_edges.T
    ev = conf.edge.reshape(3, -1).T
    dn = nsf[j] - nsf[i]
    u1, u2 = (np.einsum("ij,ij->i", t[i], ev) for t in (t1, t2))
    w1, w2 = (np.einsum("ij,ij->i", t[i], dn) for t in (t1, t2))
    s = mesh._connectivity.ring @ np.column_stack(
        [u1 * u1, u1 * u2, u2 * u2, u1 * w1, u2 * w1 + u1 * w2, u2 * w2]
    )
    G = np.zeros((n, 3, 3))
    G[:, 0, 0] = s[:, 0]
    G[:, 0, 1] = G[:, 1, 0] = G[:, 1, 2] = G[:, 2, 1] = s[:, 1]
    G[:, 1, 1] = s[:, 0] + s[:, 2]
    G[:, 2, 2] = s[:, 2]
    a, b, c = np.linalg.solve(G, s[:, 3:, None])[:, :, 0].T
    trace = a + c
    disc = np.sqrt(0.25 * (a - c) ** 2 + b**2)
    scale = np.ones(n)
    nonzero = np.abs(trace) > 0.05 * np.maximum(np.abs(a) + np.abs(c) + 2 * np.abs(b), 1e-300)
    scale[nonzero] = H[nonzero] / trace[nonzero]
    return (0.5 * trace - disc) * scale, (0.5 * trace + disc) * scale


@pytest.mark.parametrize("name", sorted(PREVIOUS_PASS_MESHES))
def test_closed_form_shape_fit_matches_batched_solve(name, unit_cube):
    # the same normal equations from the same sphere-fit normals, summed from
    # the 1-ring moments and solved by the adjugate, or summed per half-edge
    # and solved by LAPACK: the principal curvatures agree to rounding of
    # their scale; on the open cylinder only the interior is compared
    mesh = PREVIOUS_PASS_MESHES[name](unit_cube)
    mesh, keep = mesh if isinstance(mesh, tuple) else (mesh, slice(None))
    cache = compute_cache(mesh)
    conf = geometry._configuration(mesh)
    moments = geometry._ring_moments(mesh, conf)
    nsf = geometry._sphere_fit_normals(mesh, moments, cache.normal.T)
    H = cache.mean_curvature
    got = np.array(geometry._shape_operator_eigen(mesh, conf, moments, nsf, H))[:, keep]
    want = np.array(lapack_shape_operator_eigen(mesh, conf, nsf.T, H))[:, keep]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_rank_deficient_shape_fit(unit_cube):
    # a fit normal in the plane of a flat 1-ring projects its ring edges onto
    # one line, so the shape fit there is exactly rank-deficient
    mesh = cube_with_face_centres(unit_cube)
    cache = compute_cache(mesh)
    conf = geometry._configuration(mesh)
    moments = geometry._ring_moments(mesh, conf)
    nsf = cache.normal.T.copy()
    nsf[:, 8] = np.roll(nsf[:, 8], 1)
    with pytest.raises(DegenerateGeometryError, match="rank-deficient"):
        geometry._shape_operator_eigen(mesh, conf, moments, nsf, cache.mean_curvature)


@pytest.mark.parametrize("name", ["ellipsoid", "dented", "circle"])
def test_min_edge_equals_edge_lengths(name):
    mesh = CACHE_MESHES[name]()
    assert compute_cache(mesh).min_edge == mesh.edge_lengths().min()


def test_operators_built_once_for_meshes_derived_before_first_use(monkeypatch):
    mesh = gen_icosphere(1.0, subdivisions=2)
    derived = [mesh.with_vertices(s * mesh.vertices) for s in (1.1, 0.9)]
    builds = count_calls(monkeypatch, meshmod, "_incidence")
    patterns = count_calls(monkeypatch, meshmod, "_StiffnessPattern")
    for m in (*derived, mesh):
        cotangent_stiffness(m, compute_cache(m).stiffness_weight)
    # ring (face is a view of it) and the stiffness pattern, once for all
    # three
    assert len(builds) == 1
    assert len(patterns) == 1
    for m in derived:
        assert m._connectivity is mesh._connectivity
    pattern = mesh._connectivity.stiffness_pattern
    assert derived[0]._connectivity.stiffness_pattern is pattern


@pytest.mark.parametrize("name", ["dented", "circle"])
def test_stiffness_weight_once_per_cache(monkeypatch, name):
    # one half-edge weight per configuration drives the area gradient and the
    # stiffness of the semi-implicit step
    mesh = CACHE_MESHES[name]()
    producer = "_curve_cache" if mesh.mode == "curve" else "_stiffness_weight"
    calls = count_calls(monkeypatch, geometry, producer)
    cache = compute_cache(mesh)
    assert len(calls) == 1
    cotangent_stiffness(mesh, cache.stiffness_weight)
    assert len(calls) == 1


def test_compute_cache_peak_memory():
    # V = 10242; the bincount pass peaked at about 15.3 MB
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 5)
    compute_cache(mesh)  # builds the connectivity's operators
    tracemalloc.start()
    try:
        compute_cache(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15e6


INTEGRALS_SCRIPT = """
from sapflow import FlowState, GaussianDentBump, compute_cache, compute_h
from sapflow import gen_perturbed_sphere
from sapflow.diagnostics import record_snapshot
mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 5)
cache = compute_cache(mesh)
row = record_snapshot(FlowState(mesh=mesh, h=compute_h(cache)), cache)
for name in ("h", "int_H", "int_H2", "int_traceless_sq", "int_Hpow"):
    print(name, float.hex(getattr(row, name)))
"""


def test_surface_integrals_independent_of_blas_threads():
    src = os.path.dirname(os.path.dirname(sapflow.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        done = subprocess.run(
            [sys.executable, "-c", INTEGRALS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
