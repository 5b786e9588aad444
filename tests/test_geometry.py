from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapflow import (
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
    gradient_norm_field,
    surface_integral,
    validate,
    vertex_area_weights,
)
from sapflow.geometry import (
    cotangent_stiffness,
    mean_curvature_vector,
    osculating_sphere_normals,
)
from conftest import make_cylinder_patch


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


def test_gradient_constant_field(icosphere):
    m = icosphere(1.0, 2)
    g = gradient_norm_field(m, np.full(m.n_vertices, 3.7))
    assert np.abs(g).max() < 1e-12


def test_gradient_affine_exactness(flat_patch):
    g = gradient_norm_field(flat_patch, flat_patch.vertices[:, 0])
    assert np.abs(g - 1.0).max() < 1e-12


def test_gradient_of_H_vanishes_under_refinement(icosphere):
    maxima = []
    for sub in (2, 3, 4):
        m = icosphere(1.0, sub)
        maxima.append(gradient_norm_field(m, compute_cache(m).mean_curvature).max())
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


def test_diameter_icosphere(icosphere):
    d = diameter_estimate(icosphere(1.0, 3))
    assert abs(d - np.pi) < 0.1 * np.pi


def test_diameter_scales_with_radius(icosphere):
    d1 = diameter_estimate(icosphere(1.0, 2))
    d2 = diameter_estimate(icosphere(2.0, 2))
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_diameter_two_source_lower_bound(icosphere):
    m = icosphere(1.0, 2)
    est = diameter_estimate(m)
    # graph distances dominate Euclidean ones; the farthest pair spans 2r
    assert est >= 2.0 - 1e-9


def test_diameter_curve():
    c = gen_circle(1.0, 256)
    assert diameter_estimate(c) == pytest.approx(np.pi, rel=1e-3)


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
        got = diameter_estimate(TriMesh(v, mode="curve"))
        assert got == pytest.approx(brute, rel=1e-15, abs=0.0)


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


def test_flat_ring_sphere_fit_falls_back_to_vertex_normal(unit_cube):
    # a vertex at each face centre of the cube: its 1-ring is flat, so the
    # 4x4 osculating-sphere fit there is exactly singular
    corners = unit_cube.vertices
    quads = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
             [2, 3, 7, 6], [1, 2, 6, 5], [0, 4, 7, 3]]
    centres = corners[quads].mean(axis=1)
    faces = [[q[k], q[(k + 1) % 4], 8 + i] for i, q in enumerate(quads) for k in range(4)]
    mesh = TriMesh(np.vstack([corners, centres]), faces)
    report = validate(mesh)
    assert (mesh.n_vertices, mesh.n_faces) == (14, 24)
    assert report.is_closed and report.is_oriented and report.is_vertex_manifold
    cache = compute_cache(mesh)
    assert all(np.isfinite(getattr(cache, f)).all() for f in CACHE_FIELDS)
    reference = cache.normal
    fitted = osculating_sphere_normals(mesh, reference)
    assert np.array_equal(fitted[8:], reference[8:])
    assert np.allclose(reference[8:], [[0, 0, -1], [0, 0, 1], [0, -1, 0],
                                       [0, 1, 0], [1, 0, 0], [-1, 0, 0]])


def test_rigid_motion_invariance():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    moved = m.with_vertices(m.vertices @ rot.T + np.array([0.3, -1.2, 2.0]))
    c1, c2 = compute_cache(m), compute_cache(moved)
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

CACHE_MESHES = {
    "ellipsoid": lambda: gen_ellipsoid(1.2, 1.0, 0.85, 2),
    "dented": lambda: gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2),
    "circle": lambda: gen_circle(1.0, 48),
}
CACHE_FIELDS = [f.name for f in fields(GeometryCache)]
# every field but the per-face-corner (per-segment) stiffness weights and the
# scalars volume and min_angle
VERTEX_FIELDS = [
    name for name in CACHE_FIELDS
    if name not in ("stiffness_weight", "volume", "min_angle")
]


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_cache_equals_standalone_operations(name):
    # the operations kept beside the cache share its field helpers
    mesh = CACHE_MESHES[name]()
    cache = compute_cache(mesh)
    assert np.array_equal(cache.vertex_area, vertex_area_weights(mesh))
    assert np.array_equal(
        cache.grad_H_norm, gradient_norm_field(mesh, cache.mean_curvature)
    )
    L = cotangent_stiffness(mesh, cache.stiffness_weight)
    assert np.array_equal(L.data, cotangent_stiffness(mesh).data)
    assert cache.volume == enclosed_volume(mesh)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["ellipsoid", "dented"]), seed=st.integers(0, 2**32 - 1))
def test_cache_relabelling_property(name, seed):
    # new vertex j is old vertex perm[j]; every field must follow the labels
    mesh = CACHE_MESHES[name]()
    perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
    new_label = np.empty_like(perm)
    new_label[perm] = np.arange(len(perm))
    relabelled = TriMesh(mesh.vertices[perm], new_label[mesh.faces])
    c1, c2 = compute_cache(mesh), compute_cache(relabelled)
    for field in VERTEX_FIELDS:
        assert np.allclose(
            getattr(c2, field), getattr(c1, field)[perm], rtol=0, atol=1e-10
        ), field
    # faces keep their order, so the per-corner weights and the scalars over
    # faces do not move
    assert np.array_equal(c2.stiffness_weight, c1.stiffness_weight)
    assert (c2.volume, c2.min_angle) == (c1.volume, c1.min_angle)


# -- cotangent stiffness ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_stiffness_reproduces_mean_curvature_vector(name):
    mesh = CACHE_MESHES[name]()
    L = cotangent_stiffness(mesh)
    assert np.allclose(
        L @ mesh.vertices, mean_curvature_vector(mesh), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_stiffness_symmetric_with_zero_row_sums(name):
    L = cotangent_stiffness(CACHE_MESHES[name]())
    assert abs(L - L.T).max() == 0
    assert np.abs(L.sum(axis=1)).max() <= 1e-13 * abs(L).max()


def test_stiffness_pattern_shared_by_derived_meshes():
    mesh = CACHE_MESHES["dented"]()
    L = cotangent_stiffness(mesh)
    moved = mesh.with_vertices(1.5 * mesh.vertices)
    assert moved._stiffness_pattern is mesh._stiffness_pattern
    # a uniform scale leaves every cotangent unchanged
    assert np.allclose(cotangent_stiffness(moved).data, L.data, rtol=1e-13, atol=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.3))
def test_stiffness_positive_semidefinite_property(seed, amplitude):
    # the premise of the semi-implicit step's CG: M + dt h L is SPD for h > 0
    rng = np.random.default_rng(seed)
    base = gen_icosphere(1.0, subdivisions=2)
    noise = amplitude * rng.uniform(-1.0, 1.0, size=base.vertices.shape)
    mesh = base.with_vertices(base.vertices + noise)
    L = cotangent_stiffness(mesh)
    for f in rng.normal(size=(5, mesh.n_vertices)):
        assert f @ (L @ f) >= -1e-12 * (f @ f)
