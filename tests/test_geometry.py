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
    diameter_estimate,
    enclosed_volume,
    gradient_norm_field,
    mean_curvature_field,
    surface_integral,
    traceless_second_form_field,
    vertex_area_weights,
    vertex_normals,
)
from sapflow.geometry import cotangent_stiffness, mean_curvature_vector
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
    n = vertex_normals(unit_cube)
    expect = np.ones(3) / np.sqrt(3.0)
    assert np.allclose(n[6], expect, atol=1e-14)
    assert np.allclose(n[0], -expect, atol=1e-14)


def test_icosphere_normal_error_decreases(icosphere):
    tilts = []
    for sub in (2, 3, 4):
        m = icosphere(1.0, sub)
        n = vertex_normals(m)
        radial = m.vertices / np.linalg.norm(m.vertices, axis=1)[:, None]
        tilts.append(np.linalg.norm(n - radial, axis=1).max())
    assert tilts[0] / tilts[1] > 1.8
    assert tilts[1] / tilts[2] > 1.8


def test_inward_mesh_raises(tetrahedron):
    flipped = TriMesh(tetrahedron.vertices, tetrahedron.faces[:, ::-1])
    with pytest.raises(OrientationError):
        vertex_normals(flipped)


# -- mean curvature ----------------------------------------------------------------


@pytest.mark.parametrize("radius,expected", [(1.0, 2.0), (2.0, 1.0)])
def test_sphere_mean_curvature(icosphere, radius, expected):
    m = icosphere(radius, 3)
    H = mean_curvature_field(m, vertex_area_weights(m), vertex_normals(m))
    assert np.abs(H - expected).max() < 2e-4 * expected


def test_mean_curvature_refinement(icosphere):
    # levels 0-1 have fully symmetric vertex stars and are exact to rounding;
    # generic-vertex convergence starts at level 2
    errs = {}
    for sub in (1, 2, 3, 4):
        m = icosphere(1.0, sub)
        H = mean_curvature_field(m, vertex_area_weights(m), vertex_normals(m))
        errs[sub] = np.abs(H - 2.0).max()
    assert errs[1] < 1e-12
    assert errs[2] > errs[3] > errs[4]


def test_polygon_curvature_approaches_circle():
    errs = []
    for sides in (16, 32, 64):
        c = gen_circle(1.0, sides)
        k = mean_curvature_field(c, vertex_area_weights(c), vertex_normals(c))
        errs.append(np.abs(k - 1.0).max())
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 2e-3


# -- second fundamental form ---------------------------------------------------------


def test_sphere_traceless_floor_and_second_form(icosphere):
    for sub in (2, 3):
        m = icosphere(1.0, sub)
        w = vertex_area_weights(m)
        second, traceless = traceless_second_form_field(m, w, vertex_normals(m))
        assert traceless.max() < 1e-6
        assert np.abs(second - np.sqrt(2.0)).max() < 1e-3


def test_ellipsoid_anisotropy_detected():
    m = gen_ellipsoid(1.0, 1.0, 2.0, 3)
    w = vertex_area_weights(m)
    _, traceless = traceless_second_form_field(m, w, vertex_normals(m))
    # equator vertices (z ~ 0) have k1 != k2
    eq = np.abs(m.vertices[:, 2]) < 0.2
    assert traceless[eq].min() > 0.05


def test_cylinder_patch_traceless():
    # the sphere-fit normals are exactly radial on the structured interior,
    # so |Adev|^2 = 1/2 holds to rounding there
    for n_theta, n_z in ((24, 9), (48, 17)):
        m, interior = make_cylinder_patch(n_theta, n_z)
        w = vertex_area_weights(m)
        _, traceless = traceless_second_form_field(m, w, vertex_normals(m))
        sq = traceless[interior] ** 2
        assert np.abs(sq - 0.5).max() < 1e-10


def test_pointwise_traceless_identity(icosphere):
    m = gen_ellipsoid(1.2, 1.0, 0.85, 2)
    w = vertex_area_weights(m)
    n = vertex_normals(m)
    H = mean_curvature_field(m, w, n)
    second, traceless = traceless_second_form_field(m, w, n)
    lhs = traceless**2
    rhs = second**2 - H**2 / 2.0
    assert np.abs(lhs - rhs).max() < 1e-10


# -- gradients -------------------------------------------------------------------------


def test_gradient_constant_field(icosphere):
    m = icosphere(1.0, 2)
    g = gradient_norm_field(m, np.full(m.n_vertices, 3.7), vertex_area_weights(m))
    assert np.abs(g).max() < 1e-12


def test_gradient_affine_exactness(flat_patch):
    g = gradient_norm_field(
        flat_patch, flat_patch.vertices[:, 0], vertex_area_weights(flat_patch)
    )
    assert np.abs(g - 1.0).max() < 1e-12


def test_gradient_of_H_vanishes_under_refinement(icosphere):
    maxima = []
    for sub in (2, 3, 4):
        m = icosphere(1.0, sub)
        w = vertex_area_weights(m)
        H = mean_curvature_field(m, w, vertex_normals(m))
        maxima.append(gradient_norm_field(m, H, w).max())
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


# -- integrals, volume, diameter ----------------------------------------------------------


def test_surface_integral_constants(unit_cube):
    w = vertex_area_weights(unit_cube)
    assert surface_integral(unit_cube, w, np.ones(8)) == pytest.approx(6.0, abs=1e-13)


def test_sphere_curvature_integrals(icosphere):
    m = icosphere(1.0, 3)
    w = vertex_area_weights(m)
    H = mean_curvature_field(m, w, vertex_normals(m))
    assert surface_integral(m, w, H) == pytest.approx(8 * np.pi, rel=5e-3)
    assert surface_integral(m, w, H**2) == pytest.approx(16 * np.pi, rel=5e-3)


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
    est = diameter_estimate(m, n_sources=2)
    # graph distances dominate Euclidean ones; the farthest pair spans 2r
    assert est >= 2.0 - 1e-9


def test_diameter_curve():
    c = gen_circle(1.0, 256)
    assert diameter_estimate(c) == pytest.approx(np.pi, rel=1e-3)


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
# every field but the per-face-corner (per-segment) stiffness weights
VERTEX_FIELDS = [name for name in CACHE_FIELDS if name != "stiffness_weight"]


def standalone_fields(mesh):
    w = vertex_area_weights(mesh)
    n = vertex_normals(mesh)
    H = mean_curvature_field(mesh, w, n)
    second, traceless = traceless_second_form_field(mesh, w, n)
    return {
        "vertex_area": w,
        "normal": n,
        "mean_curvature": H,
        "mean_curvature_vector": mean_curvature_vector(mesh),
        "second_form_norm": second,
        "traceless_norm": traceless,
        "grad_H_norm": gradient_norm_field(mesh, H, w),
    }


@pytest.mark.parametrize("name", sorted(CACHE_MESHES))
def test_cache_equals_standalone_operations(name):
    mesh = CACHE_MESHES[name]()
    cache = compute_cache(mesh)
    expected = standalone_fields(mesh)
    assert sorted(expected) == sorted(VERTEX_FIELDS)
    for field in VERTEX_FIELDS:
        assert np.array_equal(getattr(cache, field), expected[field]), field
    # the stiffness weights have no standalone operation but the assembler
    L = cotangent_stiffness(mesh, cache.stiffness_weight)
    assert np.array_equal(L.data, cotangent_stiffness(mesh).data)


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
    # faces keep their order, so the per-corner weights do not move
    assert np.array_equal(c2.stiffness_weight, c1.stiffness_weight)


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
