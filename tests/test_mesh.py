import numpy as np
import pytest

from sapflow import (
    GaussianDentBump,
    MeshTopologyError,
    MeshParseError,
    SphericalHarmonicBump,
    TriMesh,
    gen_circle,
    gen_ellipsoid,
    gen_icosphere,
    gen_perturbed_sphere,
    load_mesh,
    save_mesh,
    validate,
)
from sapflow import geometry


def test_trimesh_rejects_bad_faces():
    verts = np.eye(3)
    with pytest.raises(ValueError, match="degenerate"):
        TriMesh(np.vstack([verts, [1, 1, 1]]), [[0, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        TriMesh(verts, [[0, 1, 5]])


def test_vertices_are_frozen(tetrahedron):
    with pytest.raises(ValueError):
        tetrahedron.vertices[0, 0] = 9.9


def test_load_off_tetrahedron(tmp_path, tetrahedron):
    path = tmp_path / "tet.off"
    save_mesh(tetrahedron, path)
    loaded = load_mesh(path)
    assert loaded.n_vertices == 4 and loaded.n_faces == 4
    assert np.array_equal(loaded.faces, tetrahedron.faces)


def test_load_obj_cube_volume(tmp_path, unit_cube):
    path = tmp_path / "cube.obj"
    save_mesh(unit_cube, path)
    loaded = load_mesh(path)
    assert loaded.n_vertices == 8 and loaded.n_faces == 12
    assert geometry.enclosed_volume(loaded) == pytest.approx(1.0, abs=1e-14)


def test_load_open_mesh_reports_boundary_edges(tmp_path, icosphere):
    m = icosphere(1.0, 0)
    open_mesh = TriMesh(m.vertices, m.faces[:-1])
    path = tmp_path / "open.off"
    save_mesh(open_mesh, path)
    with pytest.raises(MeshTopologyError, match="3 boundary edges"):
        load_mesh(path)


def test_load_inward_mesh_rejected(tmp_path, tetrahedron):
    flipped = TriMesh(tetrahedron.vertices, tetrahedron.faces[:, ::-1])
    path = tmp_path / "inward.off"
    save_mesh(flipped, path)
    with pytest.raises(MeshTopologyError, match="inward"):
        load_mesh(path)


def test_load_malformed_off(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 4 0\nnot numbers\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_load_off_single_line_header(tmp_path, tetrahedron):
    path = tmp_path / "tet.off"
    save_mesh(tetrahedron, path)
    lines = path.read_text().splitlines()
    merged = [f"{lines[0]} {lines[1]}"] + lines[2:] + ["# trailing comment"]
    path.write_text("\n".join(merged) + "\n")
    assert load_mesh(path).n_faces == 4


def test_curve_rejects_obj_format(tmp_path):
    with pytest.raises(ValueError, match="CSV"):
        save_mesh(gen_circle(1.0, 16), tmp_path / "c.obj")


def test_save_roundtrip_bitexact(tmp_path, icosphere):
    m = icosphere(1.0, 2)
    for fmt in ("off", "obj"):
        path = tmp_path / f"s.{fmt}"
        save_mesh(m, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.vertices, m.vertices)
        assert np.array_equal(loaded.faces, m.faces)


def test_save_curve_roundtrip(tmp_path):
    curve = gen_circle(1.5, 64)
    path = tmp_path / "c.csv"
    save_mesh(curve, path)
    loaded = load_mesh(path)
    assert loaded.mode == "curve"
    assert np.array_equal(loaded.vertices, curve.vertices)


def test_save_unwritable_path(tetrahedron):
    with pytest.raises(OSError):
        save_mesh(tetrahedron, "/nonexistent_dir_xyzzy/out.off")


def test_validate_icosahedron(icosphere):
    report = validate(icosphere(1.0, 0))
    assert report.is_closed and report.is_oriented
    assert report.boundary_edge_count == 0
    assert report.min_face_area > 0 and report.min_angle > 0


def test_validate_missing_face(icosphere):
    m = icosphere(1.0, 0)
    report = validate(TriMesh(m.vertices, m.faces[:-1]))
    assert not report.is_closed
    assert report.boundary_edge_count == 3


def test_validate_bowtie(bowtie, icosphere):
    report = validate(bowtie)
    assert report.is_closed and report.is_oriented
    assert not report.is_vertex_manifold
    assert validate(icosphere(1.0, 2)).is_vertex_manifold


def test_validate_unreferenced_vertex(icosphere):
    m = icosphere(1.0, 0)
    report = validate(TriMesh(np.vstack([m.vertices, [[0.0, 0.0, 0.0]]]), m.faces))
    assert report.is_closed and report.is_oriented
    assert not report.is_vertex_manifold


def test_load_bowtie_rejected(bowtie, tmp_path):
    path = tmp_path / "bowtie.off"
    save_mesh(bowtie, path)
    with pytest.raises(MeshTopologyError, match="non-manifold vertex"):
        load_mesh(path)


def test_validate_flipped_face(icosphere):
    m = icosphere(1.0, 0)
    faces = m.faces.copy()
    faces[0] = faces[0][::-1]
    report = validate(TriMesh(m.vertices, faces))
    assert not report.is_oriented
    assert report.is_closed  # every edge still shared by two faces


# -- generators ----------------------------------------------------------------


def test_icosphere_level0_is_icosahedron(icosphere):
    m = icosphere(1.0, 0)
    assert m.n_vertices == 12 and m.n_faces == 20
    assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)


def test_icosphere_counts_and_area_convergence(icosphere):
    m = icosphere(1.0, 3)
    assert m.n_faces == 1280
    errors = []
    for sub in (1, 2, 3, 4):
        area = geometry.vertex_area_weights(icosphere(1.0, sub)).sum()
        errors.append(abs(area - 4 * np.pi))
    # one subdivision shrinks the area error roughly 4x
    for e0, e1 in zip(errors, errors[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_icosphere_area_error_monotone_subdiv_1_to_5(icosphere):
    errs = [
        abs(geometry.vertex_area_weights(icosphere(1.0, s)).sum() - 4 * np.pi)
        for s in range(1, 6)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_icosphere_offcenter_radius(icosphere):
    m = icosphere(2.0, 2, (1.0, 2.0, 3.0))
    d = np.linalg.norm(m.vertices - np.array([1.0, 2.0, 3.0]), axis=1)
    assert np.abs(d - 2.0).max() < 1e-12


def test_generators_deterministic():
    a = gen_icosphere(1.0, (0, 0, 0), 2)
    b = gen_icosphere(1.0, (0, 0, 0), 2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_generators_validate(icosphere):
    meshes = [
        icosphere(1.0, 2),
        gen_ellipsoid(1.2, 1.0, 0.85, 2),
        gen_perturbed_sphere(1.0, 0.1, GaussianDentBump(width=0.4), 2),
        gen_perturbed_sphere(1.0, 0.05, SphericalHarmonicBump(2, 0), 2),
    ]
    for m in meshes:
        report = validate(m)
        assert report.is_closed and report.is_oriented


def test_ellipsoid_degenerate_is_icosphere(icosphere):
    assert gen_ellipsoid(1.0, 1.0, 1.0, 2) == icosphere(1.0, 2)


def test_ellipsoid_volume_convergence():
    target = 4 * np.pi / 3 * 2.0  # (1, 1, 2) semi-axes
    errs = [
        abs(geometry.enclosed_volume(gen_ellipsoid(1, 1, 2, s)) - target)
        for s in (2, 3, 4)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01 * target


def test_ellipsoid_nonround_has_traceless_energy():
    m = gen_ellipsoid(1.2, 1.0, 0.85, 3)
    va = geometry.vertex_area_weights(m)
    nrm = geometry.vertex_normals(m)
    _, traceless = geometry.traceless_second_form_field(m, va, nrm)
    assert geometry.surface_integral(m, va, traceless**2) > 0.1


def test_perturbed_sphere_zero_amplitude(icosphere):
    m = gen_perturbed_sphere(1.0, 0.0, SphericalHarmonicBump(2, 0), 2)
    assert np.array_equal(m.vertices, icosphere(1.0, 2).vertices)


def test_perturbed_sphere_amplitude_cap():
    with pytest.raises(ValueError, match="amplitude"):
        gen_perturbed_sphere(1.0, 0.6, SphericalHarmonicBump(2, 0), 1)


def test_gaussian_dent_creates_concavity():
    m = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 3)
    va = geometry.vertex_area_weights(m)
    nrm = geometry.vertex_normals(m)
    H = geometry.mean_curvature_field(m, va, nrm)
    assert H.min() < 0


def test_harmonic_amplitude_quadratic_scaling():
    energies = []
    for amp in (0.05, 0.025):
        m = gen_perturbed_sphere(1.0, amp, SphericalHarmonicBump(2, 0), 3)
        va = geometry.vertex_area_weights(m)
        nrm = geometry.vertex_normals(m)
        _, traceless = geometry.traceless_second_form_field(m, va, nrm)
        energies.append(geometry.surface_integral(m, va, traceless**2))
    assert 3.5 < energies[0] / energies[1] < 4.5


def test_curve_polygon_basics():
    c = gen_circle(1.0, 128)
    assert c.mode == "curve"
    report = validate(c)
    assert report.is_closed and report.is_oriented
    assert geometry.enclosed_volume(c) == pytest.approx(
        np.pi * 1.0**2, rel=1e-3
    )
