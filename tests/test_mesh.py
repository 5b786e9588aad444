import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sapflow import mesh as meshmod
from conftest import count_calls


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


def test_off_face_block_formatted_once_per_connectivity(tmp_path, monkeypatch):
    sphere = gen_icosphere(1.0, subdivisions=1)
    save_mesh(sphere.with_vertices(1.5 * sphere.vertices), tmp_path / "clone.off")
    formats = count_calls(monkeypatch, meshmod, "_format_rows")
    save_mesh(sphere, tmp_path / "shared.off")
    assert len(formats) == 1  # the vertices; the face block is the clone's
    save_mesh(TriMesh(sphere.vertices, sphere.faces), tmp_path / "fresh.off")
    assert (tmp_path / "shared.off").read_bytes() == (tmp_path / "fresh.off").read_bytes()
    # the same vertices on other faces write their own block
    relabelled = TriMesh(sphere.vertices, np.roll(sphere.faces, 1, axis=1))
    save_mesh(relabelled, tmp_path / "relabelled.off")
    assert np.array_equal(load_mesh(tmp_path / "relabelled.off").faces, relabelled.faces)


def test_save_curve_roundtrip(tmp_path):
    curve = gen_circle(1.5, 64)
    path = tmp_path / "c.csv"
    save_mesh(curve, path)
    loaded = load_mesh(path)
    assert loaded.mode == "curve"
    assert np.array_equal(loaded.vertices, curve.vertices)


def test_load_clockwise_curve_rejected(tmp_path):
    path = tmp_path / "c.csv"
    save_mesh(TriMesh(gen_circle(1.0, 16).vertices[::-1], mode="curve"), path)
    with pytest.raises(MeshTopologyError, match="clockwise"):
        load_mesh(path)


def test_validate_curve_repeated_point():
    # a zero-length segment is a degenerate element: length 0, angle 0, and
    # no division by its length
    v = gen_circle(1.0, 16).vertices
    report = validate(TriMesh(np.insert(v, 5, v[5], axis=0), mode="curve"))
    assert report.min_face_area == 0.0
    assert report.min_angle == 0.0
    assert report.is_oriented


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


# -- edge table ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["icosphere", "open", "flipped", "bowtie"])
def test_edge_table_equals_sorted_row_unique(name, icosphere, bowtie):
    m = icosphere(1.0, 2)
    flipped = m.faces.copy()
    flipped[0] = flipped[0][::-1]
    mesh = {
        "icosphere": m,
        "open": TriMesh(m.vertices, m.faces[:-1]),
        "flipped": TriMesh(m.vertices, flipped),
        "bowtie": bowtie,
    }[name]
    edges, counts = np.unique(
        np.sort(mesh.directed_edges, axis=1), axis=0, return_counts=True
    )
    assert mesh.edges.dtype == edges.dtype
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh._edge_counts, counts)
    reference = mesh.with_vertices(mesh.vertices)
    reference.edges, reference._edge_counts = edges, counts
    assert validate(mesh) == validate(reference)


# -- file formats --------------------------------------------------------------

TET_OFF_LINES = [
    "OFF", "4 4 0",
    "0 0 0", "1 0 0", "0 1 0", "0 0 1",
    "3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 3 2",
]


def _load_text(tmp_path, lines, name="m.off"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return load_mesh(path)


def test_off_comments_and_blank_lines(tmp_path, tetrahedron):
    lines = ["# leading comment", "", *TET_OFF_LINES[:3], "   ", "1 0 0  # inline",
             *TET_OFF_LINES[4:], "# trailing comment", ""]
    lines[2] += "\t# after the header"
    assert _load_text(tmp_path, lines) == tetrahedron


def test_off_extra_columns_ignored(tmp_path, tetrahedron):
    lines = TET_OFF_LINES[:2] + [
        line + " 0.5 0.25 1" if len(line.split()) == 3 else line + " 255 0 0"
        for line in TET_OFF_LINES[2:]
    ]
    assert _load_text(tmp_path, lines) == tetrahedron


@pytest.mark.parametrize("face", ["4 0 1 2 3", "5 0 1 2 3 0"])
def test_off_non_triangle_face(tmp_path, face):
    lines = TET_OFF_LINES[:-1] + [face]
    with pytest.raises(MeshParseError, match="OFF loader accepts triangles only"):
        _load_text(tmp_path, lines)


@pytest.mark.parametrize(
    "lines",
    [
        TET_OFF_LINES[:3] + ["1 0"] + TET_OFF_LINES[4:],  # short vertex row
        TET_OFF_LINES[:3] + ["1 x 0"] + TET_OFF_LINES[4:],  # non-numeric token
        TET_OFF_LINES[:-1] + ["3 0 three 2"],  # non-numeric face index
        TET_OFF_LINES[:-1] + ["3 0 3.0 2"],  # non-integer face index
        TET_OFF_LINES[:-1] + ["3 0 3"],  # short face row
        TET_OFF_LINES[:-1],  # fewer lines than the counts
        TET_OFF_LINES[:1] + TET_OFF_LINES[2:],  # missing counts line
        ["OFF"],  # nothing after the header
        ["OFF", "0 0 0"],  # no vertices, no faces
        ["# only a comment"],
        TET_OFF_LINES[1:],  # missing header
    ],
    ids=["short-vertex", "non-numeric", "non-numeric-face", "float-face",
         "short-face", "too-few-lines", "no-counts", "header-only", "empty-counts",
         "empty", "no-header"],
)
def test_off_malformed_is_parse_error(tmp_path, lines):
    with pytest.raises(MeshParseError):
        _load_text(tmp_path, lines)


@pytest.mark.parametrize(
    "lines",
    [["v 0 0 0", "v 1 0", "v 0 1 0", "f 1 2 3"],  # short vertex row
     ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3 1"],  # a quad
     ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 x 3"],  # non-numeric index
     ["v 0 0 0", "v 1 0 0", "v 0 1 0"]],  # no faces
)
def test_obj_malformed_is_parse_error(tmp_path, lines):
    with pytest.raises(MeshParseError):
        _load_text(tmp_path, lines, "m.obj")


def test_non_ascii_file_is_parse_error(tmp_path):
    path = tmp_path / "m.off"
    path.write_bytes(("\n".join(TET_OFF_LINES) + "\n# é\n").encode("utf-8"))
    with pytest.raises(MeshParseError, match="ASCII"):
        load_mesh(path)


def test_curve_csv_comments_and_extra_columns(tmp_path):
    lines = ["# x,y", "1,0,7", "", "0, 1  # inline", "-1,-1,0,0"]
    loaded = _load_text(tmp_path, lines, "c.csv")
    assert np.array_equal(loaded.vertices, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize(
    "lines", [["1,0", "0,1", "-1"], ["1,0", "0,y", "-1,-1"], ["1", "0", "-1"], ["1,0", "0,1"]]
)
def test_curve_csv_malformed_is_parse_error(tmp_path, lines):
    with pytest.raises(MeshParseError):
        _load_text(tmp_path, lines, "c.csv")


def _per_element_text(mesh, fmt):
    """The file text built one ``FLOAT_FMT % c`` per coordinate and one line per row."""
    sep = "," if fmt == "csv" else " "
    rows = [sep.join(meshmod.FLOAT_FMT % c for c in row) for row in mesh.vertices]
    if fmt == "csv":
        lines = rows
    elif fmt == "off":
        lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"] + rows
        lines += ["3 %d %d %d" % tuple(f) for f in mesh.faces]
    else:
        lines = ["v " + row for row in rows]
        lines += ["f %d %d %d" % tuple(f + 1) for f in mesh.faces]
    return "\n".join(lines) + "\n"


def _save_and_read(mesh, fmt, load):
    """Save ``mesh`` to a fresh file; returns the file's text and ``load(path)``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"m.{fmt}")
        save_mesh(mesh, path)
        with open(path, encoding="ascii") as fh:
            return fh.read(), load(path)


def _parse_only(path):
    """The parsed mesh without load_mesh's closed-manifold and orientation checks."""
    if path.endswith(".csv"):
        return TriMesh(meshmod._read_curve_csv(path), mode="curve")
    read = meshmod._read_off if path.endswith(".off") else meshmod._read_obj
    return TriMesh(*read(path))


def _assert_same_mesh(loaded, mesh):
    assert loaded.vertices.shape == mesh.vertices.shape
    assert np.array_equal(loaded.vertices.view(np.int64), mesh.vertices.view(np.int64))
    if mesh.faces is not None:
        assert loaded.faces.dtype == np.int64 and np.array_equal(loaded.faces, mesh.faces)
        assert loaded.faces.base is None  # not a view of a wider parse buffer


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    subdiv=st.integers(0, 2),
    exponent=st.integers(-60, 60),
    fmt=st.sampled_from(["off", "obj", "csv"]),
)
def test_save_load_roundtrip_property(seed, subdiv, exponent, fmt):
    # perturbed and relabelled spheres (circles for csv) at scales 1e+-60, where
    # squared face areas neither overflow nor underflow; the vertex order is
    # the curve, so a circle is relabelled by a cyclic shift and stays
    # counter-clockwise, as load_mesh requires
    rng = np.random.default_rng(seed)
    if fmt == "csv":
        base = gen_circle(1.0, 3 + 8 * subdiv)
        shift = int(rng.integers(base.n_vertices))
        mesh = base.with_vertices(np.roll(base.vertices, shift, axis=0))
    else:
        base = gen_icosphere(1.0, subdivisions=subdiv)
        perm = rng.permutation(base.n_vertices)
        new_label = np.empty_like(perm)
        new_label[perm] = np.arange(len(perm))
        mesh = TriMesh(base.vertices[perm], new_label[base.faces])
    radial = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=mesh.n_vertices)
    mesh = mesh.with_vertices(radial[:, None] * mesh.vertices * 10.0**exponent)
    text, loaded = _save_and_read(mesh, fmt, load_mesh)
    assert text == _per_element_text(mesh, fmt)
    _assert_same_mesh(loaded, mesh)


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e290, max_value=1.7976931348623157e308),
    st.floats(min_value=1e-310, max_value=1e-290),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["off", "obj", "csv"]))
def test_roundtrip_extreme_values_property(data, fmt):
    # magnitudes near 1e+-300, subnormals and -0.0, through the parsers
    dim = 2 if fmt == "csv" else 3
    n = data.draw(st.integers(4, 10))
    values = data.draw(st.lists(EXTREME_FLOATS, min_size=n * dim, max_size=n * dim))
    vertices = np.array(values).reshape(n, dim)
    if fmt == "csv":
        mesh = TriMesh(vertices, mode="curve")
    else:
        a, b, c, d = data.draw(st.permutations(range(n)))[:4]
        mesh = TriMesh(vertices, [[a, b, c], [d, c, b]])
    text, loaded = _save_and_read(mesh, fmt, _parse_only)
    assert text == _per_element_text(mesh, fmt)
    _assert_same_mesh(loaded, mesh)


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
    c = geometry.compute_cache(gen_ellipsoid(1.2, 1.0, 0.85, 3))
    assert geometry.surface_integral(c.vertex_area, c.traceless_norm**2) > 0.1


def test_perturbed_sphere_zero_amplitude(icosphere):
    m = gen_perturbed_sphere(1.0, 0.0, SphericalHarmonicBump(2, 0), 2)
    assert np.array_equal(m.vertices, icosphere(1.0, 2).vertices)


def test_perturbed_sphere_amplitude_cap():
    with pytest.raises(ValueError, match="amplitude"):
        gen_perturbed_sphere(1.0, 0.6, SphericalHarmonicBump(2, 0), 1)


def test_gaussian_dent_creates_concavity():
    m = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 3)
    assert geometry.compute_cache(m).mean_curvature.min() < 0


def test_harmonic_amplitude_quadratic_scaling():
    energies = []
    for amp in (0.05, 0.025):
        m = gen_perturbed_sphere(1.0, amp, SphericalHarmonicBump(2, 0), 3)
        c = geometry.compute_cache(m)
        energies.append(geometry.surface_integral(c.vertex_area, c.traceless_norm**2))
    assert 3.5 < energies[0] / energies[1] < 4.5


def test_curve_polygon_basics():
    c = gen_circle(1.0, 128)
    assert c.mode == "curve"
    report = validate(c)
    assert report.is_closed and report.is_oriented
    assert geometry.enclosed_volume(c) == pytest.approx(
        np.pi * 1.0**2, rel=1e-3
    )
