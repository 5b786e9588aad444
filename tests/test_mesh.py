import inspect
import io
import os
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapflow import (
    BlowUpError,
    FlowConfig,
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
    run_flow,
    save_mesh,
    validate,
)
from sapflow import geometry
from sapflow.diagnostics import best_fit_sphere
from sapflow import mesh as meshmod
from conftest import count_calls, record_builds


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_positions_stored_c_ordered(tmp_path, layout):
    # equal meshes hold equal bytes: a Fortran-ordered or strided vertex array
    # is stored C-ordered, by TriMesh and by with_vertices alike, so the mesh
    # saves the same .npz and fits the same sphere
    mesh = gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 2)
    v = mesh.vertices
    if layout == "fortran":
        other = np.asfortranarray(v)
    else:
        other = np.zeros((len(v), 2 * v.shape[1]))[:, ::2]
        other[:] = v
    assert not other.flags.c_contiguous
    want = best_fit_sphere(mesh)
    save_mesh(mesh, tmp_path / "c.npz")
    for i, copy in enumerate([TriMesh(other, mesh.faces), mesh.with_vertices(other)]):
        assert copy == mesh and copy.vertices.flags.c_contiguous
        save_mesh(copy, tmp_path / f"{i}.npz")
        assert (tmp_path / f"{i}.npz").read_bytes() == (tmp_path / "c.npz").read_bytes()
        got = best_fit_sphere(copy)
        assert np.array_equal(got.center, want.center)
        assert (got.radius, got.rms_residual) == (want.radius, want.rms_residual)


def test_trimesh_rejects_bad_faces():
    verts = np.eye(3)
    with pytest.raises(ValueError, match="degenerate"):
        TriMesh(np.vstack([verts, [1, 1, 1]]), [[0, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        TriMesh(verts, [[0, 1, 5]])


@pytest.mark.parametrize("offset", [0.4, 0.0])
def test_trimesh_rejects_non_integer_faces(icosphere, offset):
    # a cast truncated 0.4 to 0: the icosphere with 0.4 added to a face index
    # was the icosphere
    sphere = icosphere(1.0, 1)
    faces = sphere.faces.astype(np.float64)
    faces[7, 1] += offset
    with pytest.raises(ValueError, match="faces must hold integer indices, not float64"):
        TriMesh(sphere.vertices, faces)
    assert TriMesh(sphere.vertices, sphere.faces.astype(np.int32)) == sphere


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trimesh_rejects_non_finite_coordinates(tetrahedron, value):
    verts = tetrahedron.vertices.copy()
    verts[2, 1] = value
    with pytest.raises(ValueError, match="non-finite coordinate in 1 of 4 vertices"):
        TriMesh(verts, tetrahedron.faces)
    with pytest.raises(ValueError, match="non-finite"):
        TriMesh([[1.0, 0.0], [0.0, value], [-1.0, -1.0]])


def test_trimesh_takes_its_mode_from_the_faces(tetrahedron):
    # a mode argument restated whether faces were given
    assert list(inspect.signature(TriMesh).parameters) == ["vertices", "faces"]
    assert TriMesh([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]).mode == "curve"
    assert TriMesh(tetrahedron.vertices, tetrahedron.faces).mode == "surface"
    with pytest.raises(ValueError, match=r"^curve vertices must have shape \(n, 2\)$"):
        TriMesh(tetrahedron.vertices)
    with pytest.raises(ValueError, match=r"^surface vertices must have shape \(n, 3\)$"):
        TriMesh(tetrahedron.vertices[:, :2], tetrahedron.faces)


def test_trimesh_rejects_faces_of_four_corners(unit_cube):
    quads = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4]]
    with pytest.raises(ValueError, match=r"^faces must have shape \(m, 3\)$"):
        TriMesh(unit_cube.vertices, quads)


def test_curve_needs_three_vertices():
    with pytest.raises(ValueError, match="^curve needs at least 3 vertices$"):
        TriMesh([[0.0, 0.0], [1.0, 0.0]])


def test_with_vertices_keeps_the_vertex_array_shape(tetrahedron):
    for vertices in (tetrahedron.vertices[:3], tetrahedron.vertices[:, :2]):
        with pytest.raises(ValueError, match="^vertex array shape must be preserved$"):
            tetrahedron.with_vertices(vertices)


def test_stl_is_not_a_mesh_format(tmp_path, tetrahedron):
    path = tmp_path / "m.stl"
    with pytest.raises(ValueError, match="^unsupported mesh format 'stl'$"):
        save_mesh(tetrahedron, path)
    assert not path.exists()
    path.write_text("solid m\nendsolid m\n", encoding="ascii")
    with pytest.raises(MeshParseError, match="^unsupported mesh format 'stl'$"):
        load_mesh(path)


def test_surface_to_csv_names_the_surface_formats(tmp_path, tetrahedron):
    # .csv is the curve format, which load_mesh reads: not an unknown format
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="^surface meshes serialize to OFF, OBJ or NPZ only$"):
        save_mesh(tetrahedron, path)
    assert not path.exists()


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


def test_load_clockwise_curve_rejected(tmp_path):
    path = tmp_path / "c.csv"
    save_mesh(TriMesh(gen_circle(1.0, 16).vertices[::-1]), path)
    with pytest.raises(MeshTopologyError, match="clockwise"):
        load_mesh(path)


@pytest.mark.parametrize("name", ["inward-icosphere", "clockwise-circle"])
def test_inward_mesh_is_oriented_with_negative_volume(tmp_path, icosphere, name):
    # is_oriented means consistent half-edges in both modes; facing inward is
    # volume <= 0, which load_mesh rejects
    if name == "inward-icosphere":
        sphere = icosphere(1.0, 2)
        mesh, path = TriMesh(sphere.vertices, sphere.faces[:, ::-1]), tmp_path / "m.off"
    else:
        mesh = TriMesh(gen_circle(1.0, 16).vertices[::-1])
        path = tmp_path / "m.csv"
    report = validate(mesh)
    assert report.is_closed and report.is_oriented and report.is_vertex_manifold
    assert report.volume < 0
    save_mesh(mesh, path)
    with pytest.raises(MeshTopologyError, match="inward|clockwise"):
        load_mesh(path)


def test_validate_curve_repeated_point():
    # a zero-length segment is a degenerate element: length 0, angle 0, and
    # no division by its length
    v = gen_circle(1.0, 16).vertices
    report = validate(TriMesh(np.insert(v, 5, v[5], axis=0)))
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


def test_load_edge_shared_by_four_faces_rejected(two_tetrahedra, tmp_path):
    path = tmp_path / "twotets.off"
    save_mesh(two_tetrahedra, path)
    with pytest.raises(MeshTopologyError, match="edge shared by more than two faces"):
        load_mesh(path)


def test_load_checks_without_validate(tmp_path, monkeypatch, icosphere):
    # load_mesh reads the topology verdict and the volume sign, not a report
    save_mesh(icosphere(1.0, 2), tmp_path / "s.off")
    save_mesh(gen_circle(1.0, 16), tmp_path / "c.csv")
    reports = count_calls(monkeypatch, meshmod, "validate")
    load_mesh(tmp_path / "s.off")
    load_mesh(tmp_path / "c.csv")
    assert reports == []


TOPOLOGY_DEFECTS = {
    "icosphere": None,
    "open": "3 boundary edges",
    "two-tetrahedra": "edge shared by more than two faces",
    "flipped": "inconsistent face orientation",
    "bowtie": "non-manifold vertex (one-ring is not a single cycle)",
    "pinched": "non-manifold vertex (one-ring is not a single cycle)",
    "circle": None,
}


@pytest.fixture(scope="module")
def named_meshes(icosphere, bowtie, two_tetrahedra, pinched_sphere, tetrahedron):
    """The meshes of TOPOLOGY_DEFECTS, an inward tetrahedron, a clockwise
    circle and two disjoint spheres, by name."""
    m = icosphere(1.0, 0)
    flipped = m.faces.copy()
    flipped[0] = flipped[0][::-1]
    circle = gen_circle(1.0, 16)
    return {
        "icosphere": m,
        "open": TriMesh(m.vertices, m.faces[:-1]),
        "two-tetrahedra": two_tetrahedra,
        "flipped": TriMesh(m.vertices, flipped),
        "bowtie": bowtie,
        "pinched": pinched_sphere,
        "circle": circle,
        "inward": TriMesh(tetrahedron.vertices, tetrahedron.faces[:, ::-1]),
        "clockwise": TriMesh(circle.vertices[::-1]),
        # its edge-path diameter is inf, which series.csv cannot hold
        "two-spheres": TriMesh(
            np.vstack([m.vertices, m.vertices + [3.0, 0.0, 0.0]]),
            np.vstack([m.faces, m.faces + m.n_vertices]),
        ),
    }


@pytest.mark.parametrize("name", list(TOPOLOGY_DEFECTS))
def test_topology_defect_is_the_first_defect(name, named_meshes):
    mesh = named_meshes[name]
    defect = TOPOLOGY_DEFECTS[name]
    assert mesh._connectivity.defect == defect
    assert mesh.with_vertices(mesh.vertices)._connectivity.defect == defect


class _FirstRow(Exception):
    """Raised by a run observer to end the run at its first row."""


def _stop_at_first_row(state, cache, row):
    raise _FirstRow


@pytest.mark.parametrize("name", [*TOPOLOGY_DEFECTS, "inward", "clockwise", "two-spheres"])
def test_load_mesh_and_run_flow_reject_alike(name, named_meshes, tmp_path):
    # load_mesh of the saved file raises MeshTopologyError(m) exactly when
    # run_flow raises BlowUpError("invalid_input", m)
    mesh = named_meshes[name]
    path = tmp_path / ("m.csv" if mesh.mode == "curve" else "m.off")
    save_mesh(mesh, path)
    try:
        load_mesh(path)
        loaded = None
    except MeshTopologyError as exc:
        loaded = str(exc)
    try:
        run_flow(mesh, FlowConfig(), observer=_stop_at_first_row)
    except BlowUpError as exc:
        assert exc.kind == "invalid_input"
        ran = str(exc)
    except _FirstRow:
        ran = None
    assert loaded == ran
    assert (loaded is None) == (name in ("icosphere", "circle"))


def test_validate_flags_are_bool(icosphere, bowtie):
    for mesh in (icosphere(1.0, 2), bowtie, gen_circle(1.0, 16)):
        report = validate(mesh)
        flags = (report.is_closed, report.is_oriented, report.is_vertex_manifold)
        assert [type(flag) for flag in flags] == [bool] * 3, mesh


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
    assert np.array_equal(mesh._connectivity.edge_table.counts, counts)
    reference = TriMesh(mesh.vertices, mesh.faces)
    reference._connectivity.edge_table = mesh._connectivity.edge_table._replace(
        edges=edges, counts=counts
    )
    assert validate(mesh) == validate(reference)


def test_topology_is_built_on_the_first_verdict_read(icosphere, monkeypatch):
    # construction sorts nothing; the first verdict read, here through a
    # clone made before it, builds the one edge table on the shared
    # connectivity, and every later verdict of either mesh reads it
    source = icosphere(1.0, 2)
    sorts = count_calls(monkeypatch, np, "argsort")
    mesh = TriMesh(source.vertices, source.faces)
    clone = mesh.with_vertices(0.9 * mesh.vertices)
    conn = mesh._connectivity
    assert sorts == [] and clone._connectivity is conn
    assert not {"directed_edges", "edge_table", "closed", "defect"} & set(vars(conn))
    assert clone.is_closed
    table = vars(conn)["edge_table"]
    assert len(sorts) == 1
    assert mesh.is_closed and conn.oriented and conn.defect is None
    assert validate(mesh).is_vertex_manifold and validate(clone).boundary_edge_count == 0
    assert vars(conn)["edge_table"] is table and len(sorts) == 1


# -- the face record: one per configuration --------------------------------------

RECORD_FIELDS = {
    "surface": ("edge", "cross", "area", "centroid", "length2", "cot", "volume"),
    "curve": ("points", "edge", "area", "centroid", "tangent", "turning", "volume"),
}


def _record_mesh(mode):
    if mode == "curve":
        return gen_circle(1.0, 16)
    return gen_perturbed_sphere(1.0, -0.3, GaussianDentBump(), 1)


@pytest.mark.parametrize("mode", sorted(RECORD_FIELDS))
def test_load_and_geometry_pass_build_one_record(tmp_path, monkeypatch, mode):
    # load_mesh's input check builds the record, the pass reads it
    path = tmp_path / ("m.csv" if mode == "curve" else "m.npz")
    save_mesh(_record_mesh(mode), path)
    built = record_builds(monkeypatch)
    mesh = load_mesh(path)
    geometry.compute_cache(mesh)
    assert built == [mesh]


def test_validate_and_run_build_one_input_record(monkeypatch):
    # validate, the run's input check and its first pass share one record
    mesh = _record_mesh("surface")
    built = record_builds(monkeypatch)
    validate(mesh)
    run_flow(mesh, FlowConfig(t_max=0.01))
    assert [m for m in built if m is mesh] == [mesh]


@pytest.mark.parametrize("mode", sorted(RECORD_FIELDS))
def test_geometry_pass_releases_the_record(mode):
    mesh = _record_mesh(mode)
    geometry.compute_cache(mesh)
    assert "_record" not in vars(mesh)
    record = mesh._record  # read before the pass: built once, then released
    assert mesh._record is record
    geometry.compute_cache(mesh)
    assert "_record" not in vars(mesh)


@pytest.mark.parametrize("mode", sorted(RECORD_FIELDS))
def test_clone_builds_its_own_record(mode):
    mesh = _record_mesh(mode)
    source = mesh._record
    clone = mesh.with_vertices(1.5 * mesh.vertices)
    assert "_record" not in vars(clone)
    fresh = TriMesh(clone.vertices, clone.faces)._record
    for name in RECORD_FIELDS[mode]:
        assert np.array_equal(getattr(clone._record, name), getattr(fresh, name)), name
    assert mesh._record is source


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
     ["v 0 0 0", "v 1 0 0", "v 0 1 0"],  # no faces
     ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 0 1 2"],  # index 0
     ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f -4 -1 -2"]],  # before the first vertex
)
def test_obj_malformed_is_parse_error(tmp_path, lines):
    with pytest.raises(MeshParseError):
        _load_text(tmp_path, lines, "m.obj")


def test_obj_relative_face_indices(tmp_path, tetrahedron):
    # a negative index counts back from the last vertex read so far: the
    # first face is read after 3 vertices, the others after all 4
    lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f -3 -1 -2", "v 0 0 1",
             "f -4 -3 -1", "f -3/1 -2/1 -1/1", "f -4//1 -1//1 -2//1"]
    positive = tmp_path / "tet.obj"
    save_mesh(tetrahedron, positive)
    assert _load_text(tmp_path, lines, "relative.obj") == load_mesh(positive)


@pytest.mark.parametrize(
    "name, lines",
    [
        ("m.off", TET_OFF_LINES[:3] + ["1 nan 0"] + TET_OFF_LINES[4:]),
        ("m.obj", ["v 0 0 0", "v 1 0 0", "v 0 inf 0", "v 0 0 1",
                   "f 1 3 2", "f 1 2 4", "f 2 3 4", "f 1 4 3"]),
        ("c.csv", ["1,0", "0,nan", "-1,-1"]),
    ],
    ids=["off-nan", "obj-inf", "csv-nan"],
)
def test_non_finite_coordinate_is_parse_error(tmp_path, name, lines):
    with pytest.raises(MeshParseError, match="non-finite coordinate"):
        _load_text(tmp_path, lines, name)


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
        return TriMesh(meshmod._read_curve_csv(path))
    read = meshmod._read_off if path.endswith(".off") else meshmod._read_obj
    return TriMesh(*read(path))


def _assert_same_arrays(loaded, mesh):
    assert loaded.vertices.shape == mesh.vertices.shape
    assert np.array_equal(loaded.vertices.view(np.int64), mesh.vertices.view(np.int64))
    if mesh.faces is not None:
        assert loaded.faces.dtype == np.int64 and np.array_equal(loaded.faces, mesh.faces)


def _assert_same_mesh(loaded, mesh):
    _assert_same_arrays(loaded, mesh)
    if mesh.faces is not None:
        assert loaded.faces.base is None  # not a view of a wider parse buffer


def _perturbed_relabelled(seed, subdiv, exponent, curve):
    """A perturbed and relabelled sphere (a circle for ``curve``) at scale
    ``10**exponent``. At scales 1e+-60 squared face areas neither overflow
    nor underflow; the vertex order is the curve, so a circle is relabelled
    by a cyclic shift and stays counter-clockwise, as load_mesh requires."""
    rng = np.random.default_rng(seed)
    if curve:
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
    return mesh.with_vertices(radial[:, None] * mesh.vertices * 10.0**exponent)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    subdiv=st.integers(0, 2),
    exponent=st.integers(-60, 60),
    fmt=st.sampled_from(["off", "obj", "csv"]),
)
def test_save_load_roundtrip_property(seed, subdiv, exponent, fmt):
    mesh = _perturbed_relabelled(seed, subdiv, exponent, curve=fmt == "csv")
    text, loaded = _save_and_read(mesh, fmt, load_mesh)
    assert text == _per_element_text(mesh, fmt)
    _assert_same_mesh(loaded, mesh)


def _npz_save_and_read(mesh, load):
    """Save ``mesh`` to a fresh ``.npz`` file; returns ``load(path)``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.npz")
        save_mesh(mesh, path)
        return load(path)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    subdiv=st.integers(0, 2),
    exponent=st.integers(-60, 60),
    curve=st.booleans(),
)
def test_npz_roundtrip_property(seed, subdiv, exponent, curve):
    mesh = _perturbed_relabelled(seed, subdiv, exponent, curve)
    loaded = _npz_save_and_read(mesh, load_mesh)
    assert loaded.mode == mesh.mode
    _assert_same_arrays(loaded, mesh)


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e290, max_value=1.7976931348623157e308),
    st.floats(min_value=1e-310, max_value=1e-290),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
)


def _extreme_mesh(data, curve):
    """A curve, or two triangles, on 4-10 vertices drawn from ``EXTREME_FLOATS``."""
    dim = 2 if curve else 3
    n = data.draw(st.integers(4, 10))
    values = data.draw(st.lists(EXTREME_FLOATS, min_size=n * dim, max_size=n * dim))
    vertices = np.array(values).reshape(n, dim)
    if curve:
        return TriMesh(vertices)
    a, b, c, d = data.draw(st.permutations(range(n)))[:4]
    return TriMesh(vertices, [[a, b, c], [d, c, b]])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["off", "obj", "csv"]))
def test_roundtrip_extreme_values_property(data, fmt):
    # magnitudes near 1e+-300, subnormals and -0.0, through the parsers
    mesh = _extreme_mesh(data, curve=fmt == "csv")
    text, loaded = _save_and_read(mesh, fmt, _parse_only)
    assert text == _per_element_text(mesh, fmt)
    _assert_same_mesh(loaded, mesh)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), curve=st.booleans())
def test_npz_roundtrip_extreme_values_property(data, curve):
    # the same values through the binary reader, without load_mesh's
    # closed-manifold and orientation checks
    mesh = _extreme_mesh(data, curve)
    loaded = _npz_save_and_read(mesh, lambda path: TriMesh(*meshmod._read_npz(path)))
    _assert_same_arrays(loaded, mesh)


def _npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _corrupt_deflate(v, f):
    """A compressed archive whose first member's deflate stream, after its
    62-byte local header (30 fixed, the 12-byte name, 20 of zip64 extra),
    has 8 bytes flipped."""
    buf = io.BytesIO()
    np.savez_compressed(buf, vertices=v, faces=f)
    data = buf.getvalue()
    return data[:62] + bytes(b ^ 0xFF for b in data[62:70]) + data[70:]


def _raw_members(v, f):
    """A zip archive whose members hold the raw array bytes, not ``.npy`` files."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        archive.writestr("vertices", v.tobytes())
        archive.writestr("faces", f.tobytes())
    return buf.getvalue()


def _with_nan(v):
    v = v.copy()
    v[1, 2] = np.nan
    return v


# name -> (the error's message, the file's bytes from the vertices and faces
# of a tetrahedron)
NPZ_DEFECTS = {
    "not-a-zip": ("not an npz archive", lambda v, f: b"OFF\n4 4 0\n"),
    "truncated": ("not a zip file", lambda v, f: _npz_bytes(vertices=v, faces=f)[:400]),
    "corrupt-deflate": ("while decompressing", _corrupt_deflate),
    "no-vertices": ("must hold vertices", lambda v, f: _npz_bytes(faces=f)),
    "no-faces": ("without faces", lambda v, f: _npz_bytes(vertices=v, faces=f[:0])),
    "raw-members": ("faces must be int64, not bytes", _raw_members),
    "extra-key": (r"not \['faces', 'mode', 'vertices'\]",
                  lambda v, f: _npz_bytes(vertices=v, faces=f, mode=np.array("surface"))),
    "object-array": ("Object arrays",
                     lambda v, f: _npz_bytes(vertices=v.astype(object), faces=f)),
    "float32-vertices": ("vertices must be float64, not float32",
                         lambda v, f: _npz_bytes(vertices=v.astype(np.float32), faces=f)),
    "int32-faces": ("faces must be int64, not int32",
                    lambda v, f: _npz_bytes(vertices=v, faces=f.astype(np.int32))),
    "4-column-vertices": (r"shape \(n, 3\)",
                          lambda v, f: _npz_bytes(vertices=np.hstack([v, v[:, :1]]), faces=f)),
    "nan": ("non-finite coordinate", lambda v, f: _npz_bytes(vertices=_with_nan(v), faces=f)),
}


@pytest.mark.parametrize("name", list(NPZ_DEFECTS))
def test_npz_malformed_is_parse_error(tmp_path, tetrahedron, name):
    message, content = NPZ_DEFECTS[name]
    path = tmp_path / "m.npz"
    path.write_bytes(content(tetrahedron.vertices, tetrahedron.faces))
    with pytest.raises(MeshParseError, match=message):
        load_mesh(path)


def test_npz_inward_mesh_rejected(tmp_path, tetrahedron):
    path = tmp_path / "inward.npz"
    path.write_bytes(_npz_bytes(vertices=tetrahedron.vertices, faces=tetrahedron.faces[:, ::-1]))
    with pytest.raises(MeshTopologyError, match="inward"):
        load_mesh(path)


def test_npz_upper_case_suffix(tmp_path, icosphere):
    # given a path, np.savez would write m.NPZ.npz
    mesh = icosphere(1.0, 1)
    save_mesh(mesh, tmp_path / "m.NPZ")
    assert os.listdir(tmp_path) == ["m.NPZ"]
    assert load_mesh(tmp_path / "m.NPZ") == mesh


def test_npz_bytes_depend_on_the_mesh_alone(tmp_path, icosphere):
    # every member is dated 1980-01-01 (ZipFile.open's default), not now
    mesh = icosphere(1.0, 1)
    save_mesh(mesh, tmp_path / "a.npz")
    save_mesh(TriMesh(mesh.vertices.copy(), mesh.faces.copy()), tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    with zipfile.ZipFile(tmp_path / "a.npz") as archive:
        members = archive.infolist()
    assert [m.filename for m in members] == ["vertices.npy", "faces.npy"]
    assert all(m.date_time == (1980, 1, 1, 0, 0, 0) for m in members)
    assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
    with np.load(tmp_path / "a.npz") as data:
        assert data["faces"].dtype == np.int64 and data["vertices"].dtype == np.float64


# -- loading onto the connectivity of a like mesh --------------------------------


def _mirrored(v):
    """x -> -x: with the same faces, the mirror image is inward-oriented."""
    return v * np.array([-1.0, 1.0, 1.0])


# name -> the bytes of a snapshot file of ``like`` that load_mesh rejects
LIKE_DEFECTS = {
    "nan": lambda v, f: _npz_bytes(vertices=_with_nan(v), faces=f),
    "inward": lambda v, f: _npz_bytes(vertices=_mirrored(v), faces=f),
    "truncated": lambda v, f: _npz_bytes(vertices=v, faces=f)[:400],
}


@pytest.mark.parametrize("name", list(LIKE_DEFECTS))
def test_load_like_rejects_as_alone(tmp_path, icosphere, name):
    # the same faces as like, so the file is loaded onto like's connectivity,
    # and the same error with the same message as for the file on its own
    like = icosphere(1.0, 1)
    path = tmp_path / "step_000001.npz"
    path.write_bytes(LIKE_DEFECTS[name](0.9 * like.vertices, like.faces))
    with pytest.raises((MeshParseError, MeshTopologyError)) as alone:
        load_mesh(path)
    with pytest.raises((MeshParseError, MeshTopologyError)) as shared:
        load_mesh(path, like=like)
    assert type(shared.value) is type(alone.value)
    assert str(shared.value) == str(alone.value)


@pytest.mark.parametrize("curve", [False, True])
def test_load_like_shares_the_connectivity(tmp_path, icosphere, monkeypatch, curve):
    like = gen_circle(1.0, 24) if curve else icosphere(1.0, 2)
    moved = like.with_vertices(0.9 * like.vertices)
    save_mesh(moved, tmp_path / "m.npz")
    tables = count_calls(monkeypatch, meshmod, "_Connectivity")
    loaded = load_mesh(tmp_path / "m.npz", like=like)
    assert tables == []
    assert loaded._connectivity is like._connectivity
    assert loaded == moved == load_mesh(tmp_path / "m.npz")
    assert not loaded.vertices.flags.writeable


def test_load_like_with_other_faces_is_a_mesh_of_its_own(tmp_path, icosphere):
    # the same triangles listed from another corner: other faces, other tables
    like = icosphere(1.0, 1)
    other = TriMesh(0.9 * like.vertices, np.roll(like.faces, 1, axis=1))
    save_mesh(other, tmp_path / "m.npz")
    loaded = load_mesh(tmp_path / "m.npz", like=like)
    assert loaded == other
    assert loaded._connectivity is not like._connectivity
    # and a file with another vertex count
    save_mesh(icosphere(1.0, 2), tmp_path / "finer.npz")
    assert load_mesh(tmp_path / "finer.npz", like=like).n_vertices == 162


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


@pytest.mark.parametrize(
    "generate",
    [
        lambda sub: gen_icosphere(1.0, subdivisions=sub),
        lambda sub: gen_ellipsoid(1.0, 1.0, 1.0, sub),
        lambda sub: gen_perturbed_sphere(1.0, 0.1, SphericalHarmonicBump(2, 0), sub),
    ],
    ids=["icosphere", "ellipsoid", "perturbed"],
)
@pytest.mark.parametrize(
    "subdivisions", [-1, -2, -0.5, 1.7, 2.0, float("nan"), True, "3", None]
)
def test_generators_reject_negative_subdivisions(generate, subdivisions):
    # a non-integral count would be truncated: 1.7 built the subdivision-1
    # mesh; "3" and None raised a TypeError from the comparison with 0
    with pytest.raises(ValueError, match="^subdivisions must be an integer >= 0"):
        generate(subdivisions)


@pytest.mark.parametrize("n_vertices", [3.5, 4.0, True, float("nan")])
def test_gen_circle_rejects_non_integer_vertex_count(n_vertices):
    # 3.5 built an irregular 4-gon: np.arange(3.5) has 4 entries 2 pi / 3.5 apart
    with pytest.raises(ValueError, match="^n_vertices must be an integer >= 3"):
        gen_circle(1.0, n_vertices)
    with pytest.raises(ValueError, match="^n_vertices must be an integer >= 3"):
        gen_circle(1.0, 2)


_DENT = GaussianDentBump()


@pytest.mark.parametrize(
    "generate, args, key",
    [
        (gen_icosphere, (float("inf"),), "radius"),
        (gen_icosphere, (float("nan"),), "radius"),
        (gen_icosphere, (True,), "radius"),
        (gen_perturbed_sphere, (float("inf"), 0.1, _DENT), "radius"),
        (gen_circle, (float("inf"), 8), "radius"),
        (gen_circle, ("1", 8), "radius"),
        (gen_perturbed_sphere, (1.0, float("nan"), _DENT), "amplitude"),
        (gen_perturbed_sphere, (1.0, "0.1", _DENT), "amplitude"),
        (gen_ellipsoid, (True, 1.0, 1.0), "axes"),
        (gen_ellipsoid, (1.0, float("inf"), 1.0), "axes"),
        (gen_ellipsoid, (1.0, 1.0, -1.0), "axes"),
    ],
    ids=lambda x: x.__name__ if callable(x) else str(x).replace(" ", ""),
)
def test_generators_name_the_argument_at_fault(generate, args, key):
    # inf and nan failed later as "non-finite coordinate in 42 of 42
    # vertices", which names no argument; a bool semi-axis built a mesh
    with pytest.raises(ValueError, match=f"^{key} must be"):
        generate(*args)


def _reference_unit_icosphere(subdivisions):
    """The generator as a loop over faces with a dict of midpoints: each face
    (a, b, c), in order, numbers the midpoints of ab, bc, ca it reaches first."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    ico = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts = list(ico / np.linalg.norm(ico[0]))
    faces = meshmod._ICO_FACES
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
        for n, (a, b, c) in enumerate(faces):
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces[4 * n : 4 * n + 4] = [
                [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca],
            ]
        faces = new_faces
    v = np.array(verts)
    return v / np.linalg.norm(v, axis=1)[:, None], faces


@pytest.mark.parametrize("subdivisions", range(7))
def test_unit_icosphere_matches_reference_loop(subdivisions):
    got = meshmod._unit_icosphere(subdivisions)
    want = _reference_unit_icosphere(subdivisions)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "generate",
    [
        lambda: gen_ellipsoid(1.2, 1.0, 0.85, 3),
        lambda: gen_perturbed_sphere(1.0, -0.35, GaussianDentBump(width=0.3), 3),
        lambda: gen_perturbed_sphere(1.0, 0.1, SphericalHarmonicBump(3, -2), 3),
    ],
    ids=["ellipsoid", "dent", "harmonic"],
)
def test_generators_match_reference_built_meshes(generate, monkeypatch):
    got = generate()
    monkeypatch.setattr(meshmod, "_unit_icosphere", _reference_unit_icosphere)
    want = generate()
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.dtype == want.faces.dtype
    assert np.array_equal(got.faces, want.faces)


@pytest.mark.parametrize(
    "bump, args",
    [
        (GaussianDentBump, {"width": 0.0}),
        (GaussianDentBump, {"width": -0.3}),
        (GaussianDentBump, {"width": float("inf")}),
        (GaussianDentBump, {"width": float("nan")}),
        (GaussianDentBump, {"width": "0.3"}),
        (GaussianDentBump, {"width": True}),
        (GaussianDentBump, {"direction": (0, 0, 0)}),
        (GaussianDentBump, {"direction": (0.0, 1.0)}),
        (GaussianDentBump, {"direction": (float("nan"), 0.0, 1.0)}),
        (GaussianDentBump, {"direction": (float("inf"), 0.0, 0.0)}),
        (GaussianDentBump, {"direction": (True, 0, 0)}),
        (GaussianDentBump, {"direction": "xyz"}),
        (SphericalHarmonicBump, {"degree": -1}),
        (SphericalHarmonicBump, {"degree": 2.5}),
        (SphericalHarmonicBump, {"degree": 2.0}),
        (SphericalHarmonicBump, {"degree": True}),
        (SphericalHarmonicBump, {"degree": 2, "order": 3}),
        (SphericalHarmonicBump, {"degree": 2, "order": -3}),
        (SphericalHarmonicBump, {"degree": 2, "order": 0.5}),
        (SphericalHarmonicBump, {"degree": 2, "order": False}),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else ",".join(
        f"{k}={v!r}".replace(" ", "") for k, v in x.items()
    ),
)
def test_bumps_reject_invalid_fields(bump, args):
    # width 0 or direction 0 divided by zero, width -0.3 built the width-0.3
    # mesh, degree -1 blamed the order and degree 2.5 failed only at evaluate;
    # the last field given is the one at fault
    with pytest.raises(ValueError, match=f"^{list(args)[-1]} must be"):
        bump(**args)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SphericalHarmonicBump(2, 3),
         "order must be at most degree in magnitude, not 3 with degree 2"),
        (lambda: SphericalHarmonicBump(0, -1),
         "order must be at most degree in magnitude, not -1 with degree 0"),
        (lambda: gen_perturbed_sphere(1.0, 0.5, _DENT),
         "amplitude must be less than radius/2 in magnitude, not 0.5 with radius 1.0"),
        (lambda: gen_perturbed_sphere(2.0, -1.0, _DENT),
         "amplitude must be less than radius/2 in magnitude, not -1.0 with radius 2.0"),
    ],
    ids=["order", "order-degree-0", "amplitude", "negative-amplitude"],
)
def test_pair_rules_name_both_values(make, message):
    # the amplitude rule gave no value, and the order rule was a table of
    # the bump's own
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_pair_rules_hold_at_their_bounds():
    assert SphericalHarmonicBump(2, -2).order == -2
    assert gen_perturbed_sphere(1.0, 0.499, _DENT).n_vertices == 12


def test_bumps_accept_numpy_numbers():
    harmonic = SphericalHarmonicBump(np.int64(3), np.int64(-2))
    dent = GaussianDentBump(tuple(np.array([0.0, 0.6, 0.8])), np.float64(0.3))
    assert harmonic == SphericalHarmonicBump(3, -2)
    assert dent == GaussianDentBump((0.0, 0.6, 0.8), 0.3)


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
