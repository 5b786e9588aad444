"""Closed discrete hypersurfaces: representation, validation, generation, file I/O.

Two mesh modes are supported. ``surface`` meshes are closed oriented triangle
meshes embedded in R^3 (the main regime). ``curve`` meshes are closed planar
polylines in R^2 stored in cyclic vertex order with no explicit face list;
they provide an independent one-dimensional sanity regime for the same flow
machinery.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from math import inf, pi, sqrt
import numbers
import os
import zipfile
import zlib

import numpy as np
import scipy.sparse as sparse

from .errors import MeshParseError, MeshTopologyError

FLOAT_FMT = "%.17g"  # lossless double round-trip

# sources of the graph-geodesic diameter estimate (geometry.diameter_estimate)
DIAMETER_SOURCES = 8


def _number(x, kind=numbers.Real):
    return isinstance(x, kind) and not isinstance(x, bool)


def _integer(x):
    return _number(x, numbers.Integral)


def _finite(x):
    return _number(x) and -inf < x < inf


def _positive(x):
    return _finite(x) and x > 0


def _numbers(x, count, ok=_finite):
    return isinstance(x, (list, tuple)) and len(x) == count and all(map(ok, x))


# the one rule of each generator argument, bump field and oracle argument, and
# of the manifest key of the same name: key -> (what it must be, test)
INPUT_CHECKS = {
    "radius": ("a positive finite number", _positive),
    "axes": ("3 positive finite numbers", lambda x: _numbers(x, 3, _positive)),
    "subdivisions": ("an integer >= 0", lambda x: _integer(x) and x >= 0),
    "amplitude": ("a finite number", _finite),
    "n_vertices": ("an integer >= 3", lambda x: _integer(x) and x >= 3),
    "direction": ("3 finite numbers, not all 0", lambda x: _numbers(x, 3) and any(x)),
    "width": ("a positive finite number", _positive),
    "degree": ("an integer >= 0", lambda x: _integer(x) and x >= 0),
    "order": ("an integer", _integer),
    "n": ("1 (curves) or 2 (surfaces)", lambda x: _integer(x) and x in (1, 2)),
    "levels": ("3 or more subdivision levels", lambda x: len(x) >= 3),
}

# the rules that tie two input fields, applied wherever both are given:
# (key, other key) -> (what the key must be, test of the two values)
PAIR_CHECKS = {
    ("amplitude", "radius"): ("less than radius/2 in magnitude", lambda a, r: abs(a) < r / 2),
    ("order", "degree"): ("at most degree in magnitude", lambda m, l: abs(m) <= l),
}


def _check_fields(values, checks=INPUT_CHECKS):
    """Raise ``ValueError`` at the first key of ``values`` whose value fails
    its rule in ``checks`` (key -> (what it must be, test)), by default the
    input rules; then at the first rule of ``PAIR_CHECKS`` whose two keys
    are both in ``values`` and whose test fails."""
    for key, value in values.items():
        expected, ok = checks[key]
        if not ok(value):
            raise ValueError(f"{key} must be {expected}, not {value!r}")
    for (key, other), (expected, ok) in PAIR_CHECKS.items():
        if key in values and other in values and not ok(values[key], values[other]):
            raise ValueError(
                f"{key} must be {expected}, not {values[key]!r} with {other} {values[other]!r}"
            )


@dataclass(frozen=True)
class MeshQualityReport:
    """Connectivity and shape quality summary produced by :func:`validate`."""

    is_closed: bool
    is_oriented: bool
    is_vertex_manifold: bool
    min_face_area: float
    min_angle: float
    boundary_edge_count: int
    volume: float  # signed enclosed volume; enclosed area of a curve


class TriMesh:
    """Immutable indexed-face-set mesh (a surface) or cyclic polyline (a curve).

    Parameters
    ----------
    vertices : array_like
        Shape (n, 3) float positions for surfaces, (n, 2) for curves, kept as
        a C-ordered float64 array (the caller's if it is one, else a copy).
    faces : array_like | None
        Shape (m, 3) int vertex-index triples, oriented consistently
        (counter-clockwise seen from outside). ``None`` makes a curve
        (``mode`` ``"curve"``, else ``"surface"``), whose edges are implied
        by cyclic vertex order.

    Notes
    -----
    Construction makes hard structural checks only (finite coordinates,
    integer indices in range, no degenerate faces) and sorts nothing: the
    edge table and the topology verdict (closed, oriented, vertex-manifold)
    live on the connectivity, built on first read, reported by
    :func:`validate` and enforced by :func:`load_mesh` and the geometry that
    needs them. The per-face data of the positions, ``_record``, is built on
    first read too and shared by the input check, :func:`validate` and the
    geometry pass, which releases it. Vertex and face arrays are frozen;
    :meth:`with_vertices` shares the connectivity, not the record, and
    leaves the new coordinates unchecked (the flow checks each step's
    positions itself).
    """

    def __init__(self, vertices, faces=None):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.mode = "curve" if faces is None else "surface"
        d = 2 if faces is None else 3
        if vertices.ndim != 2 or vertices.shape[1] != d:
            raise ValueError(f"{self.mode} vertices must have shape (n, {d})")
        if faces is None and len(vertices) < 3:
            raise ValueError("curve needs at least 3 vertices")
        if faces is not None:
            faces = np.asarray(faces)
            # a cast would truncate: 0.4 would index vertex 0
            if faces.dtype.kind not in "iu":
                raise ValueError(f"faces must hold integer indices, not {faces.dtype}")
            faces = faces.astype(np.int64, copy=False)
            if faces.ndim != 2 or faces.shape[1] != 3:
                raise ValueError("faces must have shape (m, 3)")
            if len(faces) and (faces.min() < 0 or faces.max() >= len(vertices)):
                raise ValueError("face index out of range")
            degenerate = int((faces == np.roll(faces, 1, axis=1)).any(axis=1).sum())
            if degenerate:
                raise ValueError(f"{degenerate} degenerate faces (repeated vertex index)")
            faces.setflags(write=False)
        _check_finite(vertices)

        vertices.setflags(write=False)
        self.vertices = vertices
        self.faces = faces
        self._connectivity = _Connectivity(len(vertices), faces)

    @property
    def directed_edges(self):
        return self._connectivity.directed_edges

    @property
    def edges(self):
        return self._connectivity.edge_table.edges

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return 0 if self.faces is None else len(self.faces)

    @property
    def is_closed(self):
        return self._connectivity.closed

    @cached_property
    def _record(self):
        """The face record (a curve's segment record) of these positions: the
        one place either is built. ``geometry.compute_cache``, its last
        reader, deletes it, so that a mesh does not hold it past its pass."""
        return (_SegmentRecord if self.mode == "curve" else _FaceRecord)(self)

    def with_vertices(self, vertices):
        """Return a mesh with the same connectivity and new vertex positions.

        Shares all derived connectivity tables with the source mesh, by
        reference, including those built after this call; the positions are
        replaced by a C-ordered copy (frozen); the clone builds its own record.
        """
        vertices = np.array(vertices, dtype=np.float64, order="C")
        if vertices.shape != self.vertices.shape:
            raise ValueError("vertex array shape must be preserved")
        clone = object.__new__(TriMesh)
        clone.mode, clone.faces, clone._connectivity = self.mode, self.faces, self._connectivity
        vertices.setflags(write=False)
        clone.vertices = vertices
        return clone

    def edge_lengths(self):
        v = self.vertices
        e = self.directed_edges if self.mode == "curve" else self.edges
        return np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1)

    def __eq__(self, other):
        if not isinstance(other, TriMesh):
            return NotImplemented
        same = np.array_equal(self.faces, other.faces)  # the mode too: None for a curve
        return same and np.array_equal(self.vertices, other.vertices)

    def __repr__(self):
        return f"TriMesh(mode={self.mode!r}, |V|={self.n_vertices}, |F|={self.n_faces})"


def _check_finite(vertices):
    """Raise ``ValueError`` naming how many vertices have a non-finite coordinate."""
    bad = ~np.isfinite(vertices).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite coordinate in {int(bad.sum())} of {len(bad)} vertices")


def _dot(a, b):
    """Dot product over the first axis (length 3), summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """Cross product over the first axis (length 3), as ``np.cross`` forms it."""
    c = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a[1] * b[2], a[2] * b[1], out=c[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=c[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=c[2])
    return c


def _norm(a):
    """Length over the first axis, summed as ``np.linalg.norm`` does."""
    return np.sqrt(_dot(a, a))


class _FaceRecord:
    """Per-face data of one surface configuration, built once and shared.

    Component-major, as every vector up to a step's new positions: ``edge``
    (3, 3, m) holds at ``edge[:, k]`` the half-edge p_{k+1} - p_k leaving
    corner k of every face, so ``edge.reshape(3, -1)`` holds the half-edge
    vectors component by component in the order of ``mesh.directed_edges``;
    the edge opposite corner k is ``edge[:, k + 1]``. ``edge``, ``cross`` =
    (p1 - p0) x (p2 - p0) (3, m), ``area`` and ``centroid`` (3, m) are
    computed on construction; the squared half-edge lengths ``length2``, the
    corner cotangents ``cot`` (both (3, m)) and the signed ``volume`` on
    first use, since validation must not raise on degenerate faces.
    ``corner_dot`` (3, m) is the dot product of the two edges leaving each
    corner. Built only as ``mesh._record``, on its first read, so the input
    check, :func:`validate` and the geometry pass share one; the pass then
    releases it, since the mesh may outlive it.
    """

    INWARD = "inward orientation (negative enclosed volume)"

    def __init__(self, mesh):
        # component, corner, face: np.take gathers several times faster than
        # fancy indexing
        p = np.take(mesh.vertices.T, mesh.faces.T, axis=1)
        e = np.empty_like(p)
        np.subtract(p[:, 1], p[:, 0], out=e[:, 0])
        np.subtract(p[:, 2], p[:, 1], out=e[:, 1])
        np.subtract(p[:, 0], p[:, 2], out=e[:, 2])
        self.edge = e
        self.cross = _cross(e[:, 2], e[:, 0])  # (p1 - p0) x (p2 - p0) = e2 x e0
        self.area = 0.5 * _norm(self.cross)
        self.centroid = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0

    @cached_property
    def length2(self):
        return _dot(self.edge, self.edge)

    @property
    def corner_dot(self):
        # corner k: (p_{k+1} - p_k) . (p_{k+2} - p_k) = -edge[k] . edge[k - 1];
        # edge[k - 1] gathered by slices, since indexing the middle axis with
        # [2, 0, 1] copies into a transposed layout
        e = self.edge
        previous = np.empty_like(e)
        previous[:, 0] = e[:, 2]
        previous[:, 1:] = e[:, :2]
        return -_dot(e, previous)

    @cached_property
    def cot(self):
        # |u x v| is twice the face area at every corner
        return self.corner_dot / (2.0 * self.area)

    @cached_property
    def volume(self):
        """Signed enclosed volume (divergence theorem, exact for polyhedra)."""
        return float(_dot(self.centroid, self.cross).sum() / 6.0)


class _SegmentRecord:
    """Per-segment data of one curve configuration, named as in the face record
    and component-major as it is: segment i (row i of ``mesh.directed_edges``)
    runs from vertex i to i + 1. ``edge`` (2, n), the lengths ``area`` and
    the midpoints ``centroid`` (2, n) are computed on construction; the unit
    ``tangent`` (2, n), the signed ``turning`` angle from segment i - 1 to i
    and the shoelace ``volume`` on first use, since validation must not
    divide by a zero length."""

    INWARD = "clockwise curve (negative enclosed area)"

    def __init__(self, mesh):
        # one contiguous row per component
        v = self.points = np.ascontiguousarray(mesh.vertices.T)
        following = np.roll(v, -1, axis=1)
        self.edge = following - v
        self.area = np.linalg.norm(self.edge, axis=0)
        self.centroid = (v + following) / 2

    @cached_property
    def tangent(self):
        return self.edge / self.area

    @cached_property
    def turning(self):
        t = self.tangent
        tp = np.roll(t, 1, axis=1)
        return np.arctan2(tp[0] * t[1] - tp[1] * t[0], tp[0] * t[0] + tp[1] * t[1])

    @cached_property
    def volume(self):
        # the sum of p_i x p_{i+1} by numpy's pairwise sum: a BLAS dot would
        # round by the stride of its input
        x, y = self.points
        return 0.5 * float((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())


_EdgeTable = namedtuple("_EdgeTable", "edges counts repeated order")


def _incidence(rows, cols, shape):
    """CSR operator adding ``x[cols[e]]`` into row ``rows[e]``.

    With ``cols`` increasing in ``e``, the canonical CSR lists each row in
    increasing ``e``, the order in which ``np.bincount`` adds over ``rows``:
    ``op @ x`` is bit-identical to a bincount of the gathered values.
    """
    op = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    for a in (op.data, op.indices, op.indptr):  # shared: an in-place change raises
        a.setflags(write=False)
    return op


class _Connectivity:
    """The tables of one connectivity that every configuration on it reuses.

    Each table is built on first use. A mesh makes one of these objects at
    construction and :meth:`TriMesh.with_vertices` hands the same object on,
    so a table is built once per connectivity, also for meshes derived
    before its first use.

    ``ring`` is the one half-edge table: the incidence operator
    (:func:`_incidence`) that adds each half-edge into its source vertex.
    Half-edge ``k * m + f`` leaves corner k of face f, the order of
    ``mesh.directed_edges``, so ``ring @ x`` =
    ``np.bincount(faces.T.ravel(), x)``. It gives the 1-ring sums, and the
    area gradient as ``ring @ (x[[2, 0, 1]] - x)``: the half-edge leaving
    corner k - 1 ends at corner k. ``face`` (n, m) adds each face into its
    three vertices, = ``np.bincount(faces.T.ravel(), np.tile(x, 3))``; it is
    a view of ``ring``'s arrays with column ``k * m + f`` read as ``f``.
    ``adjacency`` (n, n), the half-edge graph of a surface, holds each
    half-edge a -> b as the entry (a, b) in ``ring``'s order, with no sort of
    its own; the component count and the diameter graph both read it. The
    topology verdict, ``boundary_edges``, ``closed``, ``oriented`` and the
    first ``defect`` (or None), reads one sort of the half-edges,
    ``edge_table``; a curve is closed and oriented, with no defect.
    """

    def __init__(self, n_vertices, faces):
        self.n_vertices, self.faces = n_vertices, faces
        if faces is None:  # a cyclic polyline
            self.boundary_edges, self.closed, self.oriented, self.defect = 0, True, True, None

    @cached_property
    def directed_edges(self):
        # half-edge k * m + f leaves corner k of face f; a curve is one face of
        # n corners, so its segment i runs from vertex i to i + 1. Column-major,
        # so that each column is contiguous
        f = np.arange(self.n_vertices)[None] if self.faces is None else self.faces
        de = np.array([f.T.ravel(), np.roll(f, -1, axis=1).T.ravel()]).T
        de.setflags(write=False)
        return de

    @cached_property
    def edge_table(self):
        """The undirected edges (a, b), a < b, the half-edges on each, whether
        a half-edge repeats, and the half-edges sorted by the key 2 (min n +
        max) + (a > b) of a -> b: by edge, both directions adjacent."""
        de, n = self.directed_edges, self.n_vertices
        key = 2 * (de.min(axis=1) * n + de.max(axis=1)) + (de[:, 0] > de[:, 1])
        order = np.argsort(key)
        key = key[order]
        undirected = key >> 1
        first = np.flatnonzero(np.diff(undirected, prepend=-1))
        edges = np.column_stack([undirected[first] // n, undirected[first] % n])
        edges.setflags(write=False)
        counts = np.diff(np.append(first, len(key)))
        return _EdgeTable(edges, counts, bool((key[1:] == key[:-1]).any()), order)

    @cached_property
    def boundary_edges(self):
        return int((self.edge_table.counts == 1).sum())

    @cached_property
    def closed(self):
        return bool((self.edge_table.counts == 2).all())

    @cached_property
    def oriented(self):
        # a consistently oriented edge has at most one half-edge each way
        return not (self.edge_table.repeated or (self.edge_table.counts > 2).any())

    @cached_property
    def defect(self):
        if self.boundary_edges:
            return f"{self.boundary_edges} boundary edges"
        if not self.closed:  # with no boundary edge, an edge on three faces
            return "edge shared by more than two faces"
        if not self.oriented:
            return "inconsistent face orientation"
        # each edge is now two adjacent half-edges of the sort, each other's
        # twins. Around vertex v, the corner of face (v, a, b) is followed by
        # the corner whose outgoing half-edge v -> b is the twin of the
        # incoming b -> v; each cycle of that successor map is one fan, so each
        # one-ring is a single cycle iff every vertex has faces and the map has n cycles
        from scipy.sparse.csgraph import connected_components

        n, m, order = self.n_vertices, len(self.faces), self.edge_table.order
        # half-edge row k * m + i: corner k of face i, outgoing
        twin = np.empty(3 * m, dtype=np.int64)
        twin[order] = order.reshape(-1, 2)[:, ::-1].ravel()  # the other of its pair
        succ = np.roll(twin, m)  # the incoming half-edge of row r is row r - m
        # each weak component of the permutation succ is one of its cycles
        step = sparse.csr_matrix((np.ones(3 * m), succ, np.arange(3 * m + 1)))
        fans = connected_components(step, connection="weak")[0]
        if fans != n or (np.bincount(self.faces.ravel(), minlength=n) == 0).any():
            return "non-manifold vertex (one-ring is not a single cycle)"
        return None

    @cached_property
    def ring(self):
        src = self.faces.T.ravel()
        return _incidence(src, np.arange(len(src)), (self.n_vertices, len(src)))

    @cached_property
    def face(self):
        # ring's column k * m + f is face f: the same rows in the same order
        ring, m = self.ring, len(self.faces)
        return sparse.csr_matrix(
            (ring.data, ring.indices % m, ring.indptr), shape=(self.n_vertices, m)
        )

    @cached_property
    def adjacency(self):
        ring, n = self.ring, self.n_vertices
        heads = np.take(self.directed_edges[:, 1], ring.indices).astype(np.int32)
        heads.setflags(write=False)
        return sparse.csr_matrix((ring.data, heads, ring.indptr), shape=(n, n))

    @cached_property
    def components(self):
        """The number of connected components of the edge graph."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.adjacency, directed=False)[0]

    @cached_property
    def stiffness_pattern(self):
        return _StiffnessPattern(self)

    @cached_property
    def diameter_graph(self):
        return _DiameterGraph(self)


class _DiameterGraph:
    """Half-edge graph of one surface connectivity and its diameter sources.

    ``indptr`` / ``indices`` are the CSR pattern of the connectivity's
    ``adjacency`` and ``slot`` is ``ring``'s read-only ``indices``, so
    ``cache.edge_length[slot]`` is the CSR data of the edge-length graph. On
    a closed oriented mesh every edge is a half-edge in each direction, so
    the graph is symmetric.
    ``sources`` are ``DIAMETER_SOURCES`` vertices spread by hop count: the
    first drawn by ``np.random.default_rng(0)``, each next one the vertex
    farthest in hops from those chosen (lowest index on ties). They depend on
    the connectivity alone, never on the positions.

    ``memo`` is ``None`` until the first estimate, then the last estimate's
    ``(edge_length, upper, exact)``: a copy of its half-edge lengths, an
    upper bound on each source's eccentricity at those lengths, and the mask
    of the sources whose eccentricity it computed, for which the bound is that
    eccentricity. :func:`sapflow.geometry.diameter_estimate` scales the
    bounds by the range of the length ratios to skip the sources that cannot
    set the maximum, so the memo decides which sources run, never the value.
    It is replaced as a whole, never changed in place.
    """

    def __init__(self, conn):
        from scipy.sparse.csgraph import dijkstra

        n, adjacency = conn.n_vertices, conn.adjacency
        self.slot = conn.ring.indices
        self.indices, self.indptr = adjacency.indices, adjacency.indptr
        sources = [int(np.random.default_rng(0).integers(n))]
        hops = np.full(n, np.inf)
        for _ in range(min(DIAMETER_SOURCES, n) - 1):
            hops = np.minimum(
                hops, dijkstra(adjacency, unweighted=True, indices=sources[-1])
            )
            sources.append(int(np.argmax(hops)))
        self.sources = np.array(sources)
        self.sources.setflags(write=False)
        self.memo = None


class _StiffnessPattern:
    """CSR sparsity pattern of the cotangent stiffness of one connectivity.

    The stiffness is a sum of w (e_a - e_b)(e_a - e_b)^T over the half-edges
    a -> b of ``mesh.directed_edges`` (a curve's segments i -> i + 1), each
    weighted by the ``stiffness_weight`` of its row. ``slot`` takes the
    entries (a, b), (b, a), (a, a) and (b, b) of every half-edge, in that
    block order, to their places in the CSR data of ``indptr`` /
    ``indices``. ``diagonal`` holds the slot of each diagonal entry.
    """

    def __init__(self, conn):
        n = conn.n_vertices
        a, b = conn.directed_edges.T
        rows = np.concatenate([a, b, a, b])
        cols = np.concatenate([b, a, a, b])
        # sorted row-major keys are the CSR order
        keys, self.slot = np.unique(rows * n + cols, return_inverse=True)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.diagonal = np.searchsorted(keys, np.arange(n) * (n + 1))


def _input_defect(mesh):
    """The message that :func:`load_mesh` and ``run_flow`` reject a mesh with,
    or None: its topology defect, else a surface of several components (whose
    edge-path diameter is inf), else the record's ``INWARD`` at volume <= 0.
    The volume is read from ``mesh._record``, which the mesh keeps for its
    geometry pass."""
    conn = mesh._connectivity
    if conn.defect is not None:
        return conn.defect
    if mesh.mode == "surface" and conn.components > 1:
        return f"{conn.components} connected components, not one"
    record = mesh._record
    return record.INWARD if record.volume <= 0 else None


def intrinsic_dimension(mode):
    """n of a mesh mode: 1 for a curve, 2 for a surface."""
    return 1 if mode == "curve" else 2


def validate(mesh):
    """Compute a :class:`MeshQualityReport` from connectivity and positions.

    Never raises; all failures are carried by the report. A mesh is closed
    iff every undirected edge is shared by exactly two faces
    (``boundary_edge_count == 0`` and no over-shared edge), and oriented iff
    the two half-edges of every interior edge run in opposite directions; a
    curve, a cyclic polyline, is always closed and oriented. An oriented mesh
    that faces inward (a clockwise curve) has ``volume <= 0``. A closed
    oriented mesh is vertex-manifold iff every vertex lies on a face
    and its one-ring is a single cycle (two tetrahedra sharing a vertex are
    not). A corner angle is ``arctan2(|u x v|, u . v)`` of its two edge
    vectors, accurate down to slivers; a degenerate face has a zero angle.
    """
    record = mesh._record
    if mesh.mode == "curve":
        # a zero-length segment has no tangent: its vertex angles are 0
        angles = [0.0] if (record.area == 0).any() else pi - np.abs(record.turning)
    else:
        # at every corner |u x v| is twice the face area
        angles = np.arctan2(2.0 * record.area, record.corner_dot)
    conn = mesh._connectivity
    return MeshQualityReport(
        is_closed=conn.closed, is_oriented=conn.oriented, is_vertex_manifold=conn.defect is None,
        min_face_area=float(record.area.min()) if record.area.size else 0.0,
        min_angle=float(np.min(angles)) if record.area.size else 0.0,
        boundary_edge_count=conn.boundary_edges, volume=record.volume,
    )


# -- file I/O ---------------------------------------------------------------


def load_mesh(path, like=None):
    """Load and check a closed oriented mesh from OFF, OBJ, curve CSV or NPZ.

    Parameters
    ----------
    path : str | os.PathLike
        Input file; the extension ``.off``, ``.obj``, ``.csv`` or ``.npz``
        (any case) names the format. An ``.npz`` archive holds ``vertices``
        (float64, (n, 3) or (n, 2)) and, for a surface, ``faces`` (int64,
        (m, 3)); a file with faces is a surface.
    like : TriMesh | None
        A mesh whose connectivity the file may share, such as an earlier
        snapshot of the same run. When the file has ``like``'s mode, vertex
        count and faces, the result is ``like.with_vertices(vertices)``: it
        shares ``like``'s connectivity object, whose edge table, topology
        verdict and operators are built once, on first use, for all the
        meshes on it. The checks are those of a file loaded on its own, with
        the same errors and messages; a file with other faces loads as a
        mesh of its own.

    Returns
    -------
    TriMesh

    Raises
    ------
    MeshParseError
        Malformed file, or a vertex with a non-finite coordinate. An
        ``.npz`` file must be a whole zip archive with exactly the keys
        above, no pickled objects, and arrays of exactly those dtypes: none
        is cast.
    MeshTopologyError
        Open, non-manifold (at an edge or a vertex), inconsistently oriented,
        disconnected or inward-oriented mesh; clockwise curve: the first such
        defect, with the message of :func:`sapflow.flow.run_flow`'s
        ``invalid_input``.
    """
    fmt = os.path.splitext(str(path))[1].lstrip(".").lower()
    if fmt == "off":
        verts, faces = _read_off(path)
    elif fmt == "obj":
        verts, faces = _read_obj(path)
    elif fmt == "csv":
        verts, faces = _read_curve_csv(path), None
    elif fmt == "npz":
        verts, faces = _read_npz(path)
    else:
        raise MeshParseError(f"unsupported mesh format {fmt!r}")

    try:
        # like's mode, vertex count and faces (np.array_equal(None, None) holds)
        same = like is not None and verts.shape == like.vertices.shape
        if same and np.array_equal(faces, like.faces):
            _check_finite(verts)
            mesh = like.with_vertices(verts)
        else:
            mesh = TriMesh(verts, faces)
    except ValueError as exc:
        raise MeshParseError(str(exc)) from exc
    defect = _input_defect(mesh)
    if defect is not None:
        raise MeshTopologyError(defect)
    return mesh


def save_mesh(mesh, path):
    """Write a mesh to OFF, OBJ or curve CSV with 17-significant-digit floats,
    or to an uncompressed NPZ archive of its arrays.

    The extension of ``path`` names the format, as for :func:`load_mesh`; an
    ``.npz`` file is written under exactly that name, whatever the case of
    its extension. A save/load round trip reproduces vertices bit-exactly
    and faces identically, and one mesh always gives the same bytes. Raises
    ``OSError`` on I/O failure.
    """
    fmt = os.path.splitext(str(path))[1].lstrip(".").lower()
    v, f = mesh.vertices, mesh.faces
    if fmt == "npz":
        arrays = {"vertices": v} if f is None else {"vertices": v, "faces": f}
        # an open file: given a path, np.savez writes m.NPZ to m.NPZ.npz
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return
    xyz = " ".join([FLOAT_FMT] * 3) + "\n"
    if mesh.mode == "curve":
        if fmt != "csv":
            raise ValueError("curve meshes serialize to CSV or NPZ only")
        text = _format_rows(f"{FLOAT_FMT},{FLOAT_FMT}\n", v)
    elif fmt == "off":
        text = f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
        text += _format_rows(xyz, v) + _format_rows("3 %d %d %d\n", f)
    elif fmt == "obj":
        text = _format_rows("v " + xyz, v) + _format_rows("f %d %d %d\n", f + 1)
    elif fmt == "csv":  # the curve format
        raise ValueError("surface meshes serialize to OFF, OBJ or NPZ only")
    else:
        raise ValueError(f"unsupported mesh format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _format_rows(template, rows):
    """One ``template`` line per row of ``rows``, formatted by a single ``%``."""
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def _data_lines(path):
    """The lines of a text file without ``#`` comments, stripped, blanks dropped."""
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MeshParseError(f"not an ASCII file: {exc}") from exc
    lines = (line.split("#", 1)[0].strip() for line in text.split("\n"))
    return [line for line in lines if line]


def _read_off(path):
    lines = _data_lines(path)
    if not lines:
        raise MeshParseError("empty OFF file")
    if not lines[0].startswith("OFF"):
        raise MeshParseError("missing OFF header")
    counts, start = lines[0][3:].split(), 1
    if not counts:  # counts on their own line
        counts, start = (lines[1].split() if len(lines) > 1 else []), 2
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MeshParseError(f"malformed OFF file: counts {counts}") from exc
    if nv <= 0 or nf <= 0:
        raise MeshParseError("OFF file without vertices or faces")
    mid, end = start + nv, start + nv + nf
    if len(lines) < end:
        raise MeshParseError(
            f"malformed OFF file: {len(lines) - start} data lines, counts need {nv + nf}"
        )
    # extra columns (colours, normals) are ignored
    try:
        verts = np.loadtxt(lines[start:mid], usecols=(0, 1, 2), ndmin=2)
        faces = np.loadtxt(
            lines[mid:end], dtype=np.int64, usecols=(0, 1, 2, 3), ndmin=2
        )
    except ValueError as exc:
        raise MeshParseError(f"malformed OFF file: {exc}") from exc
    if (faces[:, 0] != 3).any():
        raise MeshParseError("OFF loader accepts triangles only")
    # a copy, so that the (m, 4) parse buffer is not kept alive by the mesh
    return verts, faces[:, 1:].copy()


def _read_obj(path):
    verts, faces = [], []
    try:
        for line in _data_lines(path):
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshParseError("malformed OBJ file: short vertex row")
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise MeshParseError("OBJ loader accepts triangles only")
                index = [int(p.split("/")[0]) for p in parts[1:4]]
                if 0 in index:
                    raise MeshParseError("malformed OBJ file: face index 0")
                # a negative index counts back from the last vertex read so far
                faces.append([i - 1 if i > 0 else len(verts) + i for i in index])
    except (ValueError, IndexError) as exc:
        raise MeshParseError(f"malformed OBJ file: {exc}") from exc
    if not verts or not faces:
        raise MeshParseError("OBJ file without vertices or faces")
    return np.array(verts), np.array(faces, dtype=np.int64)


def _read_curve_csv(path):
    lines = _data_lines(path)
    if len(lines) < 3:
        raise MeshParseError("curve CSV needs at least 3 points")
    try:
        return np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2)
    except ValueError as exc:
        raise MeshParseError(f"malformed curve CSV: {exc}") from exc


def _read_npz(path):
    """The vertices and faces (None for a curve) of an ``.npz`` mesh, with
    its keys and dtypes checked; ``TriMesh`` checks the shapes and values."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise MeshParseError("not an npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as data:
                keys = sorted(data.files)
                if keys not in (["vertices"], ["faces", "vertices"]):
                    raise MeshParseError(
                        f"npz mesh must hold vertices and optionally faces, not {keys}"
                    )
                arrays = {key: data[key] for key in keys}
        except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise MeshParseError(f"malformed npz file: {exc}") from exc
    for key, array in arrays.items():
        dtype = np.dtype(np.int64 if key == "faces" else np.float64)
        # a member that is not an .npy file loads as bytes
        found = getattr(array, "dtype", type(array).__name__)
        if found != dtype:
            raise MeshParseError(f"npz {key} must be {dtype}, not {found}")
    if "faces" in arrays and not arrays["faces"].size:
        raise MeshParseError("npz surface without faces")
    return arrays["vertices"], arrays.get("faces")


# -- generators -------------------------------------------------------------

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _unit_icosphere(subdivisions):
    """Midpoint-subdivided icosahedron, re-projected to the unit sphere each level.

    Each level splits every face (a, b, c), in order, into (a, ab, ca),
    (b, bc, ab), (c, ca, bc), (ab, bc, ca). The midpoints follow the old
    vertices, numbered by the first edge ab, bc, ca of the faces, in order,
    that reaches each. Identical inputs give bitwise-identical arrays.
    """
    _check_fields({"subdivisions": subdivisions})
    phi = (1.0 + sqrt(5.0)) / 2.0
    ico = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    v, faces = ico / np.linalg.norm(ico[0]), _ICO_FACES
    for _ in range(subdivisions):
        (a, b, c), n = faces.T, len(v)
        i, j = faces.ravel(), np.roll(faces, -1, axis=1).ravel()  # half-edges ab, bc, ca
        key = np.minimum(i, j) * n + np.maximum(i, j)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        reached = np.sort(first)  # the half-edge that first reaches each midpoint
        mid = v[i[reached]] + v[j[reached]]
        # each row's norm by one BLAS dot product, as np.linalg.norm takes it of a row
        v = np.vstack([v, mid / np.sqrt(np.matmul(mid[:, None], mid[..., None]))[:, 0]])
        ab, bc, ca = (n + np.argsort(np.argsort(first))[inverse]).reshape(-1, 3).T
        faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    return v / np.linalg.norm(v, axis=1)[:, None], faces


def gen_icosphere(radius, center=(0.0, 0.0, 0.0), subdivisions=0):
    """Generate a sphere mesh with 20 * 4**subdivisions faces.

    All vertices lie at exact distance ``radius`` from ``center`` up to
    rounding. Deterministic: identical inputs give bitwise-identical arrays.
    """
    _check_fields({"radius": radius})
    u, faces = _unit_icosphere(subdivisions)
    return TriMesh(np.asarray(center, dtype=np.float64) + radius * u, faces)


def gen_ellipsoid(a, b, c, subdivisions=0):
    """Generate an origin-centred ellipsoid by anisotropic scaling of an icosphere."""
    _check_fields({"axes": (a, b, c)})
    u, faces = _unit_icosphere(subdivisions)
    return TriMesh(u * np.array([a, b, c], dtype=np.float64), faces)


@dataclass(frozen=True)
class SphericalHarmonicBump:
    """Real orthonormal spherical harmonic Y_lm as a radial bump profile."""

    degree: int
    order: int = 0

    def __post_init__(self):
        _check_fields(vars(self))

    def evaluate(self, unit_points):
        from scipy.special import lpmv
        from math import factorial

        l, m = self.degree, abs(self.order)
        theta_cos = np.clip(unit_points[:, 2], -1.0, 1.0)
        norm = sqrt((2 * l + 1) / (4 * pi) * factorial(l - m) / factorial(l + m))
        p = lpmv(m, l, theta_cos)
        if self.order == 0:
            return norm * p
        phi = np.arctan2(unit_points[:, 1], unit_points[:, 0])
        if self.order > 0:
            return sqrt(2.0) * norm * p * np.cos(m * phi)
        return sqrt(2.0) * norm * p * np.sin(m * phi)


@dataclass(frozen=True)
class GaussianDentBump:
    """Gaussian profile in geodesic angle around a direction on the unit sphere."""

    direction: tuple = (0.0, 0.0, 1.0)
    width: float = 0.3  # radians

    def __post_init__(self):
        _check_fields(vars(self))

    def evaluate(self, unit_points):
        d = np.asarray(self.direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        ang = np.arccos(np.clip(unit_points @ d, -1.0, 1.0))
        return np.exp(-(ang**2) / (2.0 * self.width**2))


def gen_perturbed_sphere(radius, amplitude, bump, subdivisions=0):
    """Generate a radially perturbed sphere: v -> (radius + amplitude * bump(u)) u.

    Parameters
    ----------
    radius : float
    amplitude : float
        Must satisfy ``abs(amplitude) < radius / 2``; negative values dent
        the surface inward.
    bump : SphericalHarmonicBump | GaussianDentBump
    subdivisions : int
    """
    _check_fields({"radius": radius, "amplitude": amplitude})
    u, faces = _unit_icosphere(subdivisions)
    r = radius + amplitude * bump.evaluate(u)
    return TriMesh(r[:, None] * u, faces)


def gen_circle(radius, n_vertices, center=(0.0, 0.0)):
    """Generate a regular closed polygon (curve mode), counter-clockwise."""
    _check_fields({"radius": radius, "n_vertices": n_vertices})
    th = 2 * pi * np.arange(n_vertices) / n_vertices
    pts = np.asarray(center) + radius * np.column_stack([np.cos(th), np.sin(th)])
    return TriMesh(pts)
