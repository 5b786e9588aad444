"""Discrete differential geometry fields and integrals on TriMesh objects.

Surface conventions: outward unit normals, mean curvature H positive on
convex surfaces (H = 2/r on a sphere of radius r), mixed-Voronoi vertex
area weights as the discrete surface measure. The per-vertex mean curvature
is the projection of the area-gradient (cotangent) vector onto the vertex
normal divided by the vertex area; with the nonlocal coefficient built from
the same fields this makes the discrete first variation of total area vanish
exactly (see flow module).

Curve mode (closed planar polylines) dispatches to the one-dimensional
analogues: half-edge-sum length weights, turning-angle curvature, shoelace
enclosed area.
"""

from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.sparse as sparse

from .errors import DegenerateGeometryError, OrientationError
from .mesh import _FaceRecord, _cross, _dot, _norm, _shoelace_area, _turning_angles


@dataclass
class GeometryCache:
    """Per-vertex discrete geometry of one mesh configuration.

    Fields
    ------
    vertex_area : (n,) float
        Mixed-Voronoi area weights (discrete surface measure); arc-length
        weights in curve mode.
    normal : (n, d) float
        Outward unit vertex normals (area-weighted face-normal average).
    mean_curvature : (n,) float
        Discrete H; turning-angle curvature in curve mode.
    second_form_norm : (n,) float
        |A| = sqrt(k1^2 + k2^2) from the trace-reconciled shape operator fit.
    traceless_norm : (n,) float
        |Adev| with |Adev|^2 = |A|^2 - H^2/n; identically zero in curve mode.
    grad_H_norm : (n,) float
        Intrinsic |grad H| from area-averaged per-face affine gradients.
    stiffness_weight : (3m,) or (n,) float
        Half the cotangent of the corner opposite each half-edge (row-aligned
        with ``mesh.directed_edges``), or 1/length of each curve segment: the
        weights of both the area gradient and the cotangent stiffness.
    edge_length : (3m,) or (n,) float
        Length of each half-edge, corner-major (row-aligned with
        ``mesh.directed_edges``), or of each curve segment: the edge weights
        of :func:`diameter_estimate`.
    volume, min_angle : float
        Signed enclosed volume and smallest face corner angle; enclosed area
        and smallest interior vertex angle in curve mode.
    """

    vertex_area: np.ndarray
    normal: np.ndarray
    mean_curvature: np.ndarray
    second_form_norm: np.ndarray
    traceless_norm: np.ndarray
    grad_H_norm: np.ndarray
    stiffness_weight: np.ndarray
    edge_length: np.ndarray
    volume: float
    min_angle: float

    @property
    def total_area(self):
        return float(self.vertex_area.sum())

    @property
    def min_edge(self):
        """Shortest edge (curve segment); equals ``mesh.edge_lengths().min()``."""
        return float(self.edge_length.min())


# -- per-configuration data and the field formulas ----------------------------
#
# Every field is built from one per-configuration record: the face record of
# a surface, or the unit tangents and segment lengths of a curve. Each helper
# below holds the one formula for its field and the one curve/surface branch.
# compute_cache is the one source of a configuration's per-vertex fields; the
# standalone operations further down reuse the helpers for the area weights,
# the area gradient and the gradient of an arbitrary field. Sums over faces,
# corners and half-edges are products with the incidence operators of the
# mesh's connectivity (mesh._Connectivity); the half-edge vectors are the face
# record's edges, one gather that both curvature fits share. The vector
# arithmetic is written out per component, once, in mesh._dot / _cross / _norm.


def _configuration(mesh):
    """Face record (surface) or (unit tangents, segment lengths) (curve)."""
    if mesh.mode == "curve":
        v = mesh.vertices
        e = np.diff(np.vstack([v, v[:1]]), axis=0)  # edge i: v_i -> v_{i+1}
        ln = np.linalg.norm(e, axis=1)
        if (ln == 0).any():
            raise DegenerateGeometryError("zero-length curve segment")
        return e / ln[:, None], ln
    faces = _FaceRecord(mesh)
    if (faces.area == 0).any():
        raise DegenerateGeometryError("zero-area face")
    return faces


def _weights(mesh, conf):
    if mesh.mode == "curve":
        _, ln = conf
        return 0.5 * (ln + np.roll(ln, 1))
    cot, area = conf.cot, conf.area
    # |edge opposite corner k|^2 cot_k; the edge opposite corner k is edge k + 1
    t = conf.length2[[1, 2, 0]] * cot
    w = (t[[1, 2, 0]] + t[[2, 0, 1]]) / 8.0
    obtuse = cot < 0
    w = np.where(obtuse.any(axis=0), np.where(obtuse, area / 2.0, area / 4.0), w)
    va = mesh._connectivity.ring @ w.ravel()
    if (va <= 0).any():
        raise DegenerateGeometryError("non-positive vertex area weight")
    return va


def _normals(mesh, conf):
    if mesh.mode == "curve":
        t, _ = conf
        # outward for counter-clockwise orientation: rotate tangent by -90 deg
        rot = np.column_stack([t[:, 1], -t[:, 0]])
        n = rot + np.roll(rot, 1, axis=0)
        ln = np.linalg.norm(n, axis=1)
        if (ln == 0).any():
            raise DegenerateGeometryError("cusp vertex on curve")
        if _shoelace_area(mesh.vertices) < 0:
            raise OrientationError("clockwise curve (negative enclosed area)")
        return n / ln[:, None]
    # the volume sign check only means anything on closed meshes
    if mesh.is_closed and conf.volume <= 0:
        raise OrientationError("inward orientation (negative enclosed volume)")
    # the face cross product is twice the area-weighted face normal; the
    # factor 2 drops out of the unit vertex normal
    n = mesh._connectivity.face @ conf.cross
    ln = _norm(n)
    if (ln == 0).any():
        raise DegenerateGeometryError("zero-length vertex normal")
    return n / ln[:, None]


def _area_gradient(mesh, conf, weight):
    if mesh.mode == "curve":
        t, _ = conf
        return np.roll(t, 1, axis=0) - t  # gradient of total length
    # each half-edge carries its weight times its vector x: -x into its source
    # and x into its target, the source of the next half-edge of its face
    x = weight.reshape(3, -1, 1) * conf.edge
    return mesh._connectivity.ring @ (x[[2, 0, 1]] - x).reshape(-1, 3)


def _mean_curvature(mesh, conf, weights, normals, mcv):
    if mesh.mode == "curve":
        t, _ = conf
        return _turning_angles(t) / weights
    return _dot(mcv, normals) / weights


def _second_form(mesh, conf, normals, H):
    """(|A|, |Adev|) with |Adev| = sqrt(max(|A|^2 - H^2/2, 0)).

    The shape operator is fit per vertex from the derivatives of the
    osculating-sphere normals along the 1-ring edges and rescaled so that its
    trace is the H that drives the flow. Curve mode: |A| = |H|, |Adev| = 0.
    """
    if mesh.mode == "curve":
        return np.abs(H), np.zeros_like(H)
    nsf = _sphere_fit_normals(mesh, conf, normals)
    k1, k2 = _shape_operator_eigen(mesh, conf, nsf, H)
    second = np.sqrt(k1**2 + k2**2)
    return second, np.sqrt(np.maximum(second**2 - H**2 / 2.0, 0.0))


def _gradient_norm(mesh, conf, f):
    if mesh.mode == "curve":
        _, ln = conf
        df = np.roll(f, -1) - np.roll(f, 1)
        return np.abs(df) / (ln + np.roll(ln, 1))
    # the face gradient is n_f x sum_k f_k E_k / 2A, E_k the edge opposite
    # corner k (edge k + 1) and n_f = cross / 2A; vertices average it by area
    fk = f[mesh.faces.T][:, :, None]
    e = conf.edge
    s = fk[0] * e[1] + fk[1] * e[2] + fk[2] * e[0]
    area_times_grad = _cross(conf.cross, s) / (4.0 * conf.area)[:, None]
    op = mesh._connectivity.face
    vg = op @ area_times_grad
    vg /= (op @ conf.area)[:, None]
    return _norm(vg)


def _stiffness_weight(mesh, conf):
    if mesh.mode == "curve":
        _, ln = conf
        return 1.0 / ln
    # the half-edge leaving corner k is opposite corner k - 1
    return (0.5 * conf.cot[[2, 0, 1]]).ravel()


def _min_angle(mesh, conf):
    if mesh.mode == "curve":
        t, _ = conf
        return float(pi - np.abs(_turning_angles(t)).max())
    # the corner angle in (0, pi) decreases as its cotangent grows
    return float(np.arctan2(1.0, conf.cot.max()))


def _edge_length(mesh, conf):
    if mesh.mode == "curve":
        _, ln = conf
        return ln
    # every edge is a half-edge of some face; |p - q| squares each component
    # as mesh.edge_lengths() does, so both give the same bits
    return np.sqrt(conf.length2).ravel()


def _area_centroid(mesh, conf):
    if mesh.mode == "curve":
        v = mesh.vertices
        _, ln = conf
        total = float(ln.sum())
        return total, ((v + np.roll(v, -1, axis=0)) / 2 * ln[:, None]).sum(0) / total
    total = float(conf.area.sum())
    return total, (conf.centroid * conf.area[:, None]).sum(0) / total


# -- per-vertex field operations ----------------------------------------------


def vertex_area_weights(mesh):
    """Mixed-Voronoi per-vertex area weights (Meyer obtuse fallback).

    The weights partition the total face area exactly: Voronoi corner areas
    for non-obtuse triangles, half/quarter splits when a triangle is obtuse.
    Curve mode: half the summed length of the two incident segments.
    """
    return _weights(mesh, _configuration(mesh))


def mean_curvature_vector(mesh):
    """Gradient of total area w.r.t. vertex positions (cotangent formula).

    Equals the (integrated) discrete Laplace-Beltrami of the embedding with
    the sign of the outward mean curvature normal times vertex area.
    """
    conf = _configuration(mesh)
    return _area_gradient(mesh, conf, _stiffness_weight(mesh, conf))


def cotangent_stiffness(mesh, weight=None):
    """Sparse positive-semidefinite cotangent stiffness matrix L (CSR).

    ``L @ x`` equals :func:`mean_curvature_vector` applied per coordinate;
    ``f @ (L @ f)`` is the discrete Dirichlet energy of a vertex field.
    ``weight`` is the ``stiffness_weight`` of this configuration's cache,
    computed when omitted. The sparsity pattern is built once per
    connectivity; each call is one product with its assembly operator.
    """
    if weight is None:
        weight = _stiffness_weight(mesh, _configuration(mesh))
    pattern = mesh._connectivity.stiffness_pattern
    data = pattern.assemble @ weight
    n = mesh.n_vertices
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def osculating_sphere_normals(mesh, reference_normals):
    """Unit normals from per-vertex least-squares sphere fits over the 1-ring.

    Fits the algebraic sphere |p - x_i|^2 = 2 c.(p - x_i) + rho through the
    vertex and its 1-ring (centred for conditioning); the normal is the
    radial direction at the vertex, sign-matched to ``reference_normals``.
    Exact on meshes inscribed in a common sphere, which gives the traceless
    second-form estimate the dynamic range the roundness diagnostics need.
    Degenerate fits fall back to the reference normal. Surface meshes only.
    """
    return _sphere_fit_normals(mesh, _FaceRecord(mesh), reference_normals)


# (n, 10) columns 4 s_xx, 4 s_xy, 4 s_xz, 4 s_yy, 4 s_yz, 4 s_zz, 2 s_x, 2 s_y,
# 2 s_z, valence + 1 -> the symmetric (4, 4) sphere-fit matrix, row-major
_SPHERE_MATRIX = [0, 1, 2, 6, 1, 3, 4, 7, 2, 4, 5, 8, 6, 7, 8, 9]


def _sphere_fit_normals(mesh, conf, reference_normals):
    n = mesh.n_vertices
    ring = mesh._connectivity.ring
    d = conf.edge.reshape(-1, 3)  # ring points centred at the ring owner
    q = conf.length2.ravel()

    # the moments in two products, each stack freed before the next (one
    # 13-column stack would double the transient peak): Q = sum d d^T (its 6
    # distinct entries) and sum q, then s = sum d and sum q d. Each column is
    # one product along the half-edges: a broadcast over the rows of d would
    # run numpy's inner loop over 3 components
    dx, dy, dz = d.T
    x = np.empty((len(d), 7))
    for k, (a, b) in enumerate([(dx, dx), (dx, dy), (dx, dz), (dy, dy), (dy, dz), (dz, dz)]):
        np.multiply(a, b, out=x[:, k])
    x[:, 6] = q
    quadratic = ring @ x
    del x
    x = np.empty((len(d), 6))
    x[:, :3] = d
    for k, a in enumerate((dx, dy, dz)):
        np.multiply(a, q, out=x[:, 3 + k])
    linear = ring @ x
    del x

    entries = np.empty((n, 10))
    np.multiply(quadratic[:, :6], 4.0, out=entries[:, :6])
    np.multiply(linear[:, :3], 2.0, out=entries[:, 6:9])
    entries[:, 9] = np.diff(ring.indptr) + 1.0  # the centred vertex adds a zero row
    G = entries[:, _SPHERE_MATRIX].reshape(n, 4, 4)
    rhs = np.empty((n, 4))
    np.multiply(linear[:, 3:], 2.0, out=rhs[:, :3])
    rhs[:, 3] = quadratic[:, 6]

    ok = np.ones(n, dtype=bool)
    try:
        sol = np.linalg.solve(G, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # some fit is exactly singular (e.g. a flat 1-ring): solve the others
        ok = np.abs(np.linalg.det(G)) > 0
        sol = np.zeros((n, 4))
        sol[ok] = np.linalg.solve(G[ok], rhs[ok, :, None])[:, :, 0]
    centre = sol[:, :3]  # relative to each vertex
    dist = _norm(centre)
    usable = ok & (dist > 1e-300)
    out = reference_normals.copy()
    out[usable] = -centre[usable] / dist[usable, None]
    flip = _dot(out, reference_normals) < 0
    out[flip] = -out[flip]
    return out


def _shape_operator_eigen(mesh, conf, nsf, H):
    """(k1, k2) of the trace-reconciled 1-ring shape operator fit.

    ``nsf`` are the sphere-fit normals. An exactly rank-deficient fit raises
    :class:`DegenerateGeometryError`, on open meshes too. On an open mesh the
    fits of the boundary rings are rounding noise, since their sphere fits
    are nearly singular; the flow runs on closed meshes only.
    """
    n = mesh.n_vertices
    # t1 = nsf x e_x where |nsf_x| < 0.9, else nsf x e_y; t2 = nsf x t1
    seed_x = (np.abs(nsf[:, 0]) < 0.9)[:, None]
    t1 = _cross(nsf, np.where(seed_x, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    t1 /= _norm(t1)[:, None]
    t2 = _cross(nsf, t1)

    e = mesh.directed_edges
    i, j = e[:, 0], e[:, 1]
    ev = conf.edge.reshape(-1, 3)
    # np.take gathers rows several times faster than fancy indexing
    dn = np.take(nsf, j, axis=0) - np.take(nsf, i, axis=0)
    t = np.take(t1, i, axis=0)
    u1, w1 = _dot(t, ev), _dot(t, dn)
    t = np.take(t2, i, axis=0)
    u2, w2 = _dot(t, ev), _dot(t, dn)
    del t, dn

    # normal equations for symmetric S = [[a, b], [b, c]]: the symmetric
    # system [[s11, s12, 0], [s12, s11 + s22, s12], [0, s12, s22]] (a, b, c)
    # = (sum u1 w1, sum u2 w1 + u1 w2, sum u2 w2), s_kl = sum uk ul
    x = np.empty((len(ev), 7))
    np.multiply(u1, u1, out=x[:, 0])
    np.multiply(u1, u2, out=x[:, 1])
    np.multiply(u2, u2, out=x[:, 2])
    np.add(x[:, 0], x[:, 2], out=x[:, 3])
    np.multiply(u1, w1, out=x[:, 4])
    x[:, 5] = u2 * w1 + u1 * w2
    np.multiply(u2, w2, out=x[:, 6])
    s = mesh._connectivity.ring @ x
    # solved by the adjugate: (a, b, c) = adj(G) r / det G
    s11, s12, s22, s_tr = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    r0, r1, r2 = s[:, 4], s[:, 5], s[:, 6]
    p = s12 * s12
    a_11, a_12, a_13 = s_tr * s22 - p, -s12 * s22, p
    a_22, a_23, a_33 = s11 * s22, -s11 * s12, s11 * s_tr - p
    det = s11 * a_11 + s12 * a_12
    if (det == 0).any():
        raise DegenerateGeometryError("rank-deficient 1-ring shape operator fit")
    a = (a_11 * r0 + a_12 * r1 + a_13 * r2) / det
    b = (a_12 * r0 + a_22 * r1 + a_23 * r2) / det
    c = (a_13 * r0 + a_23 * r1 + a_33 * r2) / det
    trace = a + c
    disc = np.sqrt(0.25 * (a - c) ** 2 + b**2)

    # trace reconciliation: rescale to the cotangent H unless the fitted
    # trace nearly cancels (near-minimal vertex), where rescaling would only
    # amplify fit noise and the raw fit is kept instead
    scale = np.ones(n)
    nonzero = np.abs(trace) > 0.05 * np.maximum(np.abs(a) + np.abs(c) + 2 * np.abs(b), 1e-300)
    scale[nonzero] = H[nonzero] / trace[nonzero]
    return (0.5 * trace - disc) * scale, (0.5 * trace + disc) * scale


def gradient_norm_field(mesh, f):
    """Intrinsic per-vertex |grad f| from per-face affine gradients.

    The gradient of the piecewise-linear interpolant is constant per face and
    tangential by construction; vertex values are face-area-weighted averages
    over the incident faces. Exact on affine fields over flat patches.
    Curve mode: centred difference along arc length.
    """
    return _gradient_norm(mesh, _configuration(mesh), np.asarray(f, dtype=np.float64))


def surface_integral(weights, f):
    """Integral of a per-vertex field against the discrete surface measure.

    Summed by numpy's own pairwise sum, not a BLAS dot product, so the value
    does not depend on the number of BLAS threads.
    """
    return float((np.asarray(f, dtype=np.float64) * weights).sum())


def enclosed_volume(mesh, conf=None):
    """Signed enclosed volume (divergence theorem, exact for polyhedra).

    Curve mode: shoelace area of the polygon. ``conf`` is the face record of
    this configuration, built when omitted.
    """
    if mesh.mode == "curve":
        return _shoelace_area(mesh.vertices)
    return (conf or _configuration(mesh)).volume


def diameter_estimate(mesh, edge_length=None):
    """Upper-bias intrinsic diameter estimate from graph geodesics.

    The largest eccentricity, in edge-length graph distance, of the
    ``sapflow.mesh.DIAMETER_SOURCES`` = 8 sources that the connectivity's
    ``diameter_graph`` spreads by hop count: the first drawn by
    ``np.random.default_rng(0)``, each next one farthest in hops from those
    before. The graph and the sources are built once per connectivity; each
    call is one Dijkstra call from all sources, so the estimate is a
    continuous function of the vertex positions. ``edge_length`` is the
    ``edge_length`` of this configuration's cache, computed when omitted.
    Edge paths overestimate true geodesics: on unit icospheres at
    subdivisions 1-5 the estimate lies 4.4 % to 6.2 % above pi.
    Hop-spread sources can miss the tips of a long axis: on static 2/1/0.5 and
    3/1/1 ellipsoids at subdivision 4 the value is 3.2 % and 3.7 % below that
    of 32 length-weighted farthest-point sources. Along the benchmark's flow
    runs (subdivisions 3-5) the two agree within 0.6 %.

    Raises
    ------
    ValueError
        Surface that is not closed and consistently oriented: the graph's
        edges are the half-edges, which run both ways along every edge only
        on such a surface.
    """
    from scipy.sparse.csgraph import dijkstra

    if mesh.mode == "surface" and (not mesh.is_closed or mesh._has_duplicate_directed):
        raise ValueError("diameter_estimate needs a closed, consistently oriented surface")
    if edge_length is None:
        # the cache's lengths; a surface's without checking its face areas
        conf = _configuration(mesh) if mesh.mode == "curve" else _FaceRecord(mesh)
        edge_length = _edge_length(mesh, conf)
    if mesh.mode == "curve":
        cum = np.concatenate([[0.0], np.cumsum(edge_length)])
        total = cum[-1]
        # the arc distance from a vertex peaks at its antipode, so the farthest
        # vertex is one of the two around it (cum[n] is vertex 0 again)
        pos, half = cum[:-1], 0.5 * total
        k = np.searchsorted(cum, np.where(pos < half, pos + half, pos - half))
        arc = np.abs(pos - cum[np.stack([k - 1, k])])
        return float(np.minimum(arc, total - arc).max())
    graph = mesh._connectivity.diameter_graph
    n = mesh.n_vertices
    g = sparse.csr_matrix(
        (edge_length[graph.slot], graph.indices, graph.indptr), shape=(n, n)
    )
    return float(dijkstra(g, indices=graph.sources).max())


def compute_cache(mesh):
    """Compute all per-vertex geometry fields for one mesh configuration.

    The one entry point for the normals, H, |A|, |Adev| and |grad H|. Builds
    the per-configuration data once and runs every field helper on it.

    Raises
    ------
    OrientationError
        Closed mesh with negative enclosed volume, or clockwise curve.
    DegenerateGeometryError
        Zero-area face, zero-length segment or normal, non-positive area
        weight, or rank-deficient 1-ring shape operator fit.
    """
    conf = _configuration(mesh)
    weights = _weights(mesh, conf)
    normals = _normals(mesh, conf)
    stiffness = _stiffness_weight(mesh, conf)
    H = _mean_curvature(mesh, conf, weights, normals, _area_gradient(mesh, conf, stiffness))
    second, traceless = _second_form(mesh, conf, normals, H)
    return GeometryCache(
        vertex_area=weights,
        normal=normals,
        mean_curvature=H,
        second_form_norm=second,
        traceless_norm=traceless,
        grad_H_norm=_gradient_norm(mesh, conf, H),
        stiffness_weight=stiffness,
        edge_length=_edge_length(mesh, conf),
        volume=enclosed_volume(mesh, conf),
        min_angle=_min_angle(mesh, conf),
    )
