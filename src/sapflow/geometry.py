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
from .mesh import _FaceRecord, _shoelace_area, _turning_angles


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
        Edge weights of the cotangent stiffness: half the cotangent of each
        face corner, corner-major, or 1/length of each curve segment.
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
    volume: float
    min_angle: float

    @property
    def total_area(self):
        return float(self.vertex_area.sum())


# -- per-configuration data and the field formulas ----------------------------
#
# Every field is built from one per-configuration record: the face record of
# a surface, or the unit tangents and segment lengths of a curve. Each helper
# below holds the one formula for its field and the one curve/surface branch.
# compute_cache is the one source of a configuration's per-vertex fields; the
# standalone operations further down reuse the helpers for the area weights,
# the area gradient and the gradient of an arbitrary field.


def _scatter(index, values, n):
    """Sum the rows of ``values`` into ``n`` bins by ``index``, in input order.

    ``np.bincount`` accumulates sequentially, so the sums are bit-identical to
    ``np.add.at`` over the same index order.
    """
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    return np.column_stack(
        [np.bincount(index, weights=values[:, c], minlength=n)
         for c in range(values.shape[1])]
    )


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
    p, areas, cots = conf.corners, conf.area, conf.cot
    opp2 = np.empty((len(p), 3))
    for k in range(3):
        d = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        opp2[:, k] = np.einsum("ij,ij->i", d, d)
    w = np.empty((len(p), 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w[:, i] = (opp2[:, j] * cots[:, j] + opp2[:, k] * cots[:, k]) / 8.0
    obtuse = cots < 0
    any_obtuse = obtuse.any(axis=1)
    for i in range(3):
        at_i = any_obtuse & obtuse[:, i]
        w[at_i, i] = areas[at_i] / 2.0
        for d in (1, 2):
            w[at_i, (i + d) % 3] = areas[at_i] / 4.0
    va = _scatter(mesh.faces.ravel(), w.ravel(), mesh.n_vertices)
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
    contrib = conf.normal * conf.area[:, None]
    n = _scatter(mesh.faces.T.ravel(), np.tile(contrib, (3, 1)), mesh.n_vertices)
    ln = np.linalg.norm(n, axis=1)
    if (ln == 0).any():
        raise DegenerateGeometryError("zero-length vertex normal")
    return n / ln[:, None]


def _area_gradient(mesh, conf):
    if mesh.mode == "curve":
        t, _ = conf
        return np.roll(t, 1, axis=0) - t  # gradient of total length
    f, p, cots = mesh.faces, conf.corners, conf.cot
    index, values = [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        c = 0.5 * cots[:, k][:, None] * (p[:, i] - p[:, j])
        index += [f[:, i], f[:, j]]
        values += [c, -c]
    return _scatter(np.concatenate(index), np.concatenate(values), mesh.n_vertices)


def _mean_curvature(mesh, conf, weights, normals, mcv):
    if mesh.mode == "curve":
        t, _ = conf
        return _turning_angles(t) / weights
    return np.einsum("ij,ij->i", mcv, normals) / weights


def _second_form(mesh, normals, H):
    """(|A|, |Adev|) with |Adev| = sqrt(max(|A|^2 - H^2/2, 0)).

    The shape operator is fit per vertex from the derivatives of the
    osculating-sphere normals along the 1-ring edges and rescaled so that its
    trace is the H that drives the flow. Curve mode: |A| = |H|, |Adev| = 0.
    """
    if mesh.mode == "curve":
        return np.abs(H), np.zeros_like(H)
    k1, k2 = _shape_operator_eigen(mesh, normals, H)
    second = np.sqrt(k1**2 + k2**2)
    return second, np.sqrt(np.maximum(second**2 - H**2 / 2.0, 0.0))


def _gradient_norm(mesh, conf, f):
    if mesh.mode == "curve":
        _, ln = conf
        df = np.roll(f, -1) - np.roll(f, 1)
        return np.abs(df) / (ln + np.roll(ln, 1))
    p, areas, fn = conf.corners, conf.area, conf.normal
    F = mesh.faces
    g = np.zeros((len(F), 3))
    for k in range(3):
        opp = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        g += f[F[:, k]][:, None] * np.cross(fn, opp) / (2.0 * areas)[:, None]
    corner = F.T.ravel()
    n = mesh.n_vertices
    vg = _scatter(corner, np.tile(g * areas[:, None], (3, 1)), n)
    vg /= _scatter(corner, np.tile(areas, 3), n)[:, None]
    return np.linalg.norm(vg, axis=1)


def _stiffness_weight(mesh, conf):
    if mesh.mode == "curve":
        _, ln = conf
        return 1.0 / ln
    return 0.5 * conf.cot.T.ravel()


def _min_angle(mesh, conf):
    if mesh.mode == "curve":
        t, _ = conf
        return float(pi - np.abs(_turning_angles(t)).max())
    # the corner angle in (0, pi) decreases as its cotangent grows
    return float(np.arctan2(1.0, conf.cot.max()))


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
    return _area_gradient(mesh, _configuration(mesh))


def cotangent_stiffness(mesh, weight=None):
    """Sparse positive-semidefinite cotangent stiffness matrix L (CSR).

    ``L @ x`` equals :func:`mean_curvature_vector` applied per coordinate;
    ``f @ (L @ f)`` is the discrete Dirichlet energy of a vertex field.
    ``weight`` is the ``stiffness_weight`` of this configuration's cache,
    computed when omitted. The sparsity pattern is built once per
    connectivity; each call is one scatter into its slots.
    """
    if weight is None:
        weight = _stiffness_weight(mesh, _configuration(mesh))
    pattern = mesh._stiffness_pattern
    data = _scatter(
        pattern.slot,
        np.concatenate([-weight, -weight, weight, weight]),
        len(pattern.indices),
    )
    n = mesh.n_vertices
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def osculating_sphere_normals(mesh, reference_normals):
    """Unit normals from per-vertex least-squares sphere fits over the 1-ring.

    Fits the algebraic sphere |p - x_i|^2 = 2 c.(p - x_i) + rho through the
    vertex and its 1-ring (centred for conditioning); the normal is the
    radial direction at the vertex, sign-matched to ``reference_normals``.
    Exact on meshes inscribed in a common sphere, which gives the traceless
    second-form estimate the dynamic range the roundness diagnostics need.
    Degenerate fits fall back to the reference normal.
    """
    v = mesh.vertices
    n = mesh.n_vertices
    e = mesh.directed_edges
    src, dst = e[:, 1], e[:, 0]
    d = v[src] - v[dst]  # ring points centred at the ring owner
    q = np.einsum("ij,ij->i", d, d)

    dim = v.shape[1]
    s1 = _scatter(dst, d, n)
    s2 = _scatter(dst, (d[:, :, None] * d[:, None, :]).reshape(len(d), -1), n)
    s2 = s2.reshape(n, dim, dim)
    s3 = _scatter(dst, q, n)
    s4 = _scatter(dst, q[:, None] * d, n)
    cnt = np.bincount(dst, minlength=n)

    m = dim + 1
    G = np.zeros((n, m, m))
    G[:, :dim, :dim] = 4.0 * s2
    G[:, :dim, dim] = 2.0 * s1
    G[:, dim, :dim] = 2.0 * s1
    G[:, dim, dim] = cnt + 1.0  # the centred vertex contributes a zero row
    rhs = np.zeros((n, m))
    rhs[:, :dim] = 2.0 * s4
    rhs[:, dim] = s3

    ok = np.ones(n, dtype=bool)
    try:
        sol = np.linalg.solve(G, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # some fit is exactly singular (e.g. a flat 1-ring): solve the others
        ok = np.abs(np.linalg.det(G)) > 0
        sol = np.zeros((n, m))
        sol[ok] = np.linalg.solve(G[ok], rhs[ok, :, None])[:, :, 0]
    centre = sol[:, :dim]  # relative to each vertex
    dist = np.linalg.norm(centre, axis=1)
    usable = ok & (dist > 1e-300)
    out = reference_normals.copy()
    out[usable] = -centre[usable] / dist[usable, None]
    flip = np.einsum("ij,ij->i", out, reference_normals) < 0
    out[flip] = -out[flip]
    return out


def _shape_operator_eigen(mesh, normals, H):
    """(k1, k2) of the trace-reconciled 1-ring shape operator fit."""
    nsf = osculating_sphere_normals(mesh, normals)
    n = mesh.n_vertices
    seed = np.where(np.abs(nsf[:, 0:1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = np.cross(nsf, seed)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(nsf, t1)

    e = mesh.directed_edges
    i, j = e[:, 0], e[:, 1]
    ev = mesh.vertices[j] - mesh.vertices[i]
    dn = nsf[j] - nsf[i]
    u1 = np.einsum("ij,ij->i", t1[i], ev)
    u2 = np.einsum("ij,ij->i", t2[i], ev)
    w1 = np.einsum("ij,ij->i", t1[i], dn)
    w2 = np.einsum("ij,ij->i", t2[i], dn)

    # normal equations for symmetric S = [[a, b], [b, c]]
    g11, g12, g22 = u1 * u1, u1 * u2, u2 * u2
    s11, s12, s22 = _scatter(i, np.column_stack([g11, g12, g22]), n).T
    G = np.zeros((n, 3, 3))
    G[:, 0, 0] = s11
    G[:, 0, 1] = G[:, 1, 0] = G[:, 1, 2] = G[:, 2, 1] = s12
    G[:, 1, 1] = _scatter(i, g11 + g22, n)
    G[:, 2, 2] = s22
    R = _scatter(i, np.column_stack([u1 * w1, u2 * w1 + u1 * w2, u2 * w2]), n)

    try:
        sol = np.linalg.solve(G, R[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise DegenerateGeometryError("rank-deficient 1-ring shape operator fit") from None
    a, b, c = sol[:, 0], sol[:, 1], sol[:, 2]
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
    """Integral of a per-vertex field against the discrete surface measure."""
    return float(np.dot(np.asarray(f, dtype=np.float64), weights))


def enclosed_volume(mesh, conf=None):
    """Signed enclosed volume (divergence theorem, exact for polyhedra).

    Curve mode: shoelace area of the polygon. ``conf`` is the face record of
    this configuration, built when omitted.
    """
    if mesh.mode == "curve":
        return _shoelace_area(mesh.vertices)
    return (conf or _configuration(mesh)).volume


def diameter_estimate(mesh):
    """Upper-bias intrinsic diameter estimate from graph geodesics.

    Runs Dijkstra along mesh edges from 32 farthest-point-seeded sources (the
    first drawn by ``np.random.default_rng(0)``) and returns the largest
    distance found. Edge paths overestimate true geodesics, so the estimate
    carries a lattice-dependent upward bias of a few percent on icospheres.
    """
    from scipy.sparse.csgraph import dijkstra

    n = mesh.n_vertices
    if mesh.mode == "curve":
        _, ln = _configuration(mesh)
        cum = np.concatenate([[0.0], np.cumsum(ln)])
        total = cum[-1]
        # the arc distance from a vertex peaks at its antipode, so the farthest
        # vertex is one of the two around it (cum[n] is vertex 0 again)
        pos, half = cum[:-1], 0.5 * total
        k = np.searchsorted(cum, np.where(pos < half, pos + half, pos - half))
        arc = np.abs(pos - cum[np.stack([k - 1, k])])
        return float(np.minimum(arc, total - arc).max())
    e = mesh.edges
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    g = sparse.csr_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n))
    g = g.maximum(g.T)
    start = int(np.random.default_rng(0).integers(n))
    dist = dijkstra(g, indices=[start]).ravel()
    best = float(dist.max())
    min_to_sources = dist
    for _ in range(min(32, n) - 1):
        nxt = int(np.argmax(min_to_sources))
        dist = dijkstra(g, indices=[nxt]).ravel()
        best = max(best, float(dist.max()))
        min_to_sources = np.minimum(min_to_sources, dist)
    return best


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
    H = _mean_curvature(mesh, conf, weights, normals, _area_gradient(mesh, conf))
    second, traceless = _second_form(mesh, normals, H)
    return GeometryCache(
        vertex_area=weights,
        normal=normals,
        mean_curvature=H,
        second_form_norm=second,
        traceless_norm=traceless,
        grad_H_norm=_gradient_norm(mesh, conf, H),
        stiffness_weight=_stiffness_weight(mesh, conf),
        volume=enclosed_volume(mesh, conf),
        min_angle=_min_angle(mesh, conf),
    )
