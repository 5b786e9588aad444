"""Discrete differential geometry fields and integrals on TriMesh objects.

Surface conventions: outward unit normals, mean curvature H positive on
convex surfaces (H = 2/r on a sphere of radius r), mixed-Voronoi vertex
area weights as the discrete surface measure. The per-vertex mean curvature
is the projection of the area-gradient (cotangent) vector onto the vertex
normal divided by the vertex area; with the nonlocal coefficient built from
the same fields this makes the discrete first variation of total area vanish
exactly (see flow module).

Curve mode (closed planar polylines) takes one straight-line pass over the
curve's segment record instead: half-edge-sum length weights, turning-angle
curvature, shoelace enclosed area.
"""

from dataclasses import dataclass
from math import pi

import numpy as np
import scipy.sparse as sparse

from .errors import DegenerateGeometryError, OrientationError
from .mesh import _cross, _dot, _norm


@dataclass
class GeometryCache:
    """Per-vertex discrete geometry of one mesh configuration.

    Fields (a curve's from the curve pass, :func:`_curve_cache`)
    ------
    vertex_area : (n,) float
        Mixed-Voronoi area weights (discrete surface measure); arc-length
        weights in curve mode.
    normal : (n, d) float
        Outward unit vertex normals (area-weighted face-normal average; the
        sum of the two segment normals in curve mode).
    mean_curvature : (n,) float
        Discrete H; turning-angle curvature in curve mode.
    second_form_norm : (n,) float
        |A| = sqrt(k1^2 + k2^2) from the trace-reconciled shape operator fit;
        |H| in curve mode.
    traceless_norm : (n,) float
        |Adev| with |Adev|^2 = |A|^2 - H^2/n; identically zero in curve mode.
    grad_H_norm : (n,) float
        Intrinsic |grad H| from area-averaged per-face affine gradients; the
        centred difference along arc length in curve mode.
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
# Every field is built from one per-configuration record, the mesh's
# _record: the face record of a surface or the segment record of a curve,
# which share the names of the measure (area), the element centroids and the
# enclosed volume. compute_cache decides curve or surface once: a curve
# takes the one straight-line pass of _curve_cache, a surface the helpers
# below, each the one formula for its field. compute_cache is the one source
# of a configuration's per-vertex fields; the operations further down take
# what they need of it as arguments.
# Sums over faces, corners and half-edges are products with the incidence
# operators of the mesh's connectivity (mesh._Connectivity); the half-edge
# vectors are the face record's edges, one gather, and both curvature fits
# solve from one set of 1-ring moments of them (_ring_moments). Every vector
# of the pass is component-major, (d, ...) with one contiguous row per
# component, from the gather to GeometryCache.normal, which is transposed to
# (n, d) there; the vector arithmetic is written out per component, once, in
# mesh._dot / _cross / _norm, and a sparse operator acts row by row
# (_rows).


def _configuration(mesh):
    """Face record (surface) or segment record (curve) of this configuration,
    ``mesh._record``, checked for a zero-area face (zero-length segment)."""
    conf = mesh._record
    if (conf.area == 0).any():
        what = "zero-length curve segment" if mesh.mode == "curve" else "zero-area face"
        raise DegenerateGeometryError(what)
    return conf


def _segment_weights(length):
    """Curve vertex weights: half the summed length of the two incident segments."""
    return 0.5 * (length + np.roll(length, 1))


def _rows(op, x):
    """``op`` applied to each row of component-major ``x``: (k, op.shape[0])."""
    return np.array([op @ row for row in x])


def _curve_cache(seg, volume):
    """The cache of a closed planar polyline, in one pass over its segment
    record; the stiffness weight of a segment is 1/length."""
    ln, t = seg.area, seg.tangent
    weights = _segment_weights(ln)
    # outward for counter-clockwise orientation: rotate tangent by -90 deg
    rot = np.stack([t[1], -t[0]])
    normal = rot + np.roll(rot, 1, axis=1)
    normal_length = np.linalg.norm(normal, axis=0)
    if (normal_length == 0).any():
        raise DegenerateGeometryError("cusp vertex on curve")
    H = seg.turning / weights
    return GeometryCache(
        vertex_area=weights,
        normal=(normal / normal_length).T.copy(),
        mean_curvature=H,
        second_form_norm=np.abs(H),
        traceless_norm=np.zeros_like(H),
        grad_H_norm=np.abs(np.roll(H, -1) - np.roll(H, 1)) / (ln + np.roll(ln, 1)),
        stiffness_weight=1.0 / ln,
        edge_length=ln,
        volume=volume,
        min_angle=float(pi - np.abs(seg.turning).max()),
    )


def _weights(mesh, conf):
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
    # the face cross product is twice the area-weighted face normal; the
    # factor 2 drops out of the unit vertex normal
    n = _rows(mesh._connectivity.face, conf.cross)
    ln = _norm(n)
    if (ln == 0).any():
        raise DegenerateGeometryError("zero-length vertex normal")
    return n / ln


def _area_gradient(mesh, conf, weight):
    """Gradient of total area w.r.t. vertex positions (cotangent formula):
    the integrated discrete Laplace-Beltrami of the embedding, the outward
    mean curvature normal times the vertex area."""
    # each half-edge carries its weight times its vector x: -x into its source
    # and x into its target, the source of the next half-edge of its face
    # x[:, k - 1] - x[:, k] corner by corner: slices, since indexing the middle
    # axis with [2, 0, 1] copies into a transposed layout
    x = conf.edge * weight.reshape(3, -1)
    d = np.empty_like(x)
    np.subtract(x[:, 2], x[:, 0], out=d[:, 0])
    np.subtract(x[:, 0], x[:, 1], out=d[:, 1])
    np.subtract(x[:, 1], x[:, 2], out=d[:, 2])
    return _rows(mesh._connectivity.ring, d.reshape(3, -1))


def _second_form(mesh, conf, normals, H):
    """(|A|, |Adev|) with |Adev| = sqrt(max(|A|^2 - H^2/2, 0)).

    The shape operator is fit per vertex from the derivatives of the
    osculating-sphere normals along the 1-ring edges and rescaled so that its
    trace is the H that drives the flow. The sphere fit and the shape fit
    both take their normal equations from one set of 1-ring moments.
    """
    moments = _ring_moments(mesh, conf)
    nsf = _sphere_fit_normals(mesh, moments, normals)
    k1, k2 = _shape_operator_eigen(mesh, conf, moments, nsf, H)
    second = np.sqrt(k1**2 + k2**2)
    return second, np.sqrt(np.maximum(second**2 - H**2 / 2.0, 0.0))


def _gradient_norm(mesh, conf, f):
    """Intrinsic per-vertex |grad f| from per-face affine gradients.

    The gradient of the piecewise-linear interpolant is constant per face and
    tangential by construction; vertex values are face-area-weighted averages
    over the incident faces. Exact on affine fields over flat patches.
    """
    # the face gradient is n_f x sum_k f_k E_k / 2A, E_k the edge opposite
    # corner k (edge k + 1) and n_f = cross / 2A; vertices average it by area
    fk, e = np.take(f, mesh.faces.T), conf.edge
    s = fk[0] * e[:, 1] + fk[1] * e[:, 2] + fk[2] * e[:, 0]
    op = mesh._connectivity.face
    vg = _rows(op, _cross(conf.cross, s) / (4.0 * conf.area))
    vg /= op @ conf.area
    return _norm(vg)


def _stiffness_weight(mesh, conf):
    # the half-edge leaving corner k is opposite corner k - 1
    return (0.5 * conf.cot[[2, 0, 1]]).ravel()


def _edge_length(conf):
    # every edge is a half-edge of some face; |p - q| squares each component
    # as mesh.edge_lengths() does, so both give the same bits
    return np.sqrt(conf.length2).ravel()


def _area_centroid(conf):
    total = float(conf.area.sum())
    # each component summed face by face in order, not by numpy's pairwise sum
    moment = np.cumsum(conf.centroid * conf.area, axis=1)[:, -1]
    return total, moment / total


# -- per-vertex field operations ----------------------------------------------


def vertex_area_weights(mesh):
    """Mixed-Voronoi per-vertex area weights (Meyer obtuse fallback).

    The weights partition the total face area exactly: Voronoi corner areas
    for non-obtuse triangles, half/quarter splits when a triangle is obtuse.
    Curve mode: half the summed length of the two incident segments.
    ``compute_cache(mesh).vertex_area`` holds the same values; this function
    remains because the benchmark's tracer (perfbench/tracing.py) wraps it by
    name.
    """
    conf = _configuration(mesh)
    return _segment_weights(conf.area) if mesh.mode == "curve" else _weights(mesh, conf)


def cotangent_stiffness(mesh, weight):
    """Sparse positive-semidefinite cotangent stiffness matrix L (CSR).

    ``weight`` is the ``stiffness_weight`` of this configuration's cache.
    ``L @ x`` is the gradient of total area w.r.t. the vertex positions, per
    coordinate; ``f @ (L @ f)`` is the discrete Dirichlet energy of a vertex
    field. The sparsity pattern is built once per connectivity; each call
    scatters the half-edge weights into its slots with one ``np.bincount``.
    """
    pattern = mesh._connectivity.stiffness_pattern
    w = np.concatenate([-weight, -weight, weight, weight])
    data = np.bincount(pattern.slot, w, minlength=len(pattern.indices))
    n = mesh.n_vertices
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


# The curvature fits work on component-major (k, n) arrays, whose rows numpy
# runs through contiguously. A symmetric 3x3 matrix is stored as the rows of
# its 6 distinct entries (xx, xy, xz, yy, yz, zz): _PAIRS holds the (a, b) of
# each stored entry and _SYMMETRIC the stored entry of each (a, b).
_PAIRS = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])
_SYMMETRIC = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]


def _symmetric_solve(m, r):
    """(adj(m) r, det m) for stored symmetric (6, n) m and (3, n) r: the
    solution of m x = r times det m."""
    xx, xy, xz, yy, yz, zz = m
    adj = np.empty((3, 3, m.shape[1]))
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = adj
    np.subtract(yy * zz, yz * yz, out=a00)
    np.subtract(xz * yz, xy * zz, out=a01)
    np.subtract(xy * yz, xz * yy, out=a02)
    np.subtract(xx * zz, xz * xz, out=a11)
    np.subtract(xy * xz, xx * yz, out=a12)
    np.subtract(xx * yy, xy * xy, out=a22)
    a10[:], a20[:], a21[:] = a01, a02, a12
    return np.einsum("abn,bn->an", adj, r), xx * a00 + xy * a01 + xz * a02


def _tangent_forms(m, t):
    """(2, 2, n) t_k^T m t_l of stored symmetric (6, n) m and the (2, 3, n)
    tangent frame t."""
    return np.einsum("kan,lan->kln", t, np.einsum("abn,lbn->lan", m[_SYMMETRIC], t))


def _ring_moments(mesh, conf):
    """The per-vertex 1-ring moments both curvature fits solve from.

    With d the half-edge vectors leaving a vertex (its ring points centred at
    the vertex) and q = |d|^2: ``(Q, s, sum_q, sum_qd)`` = (sum d d^T, stored
    symmetric (6, n); sum d (3, n); sum q (n,); sum q d (3, n)). Each row is
    one product of ``ring`` with a half-edge row, formed in one reused buffer.
    """
    ring = mesh._connectivity.ring
    d, q = conf.edge.reshape(3, -1), conf.length2.ravel()
    buf = np.empty(len(q))
    sums = np.empty((13, mesh.n_vertices))
    for k, (a, b) in enumerate(zip(*_PAIRS)):
        sums[k] = ring @ np.multiply(d[a], d[b], out=buf)
    sums[6] = ring @ q
    for a in range(3):
        sums[7 + a] = ring @ d[a]
        sums[10 + a] = ring @ np.multiply(d[a], q, out=buf)
    return sums[:6], sums[7:10], sums[6], sums[10:]


# a sphere fit is singular when det M <= _SINGULAR_FIT (tr M)^3 (see
# _sphere_fit_normals)
_SINGULAR_FIT = 1e3 * np.finfo(np.float64).eps


def _sphere_fit_normals(mesh, moments, reference_normals):
    """Unit normals from per-vertex least-squares sphere fits over the 1-ring.

    Fits the algebraic sphere |p - x_i|^2 = 2 c.(p - x_i) + rho through the
    vertex and its 1-ring (centred at the vertex); the normal is the radial
    direction -c/|c| at the vertex, sign-matched to ``reference_normals``.
    Exact on meshes inscribed in a common sphere, which gives the traceless
    second-form estimate the dynamic range the roundness diagnostics need.

    ``moments`` are the vertex's :func:`_ring_moments`. The normal equations
    in (c, rho) lose rho to the Schur complement of the point count
    kappa = valence + 1: M c = (sum q d - s sum q / kappa) / 2 with
    M = Q - s s^T / kappa, the scatter matrix of the kappa points about their
    mean. M is solved in closed form by its adjugate on (n,) rows. Only the
    direction of c is used, so c is taken as adj(M) b with
    b = sum q d - s sum q / kappa, without the factor 1/2 or the division by
    det M. A fit is singular, and keeps the reference normal, when
    det M <= 1000 eps (tr M)^3, which holds when M is singular to within its
    rounding: when the points lie on one plane (a flat 1-ring, or a boundary
    vertex of an open mesh with its ring on one rectangle, where the ratio
    det M / (tr M)^3 reads about 1e-17). The eigenvalues of M are
    nonnegative, so the ratio is at most 1/27; on icospheres, ellipsoids and
    dented spheres up to V = 10242 it stays above 1e-5. The rule is
    invariant under rigid motions and scaling. Normals in and out are
    component-major (3, n). Surface meshes only.
    """
    Q, s, sum_q, sum_qd = moments
    kappa = np.diff(mesh._connectivity.ring.indptr) + 1.0
    centroid = s / kappa
    M = Q - s[_PAIRS[0]] * centroid[_PAIRS[1]]
    centre, det = _symmetric_solve(M, sum_qd - centroid * sum_q)
    trace = M[0] + M[3] + M[5]
    dist = _norm(centre)
    usable = (det > _SINGULAR_FIT * trace**3) & (dist > 0)
    out = reference_normals.copy()
    np.divide(centre, -dist, out=out, where=usable)
    np.negative(out, out=out, where=_dot(out, reference_normals) < 0)
    return out


def _shape_operator_eigen(mesh, conf, moments, nsf, H):
    """(k1, k2) of the trace-reconciled 1-ring shape operator fit.

    ``nsf`` are the (3, n) sphere-fit normals and ``moments`` the vertex's
    :func:`_ring_moments`. In the tangent frame (t1, t2) of each vertex, a
    ring half-edge d to vertex j has the tangent components u_k = t_k . d of
    its vector and w_k = t_k . (n_j - n_i) of its normal change. The normal
    equations of the symmetric fit S = [[a, b], [b, c]] take their sums from
    moments: sum u_k u_l = t_k^T Q t_l and sum u_k w_l = t_k^T P t_l with
    P = sum d n_j^T - s n_i^T. Since t_l . n_i = 0 the second term drops,
    and the equations read P only through its symmetric part, so 6 row
    products over the half-edges give N = sum (d n_j^T + n_j d^T) =
    P + P^T. An exactly rank-deficient fit raises
    :class:`DegenerateGeometryError`, on open meshes too; the flow runs on
    closed meshes only.
    """
    n = mesh.n_vertices
    # t1 = nsf x e_x = (0, n_z, -n_y) where |n_x| < 0.9, else nsf x e_y =
    # (-n_z, 0, n_x); t2 = nsf x t1
    nx, ny, nz = nsf
    seed_x = np.abs(nx) < 0.9
    t1 = np.zeros((3, n))
    np.negative(nz, out=t1[0], where=~seed_x)
    np.copyto(t1[1], nz, where=seed_x)
    np.copyto(t1[2], nx)
    np.negative(ny, out=t1[2], where=seed_x)
    t1 /= _norm(t1)
    t = np.stack([t1, _cross(nsf, t1)])

    ring = mesh._connectivity.ring
    d = conf.edge.reshape(3, -1)
    # np.take gathers several times faster than fancy indexing
    nj = np.take(nsf, mesh.directed_edges[:, 1], axis=1)
    buf, other = np.empty((2, d.shape[1]))
    N = np.empty((6, n))
    for k, (a, b) in enumerate(zip(*_PAIRS)):
        np.multiply(d[a], nj[b], out=buf)
        if a != b:
            buf += np.multiply(d[b], nj[a], out=other)
        N[k] = ring @ buf
    del nj, buf, other
    N[[0, 3, 5]] *= 2.0

    # normal equations for symmetric S = [[a, b], [b, c]]: the symmetric
    # system [[s11, s12, 0], [s12, s11 + s22, s12], [0, s12, s22]] (a, b, c)
    # = (sum u1 w1, sum u2 w1 + u1 w2, sum u2 w2), with s_kl = sum uk ul =
    # t_k^T Q t_l and sum uk wl + ul wk = t_k^T N t_l
    (s11, s12), (_, s22) = _tangent_forms(moments[0], t)
    G = np.stack([s11, s12, np.zeros(n), s11 + s22, s12, s22])
    (r0, r1), (_, r2) = _tangent_forms(N, t)
    r = np.stack([0.5 * r0, r1, 0.5 * r2])
    # solved by the adjugate: (a, b, c) = adj(G) r / det G
    abc, det = _symmetric_solve(G, r)
    if (det == 0).any():
        raise DegenerateGeometryError("rank-deficient 1-ring shape operator fit")
    a, b, c = abc / det
    trace = a + c
    disc = np.sqrt(0.25 * (a - c) ** 2 + b**2)

    # trace reconciliation: rescale to the cotangent H unless the fitted
    # trace nearly cancels (near-minimal vertex), where rescaling would only
    # amplify fit noise and the raw fit is kept instead
    scale = np.ones(n)
    nonzero = np.abs(trace) > 0.05 * np.maximum(np.abs(a) + np.abs(c) + 2 * np.abs(b), 1e-300)
    scale[nonzero] = H[nonzero] / trace[nonzero]
    return (0.5 * trace - disc) * scale, (0.5 * trace + disc) * scale


def surface_integral(weights, f):
    """Integral of a per-vertex field against the discrete surface measure.

    Summed by numpy's own pairwise sum, not a BLAS dot product, so the value
    does not depend on the number of BLAS threads.
    """
    return float((np.asarray(f, dtype=np.float64) * weights).sum())


def enclosed_volume(mesh):
    """Signed enclosed volume (divergence theorem, exact for polyhedra).

    Curve mode: shoelace area of the polygon. Read from the mesh's face
    (segment) record, ``mesh._record``, and defined for degenerate faces too,
    as :func:`sapflow.mesh.validate` reports it. ``compute_cache`` calls this
    function for ``cache.volume``; it remains public because the benchmark's
    tracer (perfbench/tracing.py) wraps it by name.
    """
    return mesh._record.volume


def diameter_estimate(mesh, edge_length):
    """Upper-bias intrinsic diameter estimate from graph geodesics.

    The largest eccentricity, in edge-length graph distance, of the
    ``sapflow.mesh.DIAMETER_SOURCES`` = 8 sources that the connectivity's
    ``diameter_graph`` spreads by hop count: the first drawn by
    ``np.random.default_rng(0)``, each next one farthest in hops from those
    before. The graph and the sources are built once per connectivity, from
    the connectivity alone, so the estimate is a continuous function of the
    vertex positions. Each call is one Dijkstra call, from only the sources
    that can set the maximum (see :func:`_diameter_sources`): about 2 of the
    8 when the rows of a flow run are one step apart, all 8 on a
    connectivity's first call. The value is the 8-source maximum bit for
    bit, whatever the earlier calls were.
    ``edge_length`` is the ``edge_length`` of this configuration's cache.
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

    if mesh.mode == "curve":
        cum = np.concatenate([[0.0], np.cumsum(edge_length)])
        total = cum[-1]
        # the arc distance from a vertex peaks at its antipode, so the farthest
        # vertex is one of the two around it (cum[n] is vertex 0 again)
        pos, half = cum[:-1], 0.5 * total
        k = np.searchsorted(cum, np.where(pos < half, pos + half, pos - half))
        arc = np.abs(pos - cum[np.stack([k - 1, k])])
        return float(np.minimum(arc, total - arc).max())
    conn = mesh._connectivity
    if not (conn.closed and conn.oriented):
        raise ValueError("diameter_estimate needs a closed, consistently oriented surface")
    graph = conn.diameter_graph
    n = mesh.n_vertices
    g = sparse.csr_matrix(
        (edge_length[graph.slot], graph.indices, graph.indptr), shape=(n, n)
    )
    run, upper = _diameter_sources(graph, edge_length, n)
    ecc = dijkstra(g, indices=graph.sources[run]).max(axis=1)
    upper[run] = ecc
    graph.memo = (edge_length.copy(), upper, run)
    return float(ecc.max())


def _diameter_sources(graph, edge_length, n):
    """(mask of the sources that can set the maximum, a fresh array of upper
    bounds on every source's eccentricity) at ``edge_length``.

    Between the configuration of ``graph.memo`` and this one, every path
    length, so every eccentricity, changes by a factor in [lo, hi]: the
    smallest and largest ratio of a half-edge's length to its memo length,
    widened by 1 + 4 n eps to cover the rounding of the ratios, of the
    products below and of Dijkstra's sums over at most n - 1 edges (the
    eccentricity bounds of Takes & Kosters 2011, "Determining the diameter of
    small world networks"). A source's eccentricity is thus at most its memo
    bound times hi, and the largest one at least the largest one computed
    last time times lo; a source whose bound stays below that cannot set the
    maximum, and the source that set it always runs. All sources run on the
    first call and when a ratio is not finite and positive, with bounds of
    inf until the caller sets the computed ones.
    """
    memo = graph.memo
    if memo is not None:
        last, upper, exact = memo
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = edge_length / last
        lo, hi = ratio.min(), ratio.max()
        if 0.0 < lo and hi < np.inf:  # NaN fails both
            widen = 1.0 + 4.0 * n * np.finfo(np.float64).eps
            lower = upper[exact].max() * (lo / widen)
            upper = upper * (hi * widen)
            return upper >= lower, upper
    k = len(graph.sources)
    return np.ones(k, dtype=bool), np.full(k, np.inf)


def compute_cache(mesh):
    """Compute all per-vertex geometry fields for one mesh configuration.

    The one entry point for the normals, H, |A|, |Adev| and |grad H|. Takes
    the mesh's record (``mesh._record``, built on its first read, by the
    input check if that ran), then deletes it from the mesh: the pass is its
    last reader, and a mesh that outlives its pass does not hold it. A curve
    takes the curve pass, a surface runs every field helper on the record.

    Raises
    ------
    OrientationError
        Closed mesh with enclosed volume <= 0, or curve with enclosed area <= 0
        (clockwise).
    DegenerateGeometryError
        Zero-area face, zero-length segment or normal, non-positive area
        weight, or rank-deficient 1-ring shape operator fit.
    """
    conf = _configuration(mesh)
    volume = enclosed_volume(mesh)
    del mesh._record
    # the volume sign only means anything on closed meshes; a curve is closed
    if mesh.is_closed and volume <= 0:
        raise OrientationError(conf.INWARD)
    if mesh.mode == "curve":
        return _curve_cache(conf, volume)
    weights = _weights(mesh, conf)
    normals = _normals(mesh, conf)
    stiffness = _stiffness_weight(mesh, conf)
    H = _dot(_area_gradient(mesh, conf, stiffness), normals) / weights
    second, traceless = _second_form(mesh, conf, normals, H)
    return GeometryCache(
        vertex_area=weights,
        normal=normals.T.copy(),  # (n, 3), the one transpose of the pass
        mean_curvature=H,
        second_form_norm=second,
        traceless_norm=traceless,
        grad_H_norm=_gradient_norm(mesh, conf, H),
        stiffness_weight=stiffness,
        edge_length=_edge_length(conf),
        volume=volume,
        # the corner angle in (0, pi) decreases as its cotangent grows
        min_angle=float(np.arctan2(1.0, conf.cot.max())),
    )
