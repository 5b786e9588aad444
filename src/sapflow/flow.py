"""Time integration of the surface-area-preserving curvature flow.

The normal velocity is (1 - h H) with the nonlocal coefficient
h = int H dmu / int H^2 dmu recomputed after every step (first-order
splitting of the nonlocal coupling). Because H is defined as the projection
of the discrete area gradient onto the vertex normal used in the velocity,
the discrete first variation of total area vanishes exactly at every step;
the surviving area drift is O(dt) over a run and can be removed entirely by
the optional projection step (uniform rescaling about the area centroid).
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    BlowUpError,
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    OrientationError,
)
from . import diagnostics, geometry
from .mesh import (
    TriMesh, _check_fields, _input_defect, _integer, _number, _positive, intrinsic_dimension,
)

# smallest face corner (curve vertex) angle, in radians, before a run ends as
# blow_up(mesh_degeneracy); an input below it is an invalid_input
MIN_ANGLE_LIMIT = 1e-3


# the one check of each run setting, for the library and the manifest:
# field -> (what it must be, test of its value)
_SETTING_CHECKS = {
    "stepping": ("explicit or semi-implicit", lambda x: x in ("explicit", "semi-implicit")),
    "cfl_safety": ("a number in (0, 1]", lambda x: _number(x) and 0 < x <= 1),
    "dt_max": ("a positive finite number", _positive),
    "area_projection": ("a bool", lambda x: isinstance(x, bool)),
    "t_max": ("a positive finite number", _positive),
    "roundness_tol": ("a number in (0, 1)", lambda x: _number(x) and 0 < x < 1),
    "blowup_max_A": ("a positive finite number or None", lambda x: x is None or _positive(x)),
    "snapshot_every": ("an integer >= 1", lambda x: _integer(x) and x >= 1),
}


@dataclass(frozen=True)
class FlowConfig:
    stepping: str = "explicit"  # "explicit" | "semi-implicit"
    cfl_safety: float = 0.5
    dt_max: float = 0.05
    area_projection: bool = True
    t_max: float = 10.0
    roundness_tol: float = 1e-6
    blowup_max_A: float | None = None  # None: 1e3 * initial max |A|
    snapshot_every: int = 1

    def __post_init__(self):
        _check_fields(vars(self), _SETTING_CHECKS)


@dataclass(frozen=True)
class FlowState:
    mesh: TriMesh
    t: float = 0.0
    h: float = 0.0
    step_index: int = 0
    initial_area: float = 0.0
    initial_traceless_l2: float = 0.0
    last_projection_scale: float = 1.0
    # the implicit corrections x' - x_explicit of the last _START_HISTORY
    # semi-implicit steps, newest first, component-major (d, j, n); None at
    # the start of a run and after an explicit step
    corrections: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Termination:
    kind: str  # "converged" | "time_limit" | "blow_up"
    detail: str = ""

    def __str__(self):
        return self.kind if not self.detail else f"{self.kind}({self.detail})"


@dataclass
class FlowRunResult:
    series: "object"  # diagnostics.TimeSeries
    final_state: FlowState
    termination: Termination


def compute_h(cache):
    """Nonlocal coefficient int H dmu / int H^2 dmu.

    Raises
    ------
    DegenerateMeanCurvatureError
        int H^2 dmu below 1e-14 times the total area; the flow is undefined.
    """
    int_H = geometry.surface_integral(cache.vertex_area, cache.mean_curvature)
    int_H2 = geometry.surface_integral(cache.vertex_area, cache.mean_curvature**2)
    if int_H2 < 1e-14 * cache.total_area:
        raise DegenerateMeanCurvatureError(
            f"int H^2 dmu = {int_H2:.3e} is numerically zero"
        )
    return int_H / int_H2


def _traceless_l2(cache):
    """int |Adev|^2 dmu, the roundness deficit."""
    return geometry.surface_integral(cache.vertex_area, cache.traceless_norm**2)


def flow_velocity(cache, h):
    """Per-vertex velocity (1 - h H) nu."""
    return (1.0 - h * cache.mean_curvature)[:, None] * cache.normal


def select_timestep(mesh, cache, h, config):
    """Stable step size for the configured stepping mode.

    Explicit: parabolic bound cfl * min_edge^2 / (4 h), capped at dt_max.
    Semi-implicit: displacement bound cfl * min_edge / max |1 - h H|, capped
    at dt_max (the stiff part is unconditionally stable). min_edge is the
    cache's, taken from the geometry pass of ``mesh``.
    """
    e_min = cache.min_edge
    if config.stepping == "explicit":
        dt = config.cfl_safety * e_min**2 / (4.0 * abs(h))
    else:
        vmax = float(np.abs(1.0 - h * cache.mean_curvature).max())
        dt = config.cfl_safety * e_min / max(vmax, 1e-300)
    dt = min(dt, config.dt_max)
    if dt < 1e-12:
        raise BlowUpError("dt_underflow", f"selected dt = {dt:.3e}")
    return dt


# relative residual at which each coordinate's CG solve stops (atol = 0): the
# loosest power of ten whose effect stays below the time step's own error.
# On the dent-semi-s5 input (V = 10242, dt_max 0.05), against a solve to 1e-12,
# every series.csv column but t and the projected area moves by at most 1 % of
# its gap to a run at dt_max / 2 (rows every step, interpolated to the same t),
# both as the largest move over the rows and on the converged row. Worst
# column, move / gap, from the projected start: 1e-11 0.94 % (max_abs_A at
# t = 0.009), 1e-10 11 %, 1e-9 200 %. tests/test_flow.py repeats the check
# at subdivision 2.
_CG_RTOL = 1e-11


# how many of the last semi-implicit corrections x' - x_explicit a solve's
# start is projected onto. The flow converges exponentially, so consecutive
# steps solve nearly the same system and their corrections lie close to a
# space of a few dimensions. CG iterations per coordinate per step on
# dent-semi-s5 with 2, 4, 6 and 8 of them: 41.4, 26.9, 23.3 and 22.5 (54.8
# from the last correction alone); each one costs a product with A.
_START_HISTORY = 6


def _projected_start(A, b, x, V):
    """The point of ``x + span(rows of V)`` closest to ``A^-1 b`` in the
    A-norm: ``x + V^T c`` with ``(V A V^T) c = V (b - A x)``, the Galerkin
    system of Fischer (1998), "Projection techniques for iterative solution
    of Ax = b with successive right-hand sides".

    The corrections grow collinear, or vanish, as a run converges, so the
    small system is solved by a rank-revealing least-squares solve, which
    drops the directions whose singular values fall below 1e-13 of the
    largest: a rank-deficient ``V`` gives a finite start, and an all-zero one
    gives ``x``. The reductions are matrix products, not 1-D ``np.dot``,
    whose sums here do not depend on the BLAS thread count below 10 000
    vertices.
    """
    AV = A @ V.T
    c = np.linalg.lstsq(V @ AV, V @ (b - A @ x), rcond=1e-13)[0]
    return x + c @ V


def _semi_implicit_step(mesh, cache, h, dt, explicit, corrections):
    # (M + dt h L) x' = M (x + dt nu): stiff h*Laplacian part implicit, unit
    # normal transport explicit. M is the positive mixed-Voronoi diagonal and
    # L is PSD, so A is SPD: each coordinate is solved by Jacobi-preconditioned
    # CG from the explicit step, projected onto the state's ``corrections``
    # when it has any. CG gets both as thin operators: given the matrix and
    # a sparse.diags preconditioner, scipy passes every product through
    # several more Python layers, for the same products bit for bit.
    A = geometry.cotangent_stiffness(mesh, cache.stiffness_weight)
    diagonal = mesh._connectivity.stiffness_pattern.diagonal
    A.data *= dt * h
    A.data[diagonal] += cache.vertex_area
    inv_diagonal = 1.0 / A.data[diagonal]
    system = spla.LinearOperator(A.shape, matvec=A.__matmul__, dtype=A.dtype)
    jacobi = spla.LinearOperator(A.shape, matvec=inv_diagonal.__mul__, dtype=A.dtype)
    rhs = cache.vertex_area[:, None] * (mesh.vertices + dt * cache.normal)
    out = np.empty_like(rhs)
    for k in range(rhs.shape[1]):
        start = explicit[:, k]
        if corrections is not None:
            start = _projected_start(A, rhs[:, k], start, corrections[k])
        out[:, k], info = spla.cg(
            system, rhs[:, k], x0=start, rtol=_CG_RTOL, atol=0.0, M=jacobi
        )
        if info != 0:
            raise BlowUpError(
                "linear_solve", f"CG on coordinate {k} did not converge (info={info})"
            )
    return out


def advance(state, cache, config, dt):
    """One time step of size ``dt`` from a state whose cache is current.

    ``h`` is frozen within the step; the caller recomputes it from the new
    configuration (run_flow does). A semi-implicit step starts its solve from
    the explicit step projected onto the state's ``corrections``, and hands
    on its own correction ``x' - x_explicit`` in front of the last
    ``_START_HISTORY - 1`` of them.
    """
    explicit = state.mesh.vertices + dt * flow_velocity(cache, state.h)
    if config.stepping == "explicit":
        new_v, corrections = explicit, None
    else:
        new_v = _semi_implicit_step(
            state.mesh, cache, state.h, dt, explicit, state.corrections
        )
        corrections = (new_v - explicit).T[:, None]
        if state.corrections is not None:
            kept = state.corrections[:, : _START_HISTORY - 1]
            corrections = np.concatenate([corrections, kept], axis=1)
        # contiguous rows: the next start's BLAS products then read V alike
        # on every step
        corrections = np.ascontiguousarray(corrections)
    if not np.isfinite(new_v).all():
        raise BlowUpError("nan", "non-finite vertex positions after step")
    return replace(
        state,
        mesh=state.mesh.with_vertices(new_v),
        t=state.t + dt,
        step_index=state.step_index + 1,
        last_projection_scale=1.0,
        corrections=corrections,
    )


def enforce_area_constraint(state):
    """Rescale uniformly about the area centroid so area equals initial_area.

    The area is the sum of the face areas (segment lengths of a curve), which
    the mixed-Voronoi vertex weights partition. The scale exponent is 1/n with
    n the intrinsic dimension (area ~ scale^2, length ~ scale). The applied
    factor is recorded on the state for the diagnostics to compensate.
    """
    mesh = state.mesh
    current, c = geometry._area_centroid(geometry._configuration(mesh))
    scale = (state.initial_area / current) ** (1 / intrinsic_dimension(mesh.mode))
    if scale == 1.0:
        return replace(state, last_projection_scale=1.0)
    new_v = c + scale * (mesh.vertices - c)
    return replace(
        state,
        mesh=mesh.with_vertices(new_v),
        last_projection_scale=scale,
    )


def run_flow(mesh, config, keep_meshes=False, observer=None):
    """Evolve a mesh until convergence, the time limit, or blow-up.

    Loop: snapshot (at cadence, and always on the final state) -> guards ->
    dt -> advance -> optional area projection -> fields and h of the new
    state. The roundness stopping rule compares int |Adev|^2 dmu against
    ``roundness_tol`` times its initial value. An error in the step, the
    projection, or the new fields and h ends the run as ``blow_up`` at the
    last state that has an h, and that state has a row: a
    ``DegenerateGeometryError`` as ``degenerate_geometry``, an
    ``OrientationError`` as ``orientation``, a
    ``DegenerateMeanCurvatureError`` as ``degenerate_H``. On the input mesh
    these errors propagate; a mesh that :func:`sapflow.mesh.load_mesh`
    rejects raises ``BlowUpError("invalid_input", <the same message>)``, and
    so does an input whose minimum angle is below ``MIN_ANGLE_LIMIT`` or
    whose ``h`` is not positive, before its first row.

    ``observer``, when given, is called as ``observer(state, cache, row)``
    once per recorded row, as the row is recorded: ``row`` is its
    :class:`DiagnosticsRecord` and ``cache`` the geometry pass of
    ``state.mesh`` that the run took. What it raises propagates. It is the one
    way to see the meshes of the rows: an observer that appends
    ``state.mesh`` collects them aligned with the series records.
    ``keep_meshes`` stays only so that ``keep_meshes=False`` (which the
    benchmark in perfbench/ passes) still binds; True raises ``ValueError``.

    Returns
    -------
    FlowRunResult
        Time series, final state and termination reason.
    """
    if keep_meshes:
        raise ValueError(
            "run_flow keeps no meshes: collect them with observer(state, cache, row)"
        )
    defect = _input_defect(mesh)
    if defect is not None:
        raise BlowUpError("invalid_input", defect)

    cache = geometry.compute_cache(mesh)
    if cache.min_angle < MIN_ANGLE_LIMIT:
        raise BlowUpError(
            "invalid_input", f"min angle = {cache.min_angle:.3g} rad < {MIN_ANGLE_LIMIT:g}"
        )
    h = compute_h(cache)
    if h <= 0:
        raise BlowUpError("invalid_input", f"nonpositive h = {h:.6g} (int H dmu <= 0)")
    state = FlowState(
        mesh=mesh,
        h=h,
        initial_area=cache.total_area,
        initial_traceless_l2=_traceless_l2(cache),
    )
    blowup_limit = config.blowup_max_A
    if blowup_limit is None:
        blowup_limit = 1e3 * max(float(cache.second_form_norm.max()), 1e-300)
    records = []
    termination = None

    def take_snapshot(state, cache):
        records.append(diagnostics.record_snapshot(state, cache))
        if observer is not None:
            observer(state, cache, records[-1])

    while True:
        recorded = state.step_index % config.snapshot_every == 0
        if recorded:
            take_snapshot(state, cache)
        if state.h <= 0:
            termination = Termination("blow_up", "nonpositive_h")
        elif float(cache.second_form_norm.max()) > blowup_limit:
            termination = Termination("blow_up", "max_A_exceeded")
        elif cache.min_angle < MIN_ANGLE_LIMIT:
            termination = Termination("blow_up", "mesh_degeneracy")
        elif (
            state.initial_traceless_l2 > 0
            and _traceless_l2(cache) < config.roundness_tol * state.initial_traceless_l2
        ):
            termination = Termination("converged")
        elif state.t >= config.t_max:
            termination = Termination("time_limit")
        else:
            try:
                dt = select_timestep(state.mesh, cache, state.h, config)
                if state.t + dt > config.t_max:
                    dt = config.t_max - state.t
                nxt = advance(state, cache, config, dt)
                if config.area_projection:
                    nxt = enforce_area_constraint(nxt)
                nxt_cache = geometry.compute_cache(nxt.mesh)
                nxt = replace(nxt, h=compute_h(nxt_cache))
            except BlowUpError as exc:
                termination = Termination("blow_up", exc.kind)
            except OrientationError:
                termination = Termination("blow_up", "orientation")
            except DegenerateGeometryError:
                termination = Termination("blow_up", "degenerate_geometry")
            except DegenerateMeanCurvatureError as exc:
                termination = Termination("blow_up", f"degenerate_H: {exc}")
        if termination is not None:
            if not recorded:
                take_snapshot(state, cache)
            break
        state, cache = nxt, nxt_cache

    series = diagnostics.TimeSeries(
        records=records,
        metadata={
            "mode": mesh.mode,
            "n_vertices": mesh.n_vertices,
            "n_faces": mesh.n_faces,
            "config": {**asdict(config), "blowup_max_A": blowup_limit},
        },
    )
    return FlowRunResult(series=series, final_state=state, termination=termination)
