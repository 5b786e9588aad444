"""Time integration of the surface-area-preserving curvature flow.

The normal velocity is (1 - h H) with the nonlocal coefficient
h = int H dmu / int H^2 dmu recomputed after every step (first-order
splitting of the nonlocal coupling). Because H is defined as the projection
of the discrete area gradient onto the vertex normal used in the velocity,
the discrete first variation of total area vanishes exactly at every step;
the surviving area drift is O(dt) over a run and can be removed entirely by
the optional projection step (uniform rescaling about the area centroid).
"""

from dataclasses import dataclass, replace, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import (
    BlowUpError,
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    OrientationError,
)
from . import geometry
from .mesh import TriMesh, validate


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
    min_angle_limit: float = 1e-3  # radians; mesh-degeneracy guard

    def __post_init__(self):
        if self.stepping not in ("explicit", "semi-implicit"):
            raise ValueError(f"unknown stepping mode {self.stepping!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.dt_max <= 0 or self.t_max <= 0 or self.snapshot_every < 1:
            raise ValueError("dt_max, t_max and snapshot_every must be positive")
        if not (0.0 < self.roundness_tol < 1.0):
            raise ValueError("roundness_tol must lie in (0, 1)")


@dataclass(frozen=True)
class FlowState:
    mesh: TriMesh
    t: float = 0.0
    h: float = 0.0
    step_index: int = 0
    initial_area: float = 0.0
    initial_traceless_l2: float = 0.0
    last_projection_scale: float = 1.0


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
    snapshot_meshes: list = field(default_factory=list)


def intrinsic_dimension(mesh):
    return 1 if mesh.mode == "curve" else 2


def compute_h(mesh, cache):
    """Nonlocal coefficient int H dmu / int H^2 dmu.

    Raises
    ------
    DegenerateMeanCurvatureError
        int H^2 dmu below 1e-14 times the total area; the flow is undefined.
    """
    int_H = geometry.surface_integral(mesh, cache.vertex_area, cache.mean_curvature)
    int_H2 = geometry.surface_integral(
        mesh, cache.vertex_area, cache.mean_curvature**2
    )
    if int_H2 < 1e-14 * cache.total_area:
        raise DegenerateMeanCurvatureError(
            f"int H^2 dmu = {int_H2:.3e} is numerically zero"
        )
    return int_H / int_H2


def flow_velocity(mesh, cache, h):
    """Per-vertex velocity (1 - h H) nu."""
    return (1.0 - h * cache.mean_curvature)[:, None] * cache.normal


def select_timestep(mesh, cache, h, config):
    """Stable step size for the configured stepping mode.

    Explicit: parabolic bound cfl * min_edge^2 / (4 h), capped at dt_max.
    Semi-implicit: displacement bound cfl * min_edge / max |1 - h H|, capped
    at dt_max (the stiff part is unconditionally stable).
    """
    e_min = float(mesh.edge_lengths().min())
    if config.stepping == "explicit":
        dt = config.cfl_safety * e_min**2 / (4.0 * abs(h))
    else:
        vmax = float(np.abs(1.0 - h * cache.mean_curvature).max())
        dt = config.cfl_safety * e_min / max(vmax, 1e-300)
    dt = min(dt, config.dt_max)
    if dt < 1e-12:
        raise BlowUpError("dt_underflow", f"selected dt = {dt:.3e}")
    return dt


# relative residual at which each coordinate's CG solve stops (atol = 0)
_CG_RTOL = 1e-12


def _semi_implicit_step(mesh, cache, h, dt):
    # (M + dt h L) x' = M (x + dt nu): stiff h*Laplacian part implicit, unit
    # normal transport explicit. M is the positive mixed-Voronoi diagonal and
    # L is PSD, so A is SPD: each coordinate is solved by Jacobi-preconditioned
    # CG, warm-started from the explicit step.
    A = geometry.cotangent_stiffness(mesh, cache.stiffness_weight)
    diagonal = mesh._stiffness_pattern.diagonal
    A.data *= dt * h
    A.data[diagonal] += cache.vertex_area
    jacobi = sparse.diags(1.0 / A.data[diagonal])
    rhs = cache.vertex_area[:, None] * (mesh.vertices + dt * cache.normal)
    guess = mesh.vertices + dt * flow_velocity(mesh, cache, h)
    out = np.empty_like(rhs)
    for k in range(rhs.shape[1]):
        out[:, k], info = spla.cg(
            A, rhs[:, k], x0=guess[:, k], rtol=_CG_RTOL, atol=0.0, M=jacobi
        )
        if info != 0:
            raise BlowUpError(
                "linear_solve", f"CG on coordinate {k} did not converge (info={info})"
            )
    return out


def advance(state, cache, config, dt=None):
    """One time step from a state whose cache is current.

    ``dt=None`` selects the step size via :func:`select_timestep`; ``dt=0``
    returns the state unchanged. ``h`` is frozen within the step and must be
    recomputed by the caller afterwards (run_flow does).
    """
    if dt is None:
        dt = select_timestep(state.mesh, cache, state.h, config)
    if dt == 0.0:
        return state
    if config.stepping == "explicit":
        new_v = state.mesh.vertices + dt * flow_velocity(state.mesh, cache, state.h)
    else:
        new_v = _semi_implicit_step(state.mesh, cache, state.h, dt)
    if not np.isfinite(new_v).all():
        raise BlowUpError("nan", "non-finite vertex positions after step")
    return replace(
        state,
        mesh=state.mesh.with_vertices(new_v),
        t=state.t + dt,
        step_index=state.step_index + 1,
        last_projection_scale=1.0,
    )


def enforce_area_constraint(state):
    """Rescale uniformly about the area centroid so area equals initial_area.

    The area is the sum of the face areas (segment lengths of a curve), which
    the mixed-Voronoi vertex weights partition. The scale exponent is 1/n with
    n the intrinsic dimension (area ~ scale^2, length ~ scale). The applied
    factor is recorded on the state for the diagnostics to compensate.
    """
    mesh = state.mesh
    current, c = geometry._area_centroid(mesh, geometry._configuration(mesh))
    scale = (state.initial_area / current) ** (1 / intrinsic_dimension(mesh))
    if scale == 1.0:
        return replace(state, last_projection_scale=1.0)
    new_v = c + scale * (mesh.vertices - c)
    return replace(
        state,
        mesh=mesh.with_vertices(new_v),
        last_projection_scale=scale,
    )


def run_flow(mesh, config, keep_meshes=True):
    """Evolve a mesh until convergence, the time limit, or blow-up.

    Loop: h -> snapshot (at cadence, and always on the final state) -> dt
    -> advance -> optional area projection -> fields of the new state. The
    roundness stopping rule compares int |Adev|^2 dmu at snapshots against
    ``roundness_tol`` times its initial value. A ``DegenerateGeometryError``
    or ``OrientationError`` in the step, the projection or the new fields
    ends the run as ``blow_up(degenerate_geometry)`` or
    ``blow_up(orientation)`` at the last valid state; on the input mesh it
    propagates.

    Returns
    -------
    FlowRunResult
        Time series, final state, termination reason, and (optionally) the
        snapshot meshes aligned with the series records.
    """
    from . import diagnostics

    report = validate(mesh)
    if not (report.is_closed and report.is_oriented and report.is_vertex_manifold):
        raise BlowUpError("invalid_input", "mesh is not a closed oriented manifold")

    records = []
    meshes = []
    state = FlowState(mesh=mesh)
    blowup_limit = config.blowup_max_A
    termination = None

    def take_snapshot(state, cache):
        records.append(diagnostics.record_snapshot(state, cache))
        if keep_meshes:
            meshes.append(state.mesh)

    cache = geometry.compute_cache(state.mesh)
    while True:
        try:
            h = compute_h(state.mesh, cache)
        except DegenerateMeanCurvatureError as exc:
            termination = Termination("blow_up", f"degenerate_H: {exc}")
            break
        state = replace(state, h=h)

        recorded = state.step_index % config.snapshot_every == 0
        if recorded:
            take_snapshot(state, cache)
        int_ts = geometry.surface_integral(
            state.mesh, cache.vertex_area, cache.traceless_norm**2
        )
        if state.step_index == 0:
            state = replace(
                state,
                initial_area=cache.total_area,
                initial_traceless_l2=int_ts,
            )
            if blowup_limit is None:
                blowup_limit = 1e3 * max(float(cache.second_form_norm.max()), 1e-300)

        if h <= 0:
            termination = Termination("blow_up", "nonpositive_h")
        elif float(cache.second_form_norm.max()) > blowup_limit:
            termination = Termination("blow_up", "max_A_exceeded")
        elif cache.min_angle < config.min_angle_limit:
            termination = Termination("blow_up", "mesh_degeneracy")
        elif (
            state.initial_traceless_l2 > 0
            and int_ts < config.roundness_tol * state.initial_traceless_l2
        ):
            termination = Termination("converged")
        elif state.t >= config.t_max:
            termination = Termination("time_limit")
        else:
            try:
                dt = select_timestep(state.mesh, cache, h, config)
                if state.t + dt > config.t_max:
                    dt = config.t_max - state.t
                nxt = advance(state, cache, config, dt)
                if config.area_projection:
                    nxt = enforce_area_constraint(nxt)
                nxt_cache = geometry.compute_cache(nxt.mesh)
            except BlowUpError as exc:
                termination = Termination("blow_up", exc.kind)
            except OrientationError:
                termination = Termination("blow_up", "orientation")
            except DegenerateGeometryError:
                termination = Termination("blow_up", "degenerate_geometry")
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
            "config": {
                "stepping": config.stepping,
                "cfl_safety": config.cfl_safety,
                "dt_max": config.dt_max,
                "area_projection": config.area_projection,
                "t_max": config.t_max,
                "roundness_tol": config.roundness_tol,
                "blowup_max_A": blowup_limit,
                "snapshot_every": config.snapshot_every,
            },
        },
    )
    return FlowRunResult(
        series=series,
        final_state=state,
        termination=termination,
        snapshot_meshes=meshes if keep_meshes else [],
    )
