"""Time integration of the surface-area-preserving curvature flow.

The normal velocity is (1 - h H) with the nonlocal coefficient
h = int H dmu / int H^2 dmu recomputed after every step (first-order
splitting of the nonlocal coupling). Because H is defined as the projection
of the discrete area gradient onto the vertex normal used in the velocity,
the discrete first variation of total area vanishes exactly at every step;
the surviving area drift is O(dt) over a run and can be removed entirely by
the optional projection step (uniform rescaling about the area centroid).
"""

import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import (
    BlowUpError,
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    OrientationError,
)
from . import diagnostics, geometry
from .mesh import TriMesh, intrinsic_dimension, validate

# smallest face corner (curve vertex) angle, in radians, before a run ends as
# blow_up(mesh_degeneracy)
MIN_ANGLE_LIMIT = 1e-3


def _number(x, kind=numbers.Real):
    return isinstance(x, kind) and not isinstance(x, bool)


# the one check of each run setting, for the library and the manifest:
# field -> (what it must be, test of its value)
_SETTING_CHECKS = {
    "stepping": ("explicit or semi-implicit", lambda x: x in ("explicit", "semi-implicit")),
    "cfl_safety": ("a number in (0, 1]", lambda x: _number(x) and 0 < x <= 1),
    "dt_max": ("a positive number", lambda x: _number(x) and x > 0),
    "area_projection": ("a bool", lambda x: isinstance(x, bool)),
    "t_max": ("a positive number", lambda x: _number(x) and x > 0),
    "roundness_tol": ("a number in (0, 1)", lambda x: _number(x) and 0 < x < 1),
    "blowup_max_A": ("a number or None", lambda x: x is None or _number(x)),
    "snapshot_every": ("an integer >= 1", lambda x: _number(x, numbers.Integral) and x >= 1),
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
        for name, (expected, ok) in _SETTING_CHECKS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {expected}, not {value!r}")


@dataclass(frozen=True)
class FlowState:
    mesh: TriMesh
    t: float = 0.0
    h: float = 0.0
    step_index: int = 0
    initial_area: float = 0.0
    initial_traceless_l2: float = 0.0
    last_projection_scale: float = 1.0
    # the implicit part of the last semi-implicit step's velocity,
    # (x' - x_explicit) / dt; None until a run's first semi-implicit step
    implicit_velocity: np.ndarray | None = field(default=None, compare=False, repr=False)


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
# column, move / gap: 1e-11 0.90 % (max_abs_A at t = 0.009), 1e-10 23 %,
# 1e-9 526 %. tests/test_flow.py repeats the check at subdivision 2.
_CG_RTOL = 1e-11


def _semi_implicit_step(mesh, cache, h, dt, guess):
    # (M + dt h L) x' = M (x + dt nu): stiff h*Laplacian part implicit, unit
    # normal transport explicit. M is the positive mixed-Voronoi diagonal and
    # L is PSD, so A is SPD: each coordinate is solved by Jacobi-preconditioned
    # CG from ``guess``.
    A = geometry.cotangent_stiffness(mesh, cache.stiffness_weight)
    diagonal = mesh._connectivity.stiffness_pattern.diagonal
    A.data *= dt * h
    A.data[diagonal] += cache.vertex_area
    jacobi = sparse.diags(1.0 / A.data[diagonal])
    rhs = cache.vertex_area[:, None] * (mesh.vertices + dt * cache.normal)
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


def advance(state, cache, config, dt):
    """One time step of size ``dt`` from a state whose cache is current.

    ``h`` is frozen within the step; the caller recomputes it from the new
    configuration (run_flow does). A semi-implicit step starts its solve from
    the explicit step plus ``dt`` times the state's ``implicit_velocity``, the
    last step's correction scaled to this step, and hands its own on.
    """
    explicit = state.mesh.vertices + dt * flow_velocity(cache, state.h)
    if config.stepping == "explicit":
        new_v, implicit = explicit, None
    else:
        guess = explicit
        if state.implicit_velocity is not None:
            guess = explicit + dt * state.implicit_velocity
        new_v = _semi_implicit_step(state.mesh, cache, state.h, dt, guess)
        implicit = (new_v - explicit) / dt
    if not np.isfinite(new_v).all():
        raise BlowUpError("nan", "non-finite vertex positions after step")
    return replace(
        state,
        mesh=state.mesh.with_vertices(new_v),
        t=state.t + dt,
        step_index=state.step_index + 1,
        last_projection_scale=1.0,
        implicit_velocity=implicit,
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
    scale = (state.initial_area / current) ** (1 / intrinsic_dimension(mesh.mode))
    if scale == 1.0:
        return replace(state, last_projection_scale=1.0)
    new_v = c + scale * (mesh.vertices - c)
    return replace(
        state,
        mesh=mesh.with_vertices(new_v),
        last_projection_scale=scale,
    )


def run_flow(mesh, config, keep_meshes=True, observer=None):
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
    these errors propagate.

    ``observer``, when given, is called as ``observer(state, cache, row)``
    once per recorded row, as the row is recorded: ``row`` is its
    :class:`DiagnosticsRecord` and ``cache`` the geometry pass of
    ``state.mesh`` that the run took. What it raises propagates.

    Returns
    -------
    FlowRunResult
        Time series, final state, termination reason, and (with
        ``keep_meshes``) the snapshot meshes aligned with the series records.
    """
    report = validate(mesh)
    if not (report.is_closed and report.is_oriented and report.is_vertex_manifold):
        raise BlowUpError("invalid_input", "mesh is not a closed oriented manifold")

    cache = geometry.compute_cache(mesh)
    state = FlowState(
        mesh=mesh,
        h=compute_h(cache),
        initial_area=cache.total_area,
        initial_traceless_l2=_traceless_l2(cache),
    )
    blowup_limit = config.blowup_max_A
    if blowup_limit is None:
        blowup_limit = 1e3 * max(float(cache.second_form_norm.max()), 1e-300)
    records = []
    meshes = []
    termination = None

    def take_snapshot(state, cache):
        records.append(diagnostics.record_snapshot(state, cache))
        if keep_meshes:
            meshes.append(state.mesh)
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
    return FlowRunResult(
        series=series,
        final_state=state,
        termination=termination,
        snapshot_meshes=meshes if keep_meshes else [],
    )
