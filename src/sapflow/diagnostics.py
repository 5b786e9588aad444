"""Monitored quantities, conservation residuals, decay fits and summaries.

Each snapshot row records the full set of monitored scalars (conserved area,
enclosed volume, the nonlocal coefficient, curvature integrals and suprema,
the roundness deficit and its ingredients). Post-processing verifies the
flow's differential identities as finite-difference residuals, fits
exponential decay rates, and evaluates the explicit decay-rate lower bound
delta = 1 / (4 n Lambda1^2 |M0|) from run-measured constants.
"""

import csv
import io
import json
from dataclasses import dataclass, fields as dc_fields
from math import isfinite, nan

import numpy as np

from .errors import (
    DegenerateFitError,
    NonPositiveSamplesError,
    WindowTooSmallError,
)
from . import geometry
from .mesh import FLOAT_FMT, intrinsic_dimension


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    area: float
    volume: float
    h: float
    int_H: float
    int_H2: float
    min_H: float
    max_H: float
    max_abs_A: float
    max_traceless: float
    int_traceless_sq: float
    max_grad_H: float
    sup_one_minus_hH: float
    diameter_est: float
    int_Hpow: float
    min_angle: float
    area_scale_applied: float


RECORD_FIELDS = [f.name for f in dc_fields(DiagnosticsRecord)]


@dataclass
class TimeSeries:
    records: list
    metadata: dict

    def __len__(self):
        return len(self.records)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def subset(self, rows):
        """The series of the rows ``rows``, in that order, on the same metadata."""
        return TimeSeries(records=[self.records[r] for r in rows], metadata=self.metadata)

    def to_csv(self, path_or_buffer):
        """Write one header row plus one row per snapshot, 17 significant digits."""
        if hasattr(path_or_buffer, "write"):
            self._write_csv(path_or_buffer)
        else:
            with open(path_or_buffer, "w", newline="", encoding="ascii") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for r in self.records:
            writer.writerow([FLOAT_FMT % getattr(r, name) for name in RECORD_FIELDS])

    @classmethod
    def from_csv(cls, path_or_buffer, metadata=None):
        """Read :meth:`to_csv` output; a row without one field per column, such
        as the cut last row of a killed write, or with a field that is not a
        finite number raises ``ValueError``."""
        if hasattr(path_or_buffer, "read"):
            rows = list(csv.reader(path_or_buffer))
        else:
            with open(path_or_buffer, newline="", encoding="ascii") as fh:
                rows = list(csv.reader(fh))
        if not rows or rows[0] != RECORD_FIELDS:
            raise ValueError("CSV header does not match the diagnostics schema")
        records = []
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(RECORD_FIELDS):
                raise ValueError(
                    f"series line {line} has {len(row)} fields, not {len(RECORD_FIELDS)}"
                )
            values = []
            for name, cell in zip(RECORD_FIELDS, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(nan)
                if not isfinite(values[-1]):
                    raise ValueError(
                        f"series line {line}, column {name}: {cell!r} is not a finite number"
                    )
            records.append(DiagnosticsRecord(*values))
        t = np.array([r.t for r in records])
        if len(t) > 1 and not (np.diff(t) > 0).all():
            raise ValueError("snapshot times must be strictly increasing")
        return cls(records=records, metadata=metadata or {})


def record_snapshot(state, cache):
    """Assemble one diagnostics row from a state and its geometry cache."""
    mesh = state.mesh
    n = intrinsic_dimension(mesh.mode)
    va = cache.vertex_area
    H = cache.mean_curvature
    one_minus = 1.0 - state.h * H
    return DiagnosticsRecord(
        t=state.t,
        area=cache.total_area,
        volume=cache.volume,
        h=state.h,
        int_H=geometry.surface_integral(va, H),
        int_H2=geometry.surface_integral(va, H**2),
        min_H=float(H.min()),
        max_H=float(H.max()),
        max_abs_A=float(cache.second_form_norm.max()),
        max_traceless=float(cache.traceless_norm.max()),
        int_traceless_sq=geometry.surface_integral(va, cache.traceless_norm**2),
        max_grad_H=float(cache.grad_H_norm.max()),
        sup_one_minus_hH=float(np.abs(one_minus).max()),
        diameter_est=geometry.diameter_estimate(mesh, cache.edge_length),
        int_Hpow=geometry.surface_integral(va, np.abs(H) ** (n - 1)),
        min_angle=cache.min_angle,
        area_scale_applied=state.last_projection_scale,
    )


@dataclass
class ResidualReport:
    """Finite-difference residuals of the flow's evolution laws, per snapshot
    interval (the area identity's residual is :func:`area_identity_residuals`,
    from the rows alone).

    h_ode : per-interval residual of the evolution law for h.
    H2_ode : per-interval residual of the evolution law for int H^2 dmu.
    """

    h_ode: np.ndarray
    H2_ode: np.ndarray


def area_identity_residuals(series):
    """|int H (1 - h H) dmu| / (1 + |int H^2 dmu|) per snapshot (from columns)."""
    int_H = series.column("int_H")
    int_H2 = series.column("int_H2")
    h = series.column("h")
    return np.abs(int_H - h * int_H2) / (1.0 + np.abs(int_H2))


def _ode_rhs(cache, h, int_H2):
    """Evolution-law right-hand sides of h and int H^2 dmu at one snapshot,
    from the geometry cache of its mesh and the ``h`` and ``int_H2`` of its
    row."""
    va = cache.vertex_area
    H = cache.mean_curvature
    one = 1.0 - h * H
    A2 = cache.second_form_norm**2
    g2 = geometry.surface_integral(va, cache.grad_H_norm**2)
    rhs_h = (
        geometry.surface_integral(va, -(1.0 - 2.0 * h * H) * one * A2 + H**2 * one**2)
        + 2.0 * h**2 * g2
    ) / int_H2
    rhs_H2 = (
        geometry.surface_integral(va, H**3 * one - 2.0 * one * H * A2)
        - 2.0 * h * g2
    )
    return rhs_h, rhs_H2


def ode_residuals(series, rhs):
    """ODE residuals over the snapshots of a run, from the right-hand sides.

    The ODE residuals compare the finite difference across each snapshot
    interval with the evolution-law right-hand side evaluated at the left
    snapshot: ``rhs[k]`` is the pair ``_ode_rhs`` gives at row k, for every
    row but the last. Both endpoints take ``h`` and ``int_H2`` from their
    rows. Projection scale factors are compensated exactly by homogeneity: a
    rescaling by ``s`` maps h to s h and int H^2 dmu to s^(n-2) int H^2 dmu,
    with n from ``series.metadata["mode"]``, so the right endpoint is taken
    back to its pre-projection state and the constraint repair cannot mask
    scheme error.
    """
    records = series.records
    if len(rhs) != max(len(records) - 1, 0):
        raise ValueError("need one right-hand side per snapshot interval")
    n = intrinsic_dimension(series.metadata.get("mode"))
    r_h, r_H2 = [], []
    for rec_l, rec_r, (rhs_h, rhs_H2) in zip(records, records[1:], rhs):
        s = rec_r.area_scale_applied
        h_pre = rec_r.h / s
        int_H2_pre = rec_r.int_H2 * s ** (2 - n)
        dt = rec_r.t - rec_l.t
        r_h.append(abs((h_pre - rec_l.h) / dt - rhs_h))
        r_H2.append(abs((int_H2_pre - rec_l.int_H2) / dt - rhs_H2))
    return ResidualReport(h_ode=np.array(r_h), H2_ode=np.array(r_H2))


def identity_residuals(series, meshes):
    """:func:`ode_residuals` with the right-hand sides taken from the
    snapshot meshes: one geometry pass per interval, on its left mesh, and
    none on the last mesh.

    Parameters
    ----------
    series : TimeSeries
    meshes : iterable of TriMesh
        Snapshot meshes aligned with ``series.records``, such as a generator
        that loads each in turn: each mesh is passed over as it comes and not
        kept, so no more than one is held here at a time. A ``ValueError``
        follows the last mesh when their count is not the records'.
    """
    records, rhs, count = series.records, [], 0
    for count, mesh in enumerate(meshes, 1):
        if count < len(records):  # the left mesh of interval count - 1
            rec = records[count - 1]
            rhs.append(_ode_rhs(geometry.compute_cache(mesh), rec.h, rec.int_H2))
    if count != len(records):
        raise ValueError("need one mesh per snapshot record")
    return ode_residuals(series, rhs)


@dataclass(frozen=True)
class RateFit:
    rate: float
    intercept: float
    r_squared: float


def fit_exponential_rate(series, field, window=None):
    """Least-squares line fit of log(field) against t; rate is minus the slope.

    Parameters
    ----------
    series : TimeSeries
    field : str
        Record field name, e.g. ``"int_traceless_sq"``.
    window : (float, float) | None
        Time window; defaults to [0.2 T, 0.8 T] to skip the initial transient
        and the discretization floor.

    Raises
    ------
    NonPositiveSamplesError
        Any sample in the window is not strictly positive.
    WindowTooSmallError
        Fewer than 5 samples in the window.
    """
    t = series.column("t")
    y = series.column(field)
    if window is None:
        t_end = t[-1]
        window = (0.2 * t_end, 0.8 * t_end)
    mask = (t >= window[0]) & (t <= window[1])
    if mask.sum() < 5:
        raise WindowTooSmallError(
            f"{int(mask.sum())} samples in window [{window[0]:g}, {window[1]:g}]"
        )
    t, y = t[mask], y[mask]
    if (y <= 0).any():
        raise NonPositiveSamplesError(f"field {field!r} not strictly positive on window")
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    pred = slope * t + intercept
    ss_res = float(((logy - pred) ** 2).sum())
    ss_tot = float(((logy - logy.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(rate=-float(slope), intercept=float(intercept), r_squared=r2)


def decay_rate_lower_bound(series):
    """Conservative exponential decay-rate lower bound from measured constants.

    Lambda1 is the largest of max |A|, h, 1/h, int H^2 dmu and its inverse
    over all snapshots; the bound is 1 / (4 n Lambda1^2 area(0)), with n = 1
    when ``series.metadata["mode"]`` is ``"curve"`` and 2 otherwise.
    """
    if not series.records:
        raise ValueError("empty series")
    candidates = np.concatenate(
        [
            series.column("max_abs_A"),
            series.column("h"),
            1.0 / series.column("h"),
            series.column("int_H2"),
            1.0 / series.column("int_H2"),
        ]
    )
    lam1 = float(candidates.max())
    n = intrinsic_dimension(series.metadata.get("mode"))
    return 1.0 / (4.0 * n * lam1**2 * series.records[0].area)


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    radius: float
    rms_residual: float


def best_fit_sphere(mesh_or_points):
    """Algebraic least-squares sphere fit plus one geometric refinement pass.

    The algebraic stage solves the linear system from |x|^2 = 2 c.x + rho;
    the refinement takes one Gauss-Newton step on the geometric residuals
    |x - c| - r. Works on TriMesh (surface) or an (n, 3) point array.

    Raises
    ------
    DegenerateFitError
        Fewer than 4 points or (near-)coplanar data.
    """
    pts = getattr(mesh_or_points, "vertices", mesh_or_points)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise DegenerateFitError("need at least 4 points in R^3")
    mean = pts.mean(axis=0)
    q = pts - mean
    A = np.hstack([2.0 * q, np.ones((len(q), 1))])
    b = np.einsum("ij,ij->i", q, q)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 4:
        raise DegenerateFitError("coplanar points: sphere fit is rank-deficient")
    c = sol[:3]
    r2 = sol[3] + c @ c
    if r2 <= 0:
        raise DegenerateFitError("algebraic fit produced non-positive radius")
    r = float(np.sqrt(r2))
    # one Gauss-Newton pass on (|x - c| - r)
    d = q - c
    dist = np.linalg.norm(d, axis=1)
    if (dist == 0).any():
        raise DegenerateFitError("fit centre coincides with a data point")
    J = np.hstack([-d / dist[:, None], -np.ones((len(q), 1))])
    update, *_ = np.linalg.lstsq(J, -(dist - r), rcond=None)
    c = c + update[:3]
    r = r + float(update[3])
    dist = np.linalg.norm(q - c, axis=1)
    rms = float(np.sqrt(((dist - r) ** 2).mean()))
    return SphereFit(center=c + mean, radius=r, rms_residual=rms)


def mean_convexity_onset(series):
    """Earliest snapshot time with min H > 0 there and at all later snapshots.

    Returns ``None`` if the series never becomes and stays mean convex.
    """
    min_H = series.column("min_H")
    positive = min_H > 0
    if not positive.any():
        return None
    # last index where positivity fails, then the first snapshot after it
    failing = np.nonzero(~positive)[0]
    start = failing[-1] + 1 if len(failing) else 0
    if start >= len(min_H):
        return None
    return float(series.records[start].t)


def make_summary(series, final_mesh=None, termination=None, residuals=None):
    """Build the run summary dict (termination, decay fit, bound, sphere fit).

    ``residuals`` is the :class:`ResidualReport` of the persisted snapshot
    rows (:func:`identity_residuals` from their meshes, or
    :func:`ode_residuals` from the run's own right-hand sides); it gives the
    maxima of the ODE residuals. ``final_mesh`` is the mesh of the last row,
    whose best-fit sphere the summary reports. Without them those entries are
    null. The area residual always covers every row of ``series``. Fields
    that cannot be computed (e.g. a decay fit on a non-positive series) are
    null rather than errors, so summaries exist for every run.
    """
    out = {
        "termination": str(termination) if termination is not None else None,
        "fitted_rate": None,
        "R2": None,
        "delta_paper": decay_rate_lower_bound(series),
        "final_sphere": None,
        "mean_convexity_onset": mean_convexity_onset(series),
        "max_residuals": {
            "area": float(area_identity_residuals(series).max()),
            "h_ode": None,
            "H2_ode": None,
        },
    }
    try:
        fit = fit_exponential_rate(series, "int_traceless_sq")
        out["fitted_rate"] = fit.rate
        out["R2"] = fit.r_squared
    except (NonPositiveSamplesError, WindowTooSmallError):
        pass
    if residuals is not None and len(residuals.h_ode):
        out["max_residuals"]["h_ode"] = float(residuals.h_ode.max())
        out["max_residuals"]["H2_ode"] = float(residuals.H2_ode.max())
    if final_mesh is not None and final_mesh.mode == "surface":
        sphere = best_fit_sphere(final_mesh)
        out["final_sphere"] = {
            "center": [float(x) for x in sphere.center],
            "radius": sphere.radius,
            "residual": sphere.rms_residual,
        }
    return out


def write_summary(summary, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def series_to_csv_bytes(series):
    buf = io.StringIO()
    series.to_csv(buf)
    return buf.getvalue().encode("ascii")
