"""Independent ground-truth references for validating the discrete machinery.

Analytic round-sphere values, mesh-refinement convergence studies against
them, a quadrature reference for ellipsoid area, and a brute-force measured
decay rate for single spherical-harmonic perturbation modes (the empirical
oracle for the exponential-decay claims).
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import NonPositiveSamplesError
from . import diagnostics, flow, geometry
from .mesh import SphericalHarmonicBump, gen_icosphere, gen_perturbed_sphere


@dataclass(frozen=True)
class SphereReference:
    """Exact quantities of the round n-sphere of given radius (n = 1 or 2)."""

    radius: float
    n: int
    H_exact: float
    h_exact: float
    area_exact: float
    volume_exact: float


def sphere_reference(radius, n=2):
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n not in (1, 2):
        raise ValueError("n must be 1 (curves) or 2 (surfaces)")
    if n == 2:
        area = 4.0 * pi * radius**2
        volume = 4.0 * pi * radius**3 / 3.0
    else:
        area = 2.0 * pi * radius  # length of the circle
        volume = pi * radius**2  # enclosed planar area
    return SphereReference(
        radius=float(radius),
        n=n,
        H_exact=n / radius,
        h_exact=radius / n,
        area_exact=area,
        volume_exact=volume,
    )


def ellipsoid_area_reference(a, b, c, n_theta=256, n_phi=512):
    """Ellipsoid surface area by Gauss-Legendre x trapezoid quadrature.

    Computed at runtime so derived reference values stay reproducible from
    within the repository; accurate to ~1e-12 relative at default orders.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)  # nodes in cos(theta), weight absorbs sin(theta)
    phi = 2.0 * pi * (np.arange(n_phi) + 0.5) / n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(T), np.cos(T)
    # |r_theta x r_phi| / sin(theta)
    integrand = st * np.sqrt(
        (b * c * np.cos(P)) ** 2 + (a * c * np.sin(P)) ** 2 + (a * b * ct / st) ** 2
    )
    return float((integrand * w[:, None]).sum() * (2.0 * pi / n_phi))


def ellipsoid_volume_reference(a, b, c):
    return 4.0 * pi * a * b * c / 3.0


@dataclass
class ConvergenceStudy:
    levels: list
    errors: dict  # quantity -> per-level error list
    orders: dict  # quantity -> per-refinement estimated order list

    def to_table(self):
        rows = []
        for i, lvl in enumerate(self.levels):
            row = {"level": lvl}
            for q, errs in self.errors.items():
                row[q] = errs[i]
            rows.append(row)
        return {"rows": rows, "orders": self.orders}


def refinement_study(levels):
    """Per-level errors and estimated orders for the discrete operators.

    Studies unit icospheres at the given subdivision levels against the
    analytic sphere reference. Quantities: total area, enclosed volume,
    max |H - H_exact|, max |Adev|. Orders are log2 ratios of successive
    errors; at least 3 levels are required.
    """
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    ref = sphere_reference(1.0)
    errors = {"area": [], "volume": [], "max_H_err": [], "max_traceless": []}
    for lvl in levels:
        cache = geometry.compute_cache(gen_icosphere(1.0, (0.0, 0.0, 0.0), lvl))
        errors["area"].append(abs(cache.total_area - ref.area_exact))
        errors["volume"].append(abs(cache.volume - ref.volume_exact))
        H_err = np.abs(cache.mean_curvature - ref.H_exact)
        errors["max_H_err"].append(float(H_err.max()))
        errors["max_traceless"].append(float(cache.traceless_norm.max()))
    orders = {
        q: [
            float(np.log2(errs[i] / errs[i + 1])) if errs[i + 1] > 0 else float("inf")
            for i in range(len(errs) - 1)
        ]
        for q, errs in errors.items()
    }
    return ConvergenceStudy(levels=levels, errors=errors, orders=orders)


@dataclass(frozen=True)
class ModeRate:
    degree: int
    amplitude: float
    rate: float
    r_squared: float


def linearized_mode_rates(radius, degree, amplitude, subdivisions, config=None):
    """Measured decay rate of int |Adev|^2 dmu for one harmonic mode.

    Runs the full flow from a sphere perturbed by the (degree, 0) spherical
    harmonic and fits the roundness-deficit decay. In the linear regime the
    rate is amplitude-independent and increasing in the degree, which makes
    this the empirical cross-check for the exponential-decay claims.

    Raises
    ------
    NonPositiveSamplesError
        Zero amplitude: the deficit series carries no fittable signal.
    """
    if amplitude > 0.02 * radius * 1.0000001:
        raise ValueError("amplitude outside the linear regime (> 0.02 radius)")
    if amplitude == 0.0:
        raise NonPositiveSamplesError(
            "zero perturbation produces a numerically zero decay series"
        )
    if config is None:
        config = flow.FlowConfig(
            stepping="explicit",
            t_max=1.5,
            roundness_tol=1e-8,
            snapshot_every=5,
        )
    mesh = gen_perturbed_sphere(
        radius, amplitude, SphericalHarmonicBump(degree, 0), subdivisions
    )
    result = flow.run_flow(mesh, config, keep_meshes=False)
    fit = diagnostics.fit_exponential_rate(result.series, "int_traceless_sq")
    return ModeRate(
        degree=degree,
        amplitude=amplitude,
        rate=fit.rate,
        r_squared=fit.r_squared,
    )
