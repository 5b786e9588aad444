"""Exact references for the round sphere, ellipsoid area and volume, and the
linearized decay rate of a harmonic mode, against which the discrete
machinery and the exponential-decay claims are checked.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from .mesh import _check_fields


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
    _check_fields({"radius": radius, "n": n})
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


# the quadrature orders of ellipsoid_area_reference in theta and phi
ELLIPSOID_N_THETA, ELLIPSOID_N_PHI = 256, 512


def ellipsoid_area_reference(a, b, c):
    """Ellipsoid surface area by Gauss-Legendre x trapezoid quadrature.

    Computed at runtime so derived reference values stay reproducible from
    within the repository; accurate to ~1e-12 relative at these orders.
    """
    _check_fields({"axes": (a, b, c)})
    n_phi = ELLIPSOID_N_PHI
    x, w = np.polynomial.legendre.leggauss(ELLIPSOID_N_THETA)
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
    _check_fields({"axes": (a, b, c)})
    return 4.0 * pi * a * b * c / 3.0


def sphere_mode_rate(degree, radius, n=2):
    """Exact decay rate of ``int |Adev|^2 dmu`` for the degree-l mode.

    Linearized at the round n-sphere of the given radius, a normal graph
    ``u`` of spherical-harmonic degree l >= 2 (a ``cos(l theta)`` radial
    mode on a circle) has ``delta h = 0`` and decays at
    ``(l(l+n-1) - n) / (n R)``; the deficit, quadratic in ``u``, at twice
    that: 4/R, 10/R and 18/R at l = 2, 3 and 4 on a surface, 6/R at l = 2
    on a curve. Modes 0 and 1 carry no traceless part, so l < 2 raises
    ``ValueError``.
    """
    _check_fields({"degree": degree, "radius": radius, "n": n})
    if degree < 2:
        raise ValueError(
            f"degree must be 2 or more (modes 0 and 1 have no traceless part), not {degree!r}"
        )
    return 2.0 * (degree * (degree + n - 1) - n) / (n * radius)
