import numpy as np
import pytest

from sapflow import sphere_mode_rate, sphere_reference
from sapflow.oracle import ellipsoid_area_reference, ellipsoid_volume_reference


def test_sphere_reference_surface():
    ref = sphere_reference(1.0, 2)
    assert ref.H_exact == 2.0 and ref.h_exact == 0.5
    assert ref.area_exact == pytest.approx(4 * np.pi)
    assert ref.volume_exact == pytest.approx(4 * np.pi / 3)
    ref2 = sphere_reference(2.0, 2)
    assert ref2.H_exact == 1.0 and ref2.h_exact == 2.0 / 2


def test_sphere_reference_circle():
    ref = sphere_reference(1.0, 1)
    assert ref.H_exact == 1.0 and ref.h_exact == 1.0
    assert ref.area_exact == pytest.approx(2 * np.pi)
    assert ref.volume_exact == pytest.approx(np.pi)


def test_sphere_reference_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sphere_reference(-1.0)
    with pytest.raises(ValueError):
        sphere_reference(1.0, 3)


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: sphere_reference(np.inf), "radius"),
        (lambda: sphere_reference(np.nan), "radius"),
        (lambda: sphere_reference(True), "radius"),
        (lambda: sphere_reference(1.0, 2.0), "n"),
        (lambda: ellipsoid_area_reference(-1.0, 1.0, 1.0), "axes"),
        (lambda: ellipsoid_volume_reference(-1.0, 1.0, 1.0), "axes"),
        (lambda: ellipsoid_area_reference(1.0, np.inf, 1.0), "axes"),
        (lambda: sphere_mode_rate(2, np.inf), "radius"),
        (lambda: sphere_mode_rate(2, np.nan), "radius"),
        (lambda: sphere_mode_rate(2, 1.0, 3), "n"),
        (lambda: sphere_mode_rate(2.0, 1.0), "degree"),
        (lambda: sphere_mode_rate(1, 1.0), "degree"),
    ],
    ids=["radius-inf", "radius-nan", "radius-bool", "n-float", "area-axes", "volume-axes",
         "area-axes-inf", "rate-radius-inf", "rate-radius-nan", "rate-n", "rate-degree-float",
         "rate-degree-1"],
)
def test_references_check_their_arguments_by_the_input_rules(call, key):
    # sphere_reference(inf) gave radius inf and (True) the unit sphere, and
    # the ellipsoid references of a negative semi-axis 4 pi and -4.19
    with pytest.raises(ValueError, match=f"^{key} must be"):
        call()


def test_ellipsoid_quadrature_matches_sphere():
    assert ellipsoid_area_reference(1.0, 1.0, 1.0) == pytest.approx(
        4 * np.pi, rel=1e-10
    )
    assert ellipsoid_area_reference(2.0, 2.0, 2.0) == pytest.approx(
        16 * np.pi, rel=1e-10
    )
    assert ellipsoid_volume_reference(1.0, 1.0, 2.0) == pytest.approx(
        8 * np.pi / 3
    )


def test_sphere_mode_rate_values():
    # 2 (l(l+n-1) - n) / (n R): the deficit's rate, twice the mode's
    assert [sphere_mode_rate(l, 1.0) for l in (2, 3, 4)] == [4.0, 10.0, 18.0]
    assert [sphere_mode_rate(l, 2.0) for l in (2, 3, 4)] == [2.0, 5.0, 9.0]
    # the curve's cos(2 theta) mode
    assert sphere_mode_rate(2, 1.0, n=1) == 6.0
