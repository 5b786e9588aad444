import numpy as np
import pytest

from sapflow import (
    FlowConfig,
    NonPositiveSamplesError,
    linearized_mode_rates,
    refinement_study,
    sphere_reference,
)
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


def test_refinement_study_orders():
    study = refinement_study(levels=(2, 3, 4))
    assert [q for q in study.errors] == ["area", "volume", "max_H_err", "max_traceless"]
    area_orders = study.orders["area"]
    assert all(abs(o - 2.0) < 0.3 for o in area_orders)
    assert all(o >= 1.0 for o in study.orders["max_H_err"])
    # the traceless estimate is at the rounding floor on exact icospheres
    assert max(study.errors["max_traceless"]) < 1e-6
    table = study.to_table()
    assert len(table["rows"]) == 3


def test_refinement_study_needs_three_levels():
    with pytest.raises(ValueError):
        refinement_study(levels=(2, 3))


def test_mode_rate_amplitude_independence_quick():
    rates = [
        linearized_mode_rates(
            1.0, 2, amp, 2,
            FlowConfig(stepping="explicit", t_max=0.9, snapshot_every=5),
        ).rate
        for amp in (0.02, 0.01)
    ]
    assert abs(rates[0] - rates[1]) / rates[1] < 0.05


def test_mode_rate_guards():
    with pytest.raises(NonPositiveSamplesError):
        linearized_mode_rates(1.0, 2, 0.0, 2)
    with pytest.raises(ValueError, match="linear regime"):
        linearized_mode_rates(1.0, 2, 0.5, 2)


def test_mode_rate_deterministic():
    config = FlowConfig(stepping="explicit", t_max=0.9, snapshot_every=5)
    a = linearized_mode_rates(1.0, 2, 0.02, 2, config)
    b = linearized_mode_rates(1.0, 2, 0.02, 2, config)
    assert a.rate == b.rate
