import numpy as np
import pytest

from rotorlab.invariants import (
    GaugeJet,
    capital_invariants,
    gauge_jet_transform,
    identity_checks,
    iota,
    phase_rotate_jet,
    random_kinematic_jet,
    special_gauge_jet,
)
from rotorlab.minkowski import DomainError


def test_random_jets_satisfy_constraints():
    rng = np.random.default_rng(0)
    for _ in range(30):
        random_kinematic_jet(rng).validate()
        special_gauge_jet(rng).validate()


def test_iota_gauge_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        J = random_kinematic_jet(rng)
        base = iota(J)
        G = GaugeJet(alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2),
                     alphadot=rng.uniform(-1, 1), betadot=rng.uniform(-1, 1))
        shifted = iota(gauge_jet_transform(J, G))
        assert np.allclose(shifted, base, rtol=1e-10,
                           atol=1e-10 * max(np.abs(base).max(), 1.0))


def test_phase_rotation_acts_as_doublet():
    rng = np.random.default_rng(3)
    for _ in range(20):
        J = random_kinematic_jet(rng)
        delta = rng.uniform(-3, 3)
        base = iota(J)
        rot = iota(phase_rotate_jet(J, delta))
        c, s = np.cos(delta), np.sin(delta)
        assert rot[0] == pytest.approx(c * base[0] - s * base[1], rel=1e-10, abs=1e-12)
        assert rot[1] == pytest.approx(s * base[0] + c * base[1], rel=1e-10, abs=1e-12)
        assert np.allclose(rot[2:], base[2:], rtol=1e-10, atol=1e-12)


def test_time_dependent_phase_shifts_iota6():
    # the unit-norm constraint a.a = -1 forces the rate term to enter with
    # a minus sign: iota6 -> iota6 - iota3 * deltadot
    rng = np.random.default_rng(4)
    for _ in range(20):
        J = random_kinematic_jet(rng)
        deltadot = rng.uniform(-2, 2)
        base = iota(J)
        rot = iota(phase_rotate_jet(J, 0.0, deltadot))
        assert rot[5] == pytest.approx(base[5] - base[2] * deltadot,
                                       rel=1e-10, abs=1e-12)


def test_identity_checks_vanish():
    rng = np.random.default_rng(5)
    for _ in range(30):
        J = random_kinematic_jet(rng)
        for name, val in identity_checks(J).items():
            assert abs(val) < 1e-10 * max(J.scale() ** 2, 1.0), name
    for _ in range(10):
        J = special_gauge_jet(rng)
        res = identity_checks(J, special_gauge=True)
        assert "am.bk-ak.bm" in res
        for name, val in res.items():
            assert abs(val) < 1e-10 * max(J.scale() ** 2, 1.0), name


def test_special_gauge_required_for_extra_identity():
    rng = np.random.default_rng(6)
    J = random_kinematic_jet(rng)
    G = GaugeJet(alpha=1.0, beta=0.5)
    shifted = gauge_jet_transform(J, G)
    with pytest.raises(DomainError):
        identity_checks(shifted, special_gauge=True)


def test_capital_invariants_at_rotator_point(rotator_jet):
    rotator_jet.validate()
    I = capital_invariants(rotator_jet)
    assert I[0] == pytest.approx(0.75)          # xdot.xdot
    assert I[1] == pytest.approx(4.0)           # -kdot.kdot / (k.xdot)^2
    assert I[3] == pytest.approx(0.0, abs=1e-14)
    assert I[4] == pytest.approx(1.0 / np.sqrt(3.0))


