from dataclasses import fields, replace

import numpy as np
import pytest

from rotorlab import jets
from rotorlab.invariants import (
    _AB_NODES,
    _AB_PINV,
    GaugeJet,
    KinematicJet,
    _condition_matrix,
    _features,
    _shifted,
    capital_invariants,
    draw_kinematic_path,
    gauge_jet_transform,
    identity_checks,
    iota,
    kinematic_jets,
    phase_rotate_jet,
    random_kinematic_jet,
    random_timelike,
    special_gauge_jet,
)
from rotorlab.minkowski import DomainError
from rotorlab.spinor import null_from_angles, tetrad_from_angles


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
    for J in kinematic_jets([draw_kinematic_path(rng) for _ in range(30)]):
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




def test_condition_matrix_matches_one_hot_loop():
    """The feature-difference table, computed once per point, gives the
    condition matrix bit for bit as the loop that re-evaluated it for each
    one-hot coefficient vector V and kept V @ diff."""

    def one_hot_loop(s):
        u, Jv = s[:3], s[3:]
        cols = np.empty((15, 5))
        for r in range(15):
            V = np.zeros(15)
            V[r] = 1.0
            vals = np.array([V @ (_features(_shifted(Jv, u, a, b)) - _features(Jv))
                             for a, b in _AB_NODES])
            cols[r] = _AB_PINV @ vals
        return cols.T

    rng = np.random.default_rng(12)
    for _ in range(50):
        s = rng.uniform(-2.0, 2.0, 8)
        assert np.array_equal(_condition_matrix(s), one_hot_loop(s))


# -- the batched construction against one pass of unbatched jets per jet -----


def _reference_path(rng, lo, hi, rate=1.0):
    base = rng.uniform(lo, hi)
    amp = rate * rng.uniform(0.05, 0.4)
    freq = rng.uniform(0.5, 2.0)
    off = rng.uniform(0.0, 2 * np.pi)
    return lambda t: base + amp * jets.sin(freq * t + off)


def _reference_jet(xdot, k, m, a, b):
    (kv, kd), (mv, md), (av, ad), (bv, bd) = map(jets.split, (k, m, a, b))
    return KinematicJet(xdot=xdot, k=kv, m=mv, a=av, b=bv,
                        kdot=kd, mdot=md, adot=ad, bdot=bd)


def _reference_kinematic_jet(rng, tau):
    """One random kinematic jet, built on its own from path closures."""
    theta = _reference_path(rng, 0.4, np.pi - 0.4)
    phi = _reference_path(rng, 0.0, 2 * np.pi)
    psi = _reference_path(rng, 0.6, 3.0, rate=0.5)
    Phi = _reference_path(rng, 0.0, 4 * np.pi)
    xdot = random_timelike(rng)
    (t,) = jets.variables(tau)
    return _reference_jet(xdot, *tetrad_from_angles(theta(t), phi(t), psi(t), Phi(t)))


def _reference_special_gauge_jet(rng, tau):
    theta = _reference_path(rng, 0.4, np.pi - 0.4)
    phi = _reference_path(rng, 0.0, 2 * np.pi)
    gamma = _reference_path(rng, 0.0, 2 * np.pi)
    logK = _reference_path(rng, -0.7, 0.7)
    (t,) = jets.variables(tau)
    th, ph, ga = theta(t), phi(t), gamma(t)
    K = jets.exp(logK(t))
    st, ct = jets.sin(th), jets.cos(th)
    sp, cp = jets.sin(ph), jets.cos(ph)
    n = [st * cp, st * sp, ct]
    e_th = [ct * cp, ct * sp, -st]
    e_ph = [-sp, cp, 0.0 * sp]
    cg, sg = jets.cos(ga), jets.sin(ga)
    avec = [cg * e_th[i] + sg * e_ph[i] for i in range(3)]
    bvec = [avec[1] * n[2] - avec[2] * n[1],
            avec[2] * n[0] - avec[0] * n[2],
            avec[0] * n[1] - avec[1] * n[0]]
    m = [1.0 / K, -n[0] / K, -n[1] / K, -n[2] / K]
    return _reference_jet(random_timelike(rng), null_from_angles(th, ph, K), m,
                          [0.0 * K] + avec, [0.0 * K] + bvec)


def _assert_same_jets(got, want):
    assert len(got) == len(want)
    for J, R in zip(got, want):
        for f in fields(KinematicJet):
            a, b = getattr(J, f.name), getattr(R, f.name)
            assert a.shape == b.shape == (4,), f.name
            assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("size", [1, 2, 25, 60])
def test_kinematic_jets_equal_per_jet_loop(size):
    """Every field of every batch entry is bit-identical to the jet built on
    its own, and the draws leave the generator in the same state."""
    for seed, tau in enumerate((0.0, 0.37, -1.2)):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [_reference_kinematic_jet(ref_rng, tau) for _ in range(size)]
        got = kinematic_jets([draw_kinematic_path(rng) for _ in range(size)], tau)
        _assert_same_jets(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    _assert_same_jets([random_kinematic_jet(rng, 0.5)],
                      [_reference_kinematic_jet(ref_rng, 0.5)])


def test_special_gauge_jet_equals_path_closures():
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for tau in (0.0, 0.37, -1.2):
            _assert_same_jets([special_gauge_jet(rng, tau)],
                              [_reference_special_gauge_jet(ref_rng, tau)])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _stack(samples):
    return KinematicJet(*(np.stack([getattr(J, f.name) for J in samples], axis=-1)
                          for f in fields(KinematicJet)))


@pytest.mark.parametrize("bad, message", [
    (lambda J: replace(J, m=1.001 * J.m), "inconsistent kinematic jet"),
    (lambda J: replace(J, kdot=J.kdot + 0.01 * J.m), "inconsistent kinematic jet"),
    (lambda J: replace(J, adot=np.full(4, np.nan)), "inconsistent kinematic jet"),
    (lambda J: replace(J, xdot=np.array([0.5, 1.0, 0.0, 0.0])), "xdot must be timelike"),
    (lambda J: replace(J, xdot=-J.xdot), "k.xdot must be positive"),
], ids=["inconsistent", "inconsistent-rate", "nan", "spacelike", "past-pointing"])
def test_a_bad_batch_entry_raises(bad, message):
    rng = np.random.default_rng(7)
    samples = [random_kinematic_jet(rng) for _ in range(4)]
    samples[2] = bad(samples[2])
    with pytest.raises(DomainError, match=rf"{message}.*\(batch entry 2\)"):
        _stack(samples).validate()
    _stack(samples[:2]).validate()


def test_kinematic_jets_reject_a_path_with_bad_xdot():
    rng = np.random.default_rng(8)
    paths = [draw_kinematic_path(rng) for _ in range(5)]
    paths[3] = replace(paths[3], xdot=np.array([0.2, 0.0, 1.0, 0.0]))
    with pytest.raises(DomainError, match=r"xdot must be timelike \(batch entry 3\)"):
        kinematic_jets(paths)
