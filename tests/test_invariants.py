from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorlab import jets
from rotorlab.invariants import (
    GaugeJet,
    KinematicJet,
    _condition_matrices,
    _features,
    draw_path,
    gauge_jet_transform,
    identity_checks,
    iota,
    kinematic_jets,
    random_kinematic_jet,
)
from rotorlab.minkowski import DomainError
from rotorlab.spinor import tetrad_from_angles
from conftest import same_bits
from references import capital_invariants, ref_timelike


def test_random_jets_satisfy_constraints():
    rng = np.random.default_rng(0)
    for _ in range(30):
        random_kinematic_jet(rng).validate()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_kinematic_jets_are_in_the_special_gauge(seed):
    """k = K (1, n), m = (1, -n) / K, a = (0, a_) and b = (0, n x a_), with
    a^0 and b^0 constant along the path, for every entry of a batch."""
    rng = np.random.default_rng(seed)
    J = kinematic_jets([draw_path(rng) for _ in range(40)])
    K, n = J.k[0], J.k[1:] / J.k[0]
    for v in (J.a[0], J.b[0], J.adot[0], J.bdot[0]):
        assert np.max(np.abs(v)) <= 1e-15
    assert np.max(np.abs(J.m * K - np.vstack([np.ones_like(K), -n]))) <= 4e-15
    assert np.max(np.abs(J.b[1:] - np.cross(n, J.a[1:], axis=0))) <= 2e-15


def _draw(seed, n, draw_more):
    """A table of n kinematic paths, with draw_more(rng) drawn after each path
    (the draw order of a loop over single jets)."""
    rng = np.random.default_rng(seed)
    table, more = [], []
    for _ in range(n):
        table.append(draw_path(rng))
        more.append(draw_more(rng))
    return table, np.array(more).T


def _close(got, want, rel, abs_):
    """pytest.approx(want, rel=rel, abs=abs_) == got, entry by entry."""
    return np.all(np.abs(got - want) <= np.maximum(rel * np.abs(want), abs_))


def test_iota_gauge_invariant():
    table, gauges = _draw(1, 50, lambda rng: [*rng.uniform(-2, 2, 2), *rng.uniform(-1, 1, 2)])
    J = kinematic_jets(table)
    base = iota(J)
    shifted = iota(gauge_jet_transform(J, GaugeJet(*gauges)))
    # np.allclose(shifted, base, rtol=1e-10, atol=...) for each jet
    atol = 1e-10 * np.maximum(np.abs(base).max(axis=0), 1.0)
    assert np.all(np.abs(shifted - base) <= atol + 1e-10 * np.abs(base))


def _draw_shifted(seed, n, draw_more):
    """n kinematic jets drawn as a table, and the same jets built on their own
    from the per-number draws with each spinor phase path Phi(t) shifted to
    Phi(t) + delta + deltadot t, by the (delta, deltadot) of draw_more(rng),
    drawn after each jet's path: (a, b) turned through delta at the rate
    deltadot.  A shift by 0 leaves each jet as the table built it."""
    table, shift = _draw(seed, n, draw_more)
    J = kinematic_jets(table)
    ref = np.random.default_rng(seed)
    drawn = [(_reference_paths(ref), draw_more(ref)) for _ in range(n)]
    _assert_same_jets(J.entries(), [_reference_kinematic_jet(*p, (0.0, 0.0)) for p, _ in drawn])
    return J, _stack([_reference_kinematic_jet(*p, more) for p, more in drawn]), shift


def test_phase_rotation_acts_as_doublet():
    J, R, (delta, _) = _draw_shifted(3, 20, lambda rng: (rng.uniform(-3, 3), 0.0))
    base = iota(J)
    rot = iota(R)
    c, s = np.cos(delta), np.sin(delta)
    assert _close(rot[0], c * base[0] - s * base[1], 1e-10, 1e-12)
    assert _close(rot[1], s * base[0] + c * base[1], 1e-10, 1e-12)
    assert np.allclose(rot[2:], base[2:], rtol=1e-10, atol=1e-12)


def test_time_dependent_phase_shifts_iota6():
    # the unit-norm constraint a.a = -1 forces the rate term to enter with
    # a minus sign: iota6 -> iota6 - iota3 * deltadot
    J, R, (_, deltadot) = _draw_shifted(4, 20, lambda rng: (0.0, rng.uniform(-2, 2)))
    base = iota(J)
    rot = iota(R)
    assert _close(rot[5], base[5] - base[2] * deltadot, 1e-10, 1e-12)


def test_identity_checks_vanish():
    rng = np.random.default_rng(5)
    J = kinematic_jets([draw_path(rng) for _ in range(30)])
    res = identity_checks(J)
    assert "am.bk-ak.bm" in res
    for name, val in res.items():
        assert np.all(np.abs(val) < 1e-10 * np.maximum(J.scale() ** 2, 1.0)), name


def test_special_gauge_required_for_extra_identity():
    rng = np.random.default_rng(6)
    J = random_kinematic_jet(rng)
    G = GaugeJet(alpha=1.0, beta=0.5)
    shifted = gauge_jet_transform(J, G)
    with pytest.raises(DomainError):
        identity_checks(shifted)


def test_special_gauge_check_names_the_batch_entry():
    rng = np.random.default_rng(14)
    samples = [random_kinematic_jet(rng) for _ in range(4)]
    batched = identity_checks(_stack(samples))
    for i, J in enumerate(samples):
        for name, val in identity_checks(J).items():
            assert batched[name][i] == val, name
    samples[2] = gauge_jet_transform(samples[2], GaugeJet(alpha=1.0, beta=0.5))
    with pytest.raises(DomainError, match=r"special gauge.*\(batch entry 2\)"):
        identity_checks(_stack(samples))


def test_batched_transforms_equal_single_jet_calls():
    """Each entry of a batched gauge shift, with nonzero rates, is
    bit-identical to the call on that entry alone."""
    rng = np.random.default_rng(13)
    J = kinematic_jets([draw_path(rng) for _ in range(8)])
    G = GaugeJet(*rng.uniform(-2, 2, (4, 8)))
    shifted = gauge_jet_transform(J, G).entries()
    for i, Ji in enumerate(J.entries()):
        Gi = GaugeJet(*(float(getattr(G, f.name)[i]) for f in fields(GaugeJet)))
        _assert_same_jets([gauge_jet_transform(Ji, Gi)], [shifted[i]])


def test_a_batch_is_lifted_once(monkeypatch):
    """``kinematic_jets`` seeds one jet variable on arrays, its parameter t:
    validating the batch and shifting its gauge take the tetrad jets it built,
    which differ from the tetrad lifted again only in the sign of a zero."""
    variables, seeded = jets.variables, []
    monkeypatch.setattr(jets, "variables", lambda *vals, **kw: seeded.append(
        isinstance(vals[0], np.ndarray)) or variables(*vals, **kw))
    rng = np.random.default_rng(15)
    J = kinematic_jets([draw_path(rng) for _ in range(8)])
    assert seeded.count(True) == 1
    G = GaugeJet(*rng.uniform(-2, 2, (4, 8)))
    shifted = gauge_jet_transform(J, G).validate()
    assert seeded.count(True) == 1
    relifted = replace(J)  # a copy that holds no tetrad jets
    assert relifted.lifted is None
    want = relifted.constraint_residuals()
    for name, r in J.constraint_residuals().items():
        assert np.array_equal(r, want[name]), name
    again = gauge_jet_transform(relifted, G)
    for f in fields(KinematicJet):
        assert np.array_equal(getattr(shifted, f.name), getattr(again, f.name)), f.name
    assert seeded.count(True) == 3


def test_capital_invariants_at_rotator_point(rotator_jet):
    rotator_jet.validate()
    I = capital_invariants(rotator_jet)
    assert I[0] == pytest.approx(0.75)          # xdot.xdot
    assert I[1] == pytest.approx(4.0)           # -kdot.kdot / (k.xdot)^2
    assert I[3] == pytest.approx(0.0, abs=1e-14)
    assert I[4] == pytest.approx(1.0 / np.sqrt(3.0))


# the (alpha, beta) nodes of the reference fit, and its monomial pseudo-inverse
_AB_NODES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (1.0, -1.0)]
_AB_PINV = np.linalg.pinv(np.array([[a, b, a * a, b * b, a * b] for a, b in _AB_NODES]))


def _six_node_fit(s):
    """The condition matrix at scalar point s by a least-squares fit of the
    monomials alpha, beta, alpha^2, beta^2, alpha*beta to the change of each
    feature at six (alpha, beta) nodes."""
    (u1, u2, u3), Jv = s[:3], s[3:]

    def shifted(alpha, beta):
        return Jv + np.array([
            alpha * u3,
            beta * u3,
            -alpha * u2 + beta * u1,
            2 * alpha * u1 + 2 * beta * u2,
            2 * alpha * Jv[0] + 2 * beta * Jv[1] + (alpha**2 + beta**2) * u3,
        ])

    base = np.array(_features(Jv))
    diffs = np.array([np.array(_features(shifted(a, b))) - base for a, b in _AB_NODES])
    return _AB_PINV @ diffs


def test_condition_matrices_match_six_node_fit():
    """The monomial coefficients read off second-order jets agree with the
    six-node polynomial fit to rounding, at every point of one batch."""
    points = np.random.default_rng(12).uniform(-2.0, 2.0, (50, 8))
    got = _condition_matrices(points)
    assert got.shape == (50, 5, 15)
    for A, s in zip(got, points):
        ref = _six_node_fit(s)
        assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def _reference_paths(rng):
    """The path closures theta, phi, psi and Phi of a random kinematic jet,
    and its xdot, by the per-number draws."""
    theta = _reference_path(rng, 0.4, np.pi - 0.4)
    phi = _reference_path(rng, 0.0, 2 * np.pi)
    psi = _reference_path(rng, 0.6, 3.0, rate=0.5)
    Phi = _reference_path(rng, 0.0, 4 * np.pi)
    return (theta, phi, psi, Phi), ref_timelike(rng)


def _reference_kinematic_jet(paths, xdot, shift=None):
    """The kinematic jet of path closures and xdot, built on its own; with a
    shift (delta, deltadot), Phi(t) shifted to Phi(t) + delta + deltadot t."""
    (t,) = jets.variables(0.0)
    theta, phi, psi, Phi = (path(t) for path in paths)
    if shift is not None:
        Phi = Phi + shift[0] + shift[1] * t
    return _reference_jet(xdot, *tetrad_from_angles(theta, phi, psi, Phi))


def _assert_same_jets(got, want):
    assert len(got) == len(want)
    for J, R in zip(got, want):
        for f in fields(KinematicJet):
            a, b = getattr(J, f.name), getattr(R, f.name)
            assert a.shape == (4,) and same_bits(a, b), f.name


@pytest.mark.parametrize("size", [1, 2, 25, 60])
def test_kinematic_jets_equal_per_jet_loop(size):
    """Every field of every batch entry is bit-identical to the jet built on
    its own, and the draws leave the generator in the same state."""
    for seed in range(3):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [_reference_kinematic_jet(*_reference_paths(ref_rng)) for _ in range(size)]
        got = kinematic_jets([draw_path(rng) for _ in range(size)]).entries()
        _assert_same_jets(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    _assert_same_jets([random_kinematic_jet(rng)],
                      [_reference_kinematic_jet(*_reference_paths(ref_rng))])


def _stack(samples):
    return KinematicJet(*(np.stack([getattr(J, f.name) for J in samples], axis=-1)
                          for f in fields(KinematicJet)))


@pytest.mark.parametrize("bad, message", [
    (lambda J: replace(J, m=1.001 * J.m), "inconsistent kinematic jet"),
    (lambda J: replace(J, kdot=J.kdot + 0.01 * J.m), "inconsistent kinematic jet"),
    (lambda J: replace(J, adot=np.full(4, np.nan)), "inconsistent kinematic jet"),
    (lambda J: replace(J, xdot=np.array([0.5, 1.0, 0.0, 0.0])), "xdot must be timelike"),
    (lambda J: replace(J, xdot=-J.xdot), "k.xdot must be positive"),
    (lambda J: replace(J, xdot=np.full(4, np.nan)), "xdot must be timelike"),
], ids=["inconsistent", "inconsistent-rate", "nan", "spacelike", "past-pointing", "nan-xdot"])
def test_a_bad_batch_entry_raises(bad, message):
    rng = np.random.default_rng(7)
    samples = [random_kinematic_jet(rng) for _ in range(4)]
    samples[2] = bad(samples[2])
    with pytest.raises(DomainError, match=rf"{message}.*\(batch entry 2\)"):
        _stack(samples).validate()
    _stack(samples[:2]).validate()


def test_kinematic_jets_reject_a_path_with_bad_xdot():
    # a normal triple (0, 0, 0) gives xdot no direction: its NaN fails the
    # xdot check, not the tetrad relations
    rng = np.random.default_rng(8)
    table = np.array([draw_path(rng) for _ in range(5)])
    table[3, 17:20] = 0.0
    with np.errstate(invalid="ignore"), pytest.raises(
            DomainError, match=r"xdot must be timelike \(batch entry 3\)"):
        kinematic_jets(table)
