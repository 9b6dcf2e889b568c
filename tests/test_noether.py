import itertools

import numpy as np
import pytest

from rotorlab import jets
from rotorlab.fform import (PQPoint, builtin, lagrangian_from_vectors, parse_f,
                            pq_from_vectors)
from rotorlab.invariants import random_kinematic_jet
from rotorlab.minkowski import DomainError, dot
from rotorlab.noether import (
    FUNDAMENTAL_WW_FACTOR,
    casimirs_closed_form,
    casimirs_special_S,
    fundamental_residuals,
    momenta,
    momenta_from_vectors,
)


def all_forms():
    forms = [builtin("point_particle"), builtin("rotator_f"),
             builtin("fq", f=lambda q: q),
             builtin("sqrtS", S=lambda q: 1.0 + 0.3 * q)]
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        forms.append(builtin("starlike", signs=signs))
    for nu in (-0.6, 0.0, 0.8):
        forms.append(builtin("nu_family", nu=nu))
    return forms


def test_noether_casimirs_match_closed_form():
    rng = np.random.default_rng(0)
    forms = all_forms()
    for _ in range(40):
        J = random_kinematic_jet(rng)
        for F in forms:
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not F.in_domain(at.P, at.Q):
                continue
            got = momenta(F, J).casimirs()
            want = casimirs_closed_form(F, at)
            assert got.PP == pytest.approx(want.PP, rel=1e-9,
                                           abs=1e-9 * max(abs(want.PP), 1.0))
            assert got.WW == pytest.approx(want.WW, rel=1e-9,
                                           abs=1e-9 * max(abs(want.WW), 1.0))


def test_pauli_lubanski_orthogonal_to_momentum():
    rng = np.random.default_rng(1)
    for _ in range(30):
        J = random_kinematic_jet(rng)
        for F in (builtin("rotator_f"), builtin("fq", f=lambda q: q * q)):
            ms = momenta(F, J)
            scale = max(abs(dot(ms.P, ms.P)), 1.0)
            assert abs(dot(ms.W, ms.P)) < 1e-10 * scale


def _pauli_lubanski_loop(M, P):
    """Reference: the component sum over all index triples, sign by counting."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    M_low, P_low = eta @ M @ eta, eta @ P

    def eps(*perm):
        if len(set(perm)) < 4:
            return 0
        return (-1) ** sum(perm[x] > perm[y] for x in range(4) for y in range(x + 1, 4))

    W = np.zeros(4)
    for mu in range(4):
        acc = 0.0
        for a, b, g in itertools.product(range(4), repeat=3):
            e = eps(mu, a, b, g)
            if e:
                acc += e * M_low[a, b] * P_low[g]
        W[mu] = -0.5 * acc
    return W


def test_pauli_lubanski_is_minus_epsilon_contract():
    # momenta take W = -eps(k, pi, P); the full sum over M = x^P - P^x +
    # k^pi - pi^k agrees, since the orbital term drops out
    rng = np.random.default_rng(4)
    for _ in range(20):
        J = random_kinematic_jet(rng)
        x = rng.normal(size=4)
        for F in all_forms():
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not F.in_domain(at.P, at.Q):
                continue
            ms = momenta(F, J, x=x)
            scale = np.max(np.abs(ms.M)) * np.max(np.abs(ms.P))
            gap = np.max(np.abs(ms.W - _pauli_lubanski_loop(ms.M, ms.P)))
            assert gap <= 1e-14 * scale


def test_lagrangian_is_euler_homogeneous_in_the_velocities():
    # L is homogeneous of degree 1 in v = (xdot, kdot): g.v = L and H v = 0,
    # each to rounding of its largest term
    rng = np.random.default_rng(12)
    pairs = 0
    for _ in range(24):
        J = random_kinematic_jet(rng)
        v = np.concatenate([J.xdot, J.kdot])
        vs = jets.variables(*v)
        for F in all_forms():
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not F.in_domain(at.P, at.Q):
                continue
            L = lagrangian_from_vectors(F, vs[:4], J.k, vs[4:])
            terms = max(np.max(np.abs(L.g * v)), abs(L.f))
            assert abs(L.g @ v - L.f) <= 1e-13 * terms
            assert np.max(np.abs(L.h @ v)) <= 1e-13 * np.max(np.abs(L.h * v))
            pairs += 1
    assert pairs >= 200


def test_static_point_particle_has_rest_momentum():
    F = builtin("point_particle", M=2.5)
    xdot = np.array([1.0, 0.0, 0.0, 0.0])
    k = np.array([1.0, 0.0, 0.0, 1.0])
    kdot = np.zeros(4)
    ms = momenta_from_vectors(F, xdot, k, kdot)
    assert np.allclose(ms.P, [2.5, 0.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(ms.W, 0.0, atol=1e-13)


def test_angular_momentum_shifts_with_x_but_w_does_not():
    rng = np.random.default_rng(2)
    J = random_kinematic_jet(rng)
    F = builtin("rotator_f")
    a = momenta(F, J, x=np.zeros(4))
    b = momenta(F, J, x=np.array([1.0, -2.0, 0.5, 3.0]))
    assert not np.allclose(a.M, b.M)
    assert np.allclose(a.W, b.W, atol=1e-12 * max(np.abs(a.W).max(), 1.0))
    assert np.allclose(a.P, b.P)


def test_fundamental_residuals_tiny_for_fundamental_forms():
    grid = [PQPoint(P, Q) for P in np.linspace(-0.5, 0.5, 8)
            for Q in np.linspace(0.1, 3.0, 8)]
    forms = [builtin("rotator_f")]
    for nu in (-1.0, -0.3, 0.0, 0.5, 2.0):
        forms.append(builtin("nu_family", nu=nu))
    for F in forms:
        pts = [p for p in grid if F.in_domain(p.P, p.Q)]
        res = fundamental_residuals(F, pts)
        assert res["max_PP_residual"] < 1e-10
        assert res["max_WW_residual"] < 1e-10


def test_fundamental_residuals_large_for_generic_form():
    F = parse_f("Q + P^2")
    res = fundamental_residuals(F, [PQPoint(0.3, 1.5)])
    assert max(res["max_PP_residual"], res["max_WW_residual"]) > 0.1


def test_fundamental_residuals_rejects_out_of_domain():
    F = builtin("starlike", signs=(1, -1))
    with pytest.raises(DomainError):
        fundamental_residuals(F, [PQPoint(0.0, 9.0)])


def test_special_S_family_matches_closed_form():
    S = lambda q: 1.0 + 0.25 * q
    F = builtin("sqrtS", S=S, M=1.3, ell=0.7)
    for Q in (0.2, 1.0, 3.0):
        got = casimirs_special_S(S, Q, M=1.3, ell=0.7)
        # the sqrtS shape makes PP, WW functions of Q alone
        for P in (0.0, 0.4):
            want = casimirs_closed_form(F, PQPoint(P, Q))
            assert got.PP == pytest.approx(want.PP, rel=1e-12)
            assert got.WW == pytest.approx(want.WW, rel=1e-12, abs=1e-12)


def test_special_S_needs_positive_Q():
    with pytest.raises(DomainError):
        casimirs_special_S(lambda q: q, 0.0)


def test_ww_factor_constant():
    assert FUNDAMENTAL_WW_FACTOR == -0.25
