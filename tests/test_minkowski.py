import itertools

import numpy as np
import pytest

from rotorlab.minkowski import (
    DomainError,
    SIGNATURE,
    bivector,
    dot,
    epsilon_contract,
    four,
    gram_det,
    lorentz_matrix,
)

METRIC = np.diag(SIGNATURE)


def test_metric_signature():
    assert np.array_equal(np.diag(METRIC), [1.0, -1.0, -1.0, -1.0])


def test_dot():
    u = four(1.0, 2.0, 3.0, 4.0)
    v = four(5.0, 6.0, 7.0, 8.0)
    assert dot(u, v) == 5.0 - 12.0 - 21.0 - 32.0


def test_epsilon_contract_spin_axis_example():
    N = four(0.0, 1.0, 0.0, 0.0)
    W = four(0.0, 0.0, 0.0, 0.5)
    P = four(1.0, 0.0, 0.0, 0.0)
    assert np.allclose(epsilon_contract(N, W, P), [0.0, 0.0, 0.5, 0.0])


def _epsilon_by_terms(n, w, p):
    """eps^{mu nu alpha beta} n_nu w_alpha p_beta as the 24-term loop over the
    permutations of 0123 in lexicographic order, each v^mu summed from 0.0
    one term at a time; components may be floats or (B,) arrays."""
    nl, wl, pl = ([u[0], -u[1], -u[2], -u[3]] for u in (n, w, p))
    out = [0.0, 0.0, 0.0, 0.0]
    for perm in itertools.permutations(range(4)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        mu, nu, al, be = perm
        out[mu] = out[mu] + sign * nl[nu] * wl[al] * pl[be]
    return np.array(out)


@pytest.mark.parametrize("shape", [(4,), (4, 7)], ids=["one", "batch"])
def test_epsilon_contract_is_the_term_by_term_sum(shape):
    # zeros of both signs and infinities among the entries: the same values,
    # signed zeros included, and NaN where the loop gives NaN
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -2.5, 1e300, 5e-324])
    for _ in range(300):
        args = np.where(rng.random((3, *shape)) < 0.6,
                        rng.choice(special, size=(3, *shape)), rng.normal(size=(3, *shape)))
        with np.errstate(all="ignore"):
            got, want = epsilon_contract(*args), _epsilon_by_terms(*args)
        assert got.shape == shape and np.array_equal(got, want, equal_nan=True)
        real = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def test_epsilon_contract_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u, v, w = rng.normal(size=(3, 4))
        assert np.allclose(epsilon_contract(u, v, w), -epsilon_contract(v, u, w))
        assert np.allclose(epsilon_contract(u, v, w), -epsilon_contract(u, w, v))
        assert np.allclose(epsilon_contract(u, u, w), 0.0)
        # result is orthogonal to every argument
        e = epsilon_contract(u, v, w)
        for arg in (u, v, w):
            assert abs(dot(e, arg)) < 1e-12 * max(np.abs(e).max(), 1.0)


def test_lorentz_matrix_preserves_dot():
    rng = np.random.default_rng(7)
    for _ in range(25):
        L = lorentz_matrix(boost=rng.uniform(-0.6, 0.6, 3) / 2,
                           rotation=rng.uniform(-2, 2, 3))
        assert np.allclose(L.T @ METRIC @ L, METRIC, atol=1e-12)
        assert np.linalg.det(L) == pytest.approx(1.0, rel=1e-12)
        u, v = rng.normal(size=(2, 4))
        assert dot(L @ u, L @ v) == pytest.approx(dot(u, v), rel=1e-10, abs=1e-12)


def test_lorentz_matrix_superluminal_rejected():
    with pytest.raises(DomainError):
        lorentz_matrix(boost=(1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        lorentz_matrix(boost=(0.8, 0.8, 0.0))


def test_epsilon_contract_transforms_with_unit_determinant():
    rng = np.random.default_rng(9)
    L = lorentz_matrix(boost=(0.3, -0.2, 0.1), rotation=(0.5, 0.0, 1.0))
    u, v, w = rng.normal(size=(3, 4))
    lhs = epsilon_contract(L @ u, L @ v, L @ w)
    rhs = L @ epsilon_contract(u, v, w)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_gram_det_orthonormal_frame():
    e0 = four(1.0, 0.0, 0.0, 0.0)
    e1 = four(0.0, 1.0, 0.0, 0.0)
    e2 = four(0.0, 0.0, 1.0, 0.0)
    e3 = four(0.0, 0.0, 0.0, 1.0)
    assert gram_det(e0, e1, e2, e3) == pytest.approx(-1.0)


def test_bivector_antisymmetric():
    rng = np.random.default_rng(1)
    u, p, k, pi = rng.normal(size=(4, 4))
    M = bivector(u, p, k, pi)
    assert np.array_equal(M.T, -M)
