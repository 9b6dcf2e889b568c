import numpy as np
import pytest

from rotorlab.minkowski import (
    DomainError,
    METRIC,
    bivector,
    dot,
    epsilon_contract,
    four,
    gram_det,
    lorentz_matrix,
    lorentz_transform,
    lower,
)


def test_metric_signature():
    assert np.array_equal(np.diag(METRIC), [1.0, -1.0, -1.0, -1.0])


def test_dot_and_lower():
    u = four(1.0, 2.0, 3.0, 4.0)
    v = four(5.0, 6.0, 7.0, 8.0)
    assert dot(u, v) == 5.0 - 12.0 - 21.0 - 32.0
    assert np.array_equal(lower(u), [1.0, -2.0, -3.0, -4.0])


def test_epsilon_contract_spin_axis_example():
    N = four(0.0, 1.0, 0.0, 0.0)
    W = four(0.0, 0.0, 0.0, 0.5)
    P = four(1.0, 0.0, 0.0, 0.0)
    assert np.allclose(epsilon_contract(N, W, P), [0.0, 0.0, 0.5, 0.0])


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


def test_lorentz_transform_superluminal_rejected():
    with pytest.raises(DomainError):
        lorentz_matrix(boost=(1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        lorentz_transform(four(1, 0, 0, 0), boost=(0.8, 0.8, 0.0))


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
