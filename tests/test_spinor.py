import numpy as np
import pytest

from rotorlab import jets
from rotorlab.cli import tetrad_residuals
from rotorlab.minkowski import DomainError, dot, gram_det
from rotorlab.spinor import (
    Spinor,
    gauge_transform,
    mate,
    null_vector,
    phase_rotate,
    spinor_from_angles,
    tetrad,
    tetrad_from_angles,
)

def random_angles(rng):
    return (rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi),
            rng.uniform(0.2, 5.0), rng.uniform(0, 4 * np.pi))


def test_spinor_magnitude_is_sqrt_psi():
    rng = np.random.default_rng(0)
    for _ in range(50):
        th, ph, psi, Ph = random_angles(rng)
        kappa = spinor_from_angles(th, ph, psi, Ph)
        assert kappa.norm_sq == pytest.approx(psi, rel=1e-13)
        assert kappa.magnitude == pytest.approx(np.sqrt(psi), rel=1e-13)


def test_nonpositive_magnitude_rejected():
    with pytest.raises(DomainError):
        spinor_from_angles(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        spinor_from_angles(1.0, 0.0, -2.0, 0.0)


def test_mate_symplectic_normalization():
    rng = np.random.default_rng(4)
    for _ in range(100):
        kappa = spinor_from_angles(*random_angles(rng))
        tau = mate(kappa)
        det = kappa.c0 * tau.c1 - kappa.c1 * tau.c0
        assert det == pytest.approx(1.0, abs=1e-13)


def test_tetrad_scalar_products_and_gram():
    rng = np.random.default_rng(1)
    for _ in range(200):
        T = tetrad(spinor_from_angles(*random_angles(rng)))
        assert tetrad_residuals([T])[0] < 0.5e-12
        assert gram_det(*T.vectors()) == pytest.approx(-4.0, abs=1e-11)


def test_null_vector_future_pointing():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = null_vector(spinor_from_angles(*random_angles(rng)))
        assert k[0] > 0.0
        assert abs(dot(k, k)) < 1e-12 * k[0] ** 2


def test_overall_phase_leaves_tetrad_k_invariant():
    kappa = spinor_from_angles(0.8, 1.1, 2.0, 0.5)
    shifted = kappa.phase_shifted(0.7)
    assert np.allclose(null_vector(kappa), null_vector(shifted))


def test_gauge_transform_preserves_products():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = tetrad(spinor_from_angles(*random_angles(rng)))
        G = gauge_transform(T, rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert tetrad_residuals([G])[0] < 0.5e-11
        assert np.array_equal(G.k, T.k)


def test_phase_rotate_preserves_products_and_k_m():
    rng = np.random.default_rng(6)
    T = tetrad(spinor_from_angles(*random_angles(rng)))
    R = phase_rotate(T, 1.3)
    assert tetrad_residuals([R])[0] < 0.5e-12
    assert np.array_equal(R.k, T.k) and np.array_equal(R.m, T.m)
    assert np.allclose(R.a, np.cos(1.3) * T.a - np.sin(1.3) * T.b)


def test_tetrad_expansion_reconstructs_vectors():
    rng = np.random.default_rng(12)
    T = tetrad(spinor_from_angles(*random_angles(rng)))
    for v in (rng.normal(size=4), T.k, T.a):
        assert np.allclose(T.expand(v), v, atol=1e-12)


def test_tetrad_from_angles_matches_spinor_route():
    rng = np.random.default_rng(5)
    for _ in range(50):
        th, ph, psi, Ph = random_angles(rng)
        T = tetrad(spinor_from_angles(th, ph, psi, Ph))
        k, m, a, b = tetrad_from_angles(th, ph, psi, Ph)
        assert np.allclose(k, T.k, atol=1e-13)
        assert np.allclose(m, T.m, atol=1e-13)
        assert np.allclose(a, T.a, atol=1e-13)
        assert np.allclose(b, T.b, atol=1e-13)


def test_tetrad_from_angles_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    base = np.array(random_angles(rng))
    h = 1e-6

    def k_at(t):
        return np.array(tetrad_from_angles(base[0] + t, base[1] + 2 * t,
                                           base[2] + 0.5 * t, base[3] - t)[0])

    (tj,) = jets.variables(0.0)
    kj = tetrad_from_angles(base[0] + tj, base[1] + 2 * tj,
                            base[2] + 0.5 * tj, base[3] - tj)[0]
    fd = (k_at(h) - k_at(-h)) / (2 * h)
    got = np.array([c.g[0] for c in kj])
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)


def test_zero_spinor_rejected():
    with pytest.raises(DomainError):
        mate(Spinor(0.0, 0.0))
    with pytest.raises(DomainError):
        tetrad(Spinor(0.0, 0.0))
