import numpy as np
import pytest

from rotorlab import jets
from rotorlab.cli import tetrad_residuals
from rotorlab.minkowski import dot, gram_det
from rotorlab.spinor import (
    Tetrad,
    angles_from_null,
    gauge_transform,
    null_from_angles,
    phase_rotate,
    tetrad_from_angles,
)

def random_angles(rng):
    return (rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi),
            rng.uniform(0.2, 5.0), rng.uniform(0, 4 * np.pi))


# -- a reference in complex arithmetic, independent of the (re, im) pair
# arithmetic of rotorlab.spinor

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def reference_spinors(theta, phi, psi, Phi):
    """kappa by the parametrization in the rotorlab.spinor docstring, and its
    mate tau = (-conj(kappa^1), conj(kappa^0)) / (kappa^+ kappa)."""
    kappa = np.exp(0.5j * Phi) * np.sqrt(psi) * np.array(
        [np.exp(-0.5j * phi) * np.cos(0.5 * theta), np.exp(0.5j * phi) * np.sin(0.5 * theta)])
    tau = np.array([-np.conj(kappa[1]), np.conj(kappa[0])]) / np.vdot(kappa, kappa).real
    return kappa, tau


def sandwich(xi, eta):
    """xi^+ sigma^mu eta for mu = 0..3."""
    return np.einsum("i,mij,j->m", xi.conj(), PAULI, eta)


def reference_tetrad(theta, phi, psi, Phi):
    """k = kappa^+ sigma kappa, m = tau^+ sigma tau, a + i b = tau^+ sigma kappa."""
    kappa, tau = reference_spinors(theta, phi, psi, Phi)
    ab = sandwich(tau, kappa)
    return sandwich(kappa, kappa).real, sandwich(tau, tau).real, ab.real, ab.imag


def test_spinor_magnitude_is_sqrt_psi():
    # k^0 = kappa^+ kappa, the squared magnitude of the spinor
    rng = np.random.default_rng(0)
    for _ in range(50):
        th, ph, psi, Ph = random_angles(rng)
        assert tetrad_from_angles(th, ph, psi, Ph)[0][0] == pytest.approx(psi, rel=1e-13)


def test_mate_symplectic_normalization():
    rng = np.random.default_rng(4)
    for _ in range(100):
        kappa, tau = reference_spinors(*random_angles(rng))
        det = kappa[0] * tau[1] - kappa[1] * tau[0]
        assert det == pytest.approx(1.0, abs=1e-13)


def test_tetrad_scalar_products_and_gram():
    rng = np.random.default_rng(1)
    k, m, a, b = tetrad_from_angles(*np.array([random_angles(rng) for _ in range(200)]).T)
    assert tetrad_residuals(k, m, a, b)[0] < 0.5e-12
    assert np.max(np.abs(gram_det(k, m, a, b) + 4.0)) <= 1e-11


def test_null_from_angles_is_the_null_vector_of_the_spinor():
    # K (1, n(theta, phi)) is kappa^+ sigma kappa for the spinor of magnitude
    # sqrt(K) at the same angles, whatever its phase; angles_from_null inverts it
    rng = np.random.default_rng(17)
    for _ in range(200):
        th, ph, K, Ph = random_angles(rng)
        k = null_from_angles(th, ph, K)
        gap = np.max(np.abs(k - reference_tetrad(th, ph, K, Ph)[0]))
        assert gap <= 2e-15 * K
        th2, ph2, K2 = angles_from_null(k)
        assert abs(th2 - th) <= 2e-15 / np.sin(th)
        assert abs(np.angle(np.exp(1j * (ph2 - ph)))) <= 2e-15 / np.sin(th)
        assert K2 == K


def test_angles_from_null_inverts_null_from_angles_on_jets():
    # the roundtrip is the identity, so its Jacobian is 1 and its Hessian 0
    rng = np.random.default_rng(18)
    for _ in range(20):
        th, ph, K, _ = random_angles(rng)
        vs = jets.variables(th, ph - np.pi, K)
        for got, want in zip(angles_from_null(null_from_angles(*vs)), vs):
            assert abs(got.f - want.f) <= 2e-15 / np.sin(th) * max(want.f, 1.0)
            assert np.max(np.abs(got.g - want.g)) <= 4e-15 / np.sin(th) ** 2
            assert np.max(np.abs(got.h)) <= 2e-14 / np.sin(th) ** 3


def test_null_vector_future_pointing():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = tetrad_from_angles(*random_angles(rng))[0]
        assert k[0] > 0.0
        assert abs(dot(k, k)) < 1e-12 * k[0] ** 2


def test_overall_phase_leaves_tetrad_k_invariant():
    # Phi + 1.4 multiplies kappa by exp(0.7i)
    k = tetrad_from_angles(0.8, 1.1, 2.0, 0.5)[0]
    assert np.allclose(k, tetrad_from_angles(0.8, 1.1, 2.0, 0.5 + 1.4)[0])


def test_gauge_transform_preserves_products():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = Tetrad(*tetrad_from_angles(*random_angles(rng)))
        G = gauge_transform(T, rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert tetrad_residuals(*G.vectors())[0] < 0.5e-11
        assert np.array_equal(G.k, T.k)


def test_phase_rotate_preserves_products_and_k_m():
    rng = np.random.default_rng(6)
    T = Tetrad(*tetrad_from_angles(*random_angles(rng)))
    R = phase_rotate(T, 1.3)
    assert tetrad_residuals(*R.vectors())[0] < 0.5e-12
    assert np.array_equal(R.k, T.k) and np.array_equal(R.m, T.m)
    assert np.allclose(R.a, np.cos(1.3) * T.a - np.sin(1.3) * T.b)


def test_tetrad_expansion_reconstructs_vectors():
    rng = np.random.default_rng(12)
    k, m, a, b = tetrad_from_angles(*random_angles(rng))
    for v in (rng.normal(size=4), k, a):
        expanded = 0.5 * dot(m, v) * k + 0.5 * dot(k, v) * m - dot(a, v) * a - dot(b, v) * b
        assert np.allclose(expanded, v, atol=1e-12)


def test_tetrad_from_angles_matches_spinor_route():
    # each entry of a batch is the tetrad of its angles alone, bit for bit
    rng = np.random.default_rng(5)
    angles = np.array([random_angles(rng) for _ in range(50)])
    batch = np.array(tetrad_from_angles(*angles.T))
    for i, row in enumerate(angles):
        T = np.array(tetrad_from_angles(*row))
        assert np.array_equal(batch[..., i], T)
        assert np.max(np.abs(T - np.array(reference_tetrad(*row)))) <= 1e-14


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
