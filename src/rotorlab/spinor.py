"""Spinors, mate spinors and the null tetrad (k, m, a, b) they generate.

Pauli matrices are taken in the standard basis (sigma^0 = identity).  The
spinor built from angles follows the explicit parametrization

    kappa = exp(i Phi/2) sqrt(Psi) [exp(-i phi/2) cos(theta/2),
                                    exp( i phi/2) sin(theta/2)],

whose mate in components is tau = (-conj(kappa^1), conj(kappa^0)) / (kappa^+ kappa).
``tetrad_from_angles`` computes the same tetrad through generic arithmetic so
it can be fed jets (for exact parameter-derivatives of tetrad paths), and
``null_from_angles`` / ``angles_from_null`` map the null vector
k = K (1, n(theta, phi)) to and from its chart angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .minkowski import DomainError, dot, four

__all__ = [
    "Spinor",
    "Tetrad",
    "spinor_from_angles",
    "null_vector",
    "mate",
    "tetrad",
    "gauge_transform",
    "phase_rotate",
    "tetrad_from_angles",
    "tetrad_relations",
    "null_from_angles",
    "angles_from_null",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Spinor:
    """Two complex components."""

    c0: complex
    c1: complex

    @property
    def norm_sq(self) -> float:
        """kappa^+ kappa."""
        return abs(self.c0) ** 2 + abs(self.c1) ** 2

    @property
    def magnitude(self) -> float:
        """sqrt(kappa^+ kappa)."""
        return float(np.sqrt(self.norm_sq))

    def phase_shifted(self, chi: float) -> "Spinor":
        z = np.exp(1j * chi)
        return Spinor(z * self.c0, z * self.c1)


@dataclass(frozen=True)
class Tetrad:
    """Null tetrad: k, m null with k.m = 2; a, b unit spacelike."""

    k: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def vectors(self):
        return self.k, self.m, self.a, self.b

    def expand(self, v):
        """Reconstruct v from its tetrad scalar products."""
        k, m, a, b = self.vectors()
        return (
            0.5 * dot(m, v) * k + 0.5 * dot(k, v) * m - dot(a, v) * a - dot(b, v) * b
        )


def spinor_from_angles(theta: float, phi: float, psi: float, Phi: float) -> Spinor:
    if psi <= 0.0:
        raise DomainError(f"spinor magnitude must be positive, got {psi}")
    Phi = Phi % (2.0 * TWO_PI)
    pref = np.exp(0.5j * Phi) * np.sqrt(psi)
    return Spinor(
        pref * np.exp(-0.5j * phi) * np.cos(0.5 * theta),
        pref * np.exp(0.5j * phi) * np.sin(0.5 * theta),
    )


def _pairs(kappa: Spinor):
    """The components of a spinor as (re, im) pairs."""
    return tuple((complex(c).real, complex(c).imag) for c in (kappa.c0, kappa.c1))


def null_vector(kappa: Spinor) -> np.ndarray:
    """k^mu = kappa^+ sigma^mu kappa; null and future-pointing."""
    kap = _pairs(kappa)
    return _four_part(_pauli_pairs(kap, kap), 0)


def mate(kappa: Spinor) -> Spinor:
    """Canonical mate tau with kappa^0 tau^1 - kappa^1 tau^0 = 1."""
    n = kappa.norm_sq
    if n == 0.0:
        raise DomainError("zero spinor has no mate")
    return Spinor(-np.conj(kappa.c1) / n, np.conj(kappa.c0) / n)


def tetrad(kappa: Spinor) -> Tetrad:
    if kappa.norm_sq == 0.0:
        raise DomainError("zero spinor generates no tetrad")
    return Tetrad(*_tetrad_from_pairs(_pairs(kappa), _pairs(mate(kappa))))


def tetrad_relations(k, m, a, b) -> dict:
    """The ten scalar products of a null tetrad minus their required values
    (k.m = 2, a.a = b.b = -1, all others 0); jet-generic."""
    return {"kk": dot(k, k), "mm": dot(m, m), "km-2": dot(k, m) - 2.0,
            "aa+1": dot(a, a) + 1.0, "bb+1": dot(b, b) + 1.0, "ab": dot(a, b),
            "ak": dot(a, k), "bk": dot(b, k), "am": dot(a, m), "bm": dot(b, m)}


def gauge_transform(T: Tetrad, alpha: float, beta: float) -> Tetrad:
    """Shift a, b, m along k; all scalar products are preserved."""
    k, m, a, b = T.vectors()
    return Tetrad(
        k=k,
        m=m + 2.0 * alpha * a + 2.0 * beta * b + (alpha**2 + beta**2) * k,
        a=a + alpha * k,
        b=b + beta * k,
    )


def phase_rotate(T: Tetrad, delta: float) -> Tetrad:
    """Rotate (a, b) in their spacelike plane; k, m unchanged."""
    c, s = np.cos(delta), np.sin(delta)
    return Tetrad(k=T.k, m=T.m, a=c * T.a - s * T.b, b=s * T.a + c * T.b)


# -- generic (jet-compatible) tetrad construction --------------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cconj(x):
    return (x[0], -x[1])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _pauli_pairs(xi, eta):
    """xi^+ sigma^mu eta on (re, im) component pairs; generic scalars."""
    a0, a1 = _cconj(xi[0]), _cconj(xi[1])
    p00, p11 = _cmul(a0, eta[0]), _cmul(a1, eta[1])
    p01, p10 = _cmul(a0, eta[1]), _cmul(a1, eta[0])
    s2 = (p01[1] - p10[1], p10[0] - p01[0])  # -i a0 eta1 + i a1 eta0
    return _cadd(p00, p11), _cadd(p01, p10), s2, (p00[0] - p11[0], p00[1] - p11[1])


def _four_part(s, part):
    """The real (part 0) or imaginary (part 1) parts of four (re, im) pairs."""
    return four(*(z[part] for z in s))


def _tetrad_from_pairs(kap, tau):
    """(k, m, a, b) from a spinor and its mate as (re, im) pairs: k and m are
    kap^+ sigma kap and tau^+ sigma tau, a + i b is tau^+ sigma kap."""
    t = _pauli_pairs(tau, kap)
    return (_four_part(_pauli_pairs(kap, kap), 0), _four_part(_pauli_pairs(tau, tau), 0),
            _four_part(t, 0), _four_part(t, 1))


def tetrad_from_angles(theta, phi, psi, Phi):
    """Tetrad (k, m, a, b) from angle data; accepts floats or jets.

    Returns four four-vectors whose entries match the scalar type of the
    inputs, so feeding jets yields exact tetrad derivatives along a path.
    """
    half_t, half_p, half_P = 0.5 * theta, 0.5 * phi, 0.5 * Phi
    c, s = jets.cos(half_t), jets.sin(half_t)
    r = jets.sqrt(psi)
    ep = (jets.cos(half_p), jets.sin(half_p))      # exp(+i phi/2)
    em = _cconj(ep)
    eP = (jets.cos(half_P), jets.sin(half_P))      # exp(+i Phi/2)
    emP = _cconj(eP)

    kap = (
        _cmul(eP, _cmul(em, (r * c, 0.0 * c))),
        _cmul(eP, _cmul(ep, (r * s, 0.0 * s))),
    )
    inv_r = 1.0 / r
    tau = (
        _cmul(emP, _cmul(em, (-inv_r * s, 0.0 * s))),
        _cmul(emP, _cmul(ep, (inv_r * c, 0.0 * c))),
    )
    return _tetrad_from_pairs(kap, tau)


# -- the null vector in chart angles ----------------------------------------


def null_from_angles(theta, phi, K):
    """k = K (1, sin(theta) cos(phi), sin(theta) sin(phi), cos(theta));
    accepts floats, jets or batches of either."""
    st = jets.sin(theta)
    return four(K + 0.0 * theta, K * (st * jets.cos(phi)), K * (st * jets.sin(phi)),
                K * jets.cos(theta))


def angles_from_null(k):
    """(theta, phi, K) with ``null_from_angles(theta, phi, K) == k``, theta in
    [0, pi] and phi in (-pi, pi]; accepts floats, jets or batches of either."""
    n1, n2, n3 = k[1] / k[0], k[2] / k[0], k[3] / k[0]
    return jets.acos(n3), jets.atan2(n2, n1), k[0]
