"""Minkowski four-vector algebra with signature (+, -, -, -).

Conventions fixed here and used everywhere else: metric diag(1, -1, -1, -1)
and Levi-Civita orientation eps^{0123} = +1.  Vectors are length-4 sequences;
a batch of B vectors is a (4, B) array, the batch axis last.  ``dot`` accepts
plain floats, :class:`rotorlab.jets.Jet` entries or (B,) float arrays alike;
``epsilon_contract``, which reads the metric's signs from its sign table,
and ``bivector`` take float arrays only.
"""

from __future__ import annotations

import itertools

import numpy as np

from .jets import _NUMBER

SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def four(c0, c1, c2, c3):
    """Pack components into a four-vector array: (4,) floats, (4, B) floats if
    a component is a (B,) array, or object dtype if jet-valued."""
    comps = [c0, c1, c2, c3]
    if all(isinstance(c, _NUMBER) for c in comps):
        return np.array(comps, dtype=float)
    if all(isinstance(c, _NUMBER + (np.ndarray,)) for c in comps):
        return np.array(np.broadcast_arrays(*comps), dtype=float)
    out = np.empty(4, dtype=object)
    out[:] = comps
    return out


def dot(u, v):
    """Scalar product u.v under (+, -, -, -)."""
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


# column mu: the (nu, alpha, beta) of the six terms of v^mu in lexicographic order,
# and their signs: (-1)^mu times that of (nu, alpha, beta) among the other three,
# times the metric's signs of nu, alpha and beta, which lower those indices
_EPS = np.array(list(itertools.permutations(range(4))))[:, 1:].reshape(4, 6, 3).T
_EPS_SIGN = (np.outer([1.0, -1.0, -1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
             * SIGNATURE[_EPS[0]] * SIGNATURE[_EPS[1]] * SIGNATURE[_EPS[2]])


def epsilon_contract(n, w, p):
    """v^mu = eps^{mu nu alpha beta} n_nu w_alpha p_beta for float (4,) or (4, B)
    arrays: per v^mu, one reduce from 0.0 over its six terms in index order, each
    sign n^nu w^alpha p^beta left to right, its sign lowering the indices exactly."""
    sign = _EPS_SIGN.reshape((6, 4) + (1,) * (n.ndim - 1))
    return np.add.reduce(sign * n[_EPS[0]] * w[_EPS[1]] * p[_EPS[2]], axis=0, initial=0.0)


def _rotation_matrix(axis_angle):
    v = np.asarray(axis_angle, dtype=float)
    angle = np.linalg.norm(v)
    if angle == 0.0:
        return np.eye(3)
    k = v / angle
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def lorentz_matrix(boost=(0.0, 0.0, 0.0), rotation=(0.0, 0.0, 0.0)):
    """Proper orthochronous Lorentz matrix: rotation (axis-angle) then boost.

    ``boost`` is the velocity three-vector in units c = 1; must satisfy |v| < 1.
    """
    beta = np.asarray(boost, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise DomainError(f"boost speed^2 = {b2} >= 1")
    L = np.eye(4)
    L[1:, 1:] = _rotation_matrix(rotation)
    if b2 > 0.0:
        g = 1.0 / np.sqrt(1.0 - b2)
        B = np.eye(4)
        B[0, 0] = g
        B[0, 1:] = g * beta
        B[1:, 0] = g * beta
        B[1:, 1:] += (g - 1.0) / b2 * np.outer(beta, beta)
        L = B @ L
    return L


def gram_det(k, m, a, b):
    """Determinant of the 4x4 matrix of mutual scalar products; one per batch
    entry for (4, B) vectors."""
    vs = [k, m, a, b]
    G = np.array([[dot(u, v) for v in vs] for u in vs], dtype=float)
    return np.linalg.det(np.moveaxis(G, (0, 1), (-2, -1)))


def bivector(u, p, k, pi):
    """Angular-momentum style bivector M^{mu nu} = u^p^ - p^u^ + k^pi^ - pi^k^;
    (4, 4, B) for (4, B) vectors."""
    u, p, k, pi = (np.asarray(v, dtype=float) for v in (u, p, k, pi))
    up, kpi = u[:, None] * p, k[:, None] * pi
    return up - up.swapaxes(0, 1) + (kpi - kpi.swapaxes(0, 1))
