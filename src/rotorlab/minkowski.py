"""Minkowski four-vector algebra with signature (+, -, -, -).

Conventions fixed here and used everywhere else: metric diag(1, -1, -1, -1)
and Levi-Civita orientation eps^{0123} = +1.  Vectors are length-4 sequences;
all kernels are written component-wise so they accept plain floats,
:class:`rotorlab.jets.Jet` entries, or (B,) float arrays (a batch of B
vectors stored as a (4, B) array, the batch axis last) alike.
"""

from __future__ import annotations

import itertools

import numpy as np

from .jets import _NUMBER

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


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


def lower(u):
    """Lower the index: (u0, -u1, -u2, -u3)."""
    return four(u[0], -u[1], -u[2], -u[3])


# (permutation, sign) pairs for eps^{0123} = +1
_EPS = []
for _p in itertools.permutations(range(4)):
    _s = 1
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _s = -_s
    _EPS.append((_p, _s))


def epsilon_contract(n, w, p):
    """v^mu = eps^{mu nu alpha beta} n_nu w_alpha p_beta, indices lowered by the metric."""
    nl, wl, pl = lower(n), lower(w), lower(p)
    out = [0.0, 0.0, 0.0, 0.0]
    for (mu, nu, al, be), sign in _EPS:
        out[mu] = out[mu] + sign * nl[nu] * wl[al] * pl[be]
    return four(*out)


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


def _outer(u, v):
    """u^mu v^nu, per batch entry for (4, B) arrays."""
    return u[:, None] * v


def bivector(u, p, k, pi):
    """Angular-momentum style bivector M^{mu nu} = u^p^ - p^u^ + k^pi^ - pi^k^;
    (4, 4, B) for (4, B) vectors."""
    u, p, k, pi = (np.asarray(v, dtype=float) for v in (u, p, k, pi))
    M = _outer(u, p) - _outer(p, u)
    M += _outer(k, pi) - _outer(pi, k)
    return M
