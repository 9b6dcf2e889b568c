"""Reference computations kept apart from rotorlab's own differentiation.

Every oracle here works on plain floats: momenta and velocity Hessians come
from central differences of the Lagrangian, the Casimirs of the fundamental
members and the free-motion solution are written out again from their closed
forms, and the Levi-Civita contraction is this file's own.  Each ``check_*``
function returns a list of problems, empty when the program's output agrees.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _parity(perm) -> int:
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


EPS = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    EPS[_perm] = _parity(_perm)


def mdot(u, v) -> float:
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def eps3(n, w, p) -> np.ndarray:
    """v^mu = eps^{mu nu a b} n_nu w_a p_b with eps^{0123} = +1."""
    return np.einsum("mnab,n,a,b->m", EPS, ETA @ n, ETA @ w, ETA @ p)


def pauli_lubanski(k, pi, P) -> np.ndarray:
    """W^mu = -1/2 eps^{mu a b g} M_ab P_g with M = k^pi - pi^k (x drops out)."""
    M = np.outer(k, pi) - np.outer(pi, k)
    return -0.5 * np.einsum("mabg,ab,g->m", EPS, ETA @ M @ ETA, ETA @ P)


# -- momenta and velocity Hessians by central differences ----------------------
#
# The Lagrangian's derivatives grow like powers of 1/sqrt(xdot.xdot) near the
# light cone, of 1/(k.xdot) as the velocity lines up with k, and of 1/sqrt(Q)
# near Q = 0.  So each difference step is a fixed fraction of the smallest of
# the three (``local_scale``), and the stencils are fourth order.


def local_scale(xdot, k, kdot, floor=1e-4) -> float:
    xx = mdot(xdot, xdot)
    kx = mdot(k, xdot)
    Q = -mdot(kdot, kdot) / kx**2
    scales = (math.sqrt(max(xx, 0.0)) / abs(xdot[0]), kx / abs(k[0] * xdot[0]),
              math.sqrt(max(Q, 0.0)))
    return min(1.0, *(max(s, floor) for s in scales))


def _gradient(f, v, h):
    """Five-point central differences, step h in every variable."""
    v = np.asarray(v, dtype=float)
    g = np.empty(len(v))
    for i in range(len(v)):
        def at(s):
            z = v.copy()
            z[i] += s * h
            return f(z)
        g[i] = (8 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * h)
    return g


def fd_momenta(lagrangian, xdot, k, kdot, rel=3e-4):
    """(P, pi, W) from ``lagrangian(xdot, k, kdot)`` evaluated on floats."""
    xdot, k, kdot = (np.asarray(a, dtype=float) for a in (xdot, k, kdot))
    h = rel * local_scale(xdot, k, kdot)
    g = _gradient(lambda z: float(lagrangian(z[:4], k, z[4:])),
                  np.concatenate([xdot, kdot]), h)
    P = -(ETA @ g[:4])
    pi = -(ETA @ g[4:])
    return P, pi, pauli_lubanski(k, pi, P)


def check_momenta(P, pi, W, ref, tol=1e-6) -> list:
    """Program momenta against ``fd_momenta``, plus W.P = 0."""
    P_ref, pi_ref, W_ref = ref
    problems = []
    scale = max(1.0, float(np.max(np.abs(P_ref))), float(np.max(np.abs(pi_ref))))
    for name, got, want in (("P", P, P_ref), ("pi", pi, pi_ref), ("W", W, W_ref)):
        s = scale * scale if name == "W" else scale
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - want))) / s
        if not err <= tol:
            problems.append(f"{name} differs from the finite-difference oracle by {err:.3g}")
    wp = abs(mdot(W, P)) / scale**3
    if not wp <= tol:
        problems.append(f"W.P = {wp:.3g}, not 0")
    return problems


def fd_hessian_force(lagrangian, q, qd, scale, rel=3e-3):
    """H = d2L/dqd2 and Z = dL/dq - (d2L/dqd dq) qd of ``lagrangian(q, qd)``.

    Mixed second differences with steps h and h/2, combined by Richardson
    extrapolation; h = rel * scale in every variable.
    """
    n = len(q)
    z0 = np.concatenate([np.asarray(q, dtype=float), np.asarray(qd, dtype=float)])

    def L(z):
        return float(lagrangian(list(z[:n]), list(z[n:])))

    def mixed(a, b, h):
        def at(sa, sb):
            z = z0.copy()
            z[a] += sa * h
            z[b] += sb * h
            return L(z)
        return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)

    h = rel * scale
    grad_q = _gradient(lambda z: L(np.concatenate([z, z0[n:]])), z0[:n], h)
    D = np.empty((n, 2 * n))  # D[i, j] = d2L / dqd_i dz_j
    for i in range(n):
        for j in range(2 * n):
            D[i, j] = (4 * mixed(n + i, j, h / 2) - mixed(n + i, j, h)) / 3
    H = 0.5 * (D[:, n:] + D[:, n:].T)
    Z = grad_q - D[:, :n] @ z0[n:]
    return H, Z


def eom_residual(H, Z, qdd) -> float:
    """|H qdd - Z| relative to the size of its terms."""
    r = H @ qdd - Z
    scale = np.max(np.abs(H)) * np.max(np.abs(qdd)) + np.max(np.abs(Z))
    return float(np.max(np.abs(r)) / max(scale, 1e-300))


# -- lab-time chart of a null direction in spherical angles --------------------


def chart_to_vectors(qd, theta, phi, thetadot, phidot):
    """(xdot, k, kdot) of the five-coordinate chart, gauge k^0 = 1."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    n_th = np.array([ct * cp, ct * sp, -st])
    n_ph = np.array([-st * sp, st * cp, 0.0])
    xdot = np.array([1.0, *qd[:3]])
    k = np.array([1.0, st * cp, st * sp, ct])
    kdot = np.array([0.0, *(n_th * thetadot + n_ph * phidot)])
    return xdot, k, kdot


# -- closed forms of the paper --------------------------------------------------


def fundamental_casimirs(M: float, ell: float):
    """PP = M^2 and WW = -M^4 ell^2 / 4 for the fundamental members."""
    return M * M, -0.25 * M**4 * ell * ell


def free_motion(t: float, phase, M: float, ell: float):
    """x(t), k(t) of the fundamental rotator in its rest frame, spin along z.

    ``phase`` returns (phi, phidot) at t.  E is built here by the
    Levi-Civita contraction of (N, W, P), normalized by M^3 ell / 2.
    """
    P = np.array([M, 0.0, 0.0, 0.0])
    W = np.array([0.0, 0.0, 0.0, 0.5 * M * M * ell])
    N = np.array([0.0, 1.0, 0.0, 0.0])
    E = eps3(N, W, P) / (0.5 * M**3 * ell)
    phi, phidot = phase(t)
    x = (P / M) * t + 0.5 * ell * (N * math.sin(phi) + E * math.cos(phi))
    k = P / M + math.copysign(1.0, phidot) * (N * math.cos(phi) - E * math.sin(phi))
    return x, k


EXPORT_HEADER = "t,x0,x1,x2,x3,k0,k1,k2,k3,el_residual_norm,PP,WW"


def check_export(text: str, times, phase, M: float, ell: float,
                 tol=1e-10) -> list:
    """A free-motion export against the closed-form solution and Casimirs."""
    lines = text.splitlines()
    if not lines or lines[0] != EXPORT_HEADER:
        return [f"header {lines[:1]} is not {EXPORT_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(times):
        return [f"{len(rows)} rows for {len(times)} samples"]
    PP_ref, WW_ref = fundamental_casimirs(M, ell)
    worst = {"t": 0.0, "x": 0.0, "k": 0.0, "kk": 0.0, "PP": 0.0, "WW": 0.0}
    for row, t in zip(rows, times):
        v = np.array([float(c) for c in row.split(",")])
        if v.shape != (12,):
            return [f"row {row!r} does not have 12 columns"]
        x, k = free_motion(float(t), phase, M, ell)
        scale = max(1.0, abs(float(t)))
        worst["t"] = max(worst["t"], abs(v[0] - t) / scale)
        worst["x"] = max(worst["x"], float(np.max(np.abs(v[1:5] - x))) / scale)
        worst["k"] = max(worst["k"], float(np.max(np.abs(v[5:9] - k))))
        worst["kk"] = max(worst["kk"], abs(mdot(v[5:9], v[5:9])))
        worst["PP"] = max(worst["PP"], abs(v[10] - PP_ref) / abs(PP_ref))
        worst["WW"] = max(worst["WW"], abs(v[11] - WW_ref) / abs(WW_ref))
    return [f"export {key} off by {err:.3g}" for key, err in worst.items()
            if not err <= tol]
