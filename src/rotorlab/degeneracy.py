"""Velocity Hessians of the Lagrange density and the Casimir-Jacobian link.

Degrees of freedom are counted in the lab-time gauge (worldline parameter
= x^0), with the null direction in spherical angles.  The five-coordinate
chart (x1, x2, x3, theta, phi) gauge-fixes the null-vector amplitude to
k^0 = 1; the six-coordinate chart adds the amplitude K.  The central check is

    det H = K_factor * (F - P F_P) / (F_P (P^2 + Q) - P F) * d(PP, WW)/d(P, Q)

whose kinematical prefactor must come out independent of F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .fform import FForm, PQPoint, builtin, lagrangian_from_scalars, pq_from_vectors
from .minkowski import DomainError, four
from .noether import casimirs_from_partials
from .spinor import null_from_angles

DOF5 = ("x1", "x2", "x3", "theta", "phi")
DOF6 = ("x1", "x2", "x3", "theta", "phi", "K")

RANK_TOL = 1e-10
POLE_MARGIN = 1e-3
ADMISSIBLE_TOL = 1e-8  # relative size below which a relation factor is degenerate
BRACKET_TOL = 1e-10  # |B(Q)| below which the f(Q) formula gives no K
MAX_SPEED = 0.4  # a random chart state has |v_i| <= MAX_SPEED / sqrt(3)


@dataclass(frozen=True)
class ChartState:
    """Lab-time gauge coordinates and velocities (x-position is cyclic)."""

    theta: float
    phi: float
    v: tuple = (0.0, 0.0, 0.0)
    thetadot: float = 0.0
    phidot: float = 0.0
    K: float = 1.0
    Kdot: float = 0.0
    x: tuple = (0.0, 0.0, 0.0)

    def coords(self, dof):
        q = [*self.x, self.theta, self.phi]
        qd = [*self.v, self.thetadot, self.phidot]
        if len(dof) == 6:
            q.append(self.K)
            qd.append(self.Kdot)
        return np.array(q, dtype=float), np.array(qd, dtype=float)

    def check_pole(self):
        check_off_pole(self.theta)
        return self


def check_off_pole(theta) -> None:
    """Raise DomainError if theta, or an entry of a batch of them, lies within
    POLE_MARGIN of a chart pole."""
    jets.raise_where(np.minimum(abs(theta), abs(np.pi - theta)) < POLE_MARGIN,
                     DomainError, "theta = {} too close to a chart pole", theta)


def chart_vectors(q, qd, dof):
    """(xdot, k, kdot) from chart coordinates; generic over floats, jets and
    batches of either (rows of (n, B) arrays give (4, B) vectors)."""
    theta, phi = q[3], q[4]
    K = q[5] if len(dof) == 6 else 1.0
    Kd = qd[5] if len(dof) == 6 else 0.0
    st, ct = jets.sin(theta), jets.cos(theta)
    sp, cp = jets.sin(phi), jets.cos(phi)
    n_th = [ct * cp, ct * sp, -st]
    n_ph = [-st * sp, st * cp, 0.0 * st]
    nd = [n_th[i] * qd[3] + n_ph[i] * qd[4] for i in range(3)]
    xdot = four(1.0 + 0.0 * qd[0], qd[0], qd[1], qd[2])
    k = null_from_angles(theta, phi, K)
    # kdot = Kdot (1, n) + K (0, ndot)
    kr = null_from_angles(theta, phi, Kd)
    kdot = four(kr[0], kr[1] + K * nd[0], kr[2] + K * nd[1], kr[3] + K * nd[2])
    return xdot, k, kdot


def chart_scalars(q, qd, dof):
    """(xdot.xdot, k.xdot, kdot.xdot, kdot.kdot) from chart coordinates in
    closed form; generic over floats, jets and batches of either.

    With xdot = (1, v), k = K (1, n) and n.n = 1, n.ndot = 0:

        xdot.xdot = 1 - |v|^2,           k.xdot = K (1 - n.v),
        kdot.xdot = Kdot (1 - n.v) - K ndot.v,
        kdot.kdot = -K^2 (thetadot^2 + sin^2(theta) phidot^2).

    ``chart_vectors`` followed by four ``dot``s gives the same scalars to
    rounding, at about twice the cost.
    """
    theta, phi = q[3], q[4]
    v1, v2, v3, thd, phd = qd[0], qd[1], qd[2], qd[3], qd[4]
    st, ct = jets.sin(theta), jets.cos(theta)
    sp, cp = jets.sin(phi), jets.cos(phi)
    a = cp * v1 + sp * v2
    s = st * phd
    # ndot = thetadot d n/d theta + phidot d n/d phi
    ndv = thd * (ct * a - st * v3) + s * (cp * v2 - sp * v1)
    w = 1.0 - (st * a + ct * v3)
    nd2 = thd * thd + s * s
    xx = 1.0 - (v1 * v1 + v2 * v2 + v3 * v3)
    if len(dof) == 6:
        K, Kd = q[5], qd[5]
        return xx, K * w, Kd * w - K * ndv, -(K * K) * nd2
    return xx, w, -ndv, -nd2


def chart_lagrangian(F: FForm, q, qd, dof):
    return lagrangian_from_scalars(F, *chart_scalars(q, qd, dof))


@dataclass(frozen=True)
class HessianReport:
    matrix: np.ndarray
    singular_values: np.ndarray  # descending
    rank: int  # singular values above RANK_TOL * the largest
    det: float
    dof: tuple

    @property
    def is_singular(self) -> bool:
        return self.rank < len(self.dof)

    @property
    def margin(self) -> float:
        """sigma_min / (RANK_TOL sigma_max): at most 1 iff the Hessian is singular."""
        sv = self.singular_values
        return float(sv[-1] / (RANK_TOL * max(sv[0], 1e-300)))


def hessian(F: FForm, state: ChartState, dof=DOF5) -> HessianReport:
    """Exact second-derivative matrix of L with respect to the velocities."""
    state.check_pole()
    q, qd = state.coords(dof)
    n = len(dof)
    vs = jets.variables(*qd)
    qj = list(q)  # coordinates enter as plain values
    L = chart_lagrangian(F, qj, vs, dof)
    H = L.h
    # an F that overflows leaves non-finite entries, which the SVD rejects:
    # the singular values of such an H are NaN, and its rank 0
    finite = np.isfinite(H).all()
    sv = np.linalg.svd(H, compute_uv=False) if finite else np.full(n, np.nan)
    rank = int(np.sum(sv > RANK_TOL * max(sv[0], 1e-300)))
    return HessianReport(matrix=H, singular_values=sv, rank=rank,
                         det=float(np.linalg.det(H)), dof=tuple(dof))


def jacobian_pq(F: FForm, at: PQPoint) -> float:
    """det d(PP, WW)/d(P, Q): the closed-form Casimirs on first-order jets in
    (P, Q), whose gradients come from the partials of F."""
    v = F.eval(at.P, at.Q)
    P, Q = jets.variables(at.P, at.Q)
    h = np.zeros((2, 2))  # second derivatives are not needed
    PP, WW = casimirs_from_partials(
        F, P, Q,
        jets.Jet(v.F, np.array([v.F_P, v.F_Q]), h),
        jets.Jet(v.F_P, np.array([v.F_PP, v.F_PQ]), h),
        jets.Jet(v.F_Q, np.array([v.F_PQ, v.F_QQ]), h))
    return float(PP.g[0] * WW.g[1] - PP.g[1] * WW.g[0])


@dataclass(frozen=True)
class RelationEntry:
    form: str
    admissible: bool
    reason: str = ""
    det_hessian: float = 0.0
    middle: float = 0.0
    jacobian: float = 0.0
    K: float = float("nan")


def relation_check(forms, state: ChartState, dof=DOF6) -> list:
    """Extract the kinematical factor K = det H / (middle * jacobian) per form.

    Forms for which the middle ratio or the Casimir Jacobian degenerates at
    the state's (P, Q) are flagged inadmissible instead of dividing by ~0.
    All admissible K values at one state must coincide (F-independence).
    """
    xdot, k, kdot = chart_vectors(*state.coords(dof), dof)
    out = []
    for F in forms:
        at = pq_from_vectors(xdot, k, kdot, F.ell)
        P, Q = at.P, at.Q
        v = F.eval(P, Q)
        num = v.F - P * v.F_P
        den = v.F_P * (P**2 + Q) - P * v.F
        jac = jacobian_pq(F, at)
        scale = max(abs(v.F), 1.0)
        H = hessian(F, state, dof)
        if abs(den) <= ADMISSIBLE_TOL * scale or abs(num) <= ADMISSIBLE_TOL * scale:
            out.append(RelationEntry(form=F.name, admissible=False,
                                     reason="middle ratio degenerate",
                                     det_hessian=H.det, jacobian=jac))
            continue
        if abs(jac) <= ADMISSIBLE_TOL * max(abs(H.det), 1.0):
            out.append(RelationEntry(form=F.name, admissible=False,
                                     reason="Casimir Jacobian degenerate",
                                     det_hessian=H.det, middle=num / den, jacobian=jac))
            continue
        K = H.det / ((num / den) * jac)
        out.append(RelationEntry(form=F.name, admissible=True, det_hessian=H.det,
                                 middle=num / den, jacobian=jac, K=K))
    return out


@dataclass(frozen=True)
class FqDetResult:
    Q: float
    bracket: float          # B(Q) = 1 + 2Q (f'/f + f''/f')
    formula: float          # f^3 f'^2 B(Q)
    direct_det: float       # det of the 5-dof Hessian
    K: float                # direct / formula, when B != 0


def fq_det_formula(f, state: ChartState, ell: float = 1.0,
                   M: float = 1.0) -> FqDetResult:
    """Closed-form 5-dof determinant structure for F = f(Q).

    ``f`` is a generic callable with two derivatives (jet-compatible).
    """
    F = builtin("fq", f=f, M=M, ell=ell)
    Q = pq_from_vectors(*chart_vectors(*state.coords(DOF5), DOF5), ell).Q
    (qj,) = jets.variables(Q)
    fj = f(qj)
    if not isinstance(fj, jets.Jet):
        raise DomainError("constant f(Q) has no Hessian-determinant formula")
    fv, fp, fpp = fj.f, fj.g[0], fj.h[0, 0]
    if fp == 0.0:
        raise DomainError(f"f'(Q) = 0 at Q = {Q}")
    bracket = 1.0 + 2.0 * Q * (fp / fv + fpp / fp)
    formula = fv**3 * fp**2 * bracket
    direct = hessian(F, state, DOF5).det
    K = direct / formula if abs(bracket) > BRACKET_TOL else float("nan")
    return FqDetResult(Q=Q, bracket=bracket, formula=formula, direct_det=direct, K=K)


def random_chart_state(rng) -> ChartState:
    """Generic state away from chart poles, with subluminal xdot."""
    v = rng.uniform(-MAX_SPEED, MAX_SPEED, 3) / np.sqrt(3.0)
    return ChartState(
        theta=rng.uniform(0.4, np.pi - 0.4),
        phi=rng.uniform(0.0, 2 * np.pi),
        v=tuple(v),
        thetadot=rng.uniform(-1.0, 1.0),
        phidot=rng.uniform(-1.0, 1.0),
        K=rng.uniform(0.5, 2.0),
        Kdot=rng.uniform(-0.5, 0.5),
        x=tuple(rng.uniform(-1.0, 1.0, 3)),
    ).check_pole()
