"""Noether charges and Casimir invariants of the Poincare group.

Momenta are velocity-gradients of the Lagrange density computed by
forward-mode differentiation, with the overall sign fixed so the point
particle at rest has positive energy.  The closed-form expressions

    PP = M^2 [(F - P F_P)(F - P F_P - 4 Q F_Q) - Q F_P^2]
    WW = -M^4 ell^2 Q [F_P^2 + 2 F_Q (F - P F_P)]^2

serve as the analytic side of the dual check against the Noether route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .fform import FForm, PQPoint, lagrangian_from_vectors
from .invariants import KinematicJet
from .minkowski import DomainError, bivector, dot, epsilon_contract, lower

# target values of the fixed mass/spin conditions: PP = M^2, WW = -1/4 M^4 ell^2
FUNDAMENTAL_WW_FACTOR = -0.25


@dataclass(frozen=True)
class CasimirPair:
    PP: float
    WW: float


@dataclass(frozen=True)
class MomentumSet:
    """Noether charges at one instant, or at a batch of B instants: then each
    array has a trailing batch axis, (4, B) and (4, 4, B)."""

    P: np.ndarray
    pi: np.ndarray
    M: np.ndarray  # angular momentum bivector M^{mu nu}
    W: np.ndarray  # Pauli-Lubanski vector

    def casimirs(self) -> CasimirPair:
        """PP and WW: floats at one instant, (B,) arrays for a batch, each
        entry the float result."""
        return CasimirPair(PP=jets.value(dot(self.P, self.P)),
                           WW=jets.value(dot(self.W, self.W)))


def momenta_from_vectors(F: FForm, xdot_v, k_v, kdot_v, x=None) -> MomentumSet:
    """Noether charges from raw (xdot, k, kdot) at a worldline point ``x``.

    ``x`` defaults to the origin; it shifts the angular momentum by an
    orbital piece but leaves W unchanged.  (4, B) arrays give the batched
    charges of B instants in one pass.
    """
    k_v = np.asarray(k_v, dtype=float)
    if x is None:
        x = np.zeros(k_v.shape)
    vs = jets.variables(*xdot_v, *kdot_v)
    L = lagrangian_from_vectors(F, vs[:4], k_v, vs[4:])
    # dL/d(xdot^mu) and dL/d(kdot^mu) carry a lower index
    P, pi = -lower(L.g[:4]), -lower(L.g[4:])
    # W^mu = -1/2 eps^{mu a b c} M_ab P_c; the orbital x^P part of M drops out
    W = -epsilon_contract(k_v, pi, P)
    return MomentumSet(P=P, pi=pi, M=bivector(x, P, k_v, pi), W=W)


def momenta(F: FForm, J: KinematicJet, x=None) -> MomentumSet:
    """Noether charges of the Lagrange density at the jet's instant."""
    return momenta_from_vectors(F, J.xdot, J.k, J.kdot, x=x)


def casimirs_from_partials(F: FForm, P, Q, Fv, FP, FQ):
    """(PP, WW) in closed form from F's value ``Fv`` and partials ``FP``,
    ``FQ`` at (P, Q); jet-generic, and each entry of arrays is the float
    result (squares through ``jets.power``: numpy squares arrays as x * x,
    Python floats through pow, which can differ by 1 ulp)."""
    A = Fv - P * FP
    FP2 = jets.power(FP, 2)
    PP = F.M**2 * (A * (A - 4.0 * Q * FQ) - Q * FP2)
    WW = -(F.M**4) * F.ell**2 * Q * jets.power(FP2 + 2.0 * FQ * A, 2)
    return PP, WW


def casimirs_closed_form(F: FForm, at: PQPoint) -> CasimirPair:
    v = F.eval(at.P, at.Q)
    PP, WW = casimirs_from_partials(F, at.P, at.Q, v.F, v.F_P, v.F_Q)
    return CasimirPair(PP=float(PP), WW=float(WW))


def casimirs_special_S(S, Q: float, M: float = 1.0, ell: float = 1.0) -> CasimirPair:
    """Casimirs of the distinguished family F = sqrt(1 + P^2/Q) S(Q).

    ``S`` is a generic callable (jet-compatible); only S and S' enter.
    """
    if Q <= 0.0:
        raise DomainError(f"Q = {Q} must be positive")
    (qj,) = jets.variables(Q)
    sj = S(qj)
    s, sp = (sj.f, sj.g[0]) if isinstance(sj, jets.Jet) else (float(sj), 0.0)
    PP = M**2 * s * (s - 4.0 * Q * sp)
    WW = -((2.0 * M**2 * ell * s * np.sqrt(Q) * sp) ** 2)
    return CasimirPair(PP=float(PP), WW=float(WW))


def fundamental_residuals(F: FForm, grid) -> dict:
    """Max deviation of (PP, WW) from the fixed-parameter targets over a grid
    of (P, Q) points, in one batched pass; a NaN is the max."""
    pp_target = F.M**2
    ww_target = FUNDAMENTAL_WW_FACTOR * F.M**4 * F.ell**2
    pts = [pt if isinstance(pt, PQPoint) else PQPoint(*pt) for pt in grid]
    P = np.array([pt.P for pt in pts], dtype=float)
    Q = np.array([pt.Q for pt in pts], dtype=float)
    jets.raise_where(np.logical_not(F.domain(P, Q)), DomainError,
                     f"grid point ({{}}, {{}}) outside domain of {F.name}", P, Q)
    pp_res, ww_res = 0.0, 0.0
    if pts:
        v = F.eval(P, Q)
        PP, WW = casimirs_from_partials(F, P, Q, v.F, v.F_P, v.F_Q)
        pp_res = float(np.max(np.abs(PP / pp_target - 1.0)))
        ww_res = float(np.max(np.abs(WW / ww_target - 1.0)))
    return {
        "form": F.name,
        "points": len(pts),
        "max_PP_residual": pp_res,
        "max_WW_residual": ww_res,
    }
