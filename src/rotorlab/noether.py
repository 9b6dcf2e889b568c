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

__all__ = [
    "CasimirPair",
    "MomentumSet",
    "momenta",
    "casimirs_from_partials",
    "casimirs_closed_form",
    "casimirs_special_S",
    "fundamental_residuals",
    "FUNDAMENTAL_WW_FACTOR",
]

# target values of the fixed mass/spin conditions: PP = M^2, WW = -1/4 M^4 ell^2
FUNDAMENTAL_WW_FACTOR = -0.25


@dataclass(frozen=True)
class CasimirPair:
    PP: float
    WW: float


@dataclass(frozen=True)
class MomentumSet:
    P: np.ndarray
    pi: np.ndarray
    M: np.ndarray  # angular momentum bivector M^{mu nu}
    W: np.ndarray  # Pauli-Lubanski vector

    def casimirs(self) -> CasimirPair:
        return CasimirPair(PP=float(dot(self.P, self.P)), WW=float(dot(self.W, self.W)))


def momenta_from_vectors(F: FForm, xdot_v, k_v, kdot_v, x=None) -> MomentumSet:
    """Noether charges from raw (xdot, k, kdot) at a worldline point ``x``.

    ``x`` defaults to the origin; it shifts the angular momentum by an
    orbital piece but leaves W unchanged.
    """
    if x is None:
        x = np.zeros(4)
    k_v = np.asarray(k_v, dtype=float)
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
    ``FQ`` at (P, Q); jet-generic."""
    A = Fv - P * FP
    PP = F.M**2 * (A * (A - 4.0 * Q * FQ) - Q * FP**2)
    WW = -(F.M**4) * F.ell**2 * Q * (FP**2 + 2.0 * FQ * A) ** 2
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
    """Max deviation of (PP, WW) from the fixed-parameter targets over a grid."""
    pp_target = F.M**2
    ww_target = FUNDAMENTAL_WW_FACTOR * F.M**4 * F.ell**2
    pp_res, ww_res = 0.0, 0.0
    npts = 0
    for pt in grid:
        pt = pt if isinstance(pt, PQPoint) else PQPoint(*pt)
        if not F.in_domain(pt.P, pt.Q):
            raise DomainError(f"grid point ({pt.P}, {pt.Q}) outside domain of {F.name}")
        c = casimirs_closed_form(F, pt)
        pp_res = max(pp_res, abs(c.PP / pp_target - 1.0))
        ww_res = max(ww_res, abs(c.WW / ww_target - 1.0))
        npts += 1
    return {
        "form": F.name,
        "points": npts,
        "max_PP_residual": pp_res,
        "max_WW_residual": ww_res,
    }
