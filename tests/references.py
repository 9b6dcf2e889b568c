"""Closed forms that the tests compare product output against.

A name belongs here when it is an independent closed form of a result the
product computes by another route, and no product path calls it: the f(Q)
Hessian determinant against ``degeneracy.hessian``, the Casimirs of the
family sqrt(1 + P^2/Q) S(Q) against ``noether.casimirs_closed_form``, and
the reparametrization invariants I0..I4 against the known values at the
rotator's circular solution, and the domain at a float point (``evaluates``:
where ``FForm.eval`` returns) against the batch mask of ``FForm.eval_inside``.
``ref_timelike`` is a random xdot drawn by numpy's per-number calls, against
xdot built from a path's table by ``invariants.kinematic_jets``.
"""

from dataclasses import dataclass

import numpy as np

from rotorlab import jets
from rotorlab.degeneracy import DOF5, ChartState, chart_scalars, hessian
from rotorlab.fform import FForm, pq_from_scalars, scalar_products
from rotorlab.invariants import RAPIDITY_MAX, KinematicJet, iota
from rotorlab.minkowski import DomainError, four
from rotorlab.noether import CasimirPair

BRACKET_TOL = 1e-10  # |B(Q)| below which the f(Q) formula gives no K


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
    F = FForm(func=lambda P, Q: f(Q), name="fq", M=M, ell=ell)
    Q = float(pq_from_scalars(*chart_scalars(*state.coords(DOF5), DOF5), ell)[2])
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


def evaluates(F: FForm, P: float, Q: float) -> bool:
    """Whether the float (P, Q) lies in F's domain: whether ``F.eval`` returns there."""
    try:
        F.eval(P, Q)
    except DomainError:
        return False
    return True


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


def capital_invariants(J: KinematicJet) -> np.ndarray:
    """Reparametrization-invariant set (I0, I1, I2, I3, I4); I1 and I3 are
    Q and P at ell = 1."""
    xx, kx, kdx, kdkd = scalar_products(J.xdot, J.k, J.kdot)
    rt, I3, I1 = pq_from_scalars(xx, kx, kdx, kdkd, 1.0)
    return np.array([xx, I1, iota(J)[5] / (kx * rt), I3, kx / rt])


def ref_timelike(rng):
    """A random timelike xdot by numpy's per-number calls: rapidity, normal
    triple and scale, in the order ``invariants.draw_path`` draws them."""
    eta = rng.uniform(0.0, RAPIDITY_MAX)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    scale = rng.uniform(0.5, 2.0)
    return scale * four(np.cosh(eta), *(np.sinh(eta) * n))
