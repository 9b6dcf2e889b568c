"""Noether charges and Casimir invariants of the Poincare group.

Momenta are velocity-gradients of the Lagrange density computed by
forward-mode differentiation, with the overall sign fixed so the point
particle at rest has positive energy.  L reads the velocities (xdot, kdot)
only through the four scalar products xdot.xdot, k.xdot, kdot.xdot and
kdot.kdot, so those are seeded in closed form as one stack of values and
gradients in the eight velocities (``fform.velocity_scalars``), bit for bit
what seeding the velocities and taking the products by jet arithmetic gives;
a kinematic jet seeds them once for all forms (``KinematicJet.velocity_scalars``).
``fform.lagrangian_from_scalars`` carries them to L's gradient by one
first-order chain step through F's partials at (P, Q), and P and pi are that
gradient times a sign vector.  Every step runs on a batch as on one jet, so
``momenta`` answers a batch's entries from one pass for all forms of one M and
ell (``batch_casimirs``), each column bit for bit the entry's own pass; a form's
other (P, Q) points ride ahead of the batch's in that pass.  The Pauli-Lubanski
vector W = -eps(k, pi, P) needs no angular momentum M; a record forms each of
them when it is read, W at most once, so a caller that stacks many records' P,
pi and k contracts epsilon once for all of them.  The closed-form expressions

    PP = M^2 [(F - P F_P)(F - P F_P - 4 Q F_Q) - Q F_P^2]
    WW = -M^4 ell^2 Q [F_P^2 + 2 F_Q (F - P F_P)]^2

serve as the analytic side of the dual check against the Noether route:
at one (P, Q) (``casimirs_closed_form``), or over a batch of (P, Q) with NaN
outside F's domain (``casimirs_where_defined``: mask and partials from one last
pass of each F's first-order jets, which give a batch of jets its momenta too).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .fform import (FForm, FFormValue, PQPoint, form_groups, lagrangian_from_scalars,
                    pq_from_scalars, velocity_scalars)
from .invariants import KinematicJet
from .minkowski import SIGNATURE, bivector, dot, epsilon_contract

# target values of the fixed mass/spin conditions: PP = M^2, WW = -1/4 M^4 ell^2
FUNDAMENTAL_WW_FACTOR = -0.25

_RAISE_NEGATED = -np.tile(SIGNATURE, 2)


def fundamental_casimirs(M, ell):
    """The fixed Casimirs (PP, WW) = (M^2, -1/4 M^4 ell^2) of mass M, length ell."""
    return M**2, FUNDAMENTAL_WW_FACTOR * M**4 * ell**2


@dataclass(frozen=True)
class CasimirPair:
    PP: float
    WW: float


@dataclass(frozen=True)
class MomentumSet:
    """Noether charges at one instant, or at a batch of B instants (each array
    with a trailing batch axis).  W is formed when first read and kept, so a
    record contracts epsilon at most once; no check reads M, which is formed
    at each read."""

    P: np.ndarray
    pi: np.ndarray
    k: np.ndarray
    x: np.ndarray | None = None  # M's worldline point; None is the origin

    @cached_property
    def W(self) -> np.ndarray:  # Pauli-Lubanski vector
        # W^mu = -1/2 eps^{mu a b c} M_ab P_c; the orbital x^P part of M drops out
        return -epsilon_contract(self.k, self.pi, self.P)

    @property
    def M(self) -> np.ndarray:  # angular momentum bivector M^{mu nu}
        x = np.zeros(self.k.shape) if self.x is None else self.x
        return bivector(x, self.P, self.k, self.pi)

    def casimirs(self) -> CasimirPair:
        """PP and WW: floats at one instant, (B,) arrays for a batch, each
        entry the float result."""
        return CasimirPair(PP=jets.value(dot(self.P, self.P)),
                           WW=jets.value(dot(self.W, self.W)))


def momenta_from_vectors(F: FForm, xdot_v, k_v, kdot_v, x=None, scalars=None,
                         partials=None) -> MomentumSet:
    """Noether charges from raw (xdot, k, kdot) at a worldline point ``x``.

    P and pi are the gradients of L in xdot and kdot, through the four scalar
    products seeded in closed form (``fform.velocity_scalars``) and F's partials,
    or ``scalars`` and ``partials`` given by a caller that holds them.  ``x``
    defaults to the origin; it moves only M, by an orbital piece.  W and M are
    formed when read.  (4, B) arrays give the batched charges of B instants.
    """
    k_v = np.asarray(k_v, dtype=float)
    if scalars is None:
        scalars = velocity_scalars(xdot_v, k_v, kdot_v)
    L = lagrangian_from_scalars(F, scalars, partials)
    # dL/d(xdot^mu) and dL/d(kdot^mu) carry a lower index: raised, and negated
    P, pi = (L.g.T * _RAISE_NEGATED).T.reshape((2, 4) + L.g.shape[1:])
    return MomentumSet(P=P, pi=pi, k=k_v, x=x)


def momenta(F: FForm, J: KinematicJet, x=None) -> MomentumSet:
    """Noether charges at the jet's instant, from its scalar products seeded once.
    An entry of a batch (``KinematicJet.entries``) reads its column of the
    batch's pass of F that ``batch_casimirs`` kept, bit for bit its own pass.
    Any other jet, or an entry with no kept column, takes its own pass."""
    if J.batch is not None:
        S, i = J.batch
        columns, ms = S.momenta_by_form.get(F, ({}, None))
        if i in columns:
            c = columns[i]
            return MomentumSet(ms.P[:, c].copy(), ms.pi[:, c].copy(), J.k, x)
    return momenta_from_vectors(F, J.xdot, J.k, J.kdot, x=x, scalars=J.velocity_scalars)


def legendre_p(P, Fv, FP):
    """F - P F_P, F's Legendre transform in P up to sign, from F's value ``Fv``
    and partial ``FP`` at P: the factor A of the closed-form Casimirs, and the
    numerator of the Hessian-Casimir relation's middle ratio; jet-generic."""
    return Fv - P * FP


def casimirs_from_partials(F: FForm, P, Q, Fv, FP, FQ):
    """(PP, WW) in closed form from F's value ``Fv`` and partials ``FP``,
    ``FQ`` at (P, Q); jet-generic, and each entry of arrays is the float
    result.  Squares go through pow, not numpy's x * x, which can differ by 1
    ulp: ``jets.power``, or ``np.float_power`` (pow on each entry) on arrays,
    where a square that overflows reads inf, as on numpy floats."""
    A = legendre_p(P, Fv, FP)
    square = np.float_power if isinstance(FP, np.ndarray) else jets.power
    FP2 = square(FP, 2)
    PP = F.M**2 * (A * (A - 4.0 * Q * FQ) - Q * FP2)
    WW = -(F.M**4) * F.ell**2 * Q * square(FP2 + 2.0 * FQ * A, 2)
    return PP, WW


def casimirs_where_defined(forms, points):
    """Per form of ``forms``, which share M and ell, (inside, PP, WW, partials)
    over its batch ``points``, a pair of (P, Q) arrays: F's domain, the
    closed-form Casimirs there (NaN elsewhere, each entry the float result) and
    F's first-order partials there (None if no entry is inside), from one last
    pass of each F (``FForm.eval_inside``) and one closed form over all their
    entries inside (``casimirs_from_partials``): the one batched path to it."""
    found = [F.eval_inside(P, Q, order=1) for F, (P, Q) in zip(forms, points)]
    inside = np.concatenate([mask for mask, _ in found])
    PP, WW = np.full(inside.shape, np.nan), np.full(inside.shape, np.nan)
    if inside.any():
        P, Q = (np.concatenate(a)[inside] for a in zip(*points))
        parts = [np.concatenate(a) for a in zip(*(v[:3] for _, v in found if v is not None))]
        PP[inside], WW[inside] = casimirs_from_partials(forms[0], P, Q, *parts)
    PPs, WWs = (np.split(a, np.cumsum([len(P) for P, _ in points])[:-1]) for a in (PP, WW))
    return [(mask, pp, ww, v) for (mask, v), pp, ww in zip(found, PPs, WWs)]


def batch_casimirs(forms, S: KinematicJet, ahead):
    """Per form, (inside, PP, WW) of ``casimirs_where_defined`` at its (P, Q)
    arrays ``ahead``, then at the (P, Q) of the batch of jets S, per group of
    forms of one M and ell.  The partials at S's entries inside give their
    momenta: one pass per group, kept on S (``KinematicJet.momenta_by_form``) for
    ``momenta``; none if a float exception meets them, so each entry's pass warns alone."""
    (f, G, _), B, out = S.velocity_scalars, S.k.shape[1], {}
    for (_, ell), group in form_groups(forms).items():
        PQ = pq_from_scalars(*f, ell)[1:]
        found = casimirs_where_defined([forms[i] for i in group],
                                       [tuple(map(np.concatenate, zip(ahead[i], PQ)))
                                        for i in group])
        out.update(zip(group, found))
        mine = [np.flatnonzero(c[0][len(c[0]) - B:]) for c in found]  # S's entries, last
        cols = np.concatenate(mine)
        if not len(cols):
            continue
        # each form's partials at its entries inside, the last of its pass
        parts = [np.concatenate(a) for a in zip(*([a[len(a) - len(j):] for a in c[3][:3]]
                                                    for c, j in zip(found, mine) if len(j)))]
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                ms = momenta_from_vectors(
                    forms[group[0]], S.xdot[:, cols], S.k[:, cols], S.kdot[:, cols],
                    scalars=(f[:, cols], G[..., cols], None),
                    partials=FFormValue(*parts, None, None, None))
        except ArithmeticError:
            continue  # nothing kept: each entry takes its own pass
        column = iter(range(len(cols)))  # each form's entries, to their columns of ms
        for i, j in zip(group, mine):
            S.momenta_by_form[forms[i]] = {e: next(column) for e in j.tolist()}, ms
    return [out[i][:3] for i in range(len(forms))]


def casimirs_closed_form(F: FForm, at: PQPoint) -> CasimirPair:
    v = F.eval(at.P, at.Q)
    PP, WW = casimirs_from_partials(F, at.P, at.Q, v.F, v.F_P, v.F_Q)
    return CasimirPair(PP=float(PP), WW=float(WW))
