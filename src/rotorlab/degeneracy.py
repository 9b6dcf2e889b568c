"""Velocity Hessians of the Lagrange density and the Casimir-Jacobian link.

The layer takes a batch of chart states (``chart_states`` of a table) in one
pass of batched jets, each entry bit-identical to the state on its own;
``hessians`` also takes a single state.  Degrees of freedom are counted in
the lab-time gauge (worldline parameter = x^0), with the null direction in
spherical angles.  The five-coordinate chart (x1, x2, x3, theta, phi)
gauge-fixes the null-vector amplitude to k^0 = 1; the six-coordinate chart
adds the amplitude K.  The central check is

    det H = K_factor * (F - P F_P) / (F_P (P^2 + Q) - P F) * d(PP, WW)/d(P, Q)

whose kinematical prefactor must come out independent of F.

L reads a chart state only through four scalar products, ``chart_scalars``.
``chart_scalar_jets`` gives them as one stack of values, gradients and
Hessians written out in closed form, and ``fform.lagrangian_from_scalars``
carries it to L by one chain step through F's partials at (P, Q), so at DOF5
no jet arithmetic runs from the chart state to L (at DOF6, four ``Jet``
products bring in the amplitude K).  The stack does not depend on F, so
``hessians`` forms it once and takes one chain step per (M, ell) group of its
forms, and ``chart_derivatives`` (L's derivatives for ``dynamics``) one; a
report keeps det H, F's partials and (P, Q), all that ``relation_check`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .fform import FForm, FFormValue, form_groups, lagrangian_from_scalars, pq_from_scalars
from .minkowski import DomainError
from .noether import casimirs_from_partials, legendre_p

DOF5 = ("x1", "x2", "x3", "theta", "phi")
DOF6 = ("x1", "x2", "x3", "theta", "phi", "K")

RANK_TOL = 1e-10
POLE_MARGIN = 1e-3
ADMISSIBLE_TOL = 1e-8  # relative size below which a relation factor is degenerate
MAX_SPEED = 0.4  # a random chart state has |v_i| <= MAX_SPEED / sqrt(3)


@dataclass(frozen=True)
class ChartState:
    """Lab-time gauge coordinates and velocities (x-position is cyclic); with
    (B,) arrays for fields, a batch of B states."""

    theta: float
    phi: float
    v: tuple = (0.0, 0.0, 0.0)
    thetadot: float = 0.0
    phidot: float = 0.0
    K: float = 1.0
    Kdot: float = 0.0
    x: tuple = (0.0, 0.0, 0.0)

    def coords(self, dof):
        """(q, qd), each (n,), or (n, B) for a batch."""
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


def _dof5_terms(q, qd):
    """(sin th, cos th, sin ph, cos ph, a, b, n.v, c1) and (xx, w, ndot.v,
    ndot.ndot): the DOF5 chart scalars' products and terms, written once for
    ``chart_scalars`` and ``chart_scalar_jets``.  With n = (sin th cos ph,
    sin th sin ph, cos th): a = cos ph v1 + sin ph v2, b = da/dph, c1 =
    d(n.v)/dth, and ndot = thd dn/dth + phd dn/dph."""
    v1, v2, v3, thd, phd = qd[0], qd[1], qd[2], qd[3], qd[4]
    st, ct, sp, cp = jets.sin(q[3]), jets.cos(q[3]), jets.sin(q[4]), jets.cos(q[4])
    a, b = cp * v1 + sp * v2, cp * v2 - sp * v1
    nv, c1, s = st * a + ct * v3, ct * a - st * v3, st * phd
    return (st, ct, sp, cp, a, b, nv, c1), (1.0 - (v1 * v1 + v2 * v2 + v3 * v3), 1.0 - nv,
                                           thd * c1 + s * b, thd * thd + s * s)


def chart_scalars(q, qd, dof):
    """(xdot.xdot, k.xdot, kdot.xdot, kdot.kdot) from chart coordinates in
    closed form; generic over floats, jets and batches of either.  At DOF6,
    the DOF5 ones (K = 1, Kdot = 0) through ``_amplitude``.

    With xdot = (1, v), k = K (1, n) and n.n = 1, n.ndot = 0:

        xdot.xdot = 1 - |v|^2,           k.xdot = K (1 - n.v),
        kdot.xdot = Kdot (1 - n.v) - K ndot.v,
        kdot.kdot = -K^2 (thetadot^2 + sin^2(theta) phidot^2).
    """
    _, (xx, w, ndv, nd2) = _dof5_terms(q, qd)
    base = xx, w, -ndv, -nd2
    return _amplitude(base, q[5], qd[5]) if len(dof) == 6 else base


def _amplitude(base, K, Kd):
    """xx, K w, Kdot w + K u, K^2 z: the DOF6 chart scalars from the DOF5 ones
    and the amplitude K and its rate, on floats or jets.  Negation is exact, so
    K u is -(K ndot.v) and (K K) z is -(K K) ndot.ndot bit for bit."""
    xx, w, u, z = base
    return xx, K * w, Kd * w + K * u, (K * K) * z


# The DOF5 chart scalars 0: xx, 1: w = k.xdot, 2: u = kdot.xdot, 3: z =
# kdot.kdot, and their variables (q[3:], qd) in ``chart_scalar_jets``:
_TH, _PH, _V1, _V2, _V3, _THD, _PHD = range(7)
# the nonzero first and second derivatives, (scalar, variable[, variable]),
# each Hessian pair once; ``chart_scalar_jets`` lists the values in this order
_GRADIENT = ((0, _V1), (0, _V2), (0, _V3),
             (1, _TH), (1, _PH), (1, _V1), (1, _V2), (1, _V3),
             (2, _TH), (2, _PH), (2, _V1), (2, _V2), (2, _V3), (2, _THD), (2, _PHD),
             (3, _TH), (3, _THD), (3, _PHD))
_HESSIAN = ((1, _TH, _TH), (1, _TH, _PH), (1, _PH, _PH), (1, _TH, _V1), (1, _TH, _V2),
            (1, _TH, _V3), (1, _PH, _V1), (1, _PH, _V2),
            (2, _TH, _TH), (2, _TH, _PH), (2, _PH, _PH), (2, _TH, _V1), (2, _TH, _V2),
            (2, _TH, _V3), (2, _PH, _V1), (2, _PH, _V2),
            (2, _TH, _THD), (2, _PH, _THD), (2, _V1, _THD), (2, _V2, _THD), (2, _V3, _THD),
            (2, _TH, _PHD), (2, _PH, _PHD), (2, _V1, _PHD), (2, _V2, _PHD),
            (3, _TH, _TH), (3, _TH, _PHD), (3, _PHD, _PHD))
# the constant ones, -2: xx in each v_i twice, z in thetadot twice
_HESSIAN_CONST = ((0, _V1, _V1), (0, _V2, _V2), (0, _V3, _V3), (3, _THD, _THD))


def _flat(entries, width):
    """Flat indices of the (scalar, variable[, variable]) entries in an array
    of shape (4, width[, width]): width 7 at DOF5, and 9 at DOF6, where K and
    Kdot take slots 2 and 8 and the DOF5 variables the others."""
    slot = (0, 1, 3, 4, 5, 6, 7) if width == 9 else range(7)
    cols = zip(*((s, *(slot[i] for i in v)) for s, *v in entries))
    return np.ravel_multi_index(tuple(cols), (4,) + (width,) * (len(entries[0]) - 1))


# per width, the gradient entries, then each Hessian pair at (i, j) and at
# (j, i) and the constants
_AT = {w: (_flat(_GRADIENT, w),
           _flat(_HESSIAN + tuple((s, j, i) for s, i, j in _HESSIAN) + _HESSIAN_CONST, w))
       for w in (7, 9)}


def chart_scalar_jets(q, qd, dof):
    """``chart_scalars`` and their rates in (q[3:], qd), x1..x3 being cyclic,
    as one ``jets.stack``; q and qd are (n,), or (n, B) for a batch.

    The values, and the products the rates are written in, come from one
    ``_dof5_terms`` pass, the one ``chart_scalars`` takes: the values are
    ``chart_scalars``' on floats, bit for bit.  The gradients and Hessians of
    the DOF5 scalars are written out in closed form, so no jet arithmetic runs
    at DOF5; ``lagrangian_from_scalars`` then takes L's chain step from them.
    As w = 1 - n.v and u = -ndot.v = thetadot dw/dth + phidot dw/dph at DOF5,
    the rates of u in thetadot and phidot are those of w in theta and phi.
    At DOF6 ``_amplitude`` takes the DOF5 jets, written at width 9, and the
    jets of K and Kdot to xx, K w, Kdot w + K u and K^2 z: four ``Jet`` products.
    """
    shape = np.shape(q)[1:]
    if not shape:  # one state: Python floats, faster than numpy scalars
        q, qd = np.asarray(q).tolist(), np.asarray(qd).tolist()
    v1, v2, v3, thd, phd = qd[0], qd[1], qd[2], qd[3], qd[4]
    (st, ct, sp, cp, a, b, nv, c1), (xx, w, ndv, nd2) = _dof5_terms(q, qd)
    base = xx, w, -ndv, -nd2
    width = 2 * len(dof) - 3
    g_at, h_at = _AT[width]
    G = np.zeros((4, width) + shape)
    H = np.zeros((4, width, width) + shape)
    G.reshape((-1,) + shape)[g_at] = (
        -2.0 * v1, -2.0 * v2, -2.0 * v3,
        -c1, -st * b, -st * cp, -st * sp, -ct,
        thd * nv - phd * ct * b, phd * st * a - thd * ct * b,
        phd * st * sp - thd * ct * cp, -(thd * ct * sp + phd * st * cp), thd * st,
        -c1, -st * b,
        -2.0 * st * ct * phd * phd, -2.0 * thd, -2.0 * st * st * phd)
    h = (nv, -ct * b, st * a, -ct * cp, -ct * sp, st, st * sp, -st * cp,
         -base[2], thd * st * b + phd * ct * a, thd * ct * a + phd * st * b,
         thd * st * cp + phd * ct * sp, thd * st * sp - phd * ct * cp, thd * ct,
         thd * ct * sp + phd * st * cp, phd * st * sp - thd * ct * cp,
         # in thetadot and phidot: w's in theta and phi
         nv, -ct * b, -ct * cp, -ct * sp, st,
         -ct * b, st * a, st * sp, -st * cp,
         -2.0 * (ct * ct - st * st) * phd * phd, -4.0 * st * ct * phd, -2.0 * st * st)
    H.reshape((-1,) + shape)[h_at] = h + h + (np.full(shape, -2.0) if shape else -2.0,) * 4
    if len(dof) == 6:
        _, _, K, *_, Kd = jets.variables(*q[3:], *qd)
        return jets.stack(_amplitude(map(jets.Jet, base, G, H), K, Kd))
    return base, G, H


def chart_lagrangian(F: FForm, q, qd, dof):
    return lagrangian_from_scalars(F, jets.stack(chart_scalars(q, qd, dof)))


def chart_derivatives(F: FForm, q, qd, dof):
    """dL/dq (n,) and the velocity rows of L's Hessian (n, 2n), with columns
    (q, qd), and a trailing batch axis for a batch of states.  x1..x3 are
    cyclic: the chart jets are in q[3:] and qd, and x1..x3's columns are 0."""
    n = len(dof)
    L = lagrangian_from_scalars(F, chart_scalar_jets(q, qd, dof))
    shape = np.shape(q)[1:]
    dq = np.zeros((n,) + shape)
    dq[3:] = L.g[:n - 3]
    hv = np.zeros((n, 2 * n) + shape)
    hv[:, 3:] = L.h[n - 3:]
    return dq, hv


@dataclass(frozen=True)
class HessianReport:
    """The velocity Hessian at one state, or at each state of a batch."""

    matrix: np.ndarray  # (n, n), or (B, n, n)
    singular_values: np.ndarray  # descending; (n,), or (B, n)
    rank: int  # singular values above RANK_TOL * the largest; or (B,)
    det: float  # or (B,)
    partials: FFormValue  # F and its partials at the (P, Q) of the state(s)
    pq: tuple  # (P, Q) of the state(s), whose F and partials ``partials`` holds
    dof: tuple

    @property
    def is_singular(self):
        return self.rank < len(self.dof)

    @property
    def margin(self):
        """sigma_min / (RANK_TOL sigma_max): at most 1 iff the Hessian is singular."""
        sv = self.singular_values
        m = sv[..., -1] / (RANK_TOL * np.maximum(sv[..., 0], 1e-300))
        return m if m.ndim else float(m)


def hessians(forms, state: ChartState, dof=DOF5) -> list:
    """The exact velocity Hessian of L, one ``HessianReport`` per form, at one
    state or at each state of a batch.  The forms share one chart-jet stack, and
    each (M, ell) group of them (``form_groups``) one (P, Q) pass, which F and
    the group's one chain step of L both read, its forms on an axis ahead of the
    states'; each form's F is evaluated once and kept on its report.  One SVD and
    one determinant run over all the blocks, each entry bit for bit its own call's.
    An F that overflows leaves non-finite entries, which the SVD rejects: its
    singular values are NaN, and its rank 0."""
    state.check_pole()
    q, qd = state.coords(dof)
    n, (values, G, H) = len(dof), chart_scalar_jets(q, qd, dof)
    groups = form_groups(forms)
    rpq = {key: pq_from_scalars(*values, key[1]) for key in groups}  # (sqrt(xx), P, Q)
    pq = {key: r[1:] for key, r in rpq.items()}
    found = [(F.eval(*pq[F.M, F.ell]), pq[F.M, F.ell]) for F in forms]
    scalars = values, np.expand_dims(G, -q.ndim), np.expand_dims(H, -q.ndim)
    stack = np.empty((len(forms), q[0].size, n, n))  # (forms, states, n, n)
    for key, group in groups.items():
        v = FFormValue(*map(np.array, zip(*(found[i][0] for i in group))))
        h = lagrangian_from_scalars(forms[group[0]], scalars, v, rpq[key]).h[n - 3:, n - 3:]
        stack[group] = np.moveaxis(h.reshape(n, n, len(group), q[0].size), (0, 1), (2, 3))
    finite = np.isfinite(stack).all(axis=(2, 3))
    sv = np.full(stack.shape[:3], np.nan)
    sv[finite] = np.linalg.svd(stack[finite], compute_uv=False)
    rank = np.sum(sv > RANK_TOL * np.maximum(sv[..., :1], 1e-300), axis=2)
    det = np.linalg.det(stack)
    if q.ndim == 1:
        stack, sv, rank, det = stack[:, 0], sv[:, 0], rank[:, 0].tolist(), det[:, 0].tolist()
    return [HessianReport(*r, *f, dof=tuple(dof)) for *r, f in zip(stack, sv, rank, det, found)]


def hessian(F: FForm, state: ChartState, dof=DOF5) -> HessianReport:
    """``hessians`` of the one form F."""
    return hessians([F], state, dof)[0]


def jacobian_pq(F: FForm, P, Q, v):
    """det d(PP, WW)/d(P, Q): the closed-form Casimirs on first-order jets in
    (P, Q), whose gradients come from the partials ``v = F.eval(P, Q)``."""
    P, Q = jets.variables(P, Q, order=1)
    PP, WW = casimirs_from_partials(
        F, P, Q,
        jets.Jet(v.F, np.array([v.F_P, v.F_Q]), None),
        jets.Jet(v.F_P, np.array([v.F_PP, v.F_PQ]), None),
        jets.Jet(v.F_Q, np.array([v.F_PQ, v.F_QQ]), None))
    return PP.g[0] * WW.g[1] - PP.g[1] * WW.g[0]


def relation_check(forms, reports):
    """The kinematical factor K = det H / (middle * jacobian) of each form at
    each state of a batch: (admissible, K), each of shape (len(forms), B).

    Where the middle ratio or the Casimir Jacobian of a form degenerates at a
    state's (P, Q), the form is inadmissible and its K is NaN, instead of a
    quotient by ~0.  All admissible K values at one state must coincide
    (F-independence).  Every form's det H, its (P, Q), and F and its partials
    there are read from its DOF6 report of ``reports`` (``hessians``), and all
    the forms' entries go through one pass as (forms, B) arrays, the Casimir
    Jacobian one per (M, ell) group of forms (``form_groups``)."""
    (P, Q), det = map(np.array, zip(*(r.pq for r in reports))), np.array([r.det for r in reports])
    v = FFormValue(*map(np.array, zip(*(r.partials for r in reports))))
    num = legendre_p(P, v.F, v.F_P)
    den = v.F_P * (jets.power(P, 2) + Q) - P * v.F
    jac = np.empty(P.shape)
    for g in form_groups(forms).values():
        jac[g] = jacobian_pq(forms[g[0]], P[g], Q[g], FFormValue(*(a[g] for a in v)))
    tol = ADMISSIBLE_TOL * np.maximum(abs(v.F), 1.0)
    # a NaN factor leaves the form admissible, so that K shows it
    ok = ~((abs(den) <= tol) | (abs(num) <= tol)
           | (abs(jac) <= ADMISSIBLE_TOL * np.maximum(abs(det), 1.0)))
    K = np.full(ok.shape, np.nan)
    K[ok] = det[ok] / ((num[ok] / den[ok]) * jac[ok])
    return ok, K


# (lo, hi) of the twelve numbers of a random chart state, in the order drawn:
# v (3, then divided by sqrt 3), theta, phi, thetadot, phidot, K, Kdot, x (3)
_CHART_LO = np.array([-MAX_SPEED] * 3 + [0.4, 0.0, -1.0, -1.0, 0.5, -0.5] + [-1.0] * 3)
_CHART_SPAN = np.array([MAX_SPEED] * 3 + [np.pi - 0.4, 2 * np.pi, 1.0, 1.0, 2.0, 0.5]
                       + [1.0] * 3) - _CHART_LO


def chart_states(table) -> ChartState:
    """Generic states, away from chart poles and with subluminal xdot: one batch
    for an (n, 12) table of uniform numbers, one state for a row of 12.  Each u
    becomes lo + span * u in the order above, numpy's ``uniform`` arithmetic."""
    cols = (_CHART_LO + _CHART_SPAN * table).T
    return ChartState(cols[3], cols[4], tuple(cols[:3] / np.sqrt(3.0)), *cols[5:9],
                      tuple(cols[9:])).check_pole()


def random_chart_state(rng) -> ChartState:
    """Generic state away from chart poles, with subluminal xdot: its twelve
    numbers in one generator call."""
    return chart_states(rng.random(12))
