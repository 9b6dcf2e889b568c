"""Lorentz scalars of a null tetrad coupled to a worldline.

Covers the ten basic scalars, their behaviour under (possibly time-dependent)
gauge transformations, the six gauge-invariant combinations iota_1..iota_6,
and a numerical reproduction of the counting argument that fixes the number
of independent invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import jets
from .fform import velocity_scalars
from .minkowski import DomainError, dot, four
from .spinor import gauge_transform, tetrad_from_angles, tetrad_relations


JET_TOL = 1e-10  # largest tetrad-relation residual of a valid jet, per unit scale
COUNT_SAMPLES = 60  # scalar points of the invariant count
RANK_REL = 1e-8  # least singular value counted in a rank, relative to the largest
RAPIDITY_MAX = 1.2  # largest rapidity of a random timelike xdot


@dataclass(frozen=True)
class KinematicJet:
    """Values and first parameter-derivatives of (x, k, m, a, b) at one
    instant, as (4,) arrays, or at a batch of B instants, as (4, B) arrays."""

    xdot: np.ndarray
    k: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kdot: np.ndarray
    mdot: np.ndarray
    adot: np.ndarray
    bdot: np.ndarray

    batch = None  # (batch, index) of an entry of ``entries()``; not a field
    lifted = None  # (t, tetrad) of the jets ``_unlift`` built it from; not a field

    @cached_property
    def velocity_scalars(self):
        """``fform.velocity_scalars`` of this jet, seeded once for every form's momenta."""
        return velocity_scalars(self.xdot, self.k, self.kdot)

    @cached_property
    def momenta_by_form(self) -> dict:
        """Per form, its entries' columns of a ``noether.batch_casimirs`` pass, and it."""
        return {}

    def entries(self) -> list:
        """The single-instant jets of a batch, in batch order, each linked to
        the batch as its ``batch``."""
        vs = [getattr(self, f.name) for f in fields(self)]
        out = [KinematicJet(*(v[:, i] for v in vs)) for i in range(self.k.shape[1])]
        for i, J in enumerate(out):
            J.__dict__["batch"] = (self, i)
        return out

    def rows(self, s: slice) -> KinematicJet:
        """Entries ``s`` of a built batch, holding its lift's entries ``s`` (``lifted``)."""
        def cut(u):  # a first-order jet in t
            return jets.Jet(u.f[s], u.g[:, s], None)
        t, tetrad = self.lifted
        return _unlift(self.xdot[:, s], cut(t), *(four(*map(cut, v)) for v in tetrad))

    def scale(self):
        """Magnitude reference for residual tolerances, one per entry of a
        batch (squared as a float is, see ``jets.power``)."""
        vs = np.stack([getattr(self, f.name) for f in fields(self)])
        return jets.power(np.maximum(1.0, np.max(np.abs(vs), axis=(0, 1))), 2)

    def constraint_residuals(self) -> dict:
        """Tetrad relations and their parameter-derivatives (should all vanish),
        from the relations of the lifted tetrad."""
        rel = tetrad_relations(*_lift(self)[1])
        return {**{name: r.f for name, r in rel.items()},
                **{f"d({name})": r.g[0] for name, r in rel.items()}}

    def validate(self):
        """This jet, if xdot is timelike with k.xdot > 0 and the tetrad relations
        hold (a NaN fails each check); a batch is checked entry by entry."""
        jets.raise_where(np.logical_not(dot(self.xdot, self.xdot) > 0.0), DomainError,
                         "xdot must be timelike")
        jets.raise_where(np.logical_not(dot(self.k, self.xdot) > 0.0), DomainError,
                         "k.xdot must be positive")
        worst = np.max(np.abs(list(self.constraint_residuals().values())), axis=0)
        jets.raise_where(np.logical_not(worst <= JET_TOL * self.scale()), DomainError,
                         "inconsistent kinematic jet, residual {}", worst)
        return self


def _lift(J: KinematicJet):
    """The parameter t, at 0, and the tetrad (k, m, a, b) of J as first-order
    jets v + vdot t in t, batched as J is: those J was built from, if held."""
    if J.lifted is not None:
        return J.lifted
    (t,) = jets.variables(0.0 * J.k[0], order=1)
    pairs = ((J.k, J.kdot), (J.m, J.mdot), (J.a, J.adot), (J.b, J.bdot))
    return t, tuple(four(*(v[i] + vd[i] * t for i in range(4))) for v, vd in pairs)


def _unlift(xdot, t, *tetrad) -> KinematicJet:
    """The kinematic jet of a tetrad whose entries are jets in the one
    parameter t, holding t and the tetrad for ``_lift``."""
    values, rates = zip(*map(jets.split, tetrad))
    J = KinematicJet(xdot, *values, *rates)
    J.__dict__["lifted"] = (t, tetrad)
    return J


@dataclass(frozen=True)
class GaugeJet:
    """Gauge parameters and their parameter-derivatives: floats, or (B,)
    arrays for a batch of kinematic jets."""

    alpha: float
    beta: float
    alphadot: float = 0.0
    betadot: float = 0.0


@dataclass(frozen=True)
class BasicScalars:
    """The ten basic Lorentz scalars (gauge-variant by design)."""

    a_kdot: float
    b_kdot: float
    k_xdot: float
    a_xdot: float
    b_xdot: float
    a_bdot: float
    m_kdot: float
    m_xdot: float
    a_mdot: float
    b_mdot: float


def basic_scalars(J: KinematicJet) -> BasicScalars:
    return BasicScalars(
        a_kdot=dot(J.a, J.kdot),
        b_kdot=dot(J.b, J.kdot),
        k_xdot=dot(J.k, J.xdot),
        a_xdot=dot(J.a, J.xdot),
        b_xdot=dot(J.b, J.xdot),
        a_bdot=dot(J.a, J.bdot),
        m_kdot=dot(J.m, J.kdot),
        m_xdot=dot(J.m, J.xdot),
        a_mdot=dot(J.a, J.mdot),
        b_mdot=dot(J.b, J.mdot),
    )


def gauge_jet_transform(J: KinematicJet, G: GaugeJet) -> KinematicJet:
    """Apply the (alpha, beta) gauge shift with parameter-dependent rates."""
    t, T = _lift(J)
    return _unlift(J.xdot, t, *gauge_transform(*T, G.alpha + G.alphadot * t,
                                               G.beta + G.betadot * t))


def iota(J: KinematicJet) -> np.ndarray:
    """The six functionally independent gauge-invariant scalars."""
    s = basic_scalars(J)
    i1, i2, i3 = s.a_kdot, s.b_kdot, s.k_xdot
    i4 = s.k_xdot * s.m_xdot - s.a_xdot**2 - s.b_xdot**2
    i5 = 0.5 * s.k_xdot * s.m_kdot - s.a_kdot * s.a_xdot - s.b_kdot * s.b_xdot
    i6 = s.a_xdot * s.b_kdot - s.a_kdot * s.b_xdot + s.a_bdot * s.k_xdot
    return np.array([i1, i2, i3, i4, i5, i6])


def identity_checks(J: KinematicJet) -> dict:
    """Residuals of the tetrad-decomposition identities among the scalars,
    and of am.bk - ak.bm = 0, which holds in the special gauge that
    ``tetrad_from_angles`` builds (a^0 = b^0 = 0, guarded here)."""
    jets.raise_where(abs(J.a[0]) + abs(J.b[0]) > 1e-9 * J.scale(), DomainError,
                     "jet is not in the special gauge a^0 = b^0 = 0")
    s, i = basic_scalars(J), iota(J)
    return {
        "kdkd+ak2+bk2": dot(J.kdot, J.kdot) + s.a_kdot**2 + s.b_kdot**2,
        "xx-decomposition": dot(J.xdot, J.xdot) - i[3],
        "kdx-decomposition": dot(J.kdot, J.xdot) - i[4],
        "am.bk-ak.bm": s.a_mdot * s.b_kdot - s.a_kdot * s.b_mdot,
    }


# -- invariant counting -----------------------------------------------------
#
# The binomial ansatz over the five gauge-shifted scalars
# J = (a.xdot, b.xdot, a.bdot, m.kdot, m.xdot):
#   G = sum_{i<=4} [c_i + sum_{j>=i} d_ij J_j] J_i + c_5 J_5,
# with 15 coefficients V = (c_1..c_5, d_11..d_44).  Requiring the coefficients
# of alpha, beta, alpha^2, beta^2, alpha*beta in G(shifted) - G to vanish gives
# a 5x15 linear system A(s) V = 0 whose entries depend on the scalar point s.
# Each feature of the shifted scalars is quadratic in (alpha, beta), so these
# coefficients are read off exactly from second-order jets in (alpha, beta)
# at 0.  The nullspace is computed over the field of functions of s by
# eliminating a fixed generic pivot set, so each nullspace vector is itself a
# function of s.

_D_IDX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def _features(Jv) -> list:
    """The 15 ansatz features of the five scalars ``Jv``: numbers, arrays or
    jets."""
    return list(Jv) + [Jv[i] * Jv[j] for i, j in _D_IDX]


def _condition_matrices(points):
    """(B, 5, 15) matrices of the alpha/beta monomial conditions at the B
    scalar points, the rows of ``points``, from one pass of jets batched over
    them: row order alpha, beta, alpha^2, beta^2, alpha*beta."""
    u1, u2, u3, *Jv = points.T
    alpha, beta = jets.variables(0.0 * u1, 0.0 * u1)
    shifted = [
        Jv[0] + alpha * u3,
        Jv[1] + beta * u3,
        Jv[2] - alpha * u2 + beta * u1,
        Jv[3] + 2 * alpha * u1 + 2 * beta * u2,
        Jv[4] + 2 * alpha * Jv[0] + 2 * beta * Jv[1] + (alpha**2 + beta**2) * u3,
    ]
    cols = [(F.g[0], F.g[1], 0.5 * F.h[0, 0], 0.5 * F.h[1, 1], F.h[0, 1])
            for F in _features(shifted)]
    return np.array(cols).transpose(2, 1, 0)


def _rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL * sv[0]))


def draw_count_points(rng) -> np.ndarray:
    """COUNT_SAMPLES random scalar points with |k.xdot| > 0.3: tables -2 + 4 u
    (numpy's ``uniform(-2, 2)``) of the rows still missing, 8 numbers a point."""
    points = np.empty((0, 8))
    while len(points) < COUNT_SAMPLES:
        s = -2.0 + 4.0 * rng.random((COUNT_SAMPLES - len(points), 8))
        points = np.concatenate([points, s[abs(s[:, 2]) > 0.3]])  # k.xdot away from 0
    return points


@dataclass(frozen=True)
class CountReport:
    rank: int
    nullity: int
    zero_combos: int
    functional_rank: int
    total_independent: int


def reproduce_invariant_count(points) -> CountReport:
    """Reproduce the invariant-counting argument at the scalar points, the rows
    of a (B, 8) table such as ``draw_count_points`` draws.

    Reports the rank/nullity of the condition system, the number of nullspace
    combinations whose invariants vanish identically, and the functional rank
    of the surviving invariants with respect to the gauge-shifted scalars
    (their gradients along the three manifestly invariant scalars carry no
    new information and are excluded from the count).
    """
    A = _condition_matrices(points)
    ranks = {_rank(M) for M in A[:10]}
    if len(ranks) != 1:
        raise RuntimeError(f"condition-matrix rank is not constant: {ranks}")
    rank = ranks.pop()

    # fixed pivot set: leftmost independent columns at a generic point, i.e.
    # the pivots a row-reduction in the natural coefficient order would use
    pivots = []
    for c in range(15):
        trial = pivots + [c]
        if np.linalg.matrix_rank(A[0][:, trial], tol=1e-10) == len(trial):
            pivots.append(c)
        if len(pivots) == rank:
            break
    free = [c for c in range(15) if c not in pivots]

    # null bases N(s), (B, 15, nullity): the free coefficients one-hot, the
    # pivot coefficients solved for
    N = np.zeros((len(points), 15, len(free)))
    N[:, free, range(len(free))] = 1.0
    N[:, pivots] = np.linalg.solve(A[:, :, pivots], -A[:, :, free])

    G = np.einsum("kb,bkr->br", np.array(_features(points[:, 3:].T)), N)
    G = G / np.linalg.norm(G, axis=1, keepdims=True)
    surv_rank = _rank(G)
    zero_combos = G.shape[1] - surv_rank

    # surviving combinations (constant coefficients across points)
    _, _, Vt = np.linalg.svd(G)
    combos = Vt[:surv_rank].T

    # functional rank: gradients of the surviving invariants with respect to
    # the five gauge-shifted scalars, coefficient functions held fixed
    dfeat = np.array([F.g for F in _features(jets.variables(*points[0, 3:]))])
    functional_rank = _rank((N[0] @ combos).T @ dfeat)

    return CountReport(rank=rank, nullity=15 - rank, zero_combos=zero_combos,
                       functional_rank=functional_rank, total_independent=functional_rank + 3)


# -- jet construction -------------------------------------------------------
#
# A random jet is drawn first, as a row of PATH_NUMBERS plain numbers, and
# built afterwards: ``kinematic_jets`` builds a whole table of rows in one pass
# of batched jets, each entry bit-identical to its row built alone.

# (lo, hi, rate) of the four angle paths of a random kinematic jet: theta,
# phi, psi (which stays positive for all t) and Phi
KINEMATIC_RANGES = ((0.4, np.pi - 0.4, 1.0), (0.0, 2 * np.pi, 1.0),
                    (0.6, 3.0, 0.5), (0.0, 4 * np.pi, 1.0))
PATH_NUMBERS = 21  # a path's row: its angle table (16), xdot's rapidity, normal triple, scale

# (lo, hi) of the (4, 4) table of a random path's angle rows (base, amp / rate,
# freq, off), one row per angle of KINEMATIC_RANGES
_PATH_LO = np.array([(lo, 0.05, 0.5, 0.0) for lo, _, _ in KINEMATIC_RANGES])
_PATH_SPAN = np.array([(hi, 0.4, 2.0, 2 * np.pi) for _, hi, _ in KINEMATIC_RANGES]) - _PATH_LO
_PATH_RATE = np.array([rate for _, _, rate in KINEMATIC_RANGES])


def draw_path(rng) -> np.ndarray:
    """A random path's row: 17 uniform numbers in one call, xdot's normal
    triple, which takes a variable number of generator words, and one more
    uniform number."""
    return np.concatenate([rng.random(17), rng.normal(size=3), [rng.random()]])


def kinematic_jets(table) -> KinematicJet:
    """The kinematic jets at parameter 0 of the paths of a (B, PATH_NUMBERS)
    table, in one pass of first-order jets batched over its rows: one validated
    batch, in row order.

    Each uniform u becomes lo + span * u, numpy's ``uniform`` arithmetic: the
    angle table row by row over ``KINEMATIC_RANGES``, each amplitude then times
    its angle's rate (each offset spans [0, 2 pi)), xdot's rapidity
    RAPIDITY_MAX u and its scale 0.5 + 1.5 u.  xdot's direction is the normal
    triple over its norm, taken row by row: a batched norm may round otherwise."""
    table = np.reshape(table, (-1, PATH_NUMBERS))
    rows = _PATH_LO + _PATH_SPAN * table[:, :16].reshape(-1, 4, 4)
    rows[:, :, 1] *= _PATH_RATE
    (t,) = jets.variables(np.zeros(len(table)), order=1)
    angles = [base + amp * jets.sin(freq * t + off)
              for base, amp, freq, off in rows.transpose(1, 2, 0)]
    eta, n, scale = RAPIDITY_MAX * table[:, 16], table[:, 17:20], 0.5 + 1.5 * table[:, 20]
    n = n / np.array([np.linalg.norm(r) for r in n])[:, None]
    xdot = scale * four(np.cosh(eta), *(np.sinh(eta) * n.T))
    return _unlift(xdot, t, *tetrad_from_angles(*angles)).validate()


def random_kinematic_jet(rng) -> KinematicJet:
    """Consistent random jet from a random analytic spinor path, at parameter 0."""
    return kinematic_jets(draw_path(rng)).entries()[0]
