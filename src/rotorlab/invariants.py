"""Lorentz scalars of a null tetrad coupled to a worldline.

Covers the ten basic scalars, their behaviour under (possibly time-dependent)
gauge transformations, the six gauge-invariant combinations iota_1..iota_6,
the reparametrization-invariant set I0..I4, and a numerical reproduction of
the counting argument that fixes the number of independent invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import jets
from .fform import pq_from_scalars
from .minkowski import DomainError, dot, four
from .spinor import (Tetrad, gauge_transform, null_from_angles, phase_rotate,
                     tetrad_from_angles, tetrad_relations)


JET_TOL = 1e-10  # largest tetrad-relation residual of a valid jet, per unit scale
COUNT_SAMPLES = 60  # scalar points of the invariant count
RANK_REL = 1e-8  # least singular value counted in a rank, relative to the largest
RAPIDITY_MAX = 1.2  # largest rapidity of a random timelike xdot


@dataclass(frozen=True)
class KinematicJet:
    """Values and first parameter-derivatives of (x, k, m, a, b) at one
    instant, or at a batch of B instants: then each array is (4, B)."""

    xdot: np.ndarray
    k: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kdot: np.ndarray
    mdot: np.ndarray
    adot: np.ndarray
    bdot: np.ndarray

    def entries(self) -> list:
        """The single-instant jets of a batch, in batch order."""
        vs = [getattr(self, f.name) for f in fields(self)]
        return [KinematicJet(*(v[:, i] for v in vs)) for i in range(self.k.shape[1])]

    def scale(self):
        """Magnitude reference for residual tolerances, one per entry of a
        batch (squared as a float is, see ``jets.power``)."""
        vs = np.stack([getattr(self, f.name) for f in fields(self)])
        return jets.power(np.maximum(1.0, np.max(np.abs(vs), axis=(0, 1))), 2)

    def constraint_residuals(self) -> dict:
        """Tetrad relations and their parameter-derivatives (should all vanish),
        from the relations of the first-order jets v + vdot t at t = 0."""
        (t,) = jets.variables(0.0 * self.k[0])

        def path(v, vdot):
            return [v[i] + vdot[i] * t for i in range(4)]

        rel = tetrad_relations(path(self.k, self.kdot), path(self.m, self.mdot),
                               path(self.a, self.adot), path(self.b, self.bdot))
        return {**{name: r.f for name, r in rel.items()},
                **{f"d({name})": r.g[0] for name, r in rel.items()}}

    def validate(self):
        """This jet, if it satisfies the tetrad relations (a NaN does not) and
        xdot is timelike with k.xdot > 0; a batch is checked entry by entry."""
        worst = np.max(np.abs(list(self.constraint_residuals().values())), axis=0)
        jets.raise_where(np.logical_not(worst <= JET_TOL * self.scale()), DomainError,
                         "inconsistent kinematic jet, residual {}", worst)
        jets.raise_where(dot(self.xdot, self.xdot) <= 0.0, DomainError,
                         "xdot must be timelike")
        jets.raise_where(dot(self.k, self.xdot) <= 0.0, DomainError,
                         "k.xdot must be positive")
        return self


@dataclass(frozen=True)
class GaugeJet:
    """Gauge parameters and their parameter-derivatives."""

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
    al, be, ald, bed = G.alpha, G.beta, G.alphadot, G.betadot
    k, m, a, b = J.k, J.m, J.a, J.b
    kd, md, ad, bd = J.kdot, J.mdot, J.adot, J.bdot
    T = gauge_transform(Tetrad(k, m, a, b), al, be)
    return KinematicJet(
        xdot=J.xdot, k=k, m=T.m, a=T.a, b=T.b,
        kdot=kd,
        mdot=(md + 2 * ald * a + 2 * al * ad + 2 * bed * b + 2 * be * bd
              + 2 * (al * ald + be * bed) * k + (al**2 + be**2) * kd),
        adot=ad + ald * k + al * kd,
        bdot=bd + bed * k + be * kd,
    )


def phase_rotate_jet(J: KinematicJet, delta: float, deltadot: float = 0.0) -> KinematicJet:
    """Rotate (a, b) through delta with rotation rate deltadot."""
    c, s = np.cos(delta), np.sin(delta)
    T = phase_rotate(Tetrad(J.k, J.m, J.a, J.b), delta)
    adot = c * J.adot - s * J.bdot + deltadot * (-s * J.a - c * J.b)
    bdot = s * J.adot + c * J.bdot + deltadot * (c * J.a - s * J.b)
    return KinematicJet(xdot=J.xdot, k=J.k, m=J.m, a=T.a, b=T.b,
                        kdot=J.kdot, mdot=J.mdot, adot=adot, bdot=bdot)


def iota(J: KinematicJet) -> np.ndarray:
    """The six functionally independent gauge-invariant scalars."""
    s = basic_scalars(J)
    i1, i2, i3 = s.a_kdot, s.b_kdot, s.k_xdot
    i4 = s.k_xdot * s.m_xdot - s.a_xdot**2 - s.b_xdot**2
    i5 = 0.5 * s.k_xdot * s.m_kdot - s.a_kdot * s.a_xdot - s.b_kdot * s.b_xdot
    i6 = s.a_xdot * s.b_kdot - s.a_kdot * s.b_xdot + s.a_bdot * s.k_xdot
    return np.array([i1, i2, i3, i4, i5, i6])


def capital_invariants(J: KinematicJet) -> np.ndarray:
    """Reparametrization-invariant set (I0, I1, I2, I3, I4); I1 and I3 are
    Q and P at ell = 1."""
    xx, kx = dot(J.xdot, J.xdot), dot(J.k, J.xdot)
    rt, I3, I1 = pq_from_scalars(xx, kx, dot(J.kdot, J.xdot), dot(J.kdot, J.kdot), 1.0)
    return np.array([xx, I1, iota(J)[5] / (kx * rt), I3, kx / rt])


def identity_checks(J: KinematicJet, special_gauge: bool = False) -> dict:
    """Residuals of the tetrad-decomposition identities among the scalars."""
    s = basic_scalars(J)
    out = {
        "kdkd+ak2+bk2": dot(J.kdot, J.kdot) + s.a_kdot**2 + s.b_kdot**2,
        "xx-decomposition": dot(J.xdot, J.xdot)
        - (s.k_xdot * s.m_xdot - s.a_xdot**2 - s.b_xdot**2),
        "kdx-decomposition": dot(J.kdot, J.xdot)
        - (0.5 * s.k_xdot * s.m_kdot - s.a_kdot * s.a_xdot - s.b_kdot * s.b_xdot),
    }
    if special_gauge:
        a0 = abs(J.a[0]) + abs(J.b[0])
        if a0 > 1e-9 * J.scale():
            raise DomainError("jet is not in the special gauge a=[0,a_], b=[0,a_ x n]")
        out["am.bk-ak.bm"] = s.a_mdot * s.b_kdot - s.a_kdot * s.b_mdot
    return out


# -- invariant counting -----------------------------------------------------
#
# The binomial ansatz over the five gauge-shifted scalars
# J = (a.xdot, b.xdot, a.bdot, m.kdot, m.xdot):
#   G = sum_{i<=4} [c_i + sum_{j>=i} d_ij J_j] J_i + c_5 J_5,
# with 15 coefficients V = (c_1..c_5, d_11..d_44).  Requiring the coefficients
# of alpha, beta, alpha^2, beta^2, alpha*beta in G(shifted) - G to vanish gives
# a 5x15 linear system A(s) V = 0 whose entries depend on the scalar point s.
# The nullspace is computed over the field of functions of s by eliminating a
# fixed generic pivot set, so each nullspace vector is itself a function of s.

_D_IDX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_AB_NODES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (1.0, -1.0)]
_AB_PINV = np.linalg.pinv(np.array([[a, b, a * a, b * b, a * b] for a, b in _AB_NODES]))


def _features(Jv):
    out = list(Jv)
    for i, j in _D_IDX:
        out.append(Jv[i] * Jv[j])
    return np.array(out)


def _shifted(Jv, u, alpha, beta):
    u1, u2, u3 = u
    return Jv + np.array([
        alpha * u3,
        beta * u3,
        -alpha * u2 + beta * u1,
        2 * alpha * u1 + 2 * beta * u2,
        2 * alpha * Jv[0] + 2 * beta * Jv[1] + (alpha**2 + beta**2) * u3,
    ])


def _condition_matrix(s):
    """5x15 matrix of the alpha/beta monomial conditions at scalar point s.

    Column r fits the monomial coefficients to the change of feature r at the
    six (alpha, beta) nodes: the r-th row of the feature-difference table."""
    u, Jv = s[:3], s[3:]
    base = _features(Jv)
    diffs = np.array([_features(_shifted(Jv, u, a, b)) - base for a, b in _AB_NODES])
    cols = np.empty((15, 5))
    for r, vals in enumerate(np.ascontiguousarray(diffs.T)):
        cols[r] = _AB_PINV @ vals
    return cols.T


def _rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL * sv[0]))


@dataclass(frozen=True)
class CountReport:
    seed: int
    rank: int
    nullity: int
    zero_combos: int
    functional_rank: int
    total_independent: int


def reproduce_invariant_count(seed: int) -> CountReport:
    """Reproduce the invariant-counting argument at random scalar points.

    Reports the rank/nullity of the condition system, the number of nullspace
    combinations whose invariants vanish identically, and the functional rank
    of the surviving invariants with respect to the gauge-shifted scalars
    (their gradients along the three manifestly invariant scalars carry no
    new information and are excluded from the count).
    """
    rng = np.random.default_rng(seed)

    def sample_point():
        while True:
            s = rng.uniform(-2.0, 2.0, 8)
            if abs(s[2]) > 0.3:  # keep k.xdot away from degeneracy
                return s

    points = [sample_point() for _ in range(COUNT_SAMPLES)]
    ranks = {_rank(_condition_matrix(s)) for s in points[:10]}
    if len(ranks) != 1:
        raise RuntimeError(f"condition-matrix rank is not constant: {ranks}")
    rank = ranks.pop()

    # fixed pivot set: leftmost independent columns at a generic point, i.e.
    # the pivots a row-reduction in the natural coefficient order would use
    A0 = _condition_matrix(points[0])
    pivots = []
    for c in range(15):
        trial = pivots + [c]
        if np.linalg.matrix_rank(A0[:, trial], tol=1e-10) == len(trial):
            pivots.append(c)
        if len(pivots) == rank:
            break
    free = [c for c in range(15) if c not in pivots]

    def null_basis(s):
        A = _condition_matrix(s)
        X = np.linalg.solve(A[:, pivots], -A[:, free])
        N = np.zeros((15, len(free)))
        for r, fc in enumerate(free):
            N[fc, r] = 1.0
            N[pivots, r] = X[:, r]
        return N

    def invariants_at(s):
        return _features(s[3:]) @ null_basis(s)

    G = np.vstack([invariants_at(s) for s in points])
    G = G / np.linalg.norm(G, axis=1, keepdims=True)
    surv_rank = _rank(G)
    zero_combos = G.shape[1] - surv_rank

    # surviving combinations (constant coefficients across points)
    _, _, Vt = np.linalg.svd(G)
    combos = Vt[:surv_rank].T

    # functional rank: gradients of the surviving invariants with respect to
    # the five gauge-shifted scalars, coefficient functions held fixed
    s0 = points[0]
    W = null_basis(s0) @ combos  # 15 x surv_rank coefficient vectors
    grads = np.zeros((surv_rank, 5))
    Jv = s0[3:]
    for r in range(surv_rank):
        V = W[:, r]
        g = V[:5].copy()
        for idx, (i, j) in enumerate(_D_IDX):
            g[i] += V[5 + idx] * Jv[j]
            g[j] += V[5 + idx] * Jv[i]
        grads[r] = g
    functional_rank = _rank(grads)

    return CountReport(
        seed=seed,
        rank=rank,
        nullity=15 - rank,
        zero_combos=zero_combos,
        functional_rank=functional_rank,
        total_independent=functional_rank + 3,
    )


# -- jet construction -------------------------------------------------------
#
# A random jet is drawn first, as a KinematicPath of plain numbers, and built
# afterwards: ``kinematic_jets`` evaluates the paths of a whole batch in one
# pass of batched jets, each entry bit-identical to a pass of its own.

# (lo, hi, rate) of the four angle paths of a random kinematic jet: theta,
# phi, psi (which stays positive for all t) and Phi
KINEMATIC_RANGES = ((0.4, np.pi - 0.4, 1.0), (0.0, 2 * np.pi, 1.0),
                    (0.6, 3.0, 0.5), (0.0, 4 * np.pi, 1.0))
# theta, phi, the angle gamma of a in the plane normal to n, and log K
SPECIAL_GAUGE_RANGES = ((0.4, np.pi - 0.4, 1.0), (0.0, 2 * np.pi, 1.0),
                        (0.0, 2 * np.pi, 1.0), (-0.7, 0.7, 1.0))


@dataclass(frozen=True)
class KinematicPath:
    """Four angle paths base + amp sin(freq t + off), one row
    (base, amp, freq, off) each, and a constant timelike xdot."""

    angles: np.ndarray  # (4, 4)
    xdot: np.ndarray  # (4,)


def random_timelike(rng):
    eta = rng.uniform(0.0, RAPIDITY_MAX)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    scale = rng.uniform(0.5, 2.0)
    return scale * four(np.cosh(eta), *(np.sinh(eta) * n))


def draw_kinematic_path(rng, ranges=KINEMATIC_RANGES) -> KinematicPath:
    """Random angle paths within ``ranges``, then a random timelike xdot."""
    angles = [(rng.uniform(lo, hi), rate * rng.uniform(0.05, 0.4),
               rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * np.pi))
              for lo, hi, rate in ranges]
    return KinematicPath(np.array(angles), random_timelike(rng))


def _angles_at(paths, tau: float):
    """The four angles of every path at ``tau``, as jets in tau batched over
    the paths."""
    rows = np.stack([p.angles for p in paths], axis=-1)  # (4, 4, B)
    (t,) = jets.variables(np.full(len(paths), float(tau)))
    return [base + amp * jets.sin(freq * t + off) for base, amp, freq, off in rows]


def _jets_from_tetrad(paths, k, m, a, b) -> list:
    """The single-instant jets, validated, of a tetrad whose entries are jets
    in one parameter batched over the paths, with the paths' xdot."""
    (kv, kd), (mv, md), (av, ad), (bv, bd) = map(jets.split, (k, m, a, b))
    xdot = np.stack([p.xdot for p in paths], axis=-1)
    return KinematicJet(xdot=xdot, k=kv, m=mv, a=av, b=bv, kdot=kd, mdot=md,
                        adot=ad, bdot=bd).validate().entries()


def kinematic_jets(paths, tau: float = 0.0) -> list:
    """The kinematic jets of drawn paths at parameter ``tau``, in one pass."""
    return _jets_from_tetrad(paths, *tetrad_from_angles(*_angles_at(paths, tau)))


def random_kinematic_jet(rng, tau: float = 0.0) -> KinematicJet:
    """Consistent random jet from a random analytic spinor path."""
    return kinematic_jets([draw_kinematic_path(rng)], tau)[0]


def special_gauge_jet(rng, tau: float = 0.0) -> KinematicJet:
    """Random jet in the gauge k=K[1,n], m=[1,-n]/K, a=[0,a_], b=[0,a_ x n]."""
    path = draw_kinematic_path(rng, SPECIAL_GAUGE_RANGES)
    th, ph, ga, logK = _angles_at([path], tau)
    K = jets.exp(logK)
    st, ct = jets.sin(th), jets.cos(th)
    sp, cp = jets.sin(ph), jets.cos(ph)
    n = [st * cp, st * sp, ct]
    e_th = [ct * cp, ct * sp, -st]
    e_ph = [-sp, cp, 0.0 * sp]
    cg, sg = jets.cos(ga), jets.sin(ga)
    avec = [cg * e_th[i] + sg * e_ph[i] for i in range(3)]
    bvec = [avec[1] * n[2] - avec[2] * n[1],
            avec[2] * n[0] - avec[0] * n[2],
            avec[0] * n[1] - avec[1] * n[0]]

    m = [1.0 / K, -n[0] / K, -n[1] / K, -n[2] / K]
    return _jets_from_tetrad([path], null_from_angles(th, ph, K), m,
                             [0.0 * K] + avec, [0.0 * K] + bvec)[0]
