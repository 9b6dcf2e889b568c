"""Command-line surface: verification suites, Casimir and Hessian analysis,
simulation, free motion, and the invariant-count reproduction.

Every subcommand emits a deterministic report document (see ``reports``) and
exits 0 iff every check in the invocation passes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import jets
from .degeneracy import (
    DOF5,
    DOF6,
    ChartState,
    chart_states,
    hessian,
    hessians,
    random_chart_state,
    relation_check,
)
from .dynamics import (
    SingularHessianError,
    angular_speed,
    casimir_drift,
    charge_drift,
    export_trajectory,
    free_motion,
    integrate,
    rest_frame_params,
    speed_to_Q,
    trajectory_samples,
)
from .fform import (BUILTIN_NAMES, FForm, ParseError, PQPoint, builtin, parse_f,
                    parse_phase, pq_from_vectors)
from .invariants import (
    PATH_NUMBERS,
    GaugeJet,
    draw_count_points,
    draw_path,
    gauge_jet_transform,
    identity_checks,
    iota,
    kinematic_jets,
    reproduce_invariant_count,
)
from .minkowski import DomainError, dot, gram_det
from .noether import (
    MomentumSet,
    batch_casimirs,
    casimirs_from_partials,
    casimirs_where_defined,
    fundamental_casimirs,
    momenta,
)
from .reports import Report, RunConfig, all_pass, load_config, render_reports
from .spinor import tetrad_from_angles, tetrad_relations

_ALIASES = {"rotator": "rotator_f", "point": "point_particle"}


def resolve_form(text: str, cfg: RunConfig) -> FForm:
    """A builtin name (with aliases) or an expression over P, Q, nu."""
    name = _ALIASES.get(text, text)
    if name in BUILTIN_NAMES:
        return builtin(name, nu=cfg.nu, M=cfg.M, ell=cfg.ell)
    return parse_f(text, M=cfg.M, ell=cfg.ell, nu=cfg.nu)


# -- the verify checks, in report order: name -> (suite, gate).  A suite's checks
# share one draw of samples; a check passes when its residual is at most its gate

CHECKS = {
    "tetrad-relations": ("tetrad", 1e-12),  # relative to max(|k.m|, 1)
    "tetrad-gram-det": ("tetrad", 1e-11),  # the Gram determinant against -4
    "gauge-invariance": ("invariants", 1e-10),  # relative change of iota_1..iota_6
    "scalar-identities": ("invariants", 1e-10),  # identities among the basic scalars
    "fundamental-conditions": ("casimir", 1e-10),  # relative miss of the fixed PP, WW
    "noether-crosscheck": ("casimir", 1e-9),  # Noether against closed-form Casimirs
    "wp-orthogonality": ("casimir", 1e-10),  # |W.P| relative to max(|PP|, 1)
    "degenerate-hessians": ("degeneracy", 1.0),  # margin at most 1: singular
    "nu-family-rank-4": ("degeneracy", 0.0),
    "nondegenerate-dets": ("degeneracy", 1.0),  # inverse least margin
    "relation-consistency": ("degeneracy", 1e-7),  # relative spread of the factor K
    "free-motion-el-residuals": ("dynamics", 1e-8),  # relative Euler-Lagrange residual
    "free-motion-conservation": ("dynamics", 1e-9),  # relative drift of P and W
    "indeterminism-divergence": ("dynamics", 0.0),  # target less the divergence
    "angular-speed-identity": ("dynamics", 1e-10),  # angular speed against Q, both ways
    "count-invariants": ("count-invariants", 0.0),
}
CONSERVATION_TOL = 1e-6  # relative drift of PP and WW along an integrated path


# -- checks: residuals from given samples; the suites below build the samples
# from their tables, tests/test_acceptance.py draws its own.  A NaN residual
# is the worst case and fails, and so does a check with no sample -----------


def _worst(residuals) -> float:
    """The largest residual: NaN if any is NaN, and inf if there is none."""
    return float(np.max(residuals)) if np.size(residuals) else math.inf


def tetrad_residuals(k, m, a, b):
    """Worst error of the ten tetrad scalar products and of the Gram determinant
    of a tetrad, or of a batch of tetrads as (4, B) arrays."""
    rel = (np.abs(list(tetrad_relations(k, m, a, b).values()))
           / np.maximum(np.abs(dot(k, m)), 1.0))
    return _worst(rel), _worst(np.abs(gram_det(k, m, a, b) + 4.0))


def gauge_residual(J, G: GaugeJet) -> float:
    """Largest relative change of iota_1..iota_6 under G, for one jet or a batch."""
    base = iota(J)
    shifted = iota(gauge_jet_transform(J, G))
    return _worst(np.abs(shifted - base) / np.maximum(np.abs(base), 1.0))


def fundamental_forms(cfg: RunConfig):
    """The closed-form members with fixed mass and spin."""
    forms = [builtin("rotator_f", M=cfg.M, ell=cfg.ell)]
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        forms.append(builtin("starlike", signs=(s1, s2), M=cfg.M, ell=cfg.ell))
    for nu in (-1.0, -0.3, 0.0, 0.5, 2.0):
        forms.append(builtin("nu_family", nu=nu, M=cfg.M, ell=cfg.ell))
    return forms


def casimir_forms(cfg: RunConfig, fundamental):
    """The forms whose momenta the casimir suite takes: the ``fundamental``
    ones (``fundamental_forms``), the point particle, and the f(Q) member F = Q."""
    return [*fundamental, builtin("point_particle", M=cfg.M, ell=cfg.ell),
            FForm(func=lambda P, Q: Q, name="fq", M=cfg.M, ell=cfg.ell)]


FUNDAMENTAL_GRID = 12  # the casimir suite's fundamental-conditions grid is n x n


def fundamental_grid(n: int):
    """The (P, Q) points of an n x n grid over P in [-0.9, 0.9] and Q in
    [0.05, 4], as two flat arrays."""
    P, Q = np.meshgrid(np.linspace(-0.9, 0.9, n), np.linspace(0.05, 4.0, n), indexing="ij")
    return P.ravel(), Q.ravel()


def fundamental_miss(F: FForm, inside, PP, WW):
    """Worst relative miss of the fixed PP and WW over the grid points inside
    the domain of F, from the closed form there, and the number of those
    points; with none, nothing was checked and the miss is inf."""
    pp_target, ww_target = fundamental_casimirs(F.M, F.ell)
    miss = [np.abs(PP[inside] / pp_target - 1.0), np.abs(WW[inside] / ww_target - 1.0)]
    return _worst(miss), int(inside.sum())


def fundamental_residual(F: FForm, n: int):
    """``fundamental_miss`` of F on the n x n ``fundamental_grid``, from one
    batched closed form over the grid."""
    return fundamental_miss(F, *casimirs_where_defined([F], [fundamental_grid(n)])[0][:3])


def noether_residuals(forms, samples, ahead):
    """Worst relative gap between Noether and closed-form Casimirs, and worst
    relative W.P, over the (kinematic jet, form) pairs inside the form's
    domain; and per form its (inside, PP, WW) at its (P, Q) arrays ``ahead``.

    ``samples`` is a batch of kinematic jets, its scalar products seeded once
    (``velocity_scalars``); ``batch_casimirs`` takes one pass of F per form
    over its points ahead, then over the batch, and one closed form and one
    momenta pass for all forms.  Per pair only the momenta are asked for, one
    jet at a time, jet-major and form-minor, each read from that pass.  Then
    one batched pass over the pairs' stacked P, pi and k forms W, the
    Casimirs, W.P and both residuals, each entry the pair's float result."""
    found = batch_casimirs(forms, samples, ahead)
    at_ahead = [[a[:len(P)] for a in c] for c, (P, _) in zip(found, ahead)]
    closed = [[a[len(P):] for a in c] for c, (P, _) in zip(found, ahead)]
    records, closed_at = [], []  # per in-domain pair: its momenta, its closed-form PP, WW
    for j, J in enumerate(samples.entries()):
        for F, (inside, PP, WW) in zip(forms, closed):
            if inside[j]:
                records.append(momenta(F, J))
                closed_at.append((PP[j], WW[j]))
    # the B pairs as (4, B) and (B,) arrays; B = 0 if no pair is in a domain
    ms = MomentumSet(*(np.reshape([getattr(r, name) for r in records], (-1, 4)).T
                       for name in ("P", "pi", "k")))
    PP, WW = np.reshape(closed_at, (-1, 2)).T
    got = ms.casimirs()
    cross = [np.abs(got.PP - PP) / np.maximum(np.abs(PP), 1.0),
             np.abs(got.WW - WW) / np.maximum(np.abs(WW), 1.0)]
    wp = np.abs(dot(ms.W, ms.P)) / np.maximum(np.abs(got.PP), 1.0)
    return _worst(cross), _worst(wp), at_ahead


RELATION_FORMS = ("1+Q+P^2", "Q+P*Q", "P+Q+P*Q", "Q+P^2", "sqrt(1+P^2+Q)",
                  "(1+Q)*(1+P^2)")
# the degeneracy suite's forms, their expressions parsed once
_MARGIN_FORMS = (builtin("rotator_f"), builtin("nu_family", nu=0.4),
                 *map(parse_f, ("Q", "Q^2", "1+Q", "sqrt(Q)*(2+Q)")))
_RELATION_SUITE_FORMS = tuple(map(parse_f, RELATION_FORMS[:5]))


def hessian_margins(batch, relation):
    """Worst Hessian margin of the fundamental families, gap of the nu-family
    rank from 4, inverse least margin of four generic f(Q) members, and the
    DOF6 reports of the ``relation`` forms, over a batch of chart states."""
    rot, nu, *generic = hessians(_MARGIN_FORMS, batch, DOF5)
    star, *reports = hessians([builtin("starlike"), *relation], batch, DOF6)
    return (_worst([r.margin for r in (rot, nu, star)]), _worst(np.abs(nu.rank - 4)),
            _worst([1.0 / np.maximum(r.margin, 1e-300) for r in generic]), reports)


def relation_spread(forms, reports):
    """Largest relative spread of the kinematical factor K over the admissible
    forms at each state of a batch (inf if no state has two), and the number
    of admissible forms per state, from the forms' DOF6 Hessian ``reports``."""
    admissible, K = relation_check(forms, reports)
    counts = admissible.sum(axis=0)
    K0 = K[np.argmax(admissible, axis=0), np.arange(K.shape[1])]  # first admissible
    dev = np.max(np.abs(np.where(admissible, K, K0) - K0), axis=0)
    spreads = (dev / np.maximum(abs(K0), 1e-300))[counts >= 2]
    return _worst(spreads), counts.tolist()


# the dynamics suite's phases, as ``freemotion --phase`` reads them, parsed once
FREE_MOTION_PHASES = ("t", "t + 0.1*(t - sin(t))", "t + 0.2*sin(0.5*t)*sin(0.5*t)")
_PHASE_FUNCS = tuple(map(parse_phase, FREE_MOTION_PHASES))
DIVERGENCE_TARGET = 0.05


def free_motion_residuals(F: FForm, phases, times):
    """Rest-frame free motions of F, one per phase, as one free motion that
    carries every phase: one ``trajectory_samples`` pass per CHUNK times over
    the phases' joined batch, one record per phase at ``times``.  Returns the
    worst EL residual, worst P and W drift, divergence from the first phase's
    positions (a distance, 0 for one phase), and the records.  The phases'
    records must share the initial chart state."""
    p = rest_frame_params(M=F.M, ell=F.ell)
    samples = trajectory_samples(F, free_motion(p, phases), times)
    s0 = samples[0]
    for s in samples[1:]:
        state_gap = max(np.max(np.abs(s.q[:, 0] - s0.q[:, 0])),
                        np.max(np.abs(s.qd[:, 0] - s0.qd[:, 0])))
        if state_gap > 1e-10:
            raise DomainError(f"initial chart states differ by {state_gap}")
    drifts = [charge_drift(p, s.momenta) for s in samples]
    divergence = np.max([np.max(np.abs(s.x - s0.x)) for s in samples[1:]], initial=0.0)
    return (_worst([np.max(s.el.max_relative) for s in samples]),
            _worst([d[k] for d in drifts for k in ("P_drift", "W_drift")]),
            float(divergence), samples)


def angular_speed_residual(speeds, ell: float) -> float:
    """Worst gap of the identity that the null direction turns at speed w at
    Q, over the speeds w, with Q read from the rest-frame free motion of phase
    w t at t = 0.4 ell, one query over all the phases: the speed gap in units
    of 1/ell, as w and ``angular_speed`` scale, and the gap in Q."""
    phases = [lambda t, w=w: w * t for w in speeds]
    x, k = free_motion(rest_frame_params(ell=ell), phases).jets(0.4 * ell)
    (_, xd), (kv, kd) = jets.split(x), jets.split(k)
    gaps = []
    for i, w in enumerate(speeds):
        Q = pq_from_vectors(xd[:, i], kv[:, i], kd[:, i], ell).Q
        gaps += [abs(angular_speed(Q, ell) - w) * ell, abs(speed_to_Q(w, ell) - Q)]
    return _worst(gaps)


COUNT_EXPECTED = {"rank": 5, "nullity": 10, "zero_combos": 2, "functional_rank": 3,
                  "total_independent": 6}


def count_gap(rep) -> int:
    """Summed gap of an invariant-count report from the expected counts."""
    return sum(abs(getattr(rep, k) - v) for k, v in COUNT_EXPECTED.items())


# -- verification suites: pure functions of the run's config and a table -----

# samples drawn per suite from the run's seed
TETRAD_SPINORS = 200
INVARIANT_JETS = 60
CASIMIR_JETS = 25
DEGENERACY_STATES = 4

# Each table of uniform numbers is one ``rng.random`` call scaled to
# lo + span * u, entry by entry from these (lo, span) arrays: numpy's
# ``uniform`` arithmetic, so the bits and the generator state after are those
# of drawing the numbers one at a time in C order.
# a spinor's angles theta, phi, psi and Phi
_TETRAD_LO = np.array([0.05, 0.0, 0.2, 0.0])
_TETRAD_SPAN = np.array([np.pi - 0.05, 2 * np.pi, 5.0, 4 * np.pi]) - _TETRAD_LO
# a jet's gauge shift alpha, beta and their rates
_GAUGE_LO = np.array([-2.0, -2.0, -1.0, -1.0])
_GAUGE_SPAN = np.array([2.0, 2.0, 1.0, 1.0]) - _GAUGE_LO
# simulate's start state theta, phi, v (3), thetadot, phidot
_START_LO = np.array([0.8, 0.0, -0.1, -0.1, -0.1, 0.2, 0.5])
_START_SPAN = np.array([np.pi - 0.8, 2 * np.pi, 0.1, 0.1, 0.1, 0.5, 0.9]) - _START_LO


def suite_tetrad(cfg: RunConfig, table):
    angles = _TETRAD_LO + _TETRAD_SPAN * table
    worst_rel, worst_gram = tetrad_residuals(*tetrad_from_angles(*angles.T))
    inputs = {"spinors": len(table)}
    return {"tetrad-relations": (worst_rel, inputs),
            "tetrad-gram-det": (worst_gram, inputs)}


def suite_invariants(cfg: RunConfig, table, samples=None):
    samples = kinematic_jets(table[:, :PATH_NUMBERS]) if samples is None else samples
    gauges = _GAUGE_LO + _GAUGE_SPAN * table[:, -4:]  # a row: a path, then a gauge shift
    worst_gauge = gauge_residual(samples, GaugeJet(*gauges.T))
    worst_ident = _worst(np.abs(list(identity_checks(samples).values())))
    inputs = {"jets": len(table)}
    return {"gauge-invariance": (worst_gauge, inputs),
            "scalar-identities": (worst_ident, inputs)}


def suite_casimir(cfg: RunConfig, table, samples=None):
    """The fundamental grid rides ahead of each fundamental form's pass of F over
    the jets (the rows' ``samples`` if built), and no point ahead of the other two."""
    fundamental, none = fundamental_forms(cfg), (np.empty(0),) * 2
    worst_cross, worst_wp, on_grid = noether_residuals(
        casimir_forms(cfg, fundamental), kinematic_jets(table) if samples is None else samples,
        [fundamental_grid(FUNDAMENTAL_GRID)] * len(fundamental) + [none, none])
    worst_fund = _worst([fundamental_miss(F, *c)[0] for F, c in zip(fundamental, on_grid)])
    inputs = {"jets": len(table)}
    return {"fundamental-conditions": (worst_fund, {"forms": len(fundamental)}),
            "noether-crosscheck": (worst_cross, inputs),
            "wp-orthogonality": (worst_wp, inputs)}


def suite_degeneracy(cfg: RunConfig, table):
    batch = chart_states(table)
    forms = _RELATION_SUITE_FORMS
    worst_singular, rank_gap, nondeg, reports = hessian_margins(batch, forms)
    spread, _ = relation_spread(forms, reports)
    inputs = {"states": len(table)}
    return {"degenerate-hessians": (worst_singular, {**inputs, "forms": 3}),
            "nu-family-rank-4": (rank_gap, inputs),
            "nondegenerate-dets": (nondeg, {**inputs, "forms": 4}),
            "relation-consistency": (spread, {**inputs, "forms": len(forms)})}


def suite_dynamics(cfg: RunConfig, table):
    """Samples in units of ell: phases in t / ell, speeds w / ell inside
    (0, 2/ell), and a divergence target that scales as the positions do."""
    ell = cfg.ell
    rot = builtin("rotator_f", M=cfg.M, ell=ell)
    times = np.linspace(0.0, 20.0 * ell, 81)
    phases = [lambda t, f=f: f(t / ell) for f in _PHASE_FUNCS]
    el, drift, divergence, _ = free_motion_residuals(rot, phases, times)
    target = DIVERGENCE_TARGET * ell
    speeds = [w / ell for w in (0.2, 0.5, 1.0, 1.5)]
    worst_speed = angular_speed_residual(speeds, ell)
    inputs = {"phases": len(FREE_MOTION_PHASES)}
    return {"free-motion-el-residuals": (el, inputs),
            "free-motion-conservation": (drift, inputs),
            "indeterminism-divergence": (target - divergence,
                                         {"divergence": divergence, "target": target}),
            "angular-speed-identity": (worst_speed, {"speeds": len(speeds)})}


def suite_count(cfg: RunConfig, table):
    rep = reproduce_invariant_count(table)
    return {"count-invariants": (float(count_gap(rep)),
                                 {k: getattr(rep, k) for k in COUNT_EXPECTED})}


_SUITE_FUNCS = {
    "tetrad": suite_tetrad,
    "invariants": suite_invariants,
    "casimir": suite_casimir,
    "degeneracy": suite_degeneracy,
    "dynamics": suite_dynamics,
    "count-invariants": suite_count,
}
SUITES = tuple(_SUITE_FUNCS)

# each suite's table, one row per sample, drawn from a generator seeded with the
# run's seed (the dynamics suite reads none); verify builds all paths as one batch
_SUITE_TABLES = {
    "tetrad": lambda rng: rng.random((TETRAD_SPINORS, 4)),
    "invariants": lambda rng: np.array([np.append(draw_path(rng), rng.random(4))
                                        for _ in range(INVARIANT_JETS)]),
    "casimir": lambda rng: np.array([draw_path(rng) for _ in range(CASIMIR_JETS)]),
    "degeneracy": lambda rng: rng.random((DEGENERACY_STATES, 12)),
    "dynamics": lambda rng: None,
    "count-invariants": draw_count_points,
}


def verify_reports(suites, cfg: RunConfig):
    """The reports of the checks of ``suites``, in table order, each with its
    gate: every suite returns {check name: (residual, inputs)} from its table.
    The invariants and casimir suites read their rows of one batch of their
    paths (``KinematicJet.rows``); if a row does not build, each suite builds
    its own, so that the error names its row in its own table."""
    tables = {suite: _SUITE_TABLES[suite](np.random.default_rng(cfg.seed)) for suite in suites}
    paths = [suite for suite in ("invariants", "casimir") if suite in tables]
    try:  # a ValueError: no path to build
        joint = kinematic_jets(np.concatenate([tables[s][:, :PATH_NUMBERS] for s in paths]))
        ends = np.cumsum([len(tables[s]) for s in paths])
        built = {s: (joint.rows(slice(e - len(tables[s]), e)),) for s, e in zip(paths, ends)}
    except (DomainError, ValueError):
        built = {}
    results = {k: v for suite, table in tables.items()
               for k, v in _SUITE_FUNCS[suite](cfg, table, *built.get(suite, ())).items()}
    return [Report(name, results[name][0], gate, cfg.seed, results[name][1])
            for name, (suite, gate) in CHECKS.items() if suite in suites]


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig):
    if args.suite != "all" and args.suite not in _SUITE_FUNCS:
        raise DomainError(f"unknown suite {args.suite!r}; choose from {SUITES + ('all',)}")
    return verify_reports(SUITES if args.suite == "all" else (args.suite,), cfg)


def cmd_casimir(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    v = F.eval(args.P, args.Q)
    at = PQPoint(args.P, args.Q)  # Q >= 0, checked after the domain
    # numpy scalars: an overflow is an inf the check reports, not an OverflowError
    PP, WW = map(float, casimirs_from_partials(F, at.P, at.Q, *map(np.float64, v[:3])))
    pp_target, ww_target = fundamental_casimirs(cfg.M, cfg.ell)
    inputs = {
        "form": F.name, "P": args.P, "Q": args.Q,
        "F": v.F, "F_P": v.F_P, "F_Q": v.F_Q,
        "PP": PP, "WW": WW,
        "PP_residual": abs(PP / pp_target - 1.0),
        "WW_residual": abs(WW / ww_target - 1.0),
    }
    # the check is that every computed value is a number: an overflow in F
    # or its partials makes the Casimirs inf or nan
    finite = all(math.isfinite(x) for x in (v.F, v.F_P, v.F_Q, PP, WW))
    return [Report("casimir", 0.0 if finite else math.inf, 0.0, cfg.seed, inputs)]


def cmd_fundamental_check(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    worst, points = fundamental_residual(F, args.grid)
    return [Report("fundamental-check", worst, CHECKS["fundamental-conditions"][1],
                   cfg.seed, {"form": F.name, "points": points})]


def cmd_hessian(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    rng = np.random.default_rng(cfg.seed)
    state = random_chart_state(rng)
    dof = DOF6 if args.dof == 6 else DOF5
    rep = hessian(F, state, dof)
    inputs = {"form": F.name, "dof": len(dof), "rank": rep.rank, "det": rep.det,
              "singular": rep.is_singular}
    # as for ``casimir``: the check is that the Hessian and its determinant
    # are numbers
    finite = np.isfinite(rep.matrix).all() and math.isfinite(rep.det)
    return [Report("hessian", 0.0 if finite else math.inf, 0.0, cfg.seed, inputs)]


def cmd_relation(args, cfg: RunConfig):
    forms = [resolve_form(e, cfg) for e in args.forms or RELATION_FORMS]
    rng = np.random.default_rng(cfg.seed)
    # one table: a size numpy cannot allocate exits 2 before any draw
    batch = chart_states(rng.random((args.states, 12)))
    spread, admissible = relation_spread(forms, hessians(forms, batch, DOF6))
    return [Report("relation-consistency", spread, CHECKS["relation-consistency"][1],
                   cfg.seed, {"forms": len(forms), "states": args.states,
                              "admissible": max(admissible)})]


def cmd_simulate(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    rng = np.random.default_rng(cfg.seed)
    start = _START_LO + _START_SPAN * rng.random(7)
    theta, phi, thetadot, phidot = start[[0, 1, 5, 6]].tolist()
    state = ChartState(theta=theta, phi=phi, v=tuple(start[2:5]),
                       thetadot=thetadot, phidot=phidot)
    period = 2.0 * np.pi / max(abs(state.phidot), 0.1)
    t_end = args.periods * period
    traj = integrate(F, state, (0.0, t_end))
    times = np.linspace(0.0, t_end, 50)
    d = casimir_drift(traj, times)
    if args.out:
        (samples,) = trajectory_samples(F, traj, times)
        export_trajectory(args.out, samples)
    worst = _worst([d["PP_drift"], d["WW_drift"]])
    inputs = {"form": F.name, "periods": args.periods,
              "PP0": float(d["PP"][0]), "WW0": float(d["WW"][0]),
              "PP_drift": d["PP_drift"], "WW_drift": d["WW_drift"]}
    return [Report("conservation-drift", worst, CONSERVATION_TOL, cfg.seed, inputs)]


def cmd_freemotion(args, cfg: RunConfig):
    phase = parse_phase(args.phase)
    F = builtin("rotator_f", M=cfg.M, ell=cfg.ell)
    el, drift, _, (samples,) = free_motion_residuals(
        F, [phase], np.linspace(0.0, args.tmax, args.samples))
    if args.out:
        export_trajectory(args.out, samples)
    return [
        Report("freemotion-el-residuals", el, CHECKS["free-motion-el-residuals"][1],
               cfg.seed, {"phase": args.phase, "tmax": args.tmax}),
        Report("freemotion-conservation", drift, CHECKS["free-motion-conservation"][1],
               cfg.seed, {"phase": args.phase}),
    ]


def cmd_count(args, cfg: RunConfig):
    return verify_reports(("count-invariants",), cfg)


# -- argument parsing -----------------------------------------------------------


def _checked(convert, ok, what):
    """An argparse type: ``convert``, then reject values failing ``ok``."""
    def parse(text: str):
        x = convert(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return x
    return parse


_positive_int = _checked(int, lambda n: n > 0, "a positive integer")
_positive_float = _checked(float, lambda x: 0.0 < x < math.inf,
                           "a positive finite number")
_finite_float = _checked(float, math.isfinite, "a finite number")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--M", type=float, default=None)
    common.add_argument("--ell", type=float, default=None)
    common.add_argument("--nu", type=float, default=None)
    common.add_argument("--report-out", default=None,
                        help="also write the report document to this path")

    parser = argparse.ArgumentParser(prog="rotorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--suite", default="all", help=f"{SUITES + ('all',)}")
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("casimir", parents=[common])
    p.add_argument("--f", required=True)
    p.add_argument("--P", type=_finite_float, default=0.0)
    p.add_argument("--Q", type=_finite_float, default=1.0)
    p.set_defaults(func="cmd_casimir")

    p = sub.add_parser("fundamental-check", parents=[common])
    p.add_argument("--f", required=True)
    p.add_argument("--grid", type=_positive_int, default=20)
    p.set_defaults(func="cmd_fundamental_check")

    p = sub.add_parser("hessian", parents=[common])
    p.add_argument("--f", required=True)
    p.add_argument("--dof", type=int, choices=(5, 6), default=5)
    p.set_defaults(func="cmd_hessian")

    p = sub.add_parser("relation", parents=[common])
    p.add_argument("--forms", nargs="+", default=None)
    p.add_argument("--states", type=_positive_int, default=5)
    p.set_defaults(func="cmd_relation")

    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--f", default="Q")
    p.add_argument("--periods", type=_positive_float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("freemotion", parents=[common])
    p.add_argument("--phase", default="t")
    p.add_argument("--tmax", type=_finite_float, default=20.0)
    p.add_argument("--samples", type=_positive_int, default=81)
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_freemotion")

    p = sub.add_parser("count-invariants", parents=[common])
    p.set_defaults(func="cmd_count")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It names each subcommand's
    ``cmd_*`` function, which ``main`` looks up in this module at call time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in ("M", "ell", "nu", "seed")}
    try:
        cfg = load_config(args.config, overrides)
        # an overflowing form shows up as a non-finite residual in the report,
        # so its floating-point warnings are not printed as well
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reports = globals()[args.func](args, cfg)
        doc = render_reports(reports)
        if args.report_out:
            with open(args.report_out, "w") as fh:
                fh.write(doc)
    except (DomainError, ParseError, SingularHessianError, ValueError, OSError,
            ArithmeticError, MemoryError) as exc:
        # an ArithmeticError (a float division by zero or a ** overflow, whose
        # message may follow an errno) is an input whose scales leave the float
        # range at some step; a MemoryError one whose size cannot be allocated
        print(f"error: {exc.args[-1] if isinstance(exc, ArithmeticError) else exc}",
              file=sys.stderr)
        return 2
    sys.stdout.write(doc)
    return 0 if all_pass(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
