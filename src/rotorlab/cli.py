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
    hessian,
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
    indeterminacy_demo,
    integrate,
    rest_frame_params,
    speed_to_Q,
    trajectory_samples,
)
from .fform import (BUILTIN_NAMES, FForm, ParseError, PQPoint, builtin, parse_f,
                    parse_phase, pq_from_vectors)
from .invariants import (
    GaugeJet,
    draw_kinematic_path,
    gauge_jet_transform,
    identity_checks,
    iota,
    kinematic_jets,
    reproduce_invariant_count,
)
from .minkowski import DomainError, dot, gram_det
from .noether import (
    FUNDAMENTAL_WW_FACTOR,
    casimirs_closed_form,
    fundamental_residuals,
    momenta,
)
from .reports import Report, RunConfig, all_pass, load_config, render_reports
from .spinor import tetrad_from_angles, tetrad_relations

_ALIASES = {"rotator": "rotator_f", "point": "point_particle"}


def resolve_form(text: str, cfg: RunConfig) -> FForm:
    """A builtin name (with aliases) or an expression over P, Q, nu."""
    name = _ALIASES.get(text, text)
    if name in ("sqrtS", "fq"):
        raise DomainError(f"builtin {name!r} needs a callable; pass an expression")
    if name in BUILTIN_NAMES:
        return builtin(name, nu=cfg.nu, M=cfg.M, ell=cfg.ell)
    return parse_f(text, M=cfg.M, ell=cfg.ell, nu=cfg.nu)


# -- gates: the largest residual each check passes with -----------------------

TETRAD_TOL = 1e-12  # tetrad scalar products, relative to max(|k.m|, 1)
GRAM_TOL = 1e-11  # Gram determinant of the tetrad against -4
GAUGE_TOL = 1e-10  # relative change of iota_1..iota_6 under a gauge shift
IDENTITY_TOL = 1e-10  # tetrad-decomposition identities among the basic scalars
FUNDAMENTAL_TOL = 1e-10  # relative miss of the fixed PP and WW on a (P, Q) grid
NOETHER_TOL = 1e-9  # relative gap between Noether and closed-form Casimirs
WP_TOL = 1e-10  # |W.P| relative to max(|PP|, 1)
RELATION_TOL = 1e-7  # relative spread of the kinematical factor over the forms
EL_TOL = 1e-8  # relative Euler-Lagrange residual of a free motion
DRIFT_TOL = 1e-9  # relative drift of the Noether P and W along a free motion
SPEED_TOL = 1e-10  # angular speed against its Q inverse
CONSERVATION_TOL = 1e-6  # relative drift of PP and WW along an integrated path


# -- checks: residuals from given samples; the suites below draw the samples
# from the run's seed, tests/test_acceptance.py draws its own.  Each worst
# case is a numpy maximum, so a NaN residual is the worst case and fails -----


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN, and 0 for no residuals."""
    return float(np.max(residuals, initial=0.0))


def tetrad_residuals(k, m, a, b):
    """Worst error of the ten tetrad scalar products and of the Gram determinant
    of a tetrad, or of a batch of tetrads as (4, B) arrays."""
    rel = (np.abs(list(tetrad_relations(k, m, a, b).values()))
           / np.maximum(np.abs(dot(k, m)), 1.0))
    return _worst(rel), _worst(np.abs(gram_det(k, m, a, b) + 4.0))


def gauge_residual(J, G: GaugeJet) -> float:
    """Largest relative change of iota_1..iota_6 under the gauge shift G."""
    base = iota(J)
    shifted = iota(gauge_jet_transform(J, G))
    return float(np.max(np.abs(shifted - base) / np.maximum(np.abs(base), 1.0)))


def fundamental_forms(cfg: RunConfig):
    """The closed-form members with fixed mass and spin."""
    forms = [builtin("rotator_f", M=cfg.M, ell=cfg.ell)]
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        forms.append(builtin("starlike", signs=(s1, s2), M=cfg.M, ell=cfg.ell))
    for nu in (-1.0, -0.3, 0.0, 0.5, 2.0):
        forms.append(builtin("nu_family", nu=nu, M=cfg.M, ell=cfg.ell))
    return forms


def domain_grid(F: FForm, n: int = 20):
    """The points of an n x n (P, Q) grid inside the domain of F, P-major."""
    P, Q = (g.ravel() for g in np.meshgrid(np.linspace(-0.9, 0.9, n),
                                           np.linspace(0.05, 4.0, n), indexing="ij"))
    inside = np.broadcast_to(F.domain(P, Q), P.shape)
    return [PQPoint(float(p), float(q)) for p, q in zip(P[inside], Q[inside])]


def fundamental_residual(F: FForm, n: int):
    """Worst relative miss of the fixed PP and WW over the domain grid of F, and
    the number of grid points."""
    res = fundamental_residuals(F, domain_grid(F, n))
    return _worst([res["max_PP_residual"], res["max_WW_residual"]]), res["points"]


def noether_residuals(forms, samples):
    """Worst relative gap between Noether and closed-form Casimirs, and worst
    relative W.P, over the (kinematic jet, form) pairs inside the form's domain."""
    cross, wp = [], []
    for J in samples:
        for F in forms:
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not F.in_domain(at.P, at.Q):
                continue
            ms = momenta(F, J)
            got = ms.casimirs()
            want = casimirs_closed_form(F, at)
            cross += [abs(got.PP - want.PP) / max(abs(want.PP), 1.0),
                      abs(got.WW - want.WW) / max(abs(want.WW), 1.0)]
            wp.append(abs(dot(ms.W, ms.P)) / max(abs(got.PP), 1.0))
    return _worst(cross), _worst(wp)


def hessian_margins(states):
    """Worst Hessian margin of the fundamental families, gap of the nu-family
    rank from 4, and inverse least margin of four generic f(Q) members."""
    singular = [(builtin("rotator_f"), DOF5), (builtin("nu_family", nu=0.4), DOF5),
                (builtin("starlike"), DOF6)]
    nondeg = [parse_f(e) for e in ("Q", "Q^2", "1+Q", "sqrt(Q)*(2+Q)")]
    singular_margins, rank_gap, margins = [], 0, []
    for st in states:
        reps = [hessian(F, st, dof) for F, dof in singular]
        singular_margins += [r.margin for r in reps]
        rank_gap = max(rank_gap, abs(reps[1].rank - 4))
        margins += [hessian(F, st, DOF5).margin for F in nondeg]
    min_margin = np.min(margins, initial=np.inf)
    return (_worst(singular_margins), rank_gap,
            float(1.0 / np.maximum(min_margin, 1e-300)))


RELATION_FORMS = ("1+Q+P^2", "Q+P*Q", "P+Q+P*Q", "Q+P^2", "sqrt(1+P^2+Q)",
                  "(1+Q)*(1+P^2)")


def relation_spread(forms, states):
    """Largest relative spread of the kinematical factor K over the admissible
    forms at each state, and the number of admissible forms per state."""
    spreads, admissible = [], []
    for st in states:
        ks = np.array([e.K for e in relation_check(forms, st, DOF6) if e.admissible])
        admissible.append(len(ks))
        if len(ks) >= 2:
            spreads.append(np.max(np.abs(ks - ks[0])) / np.maximum(abs(ks[0]), 1e-300))
    return _worst(spreads), admissible


FREE_MOTION_PHASES = (
    lambda t: t,
    lambda t: t + 0.1 * (t - jets.sin(t)),
    lambda t: t + 0.2 * jets.sin(0.5 * t) * jets.sin(0.5 * t),
)
DIVERGENCE_TARGET = 0.05


def free_motion_residuals(F: FForm, phases, times):
    """Free motions of F with phases sharing one initial state, each sampled
    once at ``times``: worst EL residual, worst P and W drift, shortfall of
    their divergence below DIVERGENCE_TARGET, and the divergence."""
    base = rest_frame_params(phases[0], M=F.M, ell=F.ell)
    demo = indeterminacy_demo(phases, base, times, F)
    drifts = []
    for samples in demo["samples"]:  # every phase has the P and W of base
        d = charge_drift(base, samples.momenta)
        drifts += [d["P_drift"], d["W_drift"]]
    divergence = demo["divergence"]
    return (demo["max_el_residual"], _worst(drifts),
            _worst([DIVERGENCE_TARGET - divergence]), divergence)


def angular_speed_residual(w: float, Q: float, ell: float) -> float:
    """Gap of the identity that the null direction turns at speed w at Q."""
    return _worst([abs(angular_speed(Q, ell) - w), abs(speed_to_Q(w, ell) - Q)])


COUNT_EXPECTED = {"rank": 5, "nullity": 10, "zero_combos": 2, "functional_rank": 3,
                  "total_independent": 6}


def count_gap(rep) -> int:
    """Summed gap of an invariant-count report from the expected counts."""
    return sum(abs(getattr(rep, k) - v) for k, v in COUNT_EXPECTED.items())


# -- verification suites ------------------------------------------------------

# samples drawn per suite from the run's seed
TETRAD_SPINORS = 200
INVARIANT_JETS = 60
CASIMIR_JETS = 25
DEGENERACY_STATES = 4


def suite_tetrad(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    angles = np.array([(rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi),
                        rng.uniform(0.2, 5.0), rng.uniform(0, 4 * np.pi))
                       for _ in range(TETRAD_SPINORS)])
    worst_rel, worst_gram = tetrad_residuals(*tetrad_from_angles(*angles.T))
    return [
        Report("tetrad-relations", worst_rel, TETRAD_TOL, cfg.seed,
               {"spinors": TETRAD_SPINORS}),
        Report("tetrad-gram-det", worst_gram, GRAM_TOL, cfg.seed,
               {"spinors": TETRAD_SPINORS}),
    ]


def suite_invariants(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    paths, gauges = [], []
    for _ in range(INVARIANT_JETS):
        paths.append(draw_kinematic_path(rng))
        gauges.append(GaugeJet(alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2),
                               alphadot=rng.uniform(-1, 1), betadot=rng.uniform(-1, 1)))
    samples = kinematic_jets(paths)
    worst_gauge = _worst([gauge_residual(J, G) for J, G in zip(samples, gauges)])
    worst_ident = _worst([np.abs(list(identity_checks(J).values())) for J in samples])
    return [
        Report("gauge-invariance", worst_gauge, GAUGE_TOL,
               cfg.seed, {"jets": INVARIANT_JETS}),
        Report("scalar-identities", worst_ident, IDENTITY_TOL,
               cfg.seed, {"jets": INVARIANT_JETS}),
    ]


def suite_casimir(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    fundamental = fundamental_forms(cfg)
    worst_fund = _worst([fundamental_residual(F, 12)[0] for F in fundamental])
    forms = fundamental + [builtin("point_particle", M=cfg.M, ell=cfg.ell),
                           builtin("fq", f=lambda q: q, M=cfg.M, ell=cfg.ell)]
    worst_cross, worst_wp = noether_residuals(
        forms, kinematic_jets([draw_kinematic_path(rng) for _ in range(CASIMIR_JETS)]))
    return [
        Report("fundamental-conditions", worst_fund, FUNDAMENTAL_TOL, cfg.seed,
               {"forms": len(fundamental)}),
        Report("noether-crosscheck", worst_cross, NOETHER_TOL,
               cfg.seed, {"jets": CASIMIR_JETS}),
        Report("wp-orthogonality", worst_wp, WP_TOL,
               cfg.seed, {"jets": CASIMIR_JETS}),
    ]


def suite_degeneracy(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    states = [random_chart_state(rng) for _ in range(DEGENERACY_STATES)]
    worst_singular, rank_gap, nondeg = hessian_margins(states)
    forms = [parse_f(e) for e in RELATION_FORMS[:5]]
    spread, _ = relation_spread(forms, states)
    return [
        Report("degenerate-hessians", worst_singular, 1.0, cfg.seed,
               {"states": DEGENERACY_STATES, "forms": 3}),
        Report("nu-family-rank-4", float(rank_gap), 0.0, cfg.seed,
               {"states": DEGENERACY_STATES}),
        Report("nondegenerate-dets", nondeg, 1.0, cfg.seed,
               {"states": DEGENERACY_STATES, "forms": 4}),
        Report("relation-consistency", spread, RELATION_TOL,
               cfg.seed, {"states": DEGENERACY_STATES, "forms": len(forms)}),
    ]


def suite_dynamics(cfg: RunConfig):
    rot = builtin("rotator_f", M=cfg.M, ell=cfg.ell)
    times = np.linspace(0.0, 20.0 * cfg.ell, 81)
    el, drift, div_gap, divergence = free_motion_residuals(rot, FREE_MOTION_PHASES, times)
    speeds = (0.2, 0.5, 1.0, 1.5)
    worst_speed = _worst([angular_speed_residual(w, speed_to_Q(w, cfg.ell), cfg.ell)
                          for w in speeds])
    return [
        Report("free-motion-el-residuals", el, EL_TOL, cfg.seed,
               {"phases": len(FREE_MOTION_PHASES)}),
        Report("free-motion-conservation", drift, DRIFT_TOL,
               cfg.seed, {"phases": len(FREE_MOTION_PHASES)}),
        Report("indeterminism-divergence", div_gap, 0.0, cfg.seed,
               {"divergence": divergence, "target": DIVERGENCE_TARGET}),
        Report("angular-speed-identity", worst_speed, SPEED_TOL, cfg.seed,
               {"speeds": len(speeds)}),
    ]


def suite_count(cfg: RunConfig):
    rep = reproduce_invariant_count(cfg.seed)
    inputs = {k: getattr(rep, k) for k in COUNT_EXPECTED}
    return [Report("count-invariants", float(count_gap(rep)), 0.0, cfg.seed, inputs)]


_SUITE_FUNCS = {
    "tetrad": suite_tetrad,
    "invariants": suite_invariants,
    "casimir": suite_casimir,
    "degeneracy": suite_degeneracy,
    "dynamics": suite_dynamics,
    "count-invariants": suite_count,
}
SUITES = tuple(_SUITE_FUNCS)


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig):
    if args.suite == "all":
        names = SUITES
    elif args.suite in _SUITE_FUNCS:
        names = (args.suite,)
    else:
        raise DomainError(f"unknown suite {args.suite!r}; choose from "
                          f"{SUITES + ('all',)}")
    reports = []
    for name in names:
        reports.extend(_SUITE_FUNCS[name](cfg))
    return reports


def cmd_casimir(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    v = F.eval(args.P, args.Q)
    c = casimirs_closed_form(F, PQPoint(args.P, args.Q))
    pp_target = cfg.M**2
    ww_target = FUNDAMENTAL_WW_FACTOR * cfg.M**4 * cfg.ell**2
    inputs = {
        "form": F.name, "P": args.P, "Q": args.Q,
        "F": v.F, "F_P": v.F_P, "F_Q": v.F_Q,
        "PP": c.PP, "WW": c.WW,
        "PP_residual": abs(c.PP / pp_target - 1.0),
        "WW_residual": abs(c.WW / ww_target - 1.0),
    }
    # the check is that every computed value is a number: an overflow in F
    # or its partials makes the Casimirs inf or nan
    finite = all(math.isfinite(x) for x in (v.F, v.F_P, v.F_Q, c.PP, c.WW))
    return [Report("casimir", 0.0 if finite else math.inf, 0.0, cfg.seed, inputs)]


def cmd_fundamental_check(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    worst, points = fundamental_residual(F, args.grid)
    if not points:  # no grid point inside the domain: nothing was checked
        worst = math.inf
    return [Report("fundamental-check", worst, FUNDAMENTAL_TOL,
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
    spread, admissible = relation_spread(
        forms, [random_chart_state(rng) for _ in range(args.states)])
    return [Report("relation-consistency", spread, RELATION_TOL,
                   cfg.seed, {"forms": len(forms), "states": args.states,
                              "admissible": max(admissible)})]


def cmd_simulate(args, cfg: RunConfig):
    F = resolve_form(args.f, cfg)
    rng = np.random.default_rng(cfg.seed)
    state = ChartState(
        theta=rng.uniform(0.8, np.pi - 0.8), phi=rng.uniform(0, 2 * np.pi),
        v=tuple(rng.uniform(-0.1, 0.1, 3)),
        thetadot=rng.uniform(0.2, 0.5), phidot=rng.uniform(0.5, 0.9))
    period = 2.0 * np.pi / max(abs(state.phidot), 0.1)
    t_end = args.periods * period
    traj = integrate(F, state, (0.0, t_end))
    times = np.linspace(0.0, t_end, 50)
    d = casimir_drift(traj, times)
    if args.out:
        export_trajectory(args.out, trajectory_samples(F, traj, times))
    worst = _worst([d["PP_drift"], d["WW_drift"]])
    inputs = {"form": F.name, "periods": args.periods,
              "PP0": float(d["PP"][0]), "WW0": float(d["WW"][0]),
              "PP_drift": d["PP_drift"], "WW_drift": d["WW_drift"]}
    return [Report("conservation-drift", worst, CONSERVATION_TOL, cfg.seed, inputs)]


def cmd_freemotion(args, cfg: RunConfig):
    phase = parse_phase(args.phase)
    F = builtin("rotator_f", M=cfg.M, ell=cfg.ell)
    p = rest_frame_params(phase, M=cfg.M, ell=cfg.ell)
    samples = trajectory_samples(F, free_motion(p),
                                 np.linspace(0.0, args.tmax, args.samples))
    worst_el = float(np.max(samples.el.max_relative))
    d = charge_drift(p, samples.momenta)
    if args.out:
        export_trajectory(args.out, samples)
    return [
        Report("freemotion-el-residuals", worst_el, EL_TOL,
               cfg.seed, {"phase": args.phase, "tmax": args.tmax}),
        Report("freemotion-conservation", _worst([d["P_drift"], d["W_drift"]]),
               DRIFT_TOL, cfg.seed, {"phase": args.phase}),
    ]


def cmd_count(args, cfg: RunConfig):
    return suite_count(cfg)


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
    p.add_argument("--forms", nargs="*", default=None)
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
    except (DomainError, ParseError, SingularHessianError, ValueError, OSError,
            ArithmeticError) as exc:
        # an ArithmeticError is a float division by zero or a ** overflow: an
        # input whose scales leave the floating-point range at some step
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = render_reports(reports)
    sys.stdout.write(doc)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(doc)
    return 0 if all_pass(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
