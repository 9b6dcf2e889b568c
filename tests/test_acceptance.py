"""Acceptance suite: one check per criterion, each printing a pass/fail line.

All checks are property- or oracle-based and run at desk scale.  Checks that
``rotorlab verify`` also runs take their residual from the same ``cli`` function,
and their tolerance from the check's gate in ``cli.CHECKS``.
"""

import numpy as np

from rotorlab import cli, jets
from rotorlab.degeneracy import DOF6, ChartState, chart_states, hessians, random_chart_state
from rotorlab.dynamics import casimir_drift, integrate
from rotorlab.fform import builtin, parse_f, parse_phase
from rotorlab.invariants import (
    GaugeJet,
    basic_scalars,
    draw_count_points,
    draw_path,
    gauge_jet_transform,
    kinematic_jets,
    reproduce_invariant_count,
)
from rotorlab.reports import RunConfig
from rotorlab.spinor import tetrad_from_angles
from conftest import nothing_ahead
from references import fq_det_formula


def gate(check):
    """The gate of a ``verify`` check."""
    return cli.CHECKS[check][1]


def report(n, name, residual, tolerance):
    ok = residual <= tolerance
    print(f"criterion {n:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"(max residual {residual:.3e}, tolerance {tolerance:.1e})")
    assert ok, f"criterion {n} ({name}): {residual} > {tolerance}"


def test_01_tetrad_algebra():
    rng = np.random.default_rng(101)
    angles = np.array([(rng.uniform(0.02, np.pi - 0.02), rng.uniform(0, 2 * np.pi),
                        rng.uniform(0.1, 8.0), rng.uniform(0, 4 * np.pi))
                       for _ in range(1000)])
    worst_rel, worst_gram = cli.tetrad_residuals(*tetrad_from_angles(*angles.T))
    report(1, "tetrad scalar products", worst_rel, gate("tetrad-relations"))
    report(1, "tetrad gram determinant", worst_gram, gate("tetrad-gram-det"))


def test_02_gauge_invariance_and_shift_table():
    rng = np.random.default_rng(102)
    paths, gauges = [], []
    for _ in range(1000):
        paths.append(draw_path(rng))
        gauges.append([*rng.uniform(-2, 2, 2), *rng.uniform(-1, 1, 2)])
    J, G = kinematic_jets(paths), GaugeJet(*np.array(gauges).T)
    al, be, ald, bed = G.alpha, G.beta, G.alphadot, G.betadot
    inv = cli.gauge_residual(J, G)

    s, t = basic_scalars(J), basic_scalars(gauge_jet_transform(J, G))
    expected = [
        (t.a_kdot, s.a_kdot),
        (t.b_kdot, s.b_kdot),
        (t.k_xdot, s.k_xdot),
        (t.a_xdot, s.a_xdot + al * s.k_xdot),
        (t.b_xdot, s.b_xdot + be * s.k_xdot),
        (t.a_bdot, s.a_bdot + be * s.a_kdot - al * s.b_kdot),
        (t.m_kdot, s.m_kdot + 2 * al * s.a_kdot + 2 * be * s.b_kdot),
        (t.m_xdot, s.m_xdot + 2 * al * s.a_xdot + 2 * be * s.b_xdot
         + (al**2 + be**2) * s.k_xdot),
        (t.a_mdot, s.a_mdot - 2 * ald + 2 * be * s.a_bdot - al * s.m_kdot
         + (be**2 - al**2) * s.a_kdot - 2 * al * be * s.b_kdot),
        (t.b_mdot, s.b_mdot - 2 * bed - 2 * al * s.a_bdot - be * s.m_kdot
         + (al**2 - be**2) * s.b_kdot - 2 * al * be * s.a_kdot),
    ]
    sc = np.maximum(J.scale() ** 2, 1.0)
    table = np.max([np.abs(got - want) / sc for got, want in expected])
    report(2, "gauge invariance of iota", inv, gate("gauge-invariance"))
    report(2, "gauge shift table", table, 1e-10)


def test_03_invariant_counting():
    gap = sum(cli.count_gap(reproduce_invariant_count(
        draw_count_points(np.random.default_rng(seed)))) for seed in range(6))
    report(3, "invariant counting (5, 10, 2, 3)", float(gap), gate("count-invariants"))


def test_04_fundamental_conditions():
    worst = max(cli.fundamental_residual(F, 20)[0]
                for F in cli.fundamental_forms(RunConfig()))
    report(4, "fixed mass and spin conditions", worst, gate("fundamental-conditions"))


def test_05_noether_crosscheck():
    rng = np.random.default_rng(105)
    cfg = RunConfig()
    forms = cli.casimir_forms(cfg, cli.fundamental_forms(cfg)) + [
        parse_f("sqrt(1 + P*P/Q)*(1 + 0.2*Q)")]
    worst_cross, worst_wp, _ = cli.noether_residuals(
        forms, kinematic_jets([draw_path(rng) for _ in range(100)]), nothing_ahead(forms))
    report(5, "Noether vs closed-form Casimirs", worst_cross, gate("noether-crosscheck"))
    report(5, "W.P orthogonality", worst_wp, gate("wp-orthogonality"))


def test_06_degeneracy():
    rng = np.random.default_rng(106)
    worst_singular, rank_gap, nondeg, _ = cli.hessian_margins(
        chart_states(rng.random((10, 12))), ())
    report(6, "fundamental families degenerate", worst_singular, gate("degenerate-hessians"))
    report(6, "nu-family Hessian rank 4", rank_gap, gate("nu-family-rank-4"))
    report(6, "generic f(Q) nondegenerate", nondeg, gate("nondegenerate-dets"))


def test_07_hessian_jacobian_relation():
    rng = np.random.default_rng(107)
    forms = [parse_f(e) for e in cli.RELATION_FORMS]
    worst, admissible = cli.relation_spread(
        forms, hessians(forms, chart_states(rng.random((10, 12))), DOF6))
    assert min(admissible) >= 5
    report(7, "kinematical factor form-independent", worst, gate("relation-consistency"))


def test_08_fq_determinant_formula():
    rng = np.random.default_rng(108)
    worst_bracket, worst_match = 0.0, 0.0
    for _ in range(5):
        st = random_chart_state(rng)
        for s2 in (1.0, -1.0):
            try:
                res = fq_det_formula(
                    lambda q, s=s2: jets.sqrt(1.0 + s * jets.sqrt(q)), st)
            except ValueError:
                continue
            worst_bracket = max(worst_bracket, abs(res.bracket),
                                abs(res.direct_det))
        fs = [lambda q: q, lambda q: q * q, lambda q: 1.0 + q,
              lambda q: jets.sqrt(q) * (2.0 + q)]
        results = [fq_det_formula(f, st) for f in fs]
        K = results[0].K
        for r in results:
            worst_match = max(worst_match,
                              abs(r.direct_det - K * r.formula)
                              / max(abs(r.direct_det), 1e-300))
    report(8, "bracket zero on distinguished family", worst_bracket, 1e-10)
    report(8, "determinant matches formula", worst_match, 1e-7)


def test_09_free_motion_indeterminism():
    times = np.linspace(0.0, 5.0, 60)
    phases = [parse_phase(e) for e in cli.FREE_MOTION_PHASES]
    el, drift, divergence, _ = cli.free_motion_residuals(builtin("rotator_f"), phases, times)
    report(9, "Euler-Lagrange residuals on exact solutions", el,
           gate("free-motion-el-residuals"))
    report(9, "conserved charge drift", drift, gate("free-motion-conservation"))
    report(9, "trajectory divergence from one initial state",
           cli.DIVERGENCE_TARGET - divergence, gate("indeterminism-divergence"))


def test_10_nondegenerate_integration():
    fq = parse_f("Q")
    st1 = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                     thetadot=0.4, phidot=0.7)
    st2 = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                     thetadot=0.1, phidot=0.3)
    t_end = 10.0 * 2.0 * np.pi / st1.phidot
    traj = integrate(fq, st1, (0.0, t_end))
    d = casimir_drift(traj, np.linspace(0.0, t_end, 40))
    w2 = casimir_drift(integrate(fq, st2, (0.0, 1.0)), [0.0])["WW"][0]
    dep = abs(w2 - d["WW"][0]) / abs(d["WW"][0])
    report(10, "Casimir conservation over 10 periods",
           max(d["PP_drift"], d["WW_drift"]), cli.CONSERVATION_TOL)
    report(10, "spin depends on initial data", max(0.0, 0.1 - dep), 0.0)


def test_11_angular_speed_identity():
    worst = cli.angular_speed_residual((0.2, 0.5, 1.0, 1.5), 1.0)
    report(11, "angular speed of the null direction", worst, gate("angular-speed-identity"))
