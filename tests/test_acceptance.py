"""Acceptance suite: one check per criterion, each printing a pass/fail line.

All checks are property- or oracle-based and run at desk scale.  Checks that
``rotorlab verify`` also runs take their residual from the same ``cli`` function.
"""

import numpy as np

from rotorlab import cli, jets
from rotorlab.degeneracy import ChartState, fq_det_formula, random_chart_state
from rotorlab.dynamics import casimir_drift, free_motion, integrate, rest_frame_params
from rotorlab.fform import builtin, parse_f, pq_from_vectors
from rotorlab.invariants import (
    GaugeJet,
    basic_scalars,
    draw_kinematic_path,
    gauge_jet_transform,
    kinematic_jets,
    reproduce_invariant_count,
)
from rotorlab.reports import RunConfig
from rotorlab.spinor import tetrad_from_angles


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
    report(1, "tetrad scalar products", worst_rel, 1e-12)
    report(1, "tetrad gram determinant", worst_gram, 1e-11)


def test_02_gauge_invariance_and_shift_table():
    rng = np.random.default_rng(102)
    paths, gauges = [], []
    for _ in range(1000):
        paths.append(draw_kinematic_path(rng))
        al, be = rng.uniform(-2, 2, 2)
        ald, bed = rng.uniform(-1, 1, 2)
        gauges.append(GaugeJet(al, be, ald, bed))
    inv, table = [], []
    for J, G in zip(kinematic_jets(paths), gauges):
        al, be, ald, bed = G.alpha, G.beta, G.alphadot, G.betadot
        inv.append(cli.gauge_residual(J, G))

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
        sc = max(J.scale() ** 2, 1.0)
        table += [abs(got - want) / sc for got, want in expected]
    report(2, "gauge invariance of iota", np.max(inv), 1e-10)
    report(2, "gauge shift table", np.max(table), 1e-10)


def test_03_invariant_counting():
    gap = sum(cli.count_gap(reproduce_invariant_count(seed)) for seed in range(6))
    report(3, "invariant counting (5, 10, 2, 3)", float(gap), 0.0)


def test_04_fundamental_conditions():
    worst = max(cli.fundamental_residual(F, 20)[0]
                for F in cli.fundamental_forms(RunConfig()))
    report(4, "fixed mass and spin conditions", worst, 1e-10)


def test_05_noether_crosscheck():
    rng = np.random.default_rng(105)
    forms = cli.fundamental_forms(RunConfig()) + [
        builtin("point_particle"), builtin("fq", f=lambda q: q),
        builtin("sqrtS", S=lambda q: 1.0 + 0.2 * q)]
    worst_cross, worst_wp = cli.noether_residuals(
        forms, kinematic_jets([draw_kinematic_path(rng) for _ in range(100)]))
    report(5, "Noether vs closed-form Casimirs", worst_cross, 1e-9)
    report(5, "W.P orthogonality", worst_wp, 1e-10)


def test_06_degeneracy():
    rng = np.random.default_rng(106)
    worst_singular, rank_gap, nondeg = cli.hessian_margins(
        [random_chart_state(rng) for _ in range(10)])
    report(6, "fundamental families degenerate", worst_singular, 1.0)
    report(6, "nu-family Hessian rank 4", float(rank_gap), 0.0)
    report(6, "generic f(Q) nondegenerate", nondeg, 1.0)


def test_07_hessian_jacobian_relation():
    rng = np.random.default_rng(107)
    worst, admissible = cli.relation_spread(
        [parse_f(e) for e in cli.RELATION_FORMS],
        [random_chart_state(rng) for _ in range(10)])
    assert min(admissible) >= 5
    report(7, "kinematical factor form-independent", worst, 1e-7)


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
    el, drift, div_gap, _ = cli.free_motion_residuals(
        builtin("rotator_f"), cli.FREE_MOTION_PHASES, times)
    report(9, "Euler-Lagrange residuals on exact solutions", el, 1e-8)
    report(9, "conserved charge drift", drift, 1e-9)
    report(9, "trajectory divergence from one initial state", div_gap, 0.0)


def test_10_nondegenerate_integration():
    fq = builtin("fq", f=lambda q: q)
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
           max(d["PP_drift"], d["WW_drift"]), 1e-6)
    report(10, "spin depends on initial data", max(0.0, 0.1 - dep), 0.0)


def test_11_angular_speed_identity():
    worst = 0.0
    for w in (0.2, 0.5, 1.0, 1.5):
        traj = free_motion(rest_frame_params(lambda t, w=w: w * t))
        x, k = traj.jets(0.4)
        (_, xd), (kv, kd) = jets.split(x), jets.split(k)
        Q = pq_from_vectors(xd, kv, kd, 1.0).Q
        worst = max(worst, cli.angular_speed_residual(w, Q, 1.0))
    report(11, "angular speed of the null direction", worst, 1e-10)
