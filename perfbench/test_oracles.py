"""Each oracle accepts rotorlab's correct output and rejects a planted error.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from rotorlab import cli, degeneracy, dynamics, fform, jets, minkowski, noether  # noqa: E402
from rotorlab.invariants import random_kinematic_jet  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def _lagrangian(F):
    return lambda xd, k, kd: fform.lagrangian_from_vectors(F, xd, k, kd)


@pytest.fixture(scope="module")
def jet_and_momenta():
    J = random_kinematic_jet(np.random.default_rng(11))
    F = fform.builtin("nu_family", nu=0.3)
    ms = noether.momenta(F, J)
    ref = oracles.fd_momenta(_lagrangian(F), J.xdot, J.k, J.kdot)
    return ms, ref


def test_levi_civita_matches_rotorlab_and_detects_swapped_arguments():
    rng = np.random.default_rng(0)
    n, w, p = rng.normal(size=(3, 4))
    got = oracles.eps3(n, w, p)
    assert np.allclose(got, minkowski.epsilon_contract(n, w, p), atol=1e-14)
    assert not np.allclose(oracles.eps3(w, n, p), minkowski.epsilon_contract(n, w, p))


def test_momenta_oracle_accepts_program(jet_and_momenta):
    ms, ref = jet_and_momenta
    assert oracles.check_momenta(ms.P, ms.pi, ms.W, ref) == []


@pytest.mark.parametrize("field", ["P", "pi", "W"])
def test_momenta_oracle_rejects_perturbed_component(jet_and_momenta, field):
    ms, ref = jet_and_momenta
    got = {"P": ms.P.copy(), "pi": ms.pi.copy(), "W": ms.W.copy()}
    got[field][2] *= 1.0 + 1e-4
    assert oracles.check_momenta(got["P"], got["pi"], got["W"], ref)


def test_momenta_oracle_rejects_w_not_orthogonal_to_p(jet_and_momenta):
    ms, ref = jet_and_momenta
    W = ms.W + 1e-3 * ms.P
    assert any("W.P" in p for p in oracles.check_momenta(ms.P, ms.pi, W, (ref[0], ref[1], W)))


def test_hessian_oracle_matches_jets_and_rejects_perturbed_entry():
    F = fform.parse_f("Q^2")
    state = degeneracy.random_chart_state(np.random.default_rng(4))
    q, qd = state.coords(degeneracy.DOF5)
    vs = jets.variables(*q, *qd)
    L = degeneracy.chart_lagrangian(F, vs[:5], vs[5:], degeneracy.DOF5)
    H_exact = L.h[5:, 5:]
    Z_exact = L.g[:5] - L.h[5:, :5] @ qd
    qdd = np.linalg.solve(H_exact, Z_exact)

    def chart_lagrangian(a, b):
        return degeneracy.chart_lagrangian(F, a, b, degeneracy.DOF5)

    scale = oracles.local_scale(*oracles.chart_to_vectors(qd, q[3], q[4], qd[3], qd[4]))
    H, Z = oracles.fd_hessian_force(chart_lagrangian, q, qd, scale)
    assert oracles.eom_residual(H, Z, qdd) <= workloads.EOM_TOL * 1e-2
    H_bad = H.copy()
    H_bad[1, 3] *= 1.01
    H_bad[3, 1] *= 1.01
    assert oracles.eom_residual(H_bad, Z, qdd) > workloads.EOM_TOL
    assert oracles.eom_residual(H, Z, qdd * (1 + 1e-3)) > workloads.EOM_TOL


def test_fundamental_casimirs_match_rotator_closed_form():
    F = fform.builtin("rotator_f", M=1.7, ell=0.6)
    c = noether.casimirs_closed_form(F, fform.PQPoint(0.2, 1.3))
    PP, WW = oracles.fundamental_casimirs(F.M, F.ell)
    assert abs(c.PP - PP) <= 1e-12 * PP and abs(c.WW - WW) <= 1e-12 * abs(WW)
    assert oracles.fundamental_casimirs(F.M, 2 * F.ell)[1] != pytest.approx(c.WW)


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    expr, phase = workloads.EXPORT_PHASES[1]
    M, ell, tmax, n = 1.3, 0.8, 12.0, 40
    path = tmp_path_factory.mktemp("export") / "traj.csv"
    code, _ = workloads._cli(["freemotion", "--phase", expr, "--tmax", repr(tmax),
                              "--samples", str(n), "--M", repr(M), "--ell", repr(ell),
                              "--out", str(path)])
    assert code == 0
    return path.read_text(), np.linspace(0.0, tmax, n), phase, M, ell


def test_export_oracle_accepts_program(export):
    assert oracles.check_export(*export) == []


def test_export_oracle_rejects_shifted_row(export):
    text, *rest = export
    lines = text.splitlines()
    lines[10] = lines[11]
    assert oracles.check_export("\n".join(lines), *rest)


def test_export_oracle_rejects_wrong_casimir_and_header(export):
    text, *rest = export
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[10] = repr(float(cells[10]) * (1 + 1e-8))
    lines[5] = ",".join(cells)
    assert any("PP" in p for p in oracles.check_export("\n".join(lines), *rest))
    assert oracles.check_export(text.replace("el_residual_norm", "el"), *rest)


def test_export_oracle_rejects_wrong_phase(export):
    text, times, _, M, ell = export
    assert oracles.check_export(text, times, workloads.EXPORT_PHASES[0][1], M, ell)


def test_report_check_rejects_status_that_contradicts_residual():
    code, doc = workloads._cli(["verify", "--suite", "tetrad", "--seed", "0"])
    assert workloads.check_report_doc(doc, code) == []
    assert workloads.check_report_doc(doc.replace("status = pass", "status = fail", 1), code)
    assert workloads.check_report_doc(doc, 1)


def test_simulate_check_rejects_planted_drift():
    F = cli.resolve_form("Q", cli.RunConfig())
    state = degeneracy.ChartState(theta=1.2, phi=0.3, v=(0.05, 0.0, -0.04),
                                  thetadot=0.3, phidot=0.7)
    t_end = 2 * np.pi / state.phidot
    traj = dynamics.integrate(F, state, (0.0, t_end))
    d = dynamics.casimir_drift(traj, np.linspace(0.0, t_end, 50))
    sim = workloads.Simulate(0)
    assert sim._check_one(F, t_end, traj, d) == []
    d_bad = dict(d, PP=d["PP"] * (1 + 1e-4))
    assert sim._check_one(F, t_end, traj, d_bad)
    assert sim._check_one(F, 2 * t_end, traj, d)
