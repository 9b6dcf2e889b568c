import numpy as np
import pytest

from rotorlab import cli, dynamics, jets
from rotorlab.degeneracy import DOF5, DOF6, ChartState
from rotorlab.dynamics import (
    SingularHessianError,
    SolutionParams,
    Trajectory,
    angular_speed,
    casimir_drift,
    charge_drift,
    el_residuals,
    export_trajectory,
    free_motion,
    indeterminacy_demo,
    integrate,
    rest_frame_params,
    speed_to_Q,
    trajectory_samples,
)
from rotorlab.cli import FREE_MOTION_PHASES
from rotorlab.fform import builtin, parse_f, parse_phase
from rotorlab.minkowski import DomainError, dot, lorentz_matrix
from rotorlab.noether import momenta_from_vectors
from rotorlab.reports import Report, render_reports

ROT = builtin("rotator_f")


def bent_phase(t):
    return t + 0.1 * (t - jets.sin(t))


def xk(traj, t):
    """((x, xdot), (k, kdot)) of a trajectory at t."""
    return tuple(map(jets.split, traj.jets(t)))


def test_circular_solution_worked_values():
    traj = free_motion(rest_frame_params(lambda t: t))
    (x, xd), (k, _) = xk(traj, 0.0)
    assert np.allclose(x, [0.0, 0.0, 0.5, 0.0])
    assert np.allclose(k, [1.0, 1.0, 0.0, 0.0])
    assert np.allclose(xd, [1.0, 0.5, 0.0, 0.0])
    t = 0.7
    (x, _), (k, _) = xk(traj, t)
    assert np.allclose(x, [t, 0.5 * np.sin(t), 0.5 * np.cos(t), 0.0])
    assert np.allclose(k, [1.0, np.cos(t), -np.sin(t), 0.0])


def test_k_stays_null():
    for phase in (lambda t: t, bent_phase):
        traj = free_motion(rest_frame_params(phase))
        for t in np.linspace(0.0, 15.0, 7):
            _, (k, _) = xk(traj, t)
            assert abs(dot(k, k)) < 1e-10


def test_el_residuals_vanish_on_free_motion():
    for phase in (lambda t: t, bent_phase):
        traj = free_motion(rest_frame_params(phase))
        for t in np.linspace(0.0, 20.0, 11):
            assert el_residuals(ROT, traj, t).max_relative < 1e-8


def test_el_residuals_nonzero_for_other_system():
    traj = free_motion(rest_frame_params(lambda t: t))
    fq = builtin("fq", f=lambda q: q)
    rep = el_residuals(fq, traj, 0.3)
    assert rep.max_abs > 0.1


def test_noether_charges_conserved_along_free_motion():
    p = rest_frame_params(bent_phase)
    samples = trajectory_samples(ROT, free_motion(p), np.linspace(0.0, 20.0, 21))
    d = charge_drift(p, samples.momenta)
    assert d["points"] == 21
    assert d["P_drift"] < 1e-9
    assert d["W_drift"] < 1e-9


def test_boosted_params_give_transformed_trajectory():
    L = lorentz_matrix(boost=(0.3, -0.1, 0.2), rotation=(0.0, 0.0, 0.7))
    p0 = rest_frame_params(lambda t: t)
    pb = SolutionParams(P=L @ p0.P, W=L @ p0.W, N=L @ p0.N, phase=p0.phase,
                        x0=L @ p0.x0)
    t0, tb = free_motion(p0), free_motion(pb)
    for t in (0.5, 3.0, 11.0):
        (xb, _), (kb, _) = xk(tb, t)
        (x0, _), (k0, _) = xk(t0, t)
        assert np.allclose(xb, L @ x0, atol=1e-12)
        assert np.allclose(kb, L @ k0, atol=1e-12)
    # the boosted solution still solves the lab-time equations
    assert el_residuals(ROT, tb, 1.2).max_relative < 1e-8


def test_invalid_solution_params_rejected():
    with pytest.raises(DomainError):
        SolutionParams(P=(1, 0, 0, 0), W=(0, 0, 0, 0.7), N=(0, 1, 0, 0),
                       phase=lambda t: t).validate()
    with pytest.raises(DomainError):
        SolutionParams(P=(1.1, 0, 0, 0), W=(0, 0, 0, 0.5), N=(0, 1, 0, 0),
                       phase=lambda t: t).validate()


def test_phase_speed_bound_enforced():
    traj = free_motion(rest_frame_params(lambda t: 3.0 * t))
    with pytest.raises(DomainError):
        traj.jets(1.0)
    # phase speed crossing zero is rejected too
    traj = free_motion(rest_frame_params(lambda t: jets.sin(t)))
    with pytest.raises(DomainError):
        traj.jets(np.pi / 2)


def test_angular_speed_closed_form():
    assert angular_speed(4.0, 1.0) == pytest.approx(1.0)
    assert angular_speed(1e-8) < 1e-4
    assert angular_speed(1e8) == pytest.approx(2.0, rel=1e-3)
    qs = np.linspace(0.1, 20.0, 40)
    vals = [angular_speed(q, 2.0) for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)  # bound 2/ell with ell = 2
    with pytest.raises(DomainError):
        angular_speed(0.0)


def test_speed_to_Q_roundtrip():
    for w in (0.2, 0.5, 1.0, 1.5):
        assert angular_speed(speed_to_Q(w)) == pytest.approx(w, abs=1e-12)
    with pytest.raises(DomainError):
        speed_to_Q(2.0)


def test_integrated_fq_conserves_casimirs():
    fq = builtin("fq", f=lambda q: q)
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7)
    traj = integrate(fq, st, (0.0, 30.0))
    d = casimir_drift(traj, np.linspace(0.0, 30.0, 20))
    assert d["PP_drift"] < 1e-6
    assert d["WW_drift"] < 1e-6
    # the integrated path satisfies its own equations of motion
    assert el_residuals(fq, traj, 12.0).max_relative < 1e-8


def test_integrated_casimirs_depend_on_initial_data():
    fq = builtin("fq", f=lambda q: q)
    st1 = ChartState(theta=1.1, phi=0.3, thetadot=0.4, phidot=0.7)
    st2 = ChartState(theta=1.1, phi=0.3, thetadot=0.1, phidot=0.3)
    w1 = casimir_drift(integrate(fq, st1, (0.0, 1.0)), [0.0])["WW"][0]
    w2 = casimir_drift(integrate(fq, st2, (0.0, 1.0)), [0.0])["WW"][0]
    assert abs(w1 - w2) > 0.1 * abs(w1)


def test_casimir_drift_floors_at_physical_scale():
    # WW of the point particle is identically 0: its drift is measured against
    # rounding of M^4 ell^2, not against a 1e-300 floor
    pp = builtin("point_particle", M=1.7, ell=0.8)
    st = ChartState(theta=1.1, phi=0.4, v=(0.05, -0.03, 0.02), thetadot=0.3, phidot=0.7)
    d = casimir_drift(integrate(pp, st, (0.0, 9.0)), np.linspace(0.0, 9.0, 20))
    assert d["PP_drift"] < 1e-6 and d["WW_drift"] < 1e-6
    # Casimirs above rounding keep the plain relative drift, bit for bit
    fq = builtin("fq", f=lambda q: q)
    d = casimir_drift(integrate(fq, st, (0.0, 3.0)), np.linspace(0.0, 3.0, 10))
    for key in ("PP", "WW"):
        v = d[key]
        assert d[key + "_drift"] == float(np.max(np.abs(v - v[0])) / abs(v[0]))


@pytest.mark.parametrize("dof", [DOF5, DOF6])
def test_integrated_momenta_need_no_acceleration(monkeypatch, dof):
    """IntegratedTrajectory.momenta reads the chart state only; its momenta
    equal, bit for bit, those of ``trajectory_samples``, which also solves for
    the acceleration."""
    fq = builtin("fq", f=lambda q: q * q)
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7, K=1.3, Kdot=0.2)
    traj = integrate(fq, st, (0.0, 2.0), dof=dof)
    calls = []
    real = dynamics._hessian_and_force
    monkeypatch.setattr(dynamics, "_hessian_and_force",
                        lambda *a: calls.append(a) or real(*a))
    times = np.linspace(0.0, 2.0, 41)
    for t in (*times[[0, 14, -1]], times):
        got = traj.momenta(fq, t)
        assert not calls
        want = trajectory_samples(fq, traj, np.atleast_1d(t), dof).momenta
        assert calls
        calls.clear()
        for name in ("P", "pi", "M", "W"):
            b = getattr(want, name)
            assert np.array_equal(getattr(got, name), b if np.ndim(t) else b[..., 0])


def test_integrated_trajectory_stays_in_its_span():
    """The dense output holds its end states outside the integrated span
    instead of extrapolating (the DOP853 polynomial of the last step reads
    |v|^2 = 1.05 at twice this span); chart queries there raise."""
    fq = builtin("fq", f=lambda q: q)
    st = ChartState(theta=1.2, phi=0.3, v=(0.05, 0.0, -0.04),
                    thetadot=0.3, phidot=0.7)
    t_end = 2 * np.pi / st.phidot
    traj = integrate(fq, st, (0.0, t_end))
    assert np.array_equal(traj.sol(2 * t_end), traj.sol(t_end))
    assert np.array_equal(traj.sol(-1.0), traj.sol(0.0))
    assert np.sum(traj.sol(2 * t_end)[5:8] ** 2) < 1.0
    assert np.array_equal(traj.chart(t_end)[0], traj.sol(t_end)[:5])
    for t in (-1e-9, t_end * (1 + 1e-12), 2 * t_end):
        with pytest.raises(ValueError, match="outside the integrated span"):
            traj.chart(t)


def test_point_particle_moves_straight_with_frozen_k():
    pp = builtin("point_particle")
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7)
    traj = integrate(pp, st, (0.0, 5.0))
    (x0, xd0), (k0, _) = xk(traj, 0.0)
    (x5, _), (k5, _) = xk(traj, 5.0)
    assert np.allclose(x5 - x0, 5.0 * xd0, atol=1e-12)
    assert np.allclose(k5, k0, atol=1e-12)


def test_rotator_integration_aborts_immediately():
    st = ChartState(theta=1.1, phi=0.3, thetadot=0.4, phidot=0.7)
    with pytest.raises(SingularHessianError) as e:
        integrate(ROT, st, (0.0, 1.0))
    assert e.value.state is not None and "q" in e.value.state


def test_indeterminacy_demo(monkeypatch):
    phases = [
        lambda t: t,
        bent_phase,
        lambda t: t + 0.2 * jets.sin(0.5 * t) * jets.sin(0.5 * t),
    ]
    queries = []
    real = dynamics.FreeMotionTrajectory.jets
    monkeypatch.setattr(dynamics.FreeMotionTrajectory, "jets",
                        lambda self, t: queries.append(t) or real(self, t))
    base = rest_frame_params(phases[0])
    times = np.linspace(0.0, 5.0, 40)
    rep = indeterminacy_demo(phases, base, times, ROT)
    assert rep["max_el_residual"] < 1e-8
    assert rep["divergence"] > 0.05
    # one batched query per phase: the 40 times fit in one chunk
    assert len(queries) == len(phases)
    assert all(np.array_equal(q, times) for q in queries)


def test_indeterminacy_demo_rejects_mismatched_or_fast_phases():
    base = rest_frame_params(lambda t: t)
    times = np.linspace(0.0, 5.0, 10)
    with pytest.raises(DomainError):
        indeterminacy_demo([lambda t: t, lambda t: 1.5 * t], base, times, ROT)
    with pytest.raises(DomainError):
        indeterminacy_demo([lambda t: 3.0 * t, lambda t: 3.0 * t], base, times, ROT)


def per_time_samples(F, traj, times, dof=DOF5):
    """(t, x, k, EL report, momenta) per time, one trajectory query per time:
    the reference for the columns of ``trajectory_samples``."""
    out = []
    for t in times:
        x, k = traj.jets(t)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        rep = dynamics._el_report(F, *dynamics._lab_chart_jets(x, k, dof), dof)
        out.append((float(t), xv, kv, rep, momenta_from_vectors(F, xd, kv, kd, x=xv)))
    return out


def per_row_export(path, samples):
    """The per-row writer of ``per_time_samples``: the reference for the bytes
    of ``export_trajectory``."""
    cols = ["t", "x0", "x1", "x2", "x3", "k0", "k1", "k2", "k3",
            "el_residual_norm", "PP", "WW"]
    lines = [",".join(cols)]
    for t, xv, kv, rep, ms in samples:
        c = ms.casimirs()
        row = [t, *xv, *kv, float(np.linalg.norm(rep.residuals)), c.PP, c.WW]
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_export_trajectory(tmp_path):
    path = tmp_path / "traj.csv"
    p = rest_frame_params(lambda t: t)
    times = np.linspace(0.0, 2.0, 5)
    traj, queries = free_motion(p), []

    class Counting(Trajectory):
        def jets(self, t):
            queries.append(t)
            return traj.jets(t)

    export_trajectory(path, trajectory_samples(ROT, Counting(), times))
    # one batched trajectory query for the 5 rows
    assert len(queries) == 1 and np.array_equal(queries[0], times)
    queries.clear()
    B = dynamics.CHUNK + 1
    samples = trajectory_samples(ROT, Counting(), np.linspace(0.0, 2.0, B))
    assert [len(q) for q in queries] == [dynamics.CHUNK, 1]  # one query per chunk
    # one record: the chunks joined along the trailing batch axis
    ms, el = samples.momenta, samples.el
    assert samples.t.shape == (B,) and samples.x.shape == samples.k.shape == (4, B)
    assert el.residuals.shape == (5, B) and el.scale.shape == (B,)
    assert ms.P.shape == ms.pi.shape == ms.W.shape == (4, B) and ms.M.shape == (4, 4, B)
    assert samples.q.shape == samples.qd.shape == (5, B)
    # no times, no record: a drift over no samples would read 0
    short = integrate(parse_f("Q"), ChartState(theta=1.1, phi=0.3, thetadot=0.4,
                                               phidot=0.7), (0.0, 0.1))
    for sample in (lambda: trajectory_samples(ROT, traj, []),
                   lambda: indeterminacy_demo([p.phase], p, [], ROT),
                   lambda: casimir_drift(short, [])):
        with pytest.raises(ValueError, match="no times to sample"):
            sample()
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["t", "x0", "x1", "x2", "x3", "k0", "k1", "k2", "k3",
                      "el_residual_norm", "PP", "WW"]
    assert len(lines) == 6
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[10] == pytest.approx(1.0, rel=1e-12)   # PP
    assert row[11] == pytest.approx(-0.25, rel=1e-12)  # WW
    ref = tmp_path / "ref.csv"
    per_row_export(ref, per_time_samples(ROT, traj, times))
    assert path.read_text() == ref.read_text()


# the phases of the dynamics suite, as ``--phase`` expressions
EXPORT_PHASES = ("t", "t + 0.1*(t - sin(t))", "t + 0.2*sin(0.5*t)*sin(0.5*t)")


@pytest.mark.parametrize("units", [(), ("--M", "1.3", "--ell", "0.7")],
                         ids=["defaults", "M1.3-ell0.7"])
@pytest.mark.parametrize("phase", range(3))
def test_freemotion_export_equals_per_row_reference(tmp_path, capsys, phase, units):
    """``freemotion --out`` writes, byte for byte, the report and the CSV of
    one query per time, per-row reductions and the per-row writer."""
    expr = EXPORT_PHASES[phase]
    path, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    code = cli.main(["freemotion", "--phase", expr, "--seed", "0", "--out", str(path),
                     *units])
    doc = capsys.readouterr().out
    M, ell = (1.3, 0.7) if units else (1.0, 1.0)
    F = builtin("rotator_f", M=M, ell=ell)
    p = rest_frame_params(parse_phase(expr), M=M, ell=ell)
    samples = per_time_samples(F, free_motion(p), np.linspace(0.0, 20.0, 81))
    per_row_export(ref, samples)
    dP = dW = 0.0
    for *_, ms in samples:
        dP = max(dP, float(np.max(np.abs(ms.P - p.P))) / max(np.max(np.abs(p.P)), 1e-300))
        dW = max(dW, float(np.max(np.abs(ms.W - p.W))) / max(np.max(np.abs(p.W)), 1e-300))
    worst_el = max(rep.max_relative for *_, rep, _ in samples)
    want = render_reports([
        Report("freemotion-el-residuals", worst_el, cli.EL_TOL, 0,
               {"phase": expr, "tmax": 20.0}),
        Report("freemotion-conservation", max(dP, dW), cli.DRIFT_TOL, 0, {"phase": expr}),
    ])
    assert code == 0 and doc == want
    assert path.read_bytes() == ref.read_bytes()


def test_simulate_export_equals_per_row_reference(tmp_path, capsys, monkeypatch):
    """``simulate --out`` writes, byte for byte, the report and the CSV of one
    query per time, per-row Casimirs and the per-row writer."""
    runs = []
    real = cli.integrate

    def recorded(F, state, span):
        runs.append((F, span[1], real(F, state, span)))
        return runs[-1][2]

    monkeypatch.setattr(cli, "integrate", recorded)
    path, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    code = cli.main(["simulate", "--f", "Q", "--periods", "1", "--seed", "0",
                     "--out", str(path)])
    doc = capsys.readouterr().out
    ((F, t_end, traj),) = runs
    samples = per_time_samples(F, traj, np.linspace(0.0, t_end, 50))
    per_row_export(ref, samples)
    pps = np.array([ms.casimirs().PP for *_, ms in samples])
    wws = np.array([ms.casimirs().WW for *_, ms in samples])
    eps = np.finfo(float).eps
    pp_drift = float(np.max(np.abs(pps - pps[0])) / max(abs(pps[0]), eps * F.M**2))
    ww_drift = float(np.max(np.abs(wws - wws[0]))
                     / max(abs(wws[0]), eps * F.M**4 * F.ell**2))
    want = render_reports([Report(
        "conservation-drift", max(pp_drift, ww_drift), cli.CONSERVATION_TOL, 0,
        {"form": F.name, "periods": 1.0, "PP0": float(pps[0]), "WW0": float(wws[0]),
         "PP_drift": pp_drift, "WW_drift": ww_drift})])
    assert code == 0 and doc == want
    assert path.read_bytes() == ref.read_bytes()


def _integrated_q():
    F = parse_f("Q")
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03), thetadot=0.4, phidot=0.7)
    return F, integrate(F, st, (0.0, 9.0)), 9.0


@pytest.mark.parametrize("case", ["phase0", "phase1", "phase2", "boosted", "integrated-Q"])
def test_batched_samples_equal_per_time_samples(case):
    """One query per chunk gives, bit for bit, the samples of one query per
    time: the three dynamics-suite phases, the second of them boosted (so
    that dx0/dt varies), and an integrated Q trajectory."""
    if case == "integrated-Q":
        F, traj, t_end = _integrated_q()
    elif case == "boosted":
        L = lorentz_matrix(boost=(0.3, -0.1, 0.2), rotation=(0.0, 0.0, 0.7))
        p0 = rest_frame_params(FREE_MOTION_PHASES[1])
        F, t_end = ROT, 20.0
        traj = free_motion(SolutionParams(P=L @ p0.P, W=L @ p0.W, N=L @ p0.N,
                                          phase=p0.phase))
    else:
        F, t_end = ROT, 20.0
        traj = free_motion(rest_frame_params(FREE_MOTION_PHASES[int(case[-1])]))
    times = np.linspace(0.0, t_end, 100)
    got, want = trajectory_samples(F, traj, times), per_time_samples(F, traj, times)
    assert got.t.shape == (len(want),) == (100,)
    for b, (t0, xv0, kv0, rep0, ms0) in enumerate(want):
        assert got.t[b] == t0
        assert np.array_equal(got.x[:, b], xv0) and np.array_equal(got.k[:, b], kv0)
        assert np.array_equal(got.el.residuals[:, b], rep0.residuals)
        assert got.el.scale[b] == rep0.scale
        for name in ("P", "pi", "M", "W"):
            assert np.array_equal(getattr(got.momenta, name)[..., b], getattr(ms0, name))


def test_batched_queries_check_every_time():
    """The phase-speed and span checks of a batched query hold at every time,
    and name the first that fails."""
    traj = free_motion(rest_frame_params(lambda t: 0.5 * t * t))
    with pytest.raises(DomainError, match=r"at t = 2\.0 outside .* \(batch entry 2\)"):
        traj.jets(np.array([0.5, 1.0, 2.0, 3.0]))
    _, traj, t_end = _integrated_q()
    with pytest.raises(ValueError, match=r"outside the integrated span .* \(batch entry 1\)"):
        traj.chart(np.array([0.0, t_end + 1.0]))
    q, qd = traj.chart(np.array([0.0, t_end]))
    assert np.array_equal(q[:, 1], traj.chart(t_end)[0])

    def accel(t):
        return traj._accel(t, *traj.chart(t))

    assert np.array_equal(accel(np.array([1.0, 2.0]))[:, 1], accel(2.0))
