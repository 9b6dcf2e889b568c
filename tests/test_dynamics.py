import importlib.machinery
import importlib.util
import sys
from dataclasses import replace

import numpy as np
import pytest

from rotorlab import cli, degeneracy, dop853, dynamics, fform, jets
from rotorlab.degeneracy import (
    DOF5,
    DOF6,
    ChartState,
    chart_scalar_jets,
    chart_scalars,
    chart_states,
    hessian,
    random_chart_state,
)
from rotorlab.dynamics import (
    SingularHessianError,
    SolutionParams,
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
from rotorlab.cli import FREE_MOTION_PHASES
from rotorlab.fform import builtin, parse_f, parse_phase, pq_from_vectors
from rotorlab.minkowski import DomainError, dot, lorentz_matrix
from rotorlab.noether import momenta_from_vectors
from rotorlab.reports import Report, render_reports
from conftest import same_bits
from test_fform import reference_lagrangian

ROT = builtin("rotator_f")
U = np.finfo(float).eps / 2  # the unit roundoff
bent_phase = parse_phase(FREE_MOTION_PHASES[1])  # the dynamics suite's second phase


def xk(traj, t):
    """((x, xdot), (k, kdot)) of a trajectory at t."""
    x, k, *_ = traj.lab_state(t)
    return tuple(map(jets.split, (x, k)))


def test_circular_solution_worked_values():
    traj = free_motion(rest_frame_params(), [lambda t: t])
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
        traj = free_motion(rest_frame_params(), [phase])
        for t in np.linspace(0.0, 15.0, 7):
            _, (k, _) = xk(traj, t)
            assert abs(dot(k, k)) < 1e-10


def el_at(F, traj, t):
    """The EL residuals of F along traj at one time t."""
    (s,) = trajectory_samples(F, traj, [t])
    return s.el


def test_sampled_el_vanishes_on_free_motion():
    for phase in (lambda t: t, bent_phase):
        traj = free_motion(rest_frame_params(), [phase])
        (s,) = trajectory_samples(ROT, traj, np.linspace(0.0, 20.0, 11))
        assert np.all(s.el.max_relative < 1e-8)


def test_sampled_el_nonzero_for_other_system():
    traj = free_motion(rest_frame_params(), [lambda t: t])
    fq = parse_f("Q")
    assert el_at(fq, traj, 0.3).max_abs[0] > 0.1


def test_noether_charges_conserved_along_free_motion():
    p = rest_frame_params()
    (samples,) = trajectory_samples(ROT, free_motion(p, [bent_phase]),
                                    np.linspace(0.0, 20.0, 21))
    d = charge_drift(p, samples.momenta)
    assert d["points"] == 21
    assert d["P_drift"] < 1e-9
    assert d["W_drift"] < 1e-9


def test_boosted_params_give_transformed_trajectory():
    L = lorentz_matrix(boost=(0.3, -0.1, 0.2), rotation=(0.0, 0.0, 0.7))
    p0 = rest_frame_params()
    pb = SolutionParams(P=L @ p0.P, W=L @ p0.W, N=L @ p0.N, x0=L @ p0.x0)
    t0, tb = free_motion(p0, [lambda t: t]), free_motion(pb, [lambda t: t])
    for t in (0.5, 3.0, 11.0):
        (xb, _), (kb, _) = xk(tb, t)
        (x0, _), (k0, _) = xk(t0, t)
        assert np.allclose(xb, L @ x0, atol=1e-12)
        assert np.allclose(kb, L @ k0, atol=1e-12)
    # the boosted solution still solves the lab-time equations
    assert el_at(ROT, tb, 1.2).max_relative[0] < 1e-8


def test_invalid_solution_params_rejected():
    with pytest.raises(DomainError):
        SolutionParams(P=(1, 0, 0, 0), W=(0, 0, 0, 0.7), N=(0, 1, 0, 0)).validate()
    with pytest.raises(DomainError):
        SolutionParams(P=(1.1, 0, 0, 0), W=(0, 0, 0, 0.5), N=(0, 1, 0, 0)).validate()


def test_phase_speed_bound_enforced():
    traj = free_motion(rest_frame_params(), [lambda t: 3.0 * t])
    with pytest.raises(DomainError):
        traj.jets(1.0)
    # phase speed crossing zero is rejected too
    traj = free_motion(rest_frame_params(), [lambda t: jets.sin(t)])
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
    fq = parse_f("Q")
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7)
    traj = integrate(fq, st, (0.0, 30.0))
    d = casimir_drift(traj, np.linspace(0.0, 30.0, 20))
    assert d["PP_drift"] < 1e-6
    assert d["WW_drift"] < 1e-6
    # the integrated path satisfies its own equations of motion
    assert el_at(fq, traj, 12.0).max_relative[0] < 1e-8


def test_integrated_casimirs_depend_on_initial_data():
    fq = parse_f("Q")
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
    fq = parse_f("Q")
    d = casimir_drift(integrate(fq, st, (0.0, 3.0)), np.linspace(0.0, 3.0, 10))
    for key in ("PP", "WW"):
        v = d[key]
        assert d[key + "_drift"] == float(np.max(np.abs(v - v[0])) / abs(v[0]))


@pytest.mark.parametrize("dof", [DOF5, DOF6])
def test_integrated_momenta_need_no_acceleration(monkeypatch, dof):
    """IntegratedTrajectory.momenta reads the chart state only, through
    first-order jets, and solves no acceleration; its momenta equal, bit for
    bit, those of ``trajectory_samples``, which reads the same first-order
    jets and solves the acceleration at each time for its EL residuals."""
    fq = parse_f("Q*Q")
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7, K=1.3, Kdot=0.2)
    traj = integrate(fq, st, (0.0, 2.0), dof=dof)
    orders, accels = [], [0]
    real = dynamics.IntegratedTrajectory._vectors
    real_accel = dynamics.IntegratedTrajectory._accel

    def recorded(*args):
        x, k = real(*args)
        orders.append({1 if c.h is None else 2 for c in (*x, *k) if isinstance(c, jets.Jet)})
        return x, k

    def counted_accel(self, t, q, qd):
        accels[0] += np.ndim(t) == 0  # one state solved; a batch solves each
        return real_accel(self, t, q, qd)

    monkeypatch.setattr(dynamics.IntegratedTrajectory, "_vectors", recorded)
    monkeypatch.setattr(dynamics.IntegratedTrajectory, "_accel", counted_accel)
    times = np.linspace(0.0, 2.0, 41)
    for t in (*times[[0, 14, -1]], times):
        got = traj.momenta(t)
        assert orders == [{1}] and accels == [0]
        (want,) = trajectory_samples(fq, traj, np.atleast_1d(t))
        want = want.momenta
        assert orders == [{1}, {1}] and accels == [np.size(t)]
        orders.clear()
        accels[0] = 0
        for name in ("P", "pi", "M", "W"):
            b = getattr(want, name)
            assert np.array_equal(getattr(got, name), b if np.ndim(t) else b[..., 0])


def test_integrated_trajectory_stays_in_its_span():
    """The dense output holds its end states outside the integrated span
    instead of extrapolating (the DOP853 polynomial of the last step reads
    |v|^2 = 1.05 at twice this span); chart queries there raise."""
    fq = parse_f("Q")
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


def test_integration_budget_scales_with_the_span(monkeypatch):
    # Q over a lab time of 2 takes a few hundred right-hand-side calls
    F, st = parse_f("Q"), ChartState(theta=1.1, phi=0.3, thetadot=0.4, phidot=0.7)
    monkeypatch.setattr(dynamics, "RHS_CALLS_FLOOR", 50)
    monkeypatch.setattr(dynamics, "RHS_CALLS_PER_TIME", 25)
    with pytest.raises(SingularHessianError, match="after 100 right-hand-side calls") as e:
        integrate(F, st, (0.0, 2.0))
    assert 0.0 < e.value.state["t"] < 2.0 and len(e.value.state["qd"]) == 5
    monkeypatch.setattr(dynamics, "RHS_CALLS_PER_TIME", 10**4)
    assert integrate(F, st, (0.0, 2.0)).sol.t_max == 2.0


def _overflowing_system(case):
    """(H, Z, q, qd) whose QR overflows: the start of simulate --f 1e308 at
    seed 0, where H holds entries near 1e308, Z = 0 and the solved acceleration
    is NaN; and a finite H whose first column's norm overflows R."""
    if case == "acceleration":
        st = ChartState(theta=1.78, phi=1.70, v=(-0.092, -0.097, 0.063),
                        thetadot=0.47, phidot=0.74)
        q, qd = st.coords(DOF5)
        H, Z = dynamics._hessian_and_force(parse_f("1e308"), q, qd, DOF5)
        assert np.max(np.abs(H)) > 1e307 and not Z.any()
        return H, Z, q, qd
    H = np.array([[1.5e308, 1.0, 0.0], [1.5e308, 0.0, 1.0], [1.5e308, 1.0, 1.0]])
    return H, np.ones(3), np.zeros(3), np.zeros(3)


@pytest.mark.parametrize("case", ["acceleration", "R diagonal"])
def test_qr_solve_raises_where_the_qr_overflows(case):
    # a NaN acceleration passed to DOP853 stalls its step-size loop for good
    H, Z, q, qd = _overflowing_system(case)
    assert np.isfinite(H).all()
    with pytest.raises(SingularHessianError,
                       match=rf"not solvable in floating point \({case} not finite\)") as e:
        dynamics._qr_solve(H, Z, 0.0, q, qd)
    assert e.value.state == {"t": 0.0, "q": list(q), "qd": list(qd)}


@pytest.mark.parametrize("where", ["H", "Z"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_qr_solve_raises_on_a_non_finite_system(where, bad):
    # with a non-finite entry the inert test used to read every coordinate
    # as inert and return a zero acceleration
    H, Z = np.eye(5) + 0.1, np.ones(5)
    if where == "H":
        H[0, 0] = bad
    else:
        Z[0] = bad
    q, qd = np.zeros(5), np.ones(5)
    with pytest.raises(SingularHessianError, match=r"not solvable in floating point "
                                                   r"\(Hessian or force not finite\)") as e:
        dynamics._qr_solve(H, Z, 0.5, q, qd)
    assert e.value.state == {"t": 0.5, "q": list(q), "qd": list(qd)}


@pytest.fixture
def work(monkeypatch):
    """Counts of one integration's work: DOP853 right-hand-side calls,
    evaluations of H and Z, factorizations (dgeqrf) and classifications
    (``_active``)."""
    counts = dict.fromkeys(("calls", "evaluations", "factorizations", "classifications"), 0)

    def counter(key, fun):
        def counted(*args):
            counts[key] += 1
            return fun(*args)
        return counted

    def counted_lapack():
        dgeqrf, *rest = lapack()
        return counter("factorizations", dgeqrf), *rest

    solve, lapack = dop853.solve, dynamics._lapack
    monkeypatch.setattr(dop853, "solve",
                        lambda fun, *args: solve(counter("calls", fun), *args))
    monkeypatch.setattr(dynamics, "_hessian_and_force",
                        counter("evaluations", dynamics._hessian_and_force))
    monkeypatch.setattr(dynamics, "_active", counter("classifications", dynamics._active))
    monkeypatch.setattr(dynamics, "_lapack", counted_lapack)
    return counts


def test_integration_work_is_pinned(work):
    """Q over a lab time of 9 from a fixed state takes 527 right-hand-side
    calls in 35 DOP853 steps, and evaluates H and Z once more, at the start:
    an extra evaluation per call or per step fails here instead of hiding in
    timing noise.  Each call factors H once and classifies no coordinate;
    only the start does, to find inert coordinates."""
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03), thetadot=0.4, phidot=0.7)
    traj = integrate(parse_f("Q"), st, (0.0, 9.0))
    assert len(traj.sol.ts) == 36
    assert work == {"calls": 527, "evaluations": 528, "factorizations": 527,
                    "classifications": 1}


def test_point_particle_classifies_at_every_call(work):
    """The point particle's angle rows are exactly 0, so every factorization
    of the whole H is refused: each call factors twice (H, then its active
    block) and classifies once, and the start classifies once more."""
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03), thetadot=0.4, phidot=0.7)
    integrate(builtin("point_particle"), st, (0.0, 5.0))
    assert work == {"calls": 62, "evaluations": 63, "factorizations": 124,
                    "classifications": 63}


@pytest.mark.parametrize("expr", ["Q", "Q^2", "sqrt(Q)*(2+Q)"])
def test_dop853_takes_the_steps_of_scipys(expr):
    """rotorlab's DOP853 is a port of scipy's: it reads scipy's own tableau
    module, and for the same right-hand side it takes the same calls, step
    ends and dense output, bit for bit: at 400 times in the span, at every
    step end, and outside the span, where both read the nearer end state."""
    import scipy
    from scipy.integrate import solve_ivp
    from scipy.integrate._ivp import dop853_coefficients

    why = f"the port follows scipy 1.17.1, and scipy {scipy.__version__} is installed"
    assert dop853._tableau() is dop853_coefficients
    F, st = parse_f(expr), ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                                      thetadot=0.4, phidot=0.7)
    calls = {"scipy": [], "rotorlab": []}

    def rhs(side):  # integrate's right-hand side, without its budget
        def f(t, y):
            calls[side].append(t)
            H, Z = dynamics._hessian_and_force(F, y[:5], y[5:], DOF5)
            return np.concatenate([y[5:], dynamics._qr_solve(H, Z, t, y[:5], y[5:])])
        return f

    y0, span = np.concatenate(st.coords(DOF5)), (0.0, 9.0)
    want = solve_ivp(rhs("scipy"), span, y0, method="DOP853", rtol=dop853.RTOL,
                     atol=dop853.ATOL, dense_output=True)
    got = dop853.solve(rhs("rotorlab"), span, y0)
    assert want.success and len(calls["scipy"]) == want.nfev, why
    assert calls["rotorlab"] == calls["scipy"], f"right-hand-side calls differ: {why}"
    assert np.array_equal(got.ts, want.t), f"step ends differ: {why}"
    inside, outside = np.linspace(*span, 400), [-1.0, -1e-9, 9.0 * (1 + 1e-12), 18.0]
    for t in (inside, want.t, *want.t, *outside):
        assert np.array_equal(got(t), want.sol(np.clip(t, *span))), \
            f"dense output differs at t = {t}: {why}"


def test_lagrangian_walks_a_parsed_form_once(monkeypatch):
    """Each Lagrangian of an integration evaluates a parsed form's tree
    once: one walk on jets is both its domain check and its partials."""
    walks, lagrangians = [0], [0]
    evaluate, lagrangian = fform._evaluate, degeneracy.lagrangian_from_scalars

    def counted_evaluate(*args):
        walks[0] += 1
        return evaluate(*args)

    def counted_lagrangian(*args):
        lagrangians[0] += 1
        return lagrangian(*args)

    monkeypatch.setattr(fform, "_evaluate", counted_evaluate)
    monkeypatch.setattr(degeneracy, "lagrangian_from_scalars", counted_lagrangian)
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03), thetadot=0.4, phidot=0.7)
    integrate(parse_f("Q^2"), st, (0.0, 3.0))
    assert lagrangians[0] > 100 and walks[0] == lagrangians[0]


def test_samples_take_the_chart_of_the_integration():
    """A trajectory integrated in DOF6 is sampled in DOF6, where its EL
    residuals are at rounding level; read in DOF5 they were 0.2-1.1."""
    st = ChartState(theta=1.1, phi=0.3, v=(0.05, -0.02, 0.03),
                    thetadot=0.4, phidot=0.7, K=1.3, Kdot=0.2)
    traj = integrate(parse_f("Q+P*Q"), st, (0.0, 2.0), dof=DOF6)
    (s,) = trajectory_samples(traj.F, traj, np.linspace(0.0, 2.0, 9))
    el = s.el
    assert el.dof == DOF6
    assert np.max(el.max_relative) <= 64 * U


@pytest.mark.parametrize("expr, seed", [("Q", 1), ("Q", 6), ("sqrt(Q)*(2+Q)", 7)])
def test_simulate_export_el_residuals_sit_at_rounding(tmp_path, monkeypatch, expr, seed):
    """The EL residuals that ``simulate --out`` exports are read at the
    integrated chart state itself, so they sit at rounding level at every
    sampled time; read back from x and k through k's angles they would reach
    383-1088 u at these seeds."""
    exported = []
    monkeypatch.setattr(cli, "export_trajectory", lambda path, s: exported.append(s))
    cli.main(["simulate", "--f", expr, "--periods", "3", "--seed", str(seed),
              "--out", str(tmp_path / "traj.csv")])
    (samples,) = exported
    assert samples.t.shape == (50,)
    assert np.all(samples.el.max_relative <= 64 * U)


@pytest.mark.parametrize("expr", ["Q", "Q^2", "sqrt(Q)*(2+Q)"])
def test_qr_solve_residual_is_at_rounding_level(expr):
    """|H qddot - Z| <= 8 u (|H|_2 |qddot| + |Z|) on random nondegenerate
    states, the backward error of a Householder QR solve; the worst over 512
    states per form was 2.1 u."""
    F = parse_f(expr)
    rng = np.random.default_rng(11)
    for _ in range(100):
        q, qd = random_chart_state(rng).coords(DOF5)
        H, Z = dynamics._hessian_and_force(F, q, qd, DOF5)
        qdd = dynamics._qr_solve(H, Z, 0.0, q, qd)
        scale = np.linalg.norm(H, 2) * np.linalg.norm(qdd) + np.linalg.norm(Z)
        assert np.max(np.abs(H @ qdd - Z)) <= 8 * U * scale


def test_qr_solve_freezes_inert_coordinates():
    """The point particle's angles have zero Hessian rows and zero force: they
    stay at qddot = 0 exactly, and the other coordinates solve their own block."""
    q, qd = random_chart_state(np.random.default_rng(5)).coords(DOF5)
    H, Z = dynamics._hessian_and_force(builtin("point_particle"), q, qd, DOF5)
    assert not H[3:].any() and not H[:, 3:].any() and not Z.any()
    assert same_bits(dynamics._qr_solve(H, Z, 0.0, q, qd)[3:], [0.0, 0.0])
    Z = np.array([0.3, -0.2, 0.1, 0.0, 0.0])
    qdd = dynamics._qr_solve(H, Z, 0.0, q, qd)
    assert same_bits(qdd[3:], [0.0, 0.0])
    assert np.allclose(H[:3, :3] @ qdd[:3], Z[:3], rtol=0.0, atol=1e-15)


def classify_first_qr_solve(H, Z, t, q, qd):
    """The reference: ``_qr_solve`` in its former order, ``_active`` on every
    call and a QR of the active block only."""
    active = dynamics._active(H, Z, t, q, qd)
    if not all(active):
        qdd, idx = np.zeros(len(Z)), np.flatnonzero(active)
        if len(idx):
            qdd[idx] = classify_first_qr_solve(H[np.ix_(idx, idx)], Z[idx], t, q, qd)
        return qdd
    dgeqrf, dormqr, dtrtrs, _ = dynamics._lapack()
    qr, tau, _, _ = dgeqrf(H)
    diag = [abs(r) for r in qr.diagonal().tolist()]
    if not all(map(np.isfinite, diag)):
        raise SingularHessianError(f"{dynamics._UNSOLVABLE} (R diagonal not finite)", t, q, qd)
    if not min(diag) > dynamics.COND_TOL * max(max(diag), 1e-300):
        raise SingularHessianError(f"velocity Hessian singular (R diagonal ratio "
                                   f"{min(diag) / max(max(diag), 1e-300):.3e})", t, q, qd)
    qtz, _, _ = dormqr("L", "T", qr, tau, Z[:, None], 1)
    qdd = dtrtrs(qr, qtz)[0][:, 0]
    if not all(map(np.isfinite, qdd.tolist())):
        raise SingularHessianError(f"{dynamics._UNSOLVABLE} (acceleration not finite)",
                                   t, q, qd)
    return qdd


def planted_system(rng):
    """A random symmetric 5x5 system (H, Z) with planted hard rows: up to two
    near-inert rows (10^-2 to 10 times the inert threshold, or exactly 0) with
    forces at 0, at the threshold or at 1, sometimes a singular or nearly
    singular active block, often graded rows and columns, and sometimes an
    inf or a NaN in H or Z."""
    n = 5
    A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.3:  # a rank-deficient or ill-conditioned block
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam = rng.normal(size=n)
        lam[rng.integers(n)] *= rng.choice([0.0, 1e-13, 1e-12, 1e-11])
        A = (V * lam) @ V.T * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.5:  # graded: R's diagonal far below the largest entry
        d = 10.0 ** rng.uniform(-3, 3, n)
        A = d[:, None] * A * d
    H = np.triu(A) + np.triu(A, 1).T  # symmetric bit for bit
    Z = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    top = np.abs(H).max()
    tol = dynamics.INERT_TOL * top
    for i in rng.choice(n, size=rng.integers(3), replace=False):
        row = rng.normal(size=n)
        if rng.random() < 0.25:
            row[:] = 0.0
        else:
            row *= 10.0 ** rng.uniform(-2, 1) * tol / np.abs(row).max()
        H[i, :], H[:, i] = row, row
        Z[i] = rng.choice([0.0, tol, -tol, np.nextafter(tol, np.inf), 1.0])
    if rng.random() < 0.05:  # a non-finite entry, of H (kept symmetric) or of Z
        bad, i, j = rng.choice([np.inf, -np.inf, np.nan]), *rng.integers(n, size=2)
        if rng.random() < 0.5:
            H[i, j] = H[j, i] = bad
        else:
            Z[i] = bad
    return H, Z


def solve_outcome(solve, H, Z):
    """The acceleration's bits, or the message of the error raised."""
    try:
        return solve(H, Z, 0.25, np.zeros(5), np.ones(5)).tobytes()
    except SingularHessianError as e:
        return str(e)


def test_factor_first_solve_is_the_classify_first_solve():
    """Over 10,000 planted symmetric systems, ``_qr_solve`` returns the bits, or
    raises the message, of the classify-first order it replaced: its fast
    return never skips an inert row or an error."""
    rng = np.random.default_rng(42)
    kinds = set()
    for _ in range(10_000):
        H, Z = planted_system(rng)
        got = solve_outcome(dynamics._qr_solve, H, Z)
        assert got == solve_outcome(classify_first_qr_solve, H, Z), (H, Z)
        kinds.add(got.split(" (")[0].split(" at t")[0] if isinstance(got, str) else "solved")
    assert kinds == {"solved", "velocity Hessian singular", dynamics._UNSOLVABLE}, kinds


@pytest.mark.parametrize("dof", [DOF5, DOF6])
@pytest.mark.parametrize("expr", ["Q", "Q^2", "sqrt(Q)*(2+Q)", "Q+P*Q"])
def test_velocity_hessian_is_symmetric_bit_for_bit(expr, dof):
    # the fast return of _qr_solve rests on H == H.T exactly
    F, rng = parse_f(expr), np.random.default_rng(7)
    for row in rng.random((100, 12)):
        st = chart_states(row)
        H, _ = dynamics._hessian_and_force(F, *st.coords(dof), dof)
        assert same_bits(H, H.T), (expr, st)


SCIPY_LOADERS = {"scipy.linalg._flapack": dynamics._lapack.__wrapped__,
                 "scipy.integrate._ivp.dop853_coefficients": dop853._tableau}


@pytest.mark.parametrize("missing", ["scipy", *SCIPY_LOADERS])
def test_missing_lapack_raises_one_module_not_found_error(monkeypatch, tmp_path, missing):
    """Without scipy, or with a scipy that lacks the LAPACK extension or the
    DOP853 coefficients, the loader of that module names what is missing; it
    has no second solve or tableau to fall to."""
    scipy = None
    if missing != "scipy":  # a scipy package whose directory holds neither module
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: scipy)
    for name in [name for name in SCIPY_LOADERS if missing in ("scipy", name)]:
        monkeypatch.delitem(sys.modules, name, raising=False)  # loaded by earlier tests
        with pytest.raises(ModuleNotFoundError) as e:
            SCIPY_LOADERS[name]()
        assert e.value.name == missing and str(e.value) == f"No module named {missing!r}"


def test_indeterminacy_demo(monkeypatch):
    phases = [parse_phase(e) for e in FREE_MOTION_PHASES]
    queries, phase_jets = [], []
    real = dynamics.FreeMotionTrajectory.jets
    monkeypatch.setattr(dynamics.FreeMotionTrajectory, "jets",
                        lambda self, t: queries.append(t) or real(self, t))
    real_phase = dynamics.phase_jet
    monkeypatch.setattr(dynamics, "phase_jet",
                        lambda phase, t, ell: phase_jets.append(t) or real_phase(phase, t, ell))
    times = np.linspace(0.0, 5.0, 40)
    el, _, divergence, samples = cli.free_motion_residuals(ROT, phases, times)
    assert el < 1e-8
    assert divergence > 0.05
    # one batched query for all the phases, the 40 times in one chunk, and
    # each phase's jet taken on those times
    assert len(queries) == 1 and np.array_equal(queries[0], times)
    assert len(samples) == len(phase_jets) == len(phases)
    assert all(np.array_equal(t, times) for t in phase_jets)
    # past a chunk: one query per chunk, and per chunk each phase's jet
    for n in (1, 2):
        queries.clear()
        phase_jets.clear()
        times = np.linspace(0.0, 5.0, dynamics.CHUNK + 1)
        _, _, divergence, records = cli.free_motion_residuals(ROT, phases[:n], times)
        assert (divergence == 0.0) == (n == 1)
        assert all(np.array_equal(s.t, times) for s in records) and len(records) == n
        assert [len(t) for t in queries] == [dynamics.CHUNK, 1]
        assert [len(t) for t in phase_jets] == [dynamics.CHUNK] * n + [1] * n


def test_indeterminacy_demo_rejects_mismatched_or_fast_phases():
    times = np.linspace(0.0, 5.0, 10)
    with pytest.raises(DomainError, match=r"initial chart states differ by 0\.5$"):
        cli.free_motion_residuals(ROT, [lambda t: t, lambda t: 1.5 * t], times)
    with pytest.raises(DomainError, match="phase speed"):
        cli.free_motion_residuals(ROT, [lambda t: 3.0 * t, lambda t: 3.0 * t], times)
    # phases a whole turn apart give one chart state, and so one motion
    phases = [parse_phase("t"), parse_phase("t + 6.283185307179586")]
    _, _, divergence, _ = cli.free_motion_residuals(ROT, phases, times)
    assert divergence < 1e-15


def _record_fields(s):
    """The arrays of a ``trajectory_samples`` record, by name."""
    return {"t": s.t, "x": s.x, "k": s.k, "q": s.q, "qd": s.qd,
            "el": s.el.residuals, "scale": s.el.scale, "P": s.momenta.P,
            "pi": s.momenta.pi, "W": s.momenta.W}


@pytest.mark.parametrize("M, ell", [(1.0, 1.0), (2.5, 37.5), (1.0, 1e-3)])
def test_joined_phases_are_each_phase_on_its_own_bit_for_bit(M, ell):
    """The suite's phases in one free motion: each phase's record is the
    record of its own one-phase free motion, bit for bit, at the suite's 81
    times and, for two phases, at CHUNK + 1 times, where the join crosses a
    chunk boundary; and the angular-speed query over four phases holds each
    speed's own jets."""
    F = builtin("rotator_f", M=M, ell=ell)
    phases = [lambda t, f=parse_phase(e): f(t / ell) for e in FREE_MOTION_PHASES]
    for some, n in ((phases, 81), (phases[1:], dynamics.CHUNK + 1)):
        times = np.linspace(0.0, 20.0 * ell, n)
        *_, records = cli.free_motion_residuals(F, some, times)
        assert len(records) == len(some)
        for phase, s in zip(some, records):
            (own,) = trajectory_samples(F, free_motion(rest_frame_params(M=M, ell=ell), [phase]),
                                        times)
            got, want = _record_fields(s), _record_fields(own)
            assert all(same_bits(got[name], want[name]) for name in want), (n, M, ell)
    speeds = [w / ell for w in (0.2, 0.5, 1.0, 1.5)]
    speed_phases = [lambda t, w=w: w * t for w in speeds]
    x, k = free_motion(rest_frame_params(ell=ell), speed_phases).jets(0.4 * ell)
    gaps = []
    for i, phase in enumerate(speed_phases):
        x1, k1 = free_motion(rest_frame_params(ell=ell), [phase]).jets(0.4 * ell)
        for a, b in zip((*x, *k), (*x1, *k1)):
            assert same_bits(a.f[i], b.f) and same_bits(a.g[..., i], b.g)
            assert same_bits(a.h[..., i], b.h)
        (_, xd), (kv, kd) = jets.split(x1), jets.split(k1)
        Q = pq_from_vectors(xd, kv, kd, ell).Q
        gaps += [abs(angular_speed(Q, ell) - speeds[i]) * ell, abs(speed_to_Q(speeds[i], ell) - Q)]
    assert cli.angular_speed_residual(speeds, ell) == max(gaps)


def per_time_samples(F, traj, times, dof=DOF5):
    """(t, x, k, EL report, momenta) per time, one trajectory query per time:
    the reference for the columns of ``trajectory_samples``.  An integrated
    trajectory gives its chart state, its acceleration and first-order
    four-vector jets; a free motion its second-order four-vector jets, whose
    lab-chart state ``_lab_chart_jets`` reads."""
    out = []
    for t in map(float, times):
        if isinstance(traj, dynamics.IntegratedTrajectory):
            q, qd = traj.chart(t)
            x, k = traj._vectors(t, q, qd)
            qdd = traj._accel(t, q, qd)
        else:
            x, k = traj.jets(t)
            q, qd, qdd = dynamics._lab_chart_jets(x, k)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        rep = dynamics._el_report(F, q, qd, qdd, dof)
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
    phases = [lambda t: t]
    times = np.linspace(0.0, 2.0, 5)
    traj, queries = free_motion(rest_frame_params(), phases), []

    class Counting:
        dof = DOF5

        def lab_state(self, t):
            queries.append(t)
            return traj.lab_state(t)

    export_trajectory(path, *trajectory_samples(ROT, Counting(), times))
    # one batched trajectory query for the 5 rows
    assert len(queries) == 1 and np.array_equal(queries[0], times)
    queries.clear()
    B = dynamics.CHUNK + 1
    (samples,) = trajectory_samples(ROT, Counting(), np.linspace(0.0, 2.0, B))
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
                   lambda: cli.free_motion_residuals(ROT, phases, []),
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


# 300 samples span three chunks of CHUNK = 128, so the chunks are joined
@pytest.mark.parametrize("opts", [(), ("--M", "1.3", "--ell", "0.7"),
                                  ("--samples", "1"), ("--samples", "300")],
                         ids=["defaults", "M1.3-ell0.7", "samples1", "samples300"])
@pytest.mark.parametrize("phase", range(3))
def test_freemotion_export_equals_per_row_reference(tmp_path, capsys, phase, opts):
    """``freemotion --out`` writes, byte for byte, the report and the CSV of
    one query per time, per-row reductions and the per-row writer."""
    expr = FREE_MOTION_PHASES[phase]
    path, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    code = cli.main(["freemotion", "--phase", expr, "--seed", "0", "--out", str(path),
                     *opts])
    doc = capsys.readouterr().out
    o = dict(zip(opts[::2], opts[1::2]))
    M, ell = float(o.get("--M", 1.0)), float(o.get("--ell", 1.0))
    F = builtin("rotator_f", M=M, ell=ell)
    p = rest_frame_params(M=M, ell=ell)
    samples = per_time_samples(F, free_motion(p, [parse_phase(expr)]),
                               np.linspace(0.0, 20.0, int(o.get("--samples", 81))))
    per_row_export(ref, samples)
    dP = dW = 0.0
    for *_, ms in samples:
        dP = max(dP, float(np.max(np.abs(ms.P - p.P))) / max(np.max(np.abs(p.P)), 1e-300))
        dW = max(dW, float(np.max(np.abs(ms.W - p.W))) / max(np.max(np.abs(p.W)), 1e-300))
    worst_el = max(rep.max_relative for *_, rep, _ in samples)
    _, el_gate = cli.CHECKS["free-motion-el-residuals"]
    _, drift_gate = cli.CHECKS["free-motion-conservation"]
    want = render_reports([
        Report("freemotion-el-residuals", worst_el, el_gate, 0,
               {"phase": expr, "tmax": 20.0}),
        Report("freemotion-conservation", max(dP, dW), drift_gate, 0, {"phase": expr}),
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
        p0 = rest_frame_params()
        F, t_end = ROT, 20.0
        traj = free_motion(SolutionParams(P=L @ p0.P, W=L @ p0.W, N=L @ p0.N),
                           [parse_phase(FREE_MOTION_PHASES[1])])
    else:
        F, t_end = ROT, 20.0
        phase = parse_phase(FREE_MOTION_PHASES[int(case[-1])])
        traj = free_motion(rest_frame_params(), [phase])
    times = np.linspace(0.0, t_end, 100)
    (got,), want = trajectory_samples(F, traj, times), per_time_samples(F, traj, times)
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
    traj = free_motion(rest_frame_params(), [lambda t: 0.5 * t * t])
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


# -- the closed-form chart jets: jets in all 2n chart coordinates as the reference --

# |closed form - all-seeded jets| <= CHART_JET_BOUND u (row scale), for H, Z and
# the EL residuals; the worst over the test's draws at seeds 0-63, for the
# rotator, Q^2 and 1+Q+P^2 at DOF5 and DOF6, was 10 (H), 15 (Z) and 19 (EL)
CHART_JET_BOUND = 32


def all_seeded_lagrangian(F, q, qd, dof):
    """L on jets seeded in all 2n chart coordinates, x1..x3 included, by jet
    arithmetic through the chart scalars, P and Q: a path apart from
    ``lagrangian_from_scalars``.  Also, entry by entry, the largest term of
    L's gradient and Hessian in the chain from the four scalars s:
    |dL/ds_k ds_k/dv| for the gradient, |dL/ds_k d2s_k/dv dw| and
    |d2L/ds_k ds_l ds_k/dv ds_l/dw| for the Hessian, with L's partials in s
    from jets seeded in s.  Two paths agree only to within rounding of these
    terms: where they cancel, as in dL/dK of an f(Q) member at DOF6, which
    vanishes identically, the entry is far smaller than its rounding."""
    n = len(dof)
    vs = jets.variables(*q, *qd)
    S = chart_scalars(list(vs[:n]), list(vs[n:]), dof)
    ds = reference_lagrangian(F, *jets.variables(*(s.f for s in S)))
    G, H = np.array([s.g for s in S]), np.array([s.h for s in S])
    gs = np.max(np.abs(ds.g[:, None] * G), axis=0)
    hs = np.maximum(
        np.max(np.abs(ds.g[:, None, None] * H), axis=0),
        np.max(np.abs(ds.h[:, :, None, None] * G[:, None, :, None] * G[None, :, None, :]),
               axis=(0, 1)))
    return reference_lagrangian(F, *S), gs, hs


def within_rounding(got, want, terms):
    """|got - want| <= CHART_JET_BOUND u times the largest |term| of the row;
    ``terms`` stacks the row's chain terms on axis 0, and a row of zero
    terms must come out exactly."""
    scale = np.max(np.abs(terms), axis=0)
    return np.all(np.abs(got - want) <= CHART_JET_BOUND * U * scale)


@pytest.mark.parametrize("expr", ["rotator", "Q^2", "1+Q+P^2"])
@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
@pytest.mark.parametrize("states", [1, 4])
def test_chart_jets_without_the_positions_change_no_bits(expr, dof, states):
    """The closed-form chart jets, seeded only in q[3:] and qd, give the H, Z
    and EL residuals of jets seeded in all 2n chart coordinates to within
    CHART_JET_BOUND u of each row's scale, the largest of its terms in the
    chain from the four scalars (``all_seeded_lagrangian``); a batch gives
    each state's derivatives (``degeneracy.chart_derivatives``) and EL report
    bit for bit, and ``hessian``'s matrix is the integrator's H bit for bit."""
    F = ROT if expr == "rotator" else parse_f(expr)
    rng = np.random.default_rng([len(dof), states])
    table = rng.random((states, 12))
    n = len(dof)
    qdd = rng.uniform(-1.0, 1.0, (n, states))
    q, qd = chart_states(table).coords(dof)
    L, gs, hs = all_seeded_lagrangian(F, q, qd, dof)
    hv, dq = L.h[n:], L.g[:n]
    terms = [hv[:, n + j] * qdd[j] for j in range(n)] + [hv[:, j] * qd[j] for j in range(n)]
    chain = ([hs[n:, n + j] * abs(qdd[j]) for j in range(n)]
             + [hs[n:, j] * abs(qd[j]) for j in range(n)] + [gs[:n]])
    rep = dynamics._el_report(F, q, qd, qdd, dof)
    res = sum(terms[:n]) + sum(terms[n:]) - dq
    assert np.isfinite(res).all()
    assert within_rounding(rep.residuals, res, np.stack(chain))
    for b, row in enumerate(table):
        s = chart_states(row)
        qb, qdb = s.coords(dof)
        H, Z = dynamics._hessian_and_force(F, qb, qdb, dof)
        Hb, hvb, dqb = hv[:, n:, b], hv[..., b], dq[:, b]
        Zb = dqb - hvb[:, :n] @ qdb
        assert np.isfinite(H).all()
        assert within_rounding(H, Hb, np.moveaxis(hs[n:, n:, b], 1, 0))
        assert within_rounding(Z, Zb, np.stack([gs[:n, b], *(hs[n:, j, b] * abs(qdb[j])
                                                            for j in range(n))]))
        one = dynamics._el_report(F, qb, qdb, qdd[:, b], dof)
        assert same_bits(rep.residuals[:, b], one.residuals) and rep.scale[b] == one.scale
        got = degeneracy.chart_derivatives(F, qb, qdb, dof)
        for whole, single in zip(degeneracy.chart_derivatives(F, q, qd, dof), got):
            assert same_bits(whole[..., b], single)
        # the velocity Hessian of the degeneracy layer is the integrator's H
        assert same_bits(hessian(F, s, dof).matrix, H)


@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
def test_chart_scalar_jets_match_jet_arithmetic(dof):
    """``chart_scalar_jets``' stack has the values of ``chart_scalars`` on
    floats bit for bit, and the gradients and Hessians of ``chart_scalars`` on
    jets seeded in q[3:] and qd to within 8 u of each scalar's largest rate
    (the worst over seeds 0-63 of such draws was 3.0 u); a batch gives each
    state's stack bit for bit.  At DOF6, the entries in K (slot 2) and Kdot
    (slot 8) are exact floats of the DOF5 scalars (xx, w, u, z), and at K = 1,
    Kdot = 0 the DOF5 slots hold the values of the DOF5 jets."""
    rng = np.random.default_rng([7, len(dof)])
    table = rng.random((64, 12))
    batch = chart_states(table)
    q, qd = batch.coords(dof)
    n = len(dof)
    vs = jets.variables(*q[3:], *qd)
    want = chart_scalars([*q[:3], *vs[:n - 3]], vs[n - 3:], dof)
    values, G, H = chart_scalar_jets(q, qd, dof)
    assert G.shape == (4, 2 * n - 3, 64) and H.shape == (4, 2 * n - 3, 2 * n - 3, 64)
    for f, g, h, w, exact in zip(values, G, H, want, chart_scalars(q, qd, dof), strict=True):
        assert same_bits(f, exact)
        scale = np.maximum(np.max(np.abs(w.g), axis=0), np.max(np.abs(w.h), axis=(0, 1)))
        assert np.all(np.abs(g - w.g) <= 8 * U * scale)
        assert np.all(np.abs(h - w.h) <= 8 * U * scale)
    for b in (0, 17, 63):
        single = chart_scalar_jets(*chart_states(table[b]).coords(dof), dof)
        assert [v[b] for v in values] == list(single[0])
        assert same_bits(G[..., b], single[1]) and same_bits(H[..., b], single[2])
    if dof == DOF5:
        return
    _, w, u, z = chart_scalars(q, qd, DOF5)
    K = q[5]
    for entry, exact in ((G[1, 2], w), (G[2, 2], u), (G[2, 8], w),
                         (G[3, 2], 2.0 * K * z), (H[3, 2, 2], 2.0 * z)):
        assert np.array_equal(entry, exact)
    unit = replace(batch, K=np.ones(64), Kdot=np.zeros(64))
    slots = [0, 1, 3, 4, 5, 6, 7]  # the DOF5 variables among DOF6's nine
    six = chart_scalar_jets(*unit.coords(DOF6), DOF6)
    five = chart_scalar_jets(*unit.coords(DOF5), DOF5)
    assert np.array_equal(six[0], five[0]) and np.array_equal(six[1][:, slots], five[1])
    assert np.array_equal(six[2][:, slots][:, :, slots], five[2])


@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
def test_chart_scalars_do_not_read_the_positions(dof):
    """L reads the worldline only through its velocity: chart_scalars is the
    same with x1..x3 NaN, on floats and on jets."""
    rng = np.random.default_rng(3)
    q, qd = chart_states(rng.random((3, 12))).coords(dof)
    blind = q.copy()
    blind[:3] = np.nan
    n = len(dof)

    def parts(pos):
        """The scalars on floats, then the f, g and h of each on jets seeded in
        q[3:] and qd, with the positions ``pos``."""
        vs = jets.variables(*q[3:], *qd)
        on_jets = chart_scalars([*pos[:3], *vs[:n - 3]], vs[n - 3:], dof)
        return [*chart_scalars(pos, qd, dof), *(getattr(s, a) for s in on_jets for a in "fgh")]

    for got, want in zip(parts(blind), parts(q), strict=True):
        assert np.isfinite(want).all() and same_bits(got, want)


def test_export_writes_nonfinite_and_signed_zero_as_the_per_row_writer(tmp_path):
    """NaN, +-inf and -0.0 planted in the times and in residual columns are
    written as ``per_row_export`` writes them."""
    traj = free_motion(rest_frame_params(), [parse_phase(FREE_MOTION_PHASES[1])])
    times = np.linspace(0.0, 20.0, 10)
    (s,) = trajectory_samples(ROT, traj, times)
    t = s.t.copy()
    t[:4] = [np.nan, np.inf, -np.inf, -0.0]
    res = s.el.residuals.copy()
    res[:, 5] = [np.nan, np.inf, -np.inf, -0.0, 2.0]
    res[:, 6] = -0.0
    res[:, 7] = [np.inf, -np.inf, -0.0, 0.0, 1.0]
    rows = [(t[i], xv, kv, replace(rep, residuals=res[:, i]), ms)
            for i, (_, xv, kv, rep, ms) in enumerate(per_time_samples(ROT, traj, times))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_trajectory(got, replace(s, t=t, el=replace(s.el, residuals=res)))
    per_row_export(want, rows)
    assert got.read_bytes() == want.read_bytes()
    lines = [r.split(",") for r in got.read_text().splitlines()[1:]]
    assert [r[0] for r in lines[:4]] == ["nan", "inf", "-inf", "-0"]
    assert [r[9] for r in lines[5:8]] == ["nan", "0", "inf"]
