"""Free motion, Euler-Lagrange residuals, and numerical integration.

The exact free-motion solution is

    x(t) = (P/M) t + (ell/2) r(t) + x(0),    r = N sin(phi) + E cos(phi),
    k(t) = P/M + rdot / sqrt(-rdot.rdot),

with E the epsilon-contraction of (N, W, P) normalized by M^3 ell / 2 and
phi an arbitrary phase whose derivative stays inside (0, 2/ell).  Since
N cos(phi) - E sin(phi) is unit spacelike, sqrt(-rdot.rdot) = |phidot| and
k reduces to P/M + sign(phidot) (N cos(phi) - E sin(phi)), which needs only
second-order phase data.

Euler-Lagrange residuals are evaluated in the lab-time chart (worldline
parameter = x^0) by exact forward-mode differentiation; integration solves
H qddot = Z per step with a QR solve and condition monitoring.

Trajectory queries accept a time or an array of times.  An array is one pass
of batched jets (see ``jets``), and the passes along a trajectory take CHUNK
times each, so their memory does not grow with the number of samples.  The
samples of such a pass stay one batched record, reduced and written as
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular

from . import jets
from .degeneracy import DOF5, ChartState, chart_lagrangian, check_off_pole
from .fform import FForm
from .minkowski import DomainError, dot, epsilon_contract, four
from .noether import FUNDAMENTAL_WW_FACTOR, MomentumSet, momenta_from_vectors
from .spinor import angles_from_null, null_from_angles

PARAM_TOL = 1e-12
SPEED_FLOOR = 1e-12  # numerical floor of the open bound 0 < |phidot|
MATCH_TOL = 1e-12  # phases share initial data if (phi, phidot) at t0 agree to this
RTOL, ATOL = 1e-10, 1e-12  # DOP853 error tolerances
COND_TOL = 1e-12  # least R-diagonal ratio of a solvable velocity Hessian
CHUNK = 128  # times per batched trajectory query in the passes along a trajectory


def _times(t):
    """A time as a float, or times as a float array."""
    return np.asarray(t, dtype=float) if np.ndim(t) else float(t)


def _chunks(times):
    """Consecutive arrays of at most CHUNK of ``times``, at least one time."""
    times = np.asarray(list(times), dtype=float)
    if not len(times):
        raise ValueError("no times to sample")
    return [times[i:i + CHUNK] for i in range(0, len(times), CHUNK)]


class SingularHessianError(RuntimeError):
    """Raised when the velocity Hessian degenerates during integration, or
    when the integrator stalls because its step size collapses (the equations
    of motion H qddot = Z become singular along the path)."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SolutionParams:
    """Constant vectors and phase function of the exact free-motion solution.

    ``phase`` must be a twice-differentiable scalar callable accepting jets.
    """

    P: np.ndarray
    W: np.ndarray
    N: np.ndarray
    phase: object
    x0: np.ndarray = field(default_factory=lambda: np.zeros(4))
    M: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        object.__setattr__(self, "N", np.asarray(self.N, dtype=float))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    def residuals(self) -> dict:
        M, ell = self.M, self.ell
        s_P = M**2
        s_W = 0.25 * M**4 * ell**2
        return {
            "PP": (dot(self.P, self.P) - M**2) / s_P,
            "WW": (dot(self.W, self.W) - FUNDAMENTAL_WW_FACTOR * M**4 * ell**2) / s_W,
            "WP": dot(self.W, self.P) / (M * np.sqrt(s_W)),
            "NN": dot(self.N, self.N) + 1.0,
            "NW": dot(self.N, self.W) / np.sqrt(s_W),
            "NP": dot(self.N, self.P) / M,
        }

    def validate(self) -> "SolutionParams":
        bad = {k: v for k, v in self.residuals().items() if abs(v) > PARAM_TOL}
        if bad:
            raise DomainError(f"solution parameters violate constraints: {bad}")
        return self

    def axis(self) -> np.ndarray:
        """Second rotation axis E, orthonormal mate of N in the spin plane."""
        return epsilon_contract(self.N, self.W, self.P) / (0.5 * self.M**3 * self.ell)

    def phase_jet(self, t) -> jets.Jet:
        """The phase at t as a jet in t, its speed |phidot| checked against the
        admissibility band (0, 2/ell); batched, and checked at every time, for
        an array of times."""
        t = _times(t)
        (tj,) = jets.variables(t)
        ph = self.phase(tj)
        if not isinstance(ph, jets.Jet):
            ph = jets.constant(float(ph) + 0.0 * t, 1)
        pd = ph.g[0]
        hi = 2.0 / self.ell
        jets.raise_where(np.logical_not((SPEED_FLOOR * hi < abs(pd)) & (abs(pd) < hi)),
                         DomainError, f"phase speed {{}} at t = {{}} outside (0, {hi})",
                         pd, t)
        return ph


class Trajectory:
    """Map t -> (x, k) with exact first and second derivative queries.

    ``jets`` returns x(t) and k(t) as four-vectors of jets in t, batched over
    t when t is an array of times."""

    def jets(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class FreeMotionTrajectory(Trajectory):
    params: SolutionParams

    def jets(self, t):
        p = self.params
        t = _times(t)
        ph = p.phase_jet(t)
        sgn = np.sign(ph.g[0])
        s, c = jets.sin(ph), jets.cos(ph)
        (tj,) = jets.variables(t)
        E = p.axis()
        x = np.empty(4, dtype=object)
        k = np.empty(4, dtype=object)
        for mu in range(4):
            x[mu] = (p.P[mu] / p.M) * tj + 0.5 * p.ell * (p.N[mu] * s + E[mu] * c) \
                + p.x0[mu]
            k[mu] = p.P[mu] / p.M + sgn * (p.N[mu] * c - E[mu] * s)
        return x, k


def free_motion(params: SolutionParams) -> FreeMotionTrajectory:
    """Exact solution of the fundamental system for the given constants."""
    return FreeMotionTrajectory(params.validate())


def rest_frame_params(phase, M: float = 1.0, ell: float = 1.0) -> SolutionParams:
    """Canonical center-of-momentum parameters: spin along z, N along x, the
    worldline through the origin at t = 0."""
    return SolutionParams(
        P=four(M, 0.0, 0.0, 0.0),
        W=four(0.0, 0.0, 0.0, 0.5 * M**2 * ell),
        N=four(0.0, 1.0, 0.0, 0.0),
        phase=phase,
        M=M,
        ell=ell,
    )


# -- Euler-Lagrange residuals in the lab-time chart -------------------------


@dataclass(frozen=True)
class ELReport:
    """EL residuals per chart coordinate at one time, or at a batch of B
    times: then ``residuals`` is (n, B) and ``scale`` and the maxima (B,)."""

    residuals: np.ndarray
    scale: float
    dof: tuple

    @property
    def max_abs(self):
        return np.max(np.abs(self.residuals), axis=0)

    @property
    def max_relative(self):
        return self.max_abs / self.scale


def _lab_chart_jets(x, k, dof):
    """Chart coordinates q(T) as jets in lab time T = x^0.

    Input components are second-order jets in the trajectory parameter; the
    chain rule converts their derivatives to lab-time derivatives.  Batched
    jets give (n, B) arrays.
    """
    Td, Tdd = x[0].g[0], x[0].h[0, 0]
    jets.raise_where(Td <= 0.0, DomainError, "lab time not increasing: dx0/dt = {}", Td)
    theta, phi, K = angles_from_null(k)
    check_off_pole(jets.value(theta))
    coords = [x[1], x[2], x[3], theta, phi]
    if len(dof) == 6:
        coords.append(K)
    q, qd, qdd = [], [], []
    for c in coords:
        f, g, h = jets.value(c), c.g[0], c.h[0, 0]
        q.append(f)
        qd.append(g / Td)
        qdd.append((h * Td - g * Tdd) / jets.power(Td, 3))
    return np.array(q), np.array(qd), np.array(qdd)


def el_residuals(F: FForm, traj: Trajectory, t, dof=DOF5) -> ELReport:
    """d/dT (dL/dqdot) - dL/dq per chart coordinate, by exact differentiation;
    one batched report for an array of times."""
    return _el_report(F, *_lab_chart_jets(*traj.jets(t), dof), dof)


def _el_report(F: FForm, q, qd, qdd, dof) -> ELReport:
    """``el_residuals`` from the lab-chart state (q, qd, qdd) of
    ``_lab_chart_jets``.

    Residual i is sum_j H_{v_i v_j} qdd_j + sum_j H_{v_i q_j} qd_j - dL/dq_i,
    added term by term in that order; its scale is the largest of those
    terms over i."""
    n = len(dof)
    vs = jets.variables(*q, *qd)
    L = chart_lagrangian(F, list(vs[:n]), list(vs[n:]), dof)
    hv = L.h[n:]  # rows of the velocities
    terms = [hv[:, n + j] * qdd[j] for j in range(n)] + [hv[:, j] * qd[j] for j in range(n)]
    res = sum(terms[:n]) + sum(terms[n:]) - L.g[:n]
    scale = np.max(np.abs(np.stack(terms + [L.g[:n]])), axis=(0, 1))
    return ELReport(residuals=res, scale=np.maximum(scale, 1e-300), dof=tuple(dof))


# -- numerical integration of nondegenerate members -------------------------


def _hessian_and_force(F: FForm, q, qd, dof):
    """Velocity Hessian H and force vector Z with H qddot = Z."""
    n = len(dof)
    vs = jets.variables(*q, *qd)
    L = chart_lagrangian(F, list(vs[:n]), list(vs[n:]), dof)
    H = L.h[n:, n:]
    Z = L.g[:n] - L.h[n:, :n] @ np.asarray(qd, dtype=float)
    return H, Z


def _active(H, Z):
    """Mask of coordinates that are not entirely inert (zero Hessian row and
    zero force, e.g. the null-direction angles of the point particle)."""
    absH = np.abs(H)
    inert_tol = 1e-14 * max(float(np.max(absH)), 1e-300)
    return (np.max(absH, axis=1) > inert_tol) | (np.abs(Z) > inert_tol)


def _qr_solve(H, Z, t, q, qd):
    """Solve H qddot = Z by QR with condition monitoring.

    Inert coordinates (see ``_active``) are frozen at qddot = 0 instead of
    tripping the singularity guard.  ``t, q, qd`` identify the state in the
    error raised on a singular Hessian.
    """
    active = _active(H, Z)
    qdd = np.zeros(len(Z))
    if not active.any():
        return qdd
    if active.all():
        Ha, Za = H, Z
    else:
        idx = np.flatnonzero(active)
        Ha, Za = H[np.ix_(idx, idx)], Z[idx]
    Qm, R = np.linalg.qr(Ha)
    diag = np.abs(np.diag(R))
    if diag.min() <= COND_TOL * max(diag.max(), 1e-300):
        raise SingularHessianError(
            f"velocity Hessian singular (R diagonal ratio "
            f"{diag.min() / max(diag.max(), 1e-300):.3e})",
            state={"t": t, "q": list(q), "qd": list(qd)},
        )
    qdd[active] = solve_triangular(R, Qm.T @ Za, check_finite=False)
    return qdd


class SpanSolution:
    """A scipy OdeSolution held to the span it covers.

    A time outside [t_min, t_max] reads the state at the nearer end, as
    np.interp does, instead of extrapolating the last step's polynomial: for
    DOP853 that extrapolation can leave the light cone within a period.
    """

    def __init__(self, sol):
        self._sol = sol
        self.ts = sol.ts
        self.t_min, self.t_max = sol.t_min, sol.t_max

    def __call__(self, t):
        return self._sol(np.clip(t, self.t_min, self.t_max))


@dataclass(frozen=True)
class IntegratedTrajectory(Trajectory):
    """Lab-time solution of H qddot = Z; t is lab time x^0.

    ``chart`` and everything built on it raise ValueError outside the
    integrated span."""

    F: FForm
    dof: tuple
    sol: SpanSolution  # dense output

    def chart(self, t):
        """(q, qd) at t: (n,) arrays, or (n, B) for an array of B times."""
        t = _times(t)
        jets.raise_where(np.logical_not((self.sol.t_min <= t) & (t <= self.sol.t_max)),
                         ValueError, f"t = {{}} outside the integrated span "
                         f"[{self.sol.t_min}, {self.sol.t_max}]", t)
        y = self.sol(t)
        n = len(self.dof)
        return y[:n], y[n:]

    def _accel(self, t, q, qd):
        if np.ndim(t):  # the velocity Hessian takes one state per solve
            return np.stack([self._accel(*s) for s in zip(t, q.T, qd.T)], axis=-1)
        H, Z = _hessian_and_force(self.F, q, qd, self.dof)
        return _qr_solve(H, Z, t, q, qd)

    def _vectors(self, t, q, qd, qdd):
        """x and k as four-vectors of jets in t, from the chart state with
        second derivatives qdd."""
        qj = [jets.Jet(q[i], qd[i][None], qdd[i][None, None]) for i in range(len(q))]
        (tj,) = jets.variables(t)
        K = qj[5] if len(self.dof) == 6 else 1.0
        return four(tj, *qj[:3]), null_from_angles(qj[3], qj[4], K)

    def jets(self, t):
        t = _times(t)
        q, qd = self.chart(t)
        return self._vectors(t, q, qd, self._accel(t, q, qd))

    def momenta(self, F: FForm, t):
        """Noether momenta of F at t, from the chart state alone.  They read
        the first derivatives of the ``jets`` vectors, which a jet computes
        without its Hessian, so a zero acceleration gives the same momenta bit
        for bit and none is solved."""
        t = _times(t)
        q, qd = self.chart(t)
        x, k = self._vectors(t, q, qd, np.zeros_like(q))
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        return momenta_from_vectors(F, xd, kv, kd, x=xv)


def integrate(F: FForm, initial: ChartState, t_span, dof=DOF5) -> IntegratedTrajectory:
    """Adaptive solution of H qddot = Z in the lab-time chart.

    The integrator is DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand
    and Prince (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10), with
    its 7th-order dense output.  At rtol = 1e-10 it takes about a fifth of the
    steps of a 5(4) pair and half its right-hand-side calls, and each call is a
    velocity Hessian and a QR solve.  A singular Hessian, at the start or
    along the path, or a collapsing step size raises SingularHessianError.
    """
    initial.check_pole()
    q0, qd0 = initial.coords(dof)
    n = len(dof)
    # fail fast on a degenerate system before spending integrator work;
    # coordinates absent from the Lagrangian (e.g. the angles of the point
    # particle) are pure gauge and are held fixed from the start
    H, Z = _hessian_and_force(F, q0, qd0, dof)
    qd0 = qd0.copy()
    qd0[~_active(H, Z)] = 0.0
    H, Z = _hessian_and_force(F, q0, qd0, dof)
    _qr_solve(H, Z, t_span[0], q0, qd0)

    def rhs(t, y):
        q, qd = y[:n], y[n:]
        H, Z = _hessian_and_force(F, q, qd, dof)
        qdd = _qr_solve(H, Z, t, q, qd)
        return np.concatenate([qd, qdd])

    sol = solve_ivp(rhs, t_span, np.concatenate([q0, qd0]), method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=True)
    if not sol.success:
        y = sol.y[:, -1]
        raise SingularHessianError(
            f"integration failed at t = {sol.t[-1]:.6g}: {sol.message}",
            state={"t": float(sol.t[-1]), "q": list(y[:n]), "qd": list(y[n:])},
        )
    return IntegratedTrajectory(F=F, dof=tuple(dof), sol=SpanSolution(sol.sol))


# -- conserved charges along trajectories ------------------------------------


@dataclass(frozen=True)
class TrajectorySamples:
    """A trajectory at B times: ``t`` (B,), the values ``x`` and ``k`` of the
    four-vectors (4, B), the lab-chart state ``q`` and ``qd`` (n, B), the
    batched EL report and Noether momenta."""

    t: np.ndarray
    x: np.ndarray
    k: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    el: ELReport
    momenta: MomentumSet


def _joined(parts):
    """One record from the records of consecutive batches: each array field
    concatenated along its trailing batch axis, other fields from the first."""
    def join(values):
        v = values[0]
        if isinstance(v, np.ndarray):
            return np.concatenate(values, axis=-1)
        return _joined(values) if is_dataclass(v) else v
    return replace(parts[0], **{f.name: join([getattr(p, f.name) for p in parts])
                                for f in fields(parts[0])})


def trajectory_samples(F: FForm, traj: Trajectory, times, dof=DOF5) -> TrajectorySamples:
    """The samples at ``times``, from one batched trajectory query per CHUNK
    times."""
    parts = []
    for ts in _chunks(times):
        x, k = traj.jets(ts)
        q, qd, qdd = _lab_chart_jets(x, k, dof)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        parts.append(TrajectorySamples(ts, xv, kv, q, qd, _el_report(F, q, qd, qdd, dof),
                                       momenta_from_vectors(F, xd, kv, kd, x=xv)))
    return _joined(parts)


def charge_drift(p: SolutionParams, momenta: MomentumSet) -> dict:
    """Max relative deviation of the batched Noether P, W from p.P, p.W; a NaN
    is the max."""
    scale_P = max(np.max(np.abs(p.P)), 1e-300)
    scale_W = max(np.max(np.abs(p.W)), 1e-300)
    dP = float(np.max(np.abs(momenta.P - p.P[:, None]))) / scale_P
    dW = float(np.max(np.abs(momenta.W - p.W[:, None]))) / scale_W
    return {"P_drift": dP, "W_drift": dW, "points": momenta.P.shape[1]}


def casimir_drift(traj: IntegratedTrajectory, times) -> dict:
    """PP and WW of traj.F along an integrated trajectory at ``times``, one
    batched momenta query per CHUNK times, with max relative drift.

    The drift is relative to the initial value, floored at rounding of the
    physical scale (M^2 for PP, M^4 ell^2 for WW), so that a Casimir that is
    identically zero, like WW of the point particle, does not divide by noise.
    """
    F = traj.F
    c = _joined([traj.momenta(F, ts) for ts in _chunks(times)]).casimirs()
    eps = np.finfo(float).eps

    def rel_drift(v, scale):
        return float(np.max(np.abs(v - v[0])) / max(abs(v[0]), eps * scale))

    return {
        "PP": c.PP,
        "WW": c.WW,
        "PP_drift": rel_drift(c.PP, F.M**2),
        "WW_drift": rel_drift(c.WW, F.M**4 * F.ell**2),
    }


# -- angular speed of the null direction -------------------------------------


def angular_speed(Q: float, ell: float = 1.0) -> float:
    """|dphi/dt| of the circular solution: (2/ell) sqrt(Q) / (sqrt(Q) + 2)."""
    if Q <= 0.0:
        raise DomainError(f"Q = {Q} must be positive")
    s = np.sqrt(Q)
    return (2.0 / ell) * s / (s + 2.0)


def speed_to_Q(phidot: float, ell: float = 1.0) -> float:
    """Inverse of angular_speed: the Q at which the null direction turns at phidot."""
    w = abs(phidot)
    if not 0.0 < w < 2.0 / ell:
        raise DomainError(f"phase speed {phidot} outside (0, {2.0 / ell})")
    s = 2.0 * w * ell / (2.0 - w * ell)
    return s**2


# -- one initial state, many solutions ---------------------------------------


def indeterminacy_demo(phases, base: SolutionParams, times, F: FForm,
                       dof=DOF5) -> dict:
    """Several admissible phases sharing (phi(0), phidot(0)): same initial
    lab-time state, residual-clean trajectories, divergent subsequent motion.

    Each trajectory is one ``trajectory_samples`` record, returned under
    ``samples``; its EL residuals, initial chart state and positions all come
    from that record.
    """
    ref_j = None
    samples = []
    for phase in phases:
        p = SolutionParams(P=base.P, W=base.W, N=base.N, phase=phase,
                           x0=base.x0, M=base.M, ell=base.ell)
        s = trajectory_samples(F, free_motion(p), times, dof)
        ph = p.phase_jet(s.t[0])
        if ref_j is None:
            ref_j = (ph.f, ph.g[0])
        elif abs(ph.f - ref_j[0]) > MATCH_TOL or abs(ph.g[0] - ref_j[1]) > MATCH_TOL:
            raise DomainError("phase functions do not share initial data")
        samples.append(s)
    s0 = samples[0]
    for s in samples[1:]:
        state_gap = max(np.max(np.abs(s.q[:, 0] - s0.q[:, 0])),
                        np.max(np.abs(s.qd[:, 0] - s0.qd[:, 0])))
        if state_gap > 1e-10:
            raise DomainError(f"initial chart states differ by {state_gap}")
    # numpy maxima, so that a NaN is the max
    divergence = float(np.max([np.max(np.abs(s.x - s0.x)) for s in samples[1:]],
                              initial=0.0))
    return {
        "samples": samples,
        "max_el_residual": float(np.max([np.max(s.el.max_relative) for s in samples])),
        "divergence": divergence,
    }


# -- trajectory export --------------------------------------------------------


def export_trajectory(path, samples: TrajectorySamples) -> None:
    """Delimited text from ``trajectory_samples``: t, x0..x3, k0..k3, EL
    residual norm, PP, WW per row."""
    cols = ["t", "x0", "x1", "x2", "x3", "k0", "k1", "k2", "k3",
            "el_residual_norm", "PP", "WW"]
    c = samples.momenta.casimirs()
    # the norm of each residual column: a batched norm(axis=0) sums in
    # another order and moves the last digit of some rows
    norms = [np.linalg.norm(r) for r in samples.el.residuals.T]
    table = np.vstack([samples.t, samples.x, samples.k, norms, c.PP, c.WW])
    fmt = ",".join(["{:.17g}"] * len(cols))
    lines = [",".join(cols)] + [fmt.format(*r) for r in table.T.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
