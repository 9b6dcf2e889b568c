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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular

from . import jets
from .degeneracy import DOF5, ChartState, chart_lagrangian, chart_vectors, check_off_pole
from .fform import FForm
from .minkowski import DomainError, dot, epsilon_contract, four
from .noether import FUNDAMENTAL_WW_FACTOR, momenta_from_vectors
from .spinor import angles_from_null, null_from_angles

__all__ = [
    "SolutionParams",
    "FreeMotionTrajectory",
    "IntegratedTrajectory",
    "SpanSolution",
    "SingularHessianError",
    "ELReport",
    "free_motion",
    "el_residuals",
    "integrate",
    "angular_speed",
    "speed_to_Q",
    "trajectory_samples",
    "conservation_drift",
    "charge_drift",
    "casimir_drift",
    "casimir_series",
    "indeterminacy_demo",
    "export_trajectory",
    "rest_frame_params",
]

PARAM_TOL = 1e-12
SPEED_FLOOR = 1e-12  # numerical floor of the open bound 0 < |phidot|
MATCH_TOL = 1e-12  # phases share initial data if (phi, phidot) at t0 agree to this
RTOL, ATOL = 1e-10, 1e-12  # DOP853 error tolerances
COND_TOL = 1e-12  # least R-diagonal ratio of a solvable velocity Hessian


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

    def phase_jet(self, t: float) -> jets.Jet:
        """The phase at t as a jet in t, its speed |phidot| checked against the
        admissibility band (0, 2/ell)."""
        (tj,) = jets.variables(float(t))
        ph = self.phase(tj)
        if not isinstance(ph, jets.Jet):
            ph = jets.constant(float(ph), 1)
        pd = ph.g[0]
        if not SPEED_FLOOR * (2.0 / self.ell) < abs(pd) < 2.0 / self.ell:
            raise DomainError(
                f"phase speed {pd} at t = {t} outside (0, {2.0 / self.ell})"
            )
        return ph


class Trajectory:
    """Map t -> (x, k) with exact first and second derivative queries."""

    def jets(self, t: float):
        raise NotImplementedError

    def momenta(self, F: FForm, t: float):
        """Noether momenta of F at t."""
        (xv, xd), (kv, kd) = map(jets.split, self.jets(t))
        return momenta_from_vectors(F, xd, kv, kd, x=xv)


@dataclass(frozen=True)
class FreeMotionTrajectory(Trajectory):
    params: SolutionParams

    def jets(self, t: float):
        p = self.params
        ph = p.phase_jet(t)
        sgn = np.sign(ph.g[0])
        s, c = jets.sin(ph), jets.cos(ph)
        (tj,) = jets.variables(float(t))
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


def rest_frame_params(phase, M: float = 1.0, ell: float = 1.0,
                      x0=(0.0, 0.0, 0.0, 0.0)) -> SolutionParams:
    """Canonical center-of-momentum parameters: spin along z, N along x."""
    return SolutionParams(
        P=four(M, 0.0, 0.0, 0.0),
        W=four(0.0, 0.0, 0.0, 0.5 * M**2 * ell),
        N=four(0.0, 1.0, 0.0, 0.0),
        phase=phase,
        x0=np.asarray(x0, dtype=float),
        M=M,
        ell=ell,
    )


# -- Euler-Lagrange residuals in the lab-time chart -------------------------


@dataclass(frozen=True)
class ELReport:
    residuals: np.ndarray
    scale: float
    dof: tuple

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def max_relative(self) -> float:
        return self.max_abs / self.scale


def _lab_chart_jets(x, k, dof):
    """Chart coordinates q(T) as jets in lab time T = x^0.

    Input components are second-order jets in the trajectory parameter; the
    chain rule converts their derivatives to lab-time derivatives.
    """
    Td, Tdd = x[0].g[0], x[0].h[0, 0]
    if Td <= 0.0:
        raise DomainError(f"lab time not increasing: dx0/dt = {Td}")
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
        qdd.append((h * Td - g * Tdd) / Td**3)
    return np.array(q), np.array(qd), np.array(qdd)


def el_residuals(F: FForm, traj: Trajectory, t: float, dof=DOF5) -> ELReport:
    """d/dT (dL/dqdot) - dL/dq per chart coordinate, by exact differentiation."""
    x, k = traj.jets(t)
    return _el_report(F, x, k, dof)


def _el_report(F: FForm, x, k, dof) -> ELReport:
    """``el_residuals`` from the trajectory jets x(t), k(t)."""
    q, qd, qdd = _lab_chart_jets(x, k, dof)
    n = len(dof)
    vs = jets.variables(*q, *qd)
    L = chart_lagrangian(F, list(vs[:n]), list(vs[n:]), dof)
    res = np.zeros(n)
    scale = 0.0
    for i in range(n):
        acc = np.dot(L.h[n + i, n:], qdd) + np.dot(L.h[n + i, :n], qd)
        terms = np.abs(np.concatenate([L.h[n + i, n:] * qdd,
                                       L.h[n + i, :n] * qd, [L.g[i]]]))
        scale = max(scale, float(np.max(terms)))
        res[i] = acc - L.g[i]
    return ELReport(residuals=res, scale=max(scale, 1e-300), dof=tuple(dof))


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

    def chart(self, t: float):
        t = float(t)
        if not self.sol.t_min <= t <= self.sol.t_max:
            raise ValueError(f"t = {t} outside the integrated span "
                             f"[{self.sol.t_min}, {self.sol.t_max}]")
        y = self.sol(t)
        n = len(self.dof)
        return y[:n], y[n:]

    def accel(self, t: float) -> np.ndarray:
        q, qd = self.chart(t)
        H, Z = _hessian_and_force(self.F, q, qd, self.dof)
        return _qr_solve(H, Z, t, q, qd)

    def momenta(self, F: FForm, t: float):
        """Noether momenta of F at t, from the chart state alone: unlike
        ``jets``, this solves for no acceleration."""
        q, qd = self.chart(t)
        xd, kv, kd = chart_vectors(q, qd, self.dof)
        return momenta_from_vectors(F, xd, kv, kd, x=four(float(t), *q[:3]))

    def jets(self, t: float):
        q, qd = self.chart(t)
        qdd = self.accel(t)
        qj = [jets.Jet(q[i], np.array([qd[i]]), np.array([[qdd[i]]]))
              for i in range(len(q))]
        tj = jets.Jet(float(t), np.array([1.0]), np.zeros((1, 1)))
        K = qj[5] if len(self.dof) == 6 else 1.0
        return four(tj, *qj[:3]), null_from_angles(qj[3], qj[4], K)


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


def trajectory_samples(F: FForm, traj: Trajectory, times, dof=DOF5) -> list:
    """(t, x, k, EL report, Noether momenta) per time, from one trajectory
    query each; x and k are the values of the four-vectors."""
    out = []
    for t in times:
        x, k = traj.jets(t)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        out.append((float(t), xv, kv, _el_report(F, x, k, dof),
                    momenta_from_vectors(F, xd, kv, kd, x=xv)))
    return out


def conservation_drift(p: SolutionParams, traj: Trajectory, times, F: FForm) -> dict:
    """Max relative deviation of recomputed Noether P, W from the inputs."""
    return charge_drift(p, [traj.momenta(F, t) for t in times])


def charge_drift(p: SolutionParams, momenta) -> dict:
    """Max relative deviation of the Noether P, W in ``momenta`` from p.P, p.W."""
    scale_P = max(np.max(np.abs(p.P)), 1e-300)
    scale_W = max(np.max(np.abs(p.W)), 1e-300)
    dP = dW = 0.0
    for ms in momenta:
        dP = max(dP, float(np.max(np.abs(ms.P - p.P))) / scale_P)
        dW = max(dW, float(np.max(np.abs(ms.W - p.W))) / scale_W)
    return {"P_drift": dP, "W_drift": dW, "points": len(momenta)}


def casimir_drift(traj: IntegratedTrajectory, times) -> dict:
    """PP and WW along an integrated trajectory, with max relative drift."""
    return casimir_series(traj.F, [traj.momenta(traj.F, t) for t in times])


def casimir_series(F: FForm, momenta) -> dict:
    """PP and WW of each of ``momenta``, with max relative drift.

    The drift is relative to the initial value, floored at rounding of the
    physical scale (M^2 for PP, M^4 ell^2 for WW), so that a Casimir that is
    identically zero, like WW of the point particle, does not divide by noise.
    """
    pps, wws = [], []
    for ms in momenta:
        c = ms.casimirs()
        pps.append(c.PP)
        wws.append(c.WW)
    pps, wws = np.array(pps), np.array(wws)
    M, ell = F.M, F.ell
    eps = np.finfo(float).eps

    def rel_drift(v, scale):
        return float(np.max(np.abs(v - v[0])) / max(abs(v[0]), eps * scale))

    return {
        "PP": pps,
        "WW": wws,
        "PP_drift": rel_drift(pps, M**2),
        "WW_drift": rel_drift(wws, M**4 * ell**2),
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

    Each trajectory is queried once per time; its EL residuals, initial chart
    state and positions all come from those jets.
    """
    times = np.asarray(list(times), dtype=float)
    ref_j = None
    entries = []
    charts = []
    positions = []
    for phase in phases:
        p = SolutionParams(P=base.P, W=base.W, N=base.N, phase=phase,
                           x0=base.x0, M=base.M, ell=base.ell)
        ph = p.phase_jet(times[0])
        if ref_j is None:
            ref_j = (ph.f, ph.g[0])
        elif abs(ph.f - ref_j[0]) > MATCH_TOL or abs(ph.g[0] - ref_j[1]) > MATCH_TOL:
            raise DomainError("phase functions do not share initial data")
        traj = free_motion(p)
        xk = [traj.jets(t) for t in times]
        max_rel = max(_el_report(F, x, k, dof).max_relative for x, k in xk)
        entries.append({"max_el_residual": max_rel})
        charts.append(_lab_chart_jets(*xk[0], dof)[:2])
        positions.append(np.array([jets.split(x)[0] for x, _ in xk]))
    q0, qd0 = charts[0]
    for q, qd in charts[1:]:
        state_gap = max(np.max(np.abs(q - q0)), np.max(np.abs(qd - qd0)))
        if state_gap > 1e-10:
            raise DomainError(f"initial chart states differ by {state_gap}")
    divergence = 0.0
    for xs in positions[1:]:
        divergence = max(divergence, float(np.max(np.abs(xs - positions[0]))))
    return {
        "phases": len(phases),
        "entries": entries,
        "max_el_residual": max(e["max_el_residual"] for e in entries),
        "divergence": divergence,
        "window": (float(times[0]), float(times[-1])),
    }


# -- trajectory export --------------------------------------------------------


def export_trajectory(path, samples) -> None:
    """Delimited text from ``trajectory_samples``: t, x0..x3, k0..k3, EL
    residual norm, PP, WW per row."""
    cols = ["t", "x0", "x1", "x2", "x3", "k0", "k1", "k2", "k3",
            "el_residual_norm", "PP", "WW"]
    lines = [",".join(cols)]
    for t, xv, kv, rep, ms in samples:
        c = ms.casimirs()
        row = [t, *xv, *kv, float(np.linalg.norm(rep.residuals)), c.PP, c.WW]
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
