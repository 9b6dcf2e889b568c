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
H qddot = Z at each right-hand-side call, one state at a time, with a
Householder QR from LAPACK and condition monitoring (``_qr_solve``), which
factors first and looks for inert coordinates only when the factors refuse.
Numpy's per-call overhead is most of a call's cost on arrays this small, so
each stage makes few numpy calls.  The integrator is rotorlab's own DOP853
(``dop853``).  Of scipy, only the LAPACK extension (``_lapack``) and the DOP853
coefficients load, each by itself, at an integration's first solve.
L depends on the worldline only through its velocity, so the positions
x1..x3 are cyclic: the chart jets are in the coordinates that L reads.
``degeneracy.chart_derivatives`` forms them, the closed-form jets of the four
chart scalars carried to L by one chain step, for the right-hand side and the
EL residuals alike.

Trajectory queries accept a time or an array of times.  An array is one pass
of batched jets (see ``jets``), and the passes along a trajectory take CHUNK
times each, so their memory does not grow with the number of samples.  The
samples of such a pass stay one batched record, reduced as columns, and
the CSV is formatted once from the columns.  A free motion carries every
phase that shares its constants: a query takes each phase's jet on its
times, speed-checked as alone, and joins them phase-major (``jets.join``),
so the rest of the pass runs once over all the phases, each entry bit for
bit its own phase's, and ``trajectory_samples`` reads each phase's record
from its block.  Both trajectory kinds answer
``lab_state``: x and k as jets, and the lab-chart state (q, qd, qdd).  A free
motion reads that state off second-order four-vector jets; an integrated
trajectory returns its own chart state, with no round trip through k's angles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import dop853, jets
from .degeneracy import DOF5, ChartState, chart_derivatives, check_off_pole
from .fform import FForm
from .minkowski import DomainError, dot, epsilon_contract, four
from .noether import MomentumSet, fundamental_casimirs, momenta_from_vectors
from .spinor import angles_from_null, null_from_angles

PARAM_TOL = 1e-12
SPEED_FLOOR = 1e-12  # numerical floor of the open bound 0 < |phidot|
COND_TOL = 1e-12  # least R-diagonal ratio of a solvable velocity Hessian
INERT_TOL = 1e-14  # largest Hessian row and force of an inert coordinate, relative to max|H|
CHUNK = 128  # times per batched trajectory query in the passes along a trajectory
# the integrator's budget of right-hand-side calls: a floor for any span plus a
# rate per unit of lab time.  Measured runs that finish take at most 600 calls
# over a span of 5 and 120 calls per unit of lab time (cos(Q) over 10 periods);
# an oscillatory form such as 2.5 Q - sin(2398 P) takes about 10^5.
RHS_CALLS_FLOOR = 2000
RHS_CALLS_PER_TIME = 1000


def _times(t):
    """A time as a float, or times as a float array."""
    return np.asarray(t, dtype=float) if np.ndim(t) else float(t)


def _chunks(times):
    """Consecutive arrays of at most CHUNK of ``times``, at least one time."""
    times = np.asarray(list(times), dtype=float)
    if not len(times):
        raise ValueError("no times to sample")
    return [times[i:i + CHUNK] for i in range(0, len(times), CHUNK)]


_UNSOLVABLE = "velocity Hessian not solvable in floating point"


def _floats(v):
    return "[" + ", ".join(f"{x:.6g}" for x in v) + "]"


class SingularHessianError(RuntimeError):
    """Raised when the velocity Hessian degenerates during integration, when
    it cannot be solved in floating point, or when the integrator stalls
    because its step size collapses (the equations of motion H qddot = Z
    become singular along the path) or because it spends its budget of
    right-hand-side calls.  The message says why and where the solve
    stopped; ``state`` holds that (t, q, qd)."""

    def __init__(self, why, t, q, qd):
        super().__init__(f"{why} at t = {t:.6g}: q = {_floats(q)}, qd = {_floats(qd)}")
        self.state = {"t": float(t), "q": list(q), "qd": list(qd)}


@dataclass(frozen=True)
class SolutionParams:
    """Constant vectors of the exact free-motion solution; its phase is not
    fixed by them (``free_motion``)."""

    P: np.ndarray
    W: np.ndarray
    N: np.ndarray
    x0: np.ndarray = field(default_factory=lambda: np.zeros(4))
    M: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        object.__setattr__(self, "N", np.asarray(self.N, dtype=float))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    def residuals(self) -> dict:
        M = self.M
        PP, WW = fundamental_casimirs(M, self.ell)
        s_W = -WW  # 0.25 M^4 ell^2, exactly
        return {
            "PP": (dot(self.P, self.P) - PP) / PP,
            "WW": (dot(self.W, self.W) - WW) / s_W,
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


def phase_jet(phase, t, ell) -> jets.Jet:
    """The phase at t as a jet in t, ``phase`` a twice-differentiable scalar
    callable accepting jets, its speed |phidot| checked against the
    admissibility band (0, 2/ell), floored at SPEED_FLOOR 2/ell; batched,
    and checked at every time, for an array of times."""
    t = _times(t)
    (tj,) = jets.variables(t)
    ph = phase(tj)
    if not isinstance(ph, jets.Jet):
        ph = jets.constant(float(ph) + 0.0 * t, 1)
    pd = ph.g[0]
    hi = 2.0 / ell
    lo = SPEED_FLOOR * hi
    jets.raise_where(np.logical_not((lo < abs(pd)) & (abs(pd) < hi)),
                     DomainError, f"phase speed {{}} at t = {{}} outside ({lo}, {hi})",
                     pd, t)
    return ph


@dataclass(frozen=True)
class FreeMotionTrajectory:
    """The exact free motions of the constants ``params``, one per phase of
    ``phases``, in the DOF5 chart: ``jets`` returns x(t) and k(t) as
    four-vectors of jets in t, batched over an array of t.  With m phases, a
    query of B times answers m B entries, phase-major: each phase's jet is
    taken on the times, and the m jets joined into one batch."""

    params: SolutionParams
    phases: tuple
    dof = DOF5

    def jets(self, t):
        p = self.params
        t = _times(t)
        phs = [phase_jet(phase, t, p.ell) for phase in self.phases]
        ph = phs[0]
        if len(phs) > 1:  # one batch, each phase's entries a block
            ph, t = jets.join(phs), np.tile(t, len(phs))
        sgn = np.sign(ph.g[0])
        s, c = jets.sin(ph), jets.cos(ph)
        (tj,) = jets.variables(t)
        E = p.axis()
        x = four(*((p.P[mu] / p.M) * tj + 0.5 * p.ell * (p.N[mu] * s + E[mu] * c) + p.x0[mu]
                   for mu in range(4)))
        return x, four(*(p.P[mu] / p.M + sgn * (p.N[mu] * c - E[mu] * s) for mu in range(4)))

    def lab_state(self, t):
        """(x, k) of ``jets`` at t, and the lab-chart state (q, qd, qdd) they give."""
        x, k = self.jets(t)
        return (x, k, *_lab_chart_jets(x, k))


def free_motion(params: SolutionParams, phases) -> FreeMotionTrajectory:
    """Exact solutions of the fundamental system for the given constants, one
    per phase of ``phases``, as one trajectory."""
    return FreeMotionTrajectory(params.validate(), tuple(phases))


def rest_frame_params(M: float = 1.0, ell: float = 1.0) -> SolutionParams:
    """Canonical center-of-momentum parameters: spin along z, N along x, the
    worldline through the origin at t = 0."""
    return SolutionParams(
        P=four(M, 0.0, 0.0, 0.0),
        W=four(0.0, 0.0, 0.0, 0.5 * M**2 * ell),
        N=four(0.0, 1.0, 0.0, 0.0),
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


def _lab_chart_jets(x, k):
    """The DOF5 chart state (q, qd, qdd) in lab time T = x^0 of a free motion.

    Input components are second-order jets in the trajectory parameter; the
    chain rule converts the derivatives of x1..x3 and of k's angles to
    lab-time derivatives.  Batched jets give (5, B) arrays.
    """
    Td, Tdd = x[0].g[0], x[0].h[0, 0]
    jets.raise_where(Td <= 0.0, DomainError, "lab time not increasing: dx0/dt = {}", Td)
    theta, phi, _ = angles_from_null(k)
    check_off_pole(jets.value(theta))
    q, G, H = jets.stack((x[1], x[2], x[3], theta, phi))
    g, h = G[:, 0], H[:, 0, 0]
    return np.array(q), g / Td, (h * Td - g * Tdd) / jets.power(Td, 3)


def _el_report(F: FForm, q, qd, qdd, dof) -> ELReport:
    """d/dT (dL/dqdot) - dL/dq per chart coordinate, by exact differentiation,
    at the lab-chart state (q, qd, qdd) of a trajectory's ``lab_state``; one
    batched report for a batch of times.

    Residual i is sum_j H_{v_i v_j} qdd_j + sum_j H_{v_i q_j} qd_j - dL/dq_i,
    added term by term in that order; its scale is the largest of those
    terms over i."""
    n = len(dof)
    dq, hv = chart_derivatives(F, q, qd, dof)
    terms = [hv[:, n + j] * qdd[j] for j in range(n)] + [hv[:, j] * qd[j] for j in range(n)]
    res = sum(terms[:n]) + sum(terms[n:]) - dq
    scale = np.max(np.abs(np.stack(terms + [dq])), axis=(0, 1))
    return ELReport(residuals=res, scale=np.maximum(scale, 1e-300), dof=tuple(dof))


# -- numerical integration of nondegenerate members -------------------------


def _hessian_and_force(F: FForm, q, qd, dof):
    """Velocity Hessian H and force vector Z with H qddot = Z."""
    n = len(dof)
    dq, hv = chart_derivatives(F, q, qd, dof)
    # the product runs over the zero columns of x1..x3 too: over the two
    # nonzero ones alone, BLAS rounds Z differently in most states
    return hv[:, n:], dq - hv[:, :n] @ qd


def _active(H, Z, t, q, qd):
    """Which coordinates are not inert, as a list of bools: inert ones have a
    Hessian row and a force of at most INERT_TOL of H's largest entry, like
    the point particle's angles.  A non-finite H or Z raises the error of
    ``_qr_solve`` instead of failing every comparison and reading as inert."""
    rows, force = np.abs(H).max(axis=1).tolist(), Z.tolist()
    if not all(map(math.isfinite, rows + force)):
        raise SingularHessianError(f"{_UNSOLVABLE} (Hessian or force not finite)", t, q, qd)
    tol = INERT_TOL * max(max(rows), 1e-300)
    return [r > tol or abs(z) > tol for r, z in zip(rows, force)]


@functools.cache
def _lapack():
    """The LAPACK routines of ``_qr_solve``, loaded once, at the first solve,
    from scipy's extension alone (``dop853.scipy_module``): ``scipy.linalg``'s
    package ``__init__`` imports f2py, numpy.testing and more, and takes
    longer than a ten-period ``simulate``."""
    module = dop853.scipy_module("scipy.linalg._flapack")
    return module.dgeqrf, module.dormqr, module.dtrtrs, module.dlange


def _qr_solve(H, Z, t, q, qd):
    """Solve H qddot = Z by QR with condition monitoring.

    Inert coordinates (see ``_active``) are frozen at qddot = 0 instead of
    tripping the singularity guard.  ``t, q, qd`` identify the state in the
    error raised on a singular Hessian, and on a system that cannot be solved
    in floating point: a non-finite entry of H or Z, or a QR or an
    acceleration that overflows to inf or NaN, any of which would stall the
    integrator's step-size loop.

    The system is a few coordinates wide, so the solve calls LAPACK directly:
    dgeqrf factors H = QR (Householder), dormqr applies Q^T to Z, dtrtrs solves
    the triangle and dlange reads max|H|, with no wrapper's checks or copies.
    It returns at once if R's diagonal is finite and well conditioned, each
    |R_ii| > 2 sqrt(n) INERT_TOL max|H| and qddot finite.  No row is inert
    then: H is symmetric bit for bit (``compose``), and by the columnwise
    backward error of Householder QR (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 19.4) an inert column has |R_ii| <=
    (1 + gamma) |H e_i| <= (1 + gamma) sqrt(n) INERT_TOL max|H|.  Else it classifies.
    """
    dgeqrf, dormqr, dtrtrs, dlange = _lapack()
    qr, tau, _, _ = dgeqrf(H)
    diag = [abs(r) for r in qr.diagonal().tolist()]
    finite = all(map(math.isfinite, diag))
    solvable = finite and min(diag) > COND_TOL * max(max(diag), 1e-300)
    if solvable:
        qdd = dtrtrs(qr, dormqr("L", "T", qr, tau, Z[:, None], 1)[0])[0][:, 0]
        solved = all(map(math.isfinite, qdd.tolist()))
        if solved and min(diag) > 2.0 * math.sqrt(len(Z)) * INERT_TOL * dlange("M", H):
            return qdd
    active = _active(H, Z, t, q, qd)
    if not all(active):  # the active block alone; the inert rows stay at 0
        qdd, idx = np.zeros(len(Z)), np.flatnonzero(active)
        if len(idx):
            qdd[idx] = _qr_solve(H[np.ix_(idx, idx)], Z[idx], t, q, qd)
        return qdd
    if not finite:
        raise SingularHessianError(f"{_UNSOLVABLE} (R diagonal not finite)", t, q, qd)
    if not solvable:
        raise SingularHessianError(f"velocity Hessian singular (R diagonal ratio "
                                   f"{min(diag) / max(max(diag), 1e-300):.3e})", t, q, qd)
    if not solved:
        raise SingularHessianError(f"{_UNSOLVABLE} (acceleration not finite)", t, q, qd)
    return qdd


@dataclass(frozen=True)
class IntegratedTrajectory:
    """Lab-time solution of H qddot = Z; t is lab time x^0.

    ``chart`` and everything built on it raise ValueError outside the
    integrated span."""

    F: FForm
    dof: tuple
    sol: dop853.DenseSolution  # dense output, held to the span

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

    def _vectors(self, t, q, qd):
        """x and k as four-vectors of first-order jets in t, from (q, qd)."""
        qj = [jets.Jet(q[i], qd[i][None], None) for i in range(len(q))]
        (tj,) = jets.variables(t, order=1)
        K = qj[5] if len(self.dof) == 6 else 1.0
        return four(tj, *qj[:3]), null_from_angles(qj[3], qj[4], K)

    def lab_state(self, t):
        """(x, k) of ``_vectors`` at t, and the integrated chart state (q, qd)
        itself, with qdd from H qddot = Z."""
        t = _times(t)
        q, qd = self.chart(t)
        x, k = self._vectors(t, q, qd)
        return x, k, q, qd, self._accel(t, q, qd)

    def momenta(self, t):
        """Noether momenta of ``F`` at t, from the chart state alone through
        the first-order ``_vectors``: no acceleration is solved."""
        t = _times(t)
        q, qd = self.chart(t)
        x, k = self._vectors(t, q, qd)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        return momenta_from_vectors(self.F, xd, kv, kd, x=xv)


def integrate(F: FForm, initial: ChartState, t_span, dof=DOF5) -> IntegratedTrajectory:
    """Adaptive solution of H qddot = Z in the lab-time chart.

    The integrator is rotorlab's own DOP853 (``dop853.solve``), the explicit
    Runge-Kutta 8(5,3) pair of Dormand and Prince (Hairer, Norsett & Wanner,
    Solving ODEs I, 2nd ed., II.10), with its 7th-order dense output.  It takes
    scipy 1.17.1's steps bit for bit on scipy's own tableau; of scipy it loads
    only that module and the LAPACK extension of ``_qr_solve``.  At
    rtol = 1e-10 it takes about a fifth of the steps of a 5(4) pair and half
    its right-hand-side calls, and each call is a velocity Hessian and a QR
    solve.  A Hessian that is singular or not solvable in floating point, at
    the start or along the path (the first call is at t0), a collapsing step
    size, or more right-hand-side calls than RHS_CALLS_FLOOR plus
    RHS_CALLS_PER_TIME per unit of the span raises SingularHessianError; the
    budget counts calls, not seconds, so whether a run finishes does not
    depend on the machine.  So does a start at which every coordinate is inert
    (``_active``), as for F = 0: no coordinate is integrated there, and no
    conserved charge would be checked.
    """
    initial.check_pole()
    q0, qd0 = initial.coords(dof)
    n = len(dof)
    # coordinates absent from the Lagrangian (e.g. the angles of the point
    # particle) are pure gauge and are held fixed from the start
    active = _active(*_hessian_and_force(F, q0, qd0, dof), t_span[0], q0, qd0)
    if not any(active):  # e.g. F = 0: nothing would move, and nothing be checked
        raise SingularHessianError(f"every coordinate is inert for {F.name} (velocity "
                                   "Hessian and force vanish)", t_span[0], q0, qd0)
    qd0 = np.where(active, qd0, 0.0)
    span = abs(t_span[1] - t_span[0])
    budget = RHS_CALLS_FLOOR + RHS_CALLS_PER_TIME * span
    calls = 0

    def rhs(t, y):
        nonlocal calls
        q, qd = y[:n], y[n:]
        if calls >= budget:
            raise SingularHessianError(
                f"integration stopped after {calls} right-hand-side calls (the "
                f"budget for a lab-time span of {span:.6g})", t, q, qd)
        calls += 1
        H, Z = _hessian_and_force(F, q, qd, dof)
        return np.concatenate([qd, _qr_solve(H, Z, t, q, qd)])

    try:
        sol = dop853.solve(rhs, t_span, np.concatenate([q0, qd0]))
    except dop853.StepSizeError as e:
        why, t, y = e.args
        raise SingularHessianError(f"integration failed ({why.rstrip('.')})",
                                   t, y[:n], y[n:]) from None
    return IntegratedTrajectory(F=F, dof=tuple(dof), sol=sol)


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


def _mapped(fn, values):
    """``fn`` of the arrays ``values``; for records of one kind, the record
    whose array fields are ``fn`` of that field's arrays, nested records
    likewise, and other fields the first record's."""
    v = values[0]
    if isinstance(v, np.ndarray):
        return fn(values)
    if not is_dataclass(v):
        return v
    return replace(v, **{f.name: _mapped(fn, [getattr(p, f.name) for p in values])
                         for f in fields(v)})


def _joined(parts):
    """One record from the records of consecutive batches: each array field
    concatenated along its trailing batch axis."""
    return _mapped(lambda values: np.concatenate(values, axis=-1), parts)


def trajectory_samples(F: FForm, traj, times) -> list:
    """The samples at ``times`` of a free or an integrated trajectory, in its
    chart ``traj.dof``, one record per phase of a free motion (one for an
    integrated trajectory), from one batched ``traj.lab_state`` query per
    CHUNK times.  A free motion of m phases answers a query of B times with
    m B entries, phase-major: the chart state, the EL report and the momenta
    of all m take one pass each, and each phase's record is read from its
    block."""
    dof = traj.dof
    parts = []  # per chunk, one record per phase
    for ts in _chunks(times):
        x, k, q, qd, qdd = traj.lab_state(ts)
        (xv, xd), (kv, kd) = map(jets.split, (x, k))
        B = len(ts)
        values = (xv, kv, q, qd, _el_report(F, q, qd, qdd, dof),
                  momenta_from_vectors(F, xd, kv, kd, x=xv))
        blocks = [slice(i * B, (i + 1) * B) for i in range(q.shape[-1] // B)]
        parts.append([TrajectorySamples(ts, *(_mapped(lambda a, b=b: a[0][..., b], [v])
                                              for v in values)) for b in blocks])
    return [_joined(chunks) for chunks in zip(*parts)]


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
    c = _joined([traj.momenta(ts) for ts in _chunks(times)]).casimirs()
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


# -- trajectory export --------------------------------------------------------


def export_trajectory(path, samples: TrajectorySamples) -> None:
    """Delimited text from a ``trajectory_samples`` record: t, x0..x3, k0..k3, EL
    residual norm, PP, WW per row."""
    cols = ["t", "x0", "x1", "x2", "x3", "k0", "k1", "k2", "k3",
            "el_residual_norm", "PP", "WW"]
    c = samples.momenta.casimirs()
    # the norm of each residual column as np.linalg.norm takes it, a dot of the
    # contiguous column: a batched norm(axis=0) sums in another order and
    # moves the last digit of some rows
    norms = [math.sqrt(r.dot(r)) for r in np.ascontiguousarray(samples.el.residuals.T)]
    table = np.vstack([samples.t, samples.x, samples.k, norms, c.PP, c.WW])
    # one format over the whole table: %.17g writes what "{:.17g}" writes
    rows = (",".join(["%.17g"] * len(cols)) + "\n") * table.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n" + rows % tuple(table.T.ravel().tolist()))
