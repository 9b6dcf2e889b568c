"""The three workloads: inputs made from the seed, the operations, the checks.

Every run attempts whole rounds.  A round always holds the same kinds of
operations, and the operations that hit a known fault take inputs that do not
depend on the seed, so the failed share is the same in every run.

rotorlab is called through module attributes (``dynamics.integrate``, not a
name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotorlab import cli, degeneracy, dynamics, fform, noether, reports

import oracles


@dataclass
class Outcome:
    passed: bool  # the program's own verdict: exit code 0 / report pass
    checks: int  # [check] blocks reported, pass or fail
    work: float  # the workload's unit of work: checks, lab time or rows
    doc: str  # output that must not change between runs of the same input
    data: object = None  # what the correctness checks need


@dataclass
class Op:
    label: str
    run: object  # () -> Outcome


def _report_blocks(doc: str):
    blocks = []
    for block in doc.strip().split("\n\n"):
        lines = block.splitlines()
        if not lines or lines[0] != "[check]":
            raise ValueError(f"malformed report block {block[:40]!r}")
        blocks.append(dict(line.split(" = ", 1) for line in lines[1:]))
    return blocks


def check_report_doc(doc: str, code: int) -> list:
    """Each status agrees with residual <= tolerance; exit 0 iff all pass."""
    blocks = _report_blocks(doc)
    problems = []
    for b in blocks:
        want = "pass" if float(b["residual"]) <= float(b["tolerance"]) else "fail"
        if b["status"] != want:
            problems.append(f"{b['name']}: status {b['status']}, residual says {want}")
    all_pass = all(b["status"] == "pass" for b in blocks)
    if code != (0 if all_pass else 1):
        problems.append(f"exit code {code} with all_pass = {all_pass}")
    return problems


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- verify-sweep ----------------------------------------------------------------

VERIFY_CHECKS = (
    "tetrad-relations", "tetrad-gram-det", "gauge-invariance", "scalar-identities",
    "fundamental-conditions", "noether-crosscheck", "wp-orthogonality",
    "degenerate-hessians", "nu-family-rank-4", "nondegenerate-dets",
    "relation-consistency", "free-motion-el-residuals", "free-motion-conservation",
    "indeterminism-divergence", "angular-speed-identity", "count-invariants",
)
COUNT_EXPECTED = {"rank": 5, "nullity": 10, "zero_combos": 2, "functional_rank": 3,
                  "total_independent": 6}
MOMENTA_SAMPLE_EVERY = 5  # oracle-check every 5th momenta call of a seed


class VerifySweep:
    """``rotorlab verify --suite all`` over consecutive seeds holding 3 and 7."""

    name = "verify-sweep"
    rate = ("checks_per_s", "checks/s")
    passes = 2
    round_s = 12.0  # one round on the reference machine
    WINDOW = 8
    WARMUP_SEED = 1000
    known_faults = {
        f"verify --seed {s}": "is_singular-absolute-threshold: nondegenerate-dets fails "
                              "because HessianReport.is_singular compares |det| with an "
                              "absolute threshold while rank is relative"
        for s in (3, 7)
    }

    def __init__(self, seed: int):
        # windows [0, 8) .. [3, 11) all hold 3 and 7 and no other failing seed
        start = seed % 4
        self.seeds = list(range(start, start + self.WINDOW))
        self._captured = []
        self._install_capture()

    def _install_capture(self):
        # record the momenta the casimir suite computes, for the oracle check
        captured = self._captured

        def momenta(F, J, x=None):
            ms = noether.momenta(F, J, x=x)
            captured.append((F, J, ms))
            return ms

        cli.momenta = momenta

    def _op(self, seed):
        def run():
            self._captured.clear()
            code, doc = _cli(["verify", "--suite", "all", "--seed", str(seed)])
            sample = self._captured[::MOMENTA_SAMPLE_EVERY]
            checks = doc.count("[check]\n")
            return Outcome(code == 0, checks, checks, doc, (seed, code, sample))
        return Op(f"verify --seed {seed}", run)

    def warmup(self):
        self._op(self.WARMUP_SEED).run()

    def ops(self, round_index):
        return [self._op(s) for s in self.seeds]

    def expected_failure(self, outcome) -> bool:
        failing = [b["name"] for b in _report_blocks(outcome.doc) if b["status"] == "fail"]
        return failing == ["nondegenerate-dets"]

    def check(self, results) -> list:
        problems = []
        for r in results:
            if r.outcome is None:
                continue
            seed, code, sample = r.outcome.data
            names = tuple(b["name"] for b in _report_blocks(r.outcome.doc))
            if names != VERIFY_CHECKS:
                problems.append(f"{r.label}: checks {names}")
                continue
            problems += [f"{r.label}: {p}" for p in check_report_doc(r.outcome.doc, code)]
            count = _report_blocks(r.outcome.doc)[-1]
            for key, want in COUNT_EXPECTED.items():
                if int(count[f"inputs.{key}"]) != want:
                    problems.append(f"{r.label}: count-invariants {key} = "
                                    f"{count['inputs.' + key]}, expected {want}")
            checked = 0
            for F, J, ms in sample:
                try:
                    ref = oracles.fd_momenta(
                        lambda xd, k, kd, F=F: fform.lagrangian_from_vectors(F, xd, k, kd),
                        J.xdot, J.k, J.kdot)
                except ValueError:  # a difference step left the form's domain
                    continue
                checked += 1
                problems += [f"{r.label}: {F.name}: {p}"
                             for p in oracles.check_momenta(ms.P, ms.pi, ms.W, ref)]
            if not checked:
                problems.append(f"{r.label}: no momenta sample checked")
        return problems


# -- simulate --------------------------------------------------------------------

SIM_FORMS = ("Q", "Q^2", "sqrt(Q)*(2+Q)")
SIM_PERIODS = 0.5
CONSERVATION_TOL = 1e-6  # the default tolerance of ``rotorlab simulate``
EOM_TOL = 1e-5
# the point particle starts from a fixed state: its trajectory fails on every
# seed (WW is 0 and the drift divides by a 1e-300 floor)
POINT_STATE = dict(theta=1.1, phi=0.4, v=(0.05, -0.03, 0.02), thetadot=0.3, phidot=0.7)


class Simulate:
    """Integrate nondegenerate f(Q) members from stratified seeded states."""

    name = "simulate"
    rate = ("lab_time_per_s", "ell/s")
    passes = 2
    round_s = 5.0
    known_faults = {
        "simulate point_particle": "point-particle-ww-floor: conservation-drift fails "
                                   "with a WW_drift near 1e266 because WW is identically "
                                   "0 and the relative drift divides by 1e-300",
    }

    def __init__(self, seed: int):
        self.seed = seed

    def _states(self, round_index):
        # one state per form; phidot and thetadot fall in distinct thirds of
        # their ranges, and over three rounds each form meets every third once,
        # so any three consecutive rounds cost about the same whatever the seed
        # (the lab time of a trajectory goes as 1 / phidot)
        rng = np.random.default_rng([self.seed, round_index])
        n = len(SIM_FORMS)
        states = []
        for i in range(n):
            states.append(degeneracy.ChartState(
                theta=rng.uniform(0.8, np.pi - 0.8), phi=rng.uniform(0, 2 * np.pi),
                v=tuple(rng.uniform(-0.1, 0.1, 3)),
                thetadot=0.25 + (0.15 / n) * ((2 * i + round_index) % n + rng.uniform()),
                phidot=0.6 + (0.2 / n) * ((i + round_index) % n + rng.uniform())))
        return states

    def _op(self, label, form, state, periods):
        def run():
            F = cli.resolve_form(form, reports.RunConfig())
            t_end = periods * 2.0 * np.pi / max(abs(state.phidot), 0.1)
            traj = dynamics.integrate(F, state, (0.0, t_end))
            d = dynamics.casimir_drift(traj, np.linspace(0.0, t_end, 50))
            rep = reports.Report(
                "conservation-drift", max(d["PP_drift"], d["WW_drift"]),
                CONSERVATION_TOL, self.seed,
                {"form": F.name, "periods": periods, "PP0": float(d["PP"][0]),
                 "WW0": float(d["WW"][0]), "PP_drift": d["PP_drift"],
                 "WW_drift": d["WW_drift"]})
            doc = reports.render_reports([rep])
            return Outcome(rep.passed, 1, t_end, doc, (F, t_end, traj, d))
        return Op(label, run)

    def warmup(self):
        self.ops(0)[-1].run()

    def ops(self, round_index):
        ops = [self._op(f"simulate set {round_index} {form}", form, st, SIM_PERIODS)
               for form, st in zip(SIM_FORMS, self._states(round_index))]
        ops.append(self._op("simulate point_particle", "point",
                            degeneracy.ChartState(**POINT_STATE), 1.0))
        return ops

    def expected_failure(self, outcome) -> bool:
        return outcome.data[0].name == "point_particle"

    def check(self, results) -> list:
        problems = []
        for r in results:
            if r.outcome is None:
                continue
            problems += [f"{r.label}: {p}" for p in self._check_one(*r.outcome.data)]
        return problems

    def _check_one(self, F, t_end, traj, d):
        problems = []
        if abs(traj.sol.ts[-1] - t_end) > 1e-9 * t_end:
            problems.append(f"stopped at t = {traj.sol.ts[-1]}, not {t_end}")

        def lagrangian(xd, k, kd):
            return fform.lagrangian_from_vectors(F, xd, k, kd)

        def chart_lagrangian(q, qd):
            return degeneracy.chart_lagrangian(F, q, qd, degeneracy.DOF5)

        times = np.linspace(0.0, t_end, 5)
        P = []
        W = []
        for t in times:
            y = traj.sol(t)
            q, qd = y[:5], y[5:]
            P_t, _, W_t = oracles.fd_momenta(
                lagrangian, *oracles.chart_to_vectors(qd, q[3], q[4], qd[3], qd[4]))
            P.append(P_t)
            W.append(W_t)
        P, W = np.array(P), np.array(W)
        PP0, WW0 = oracles.mdot(P[0], P[0]), oracles.mdot(W[0], W[0])
        if F.name == "point_particle":
            # PP = M^2 and WW = 0, from the oracle and from the program's drift table
            M2 = F.M**2
            if abs(PP0 - M2) > 1e-8 * M2 or np.max(np.abs(W)) != 0.0:
                problems.append(f"oracle PP = {PP0}, max |W| = {np.max(np.abs(W))}")
            if np.max(np.abs(d["PP"] - M2)) > 1e-9 * M2 or np.max(np.abs(d["WW"])) > 1e-12:
                problems.append("program PP != M^2 or WW != 0 along the trajectory")
            return problems
        for name, V in (("P", P), ("W", W)):
            drift = float(np.max(np.abs(V - V[0]))) / float(np.max(np.abs(V[0])))
            if not drift <= CONSERVATION_TOL:
                problems.append(f"oracle {name}^mu drifts by {drift:.3g}")
        for name, got, want in (("PP", d["PP"][0], PP0), ("WW", d["WW"][0], WW0)):
            if not abs(got - want) <= CONSERVATION_TOL * abs(want):
                problems.append(f"{name}(0) = {got}, oracle {want}")
        for t in times[1:-1]:
            q, qd = traj.sol(t)[:5], traj.sol(t)[5:]
            delta = 1e-6 * t_end
            qdd = (traj.sol(t + delta)[5:] - traj.sol(t - delta)[5:]) / (2 * delta)
            scale = oracles.local_scale(
                *oracles.chart_to_vectors(qd, q[3], q[4], qd[3], qd[4]))
            H, Z = oracles.fd_hessian_force(chart_lagrangian, q, qd, scale)
            res = oracles.eom_residual(H, Z, qdd)
            if not res <= EOM_TOL:
                problems.append(f"H qdd = Z off by {res:.3g} at t = {t}")
        return problems


# -- trajectory-export -------------------------------------------------------------

def _phase_linear(t):
    return t, 1.0


def _phase_wobble(t):
    return t + 0.1 * (t - math.sin(t)), 1.0 + 0.1 * (1.0 - math.cos(t))


def _phase_breathing(t):
    s, c = math.sin(0.5 * t), math.cos(0.5 * t)
    return t + 0.2 * s * s, 1.0 + 0.2 * s * c


# the three phases of the dynamics suite, as expressions and as (phi, phidot)
EXPORT_PHASES = (("t", _phase_linear),
                 ("t + 0.1*(t - sin(t))", _phase_wobble),
                 ("t + 0.2*sin(0.5*t)*sin(0.5*t)", _phase_breathing))
EXPORT_SAMPLES = 100


class TrajectoryExport:
    """``rotorlab freemotion --out`` for each phase, at seeded M, ell and tmax."""

    name = "trajectory-export"
    rate = ("rows_per_s", "rows/s")
    passes = 3
    round_s = 3.0
    known_faults = {}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def _op(self, label, expr, tmax, M, ell, samples):
        path = self.scratch / (label.replace(" ", "_") + ".csv")

        def run():
            code, doc = _cli(["freemotion", "--phase", expr, "--tmax", repr(tmax),
                              "--samples", str(samples), "--M", repr(M),
                              "--ell", repr(ell), "--out", str(path)])
            text = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
            return Outcome(code == 0, doc.count("[check]\n"), samples, doc + text,
                           (code, doc, text, expr, tmax, M, ell, samples))
        return Op(label, run)

    def warmup(self):
        self._op("export warmup", "t", 5.0, 1.0, 1.0, 10).run()

    def ops(self, round_index):
        rng = np.random.default_rng([self.seed, round_index])
        ops = []
        for i, (expr, _) in enumerate(EXPORT_PHASES):
            # ell <= 1.4 keeps every phase speed (at most 1.2) below 2 / ell
            tmax, M, ell = rng.uniform(15.0, 25.0), rng.uniform(0.5, 2.0), rng.uniform(0.6, 1.4)
            ops.append(self._op(f"export set {round_index} phase {i}", expr,
                                float(tmax), float(M), float(ell), EXPORT_SAMPLES))
        return ops

    def expected_failure(self, outcome) -> bool:
        return False

    def check(self, results) -> list:
        phases = dict(EXPORT_PHASES)
        problems = []
        for r in results:
            if r.outcome is None:
                continue
            code, doc, text, expr, tmax, M, ell, samples = r.outcome.data
            found = check_report_doc(doc, code)
            found += oracles.check_export(text, np.linspace(0.0, tmax, samples),
                                          phases[expr], M, ell)
            problems += [f"{r.label}: {p}" for p in found]
        return problems


def make(name: str, seed: int, scratch: Path):
    if name == "verify-sweep":
        return VerifySweep(seed)
    if name == "simulate":
        return Simulate(seed)
    if name == "trajectory-export":
        return TrajectoryExport(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
