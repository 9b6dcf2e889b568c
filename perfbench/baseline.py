"""Per-call reference figures for the rows of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Each row is one warm-up call, then the median and minimum of timed calls on
seed-0 inputs, in microseconds.  The figures are for orientation: the
benchmark proper is ``run.py``.
"""

import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rotorlab import degeneracy, dynamics, fform, invariants, jets, noether  # noqa: E402


def row(name, fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    print(f"{name:34s} median {1e6 * statistics.median(times):10.1f} us"
          f"   min {1e6 * min(times):10.1f} us   n = {repeats}")


def main():
    rng = np.random.default_rng(0)
    a2, b2 = jets.variables(0.3, 1.7)
    v10 = jets.variables(*rng.uniform(0.5, 1.5, 10))
    rot = fform.builtin("rotator_f")
    J = invariants.random_kinematic_jet(rng)
    state = degeneracy.random_chart_state(rng)
    q, qd = state.coords(degeneracy.DOF5)
    Fq = fform.parse_f("Q")
    row("Jet * Jet, n = 2", lambda: a2 * b2, 20000)
    row("Jet * Jet, n = 10", lambda: v10[0] * v10[1], 20000)
    row("FForm.eval (rotator)", lambda: rot.eval(0.2, 1.3), 2000)
    row("momenta (rotator)", lambda: noether.momenta(rot, J), 300)
    row("hessian, DOF5 (rotator)", lambda: degeneracy.hessian(rot, state), 300)
    row("_hessian_and_force (F = Q)",
        lambda: dynamics._hessian_and_force(Fq, q, qd, degeneracy.DOF5), 300)
    row("random_kinematic_jet", lambda: invariants.random_kinematic_jet(rng), 100)


if __name__ == "__main__":
    main()
