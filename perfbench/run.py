"""rotorlab benchmark: end-to-end figures per workload, or per-layer figures.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0

``--workload all`` (the default) runs the three workloads one after another in
this process.  With ``--trace 0`` the run repeats whole rounds of operations
for about ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs round 0 untraced and under the tracer, twice each, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# one BLAS thread: every operation is a single sequential chain
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-sweep", "simulate", "trajectory-export")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
# the speed gauge: a fixed loop of NumPy calls on tiny arrays from Python, the
# instruction mix of rotorlab's jet arithmetic; one chunk takes GAUGE_REFERENCE_S
# at the fast level of the reference machine
GAUGE_CHUNKS = 5
GAUGE_LOOPS = 2000
GAUGE_REFERENCE_S = 5.0e-3


@dataclass
class Result:
    label: str
    seconds: float
    outcome: object = None  # workloads.Outcome, None when an exception escaped
    error: str = ""
    gauge_s: float = GAUGE_REFERENCE_S  # the speed gauge around the operation

    @property
    def scaled_seconds(self) -> float:
        """Wall time at the reference machine speed."""
        return self.seconds * GAUGE_REFERENCE_S / self.gauge_s

    @property
    def failed(self) -> bool:
        return self.outcome is None or not self.outcome.passed


def run_op(op) -> Result:
    t0 = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # noqa: BLE001 - one failed operation, the run goes on
        return Result(op.label, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Result(op.label, time.perf_counter() - t0, outcome)


def gauge() -> float:
    """Mean time of one chunk of a fixed loop: the machine's speed right now."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 10)
    t0 = time.perf_counter()
    for _ in range(GAUGE_CHUNKS * GAUGE_LOOPS):
        float(np.outer(x, x)[1, 2])
    return (time.perf_counter() - t0) / GAUGE_CHUNKS


def setup(name: str, seed: int, scratch: Path):
    """Import rotorlab, build the workload and run its warm-up operation."""
    import workloads

    wl = workloads.make(name, seed, scratch)
    wl.warmup()
    return wl


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up, process start included.

    Unscaled: the child process may run on another CPU than the gauge.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def identity_problems(results) -> list:
    """Operations with the same label had the same input: outputs must match."""
    docs, problems = {}, []
    for r in results:
        if r.outcome is None:
            continue
        first = docs.setdefault(r.label, r.outcome.doc)
        if first != r.outcome.doc:
            problems.append(f"{r.label}: output differs between runs of the same input")
    return problems


def failure_lines(wl, results) -> list:
    lines = []
    for r in results:
        if not r.failed:
            continue
        fault = wl.known_faults.get(r.label)
        if fault and r.outcome is not None and wl.expected_failure(r.outcome):
            lines.append(f"  failed: {r.label}  [known fault {fault}]")
        else:
            lines.append(f"  failed: {r.label}  [unexpected] {r.error}")
    return lines


def measure(wl, seconds: float):
    """Passes over a fixed list of rounds; end-to-end metrics.

    The list holds as many rounds as make ``seconds`` on the reference
    machine (``wl.round_s`` each, ``wl.passes`` passes), so every run does
    the same work.  The speed gauge runs before the first operation and after
    each one, and an operation's wall time is scaled by the reference gauge
    time over the mean of the two gauges around it: the machine's speed flips
    between two levels about 1.8x apart every few seconds, and the share of
    each drifts over minutes (perfbench/README.md, "How a run measures").
    An operation's time is the median of its passes, and the rate counts
    every pass.
    """
    rounds = max(1, round(seconds / (wl.passes * wl.round_s)))
    ops = [op for r in range(rounds) for op in wl.ops(r)]
    results, gauges = [], [gauge()]
    t0 = time.perf_counter()
    for _ in range(wl.passes):
        for op in ops:
            results.append(run_op(op))
            gauges.append(gauge())
    wall = time.perf_counter() - t0
    for r, before, after in zip(results, gauges, gauges[1:]):
        r.gauge_s = 0.5 * (before + after)
    passes = {}
    for r in results:
        passes.setdefault(r.label, []).append(r)
    scaled = sum(r.scaled_seconds for r in results)
    busy = sum(r.seconds for r in results)
    work = sum(r.outcome.work for r in results if r.outcome is not None)
    checks = sum(r.outcome.checks for r in results if r.outcome is not None)
    rate_name, rate_unit = wl.rate

    def op_p50(key):
        return 1e3 * statistics.median(statistics.median(key(r) for r in rs)
                                       for rs in passes.values())

    metrics = {
        "op_p50_ms": (op_p50(lambda r: r.scaled_seconds), "ms"),
        "work_per_s": (work / scaled, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = [f"  {wl.passes} passes over {rounds} rounds, {len(passes)} distinct operations,"
            f" wall = {wall:.3f} s",
            f"  gauge = {1e3 * statistics.median(gauges):.4g} ms median"
            f" ({1e3 * min(gauges):.4g}-{1e3 * max(gauges):.4g}),"
            f" reference {1e3 * GAUGE_REFERENCE_S:.4g} ms",
            f"  {rate_name} = {work / scaled:.6g} {rate_unit} at reference speed"
            f" (reported as work_per_s), {work / busy:.6g} {rate_unit} unscaled",
            f"  checks_per_s = {checks / scaled:.6g} checks/s at reference speed",
            f"  op_p50_ms unscaled = {op_p50(lambda r: r.seconds):.6g} ms"]
    return results, metrics, info


def traced(wl, name: str, seed: int):
    """Round 0 untraced, then under a fresh tracer, twice over.

    The faster traced round gives the per-layer figures; ``trace.overhead_s``
    is its wall time minus that of the faster untraced round.
    """
    import tracer as tracing

    results, plain, seen = [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        results += [run_op(op) for op in wl.ops(0)]
        plain.append(time.perf_counter() - t0)
        tr = tracing.Tracer().install()
        try:
            t0 = time.perf_counter()
            results += [run_op(op) for op in wl.ops(0)]
            seen.append((time.perf_counter() - t0, tr))
        finally:
            tr.uninstall()
    wall, tr = min(seen, key=lambda pair: pair[0])
    path = OUT / f"trace-{name}-seed{seed}.json"
    tr.write(path)
    metrics = {k: (v["value"], v["unit"])
               for k, v in tr.metrics(wall - min(plain)).items()}
    info = [f"  untraced rounds = {', '.join(f'{t:.3f}' for t in plain)} s,"
            f" traced rounds = {', '.join(f'{t:.3f}' for t, _ in seen)} s",
            f"  records: {path}"]
    return results, metrics, info


def run_workload(name: str, args) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = setup(name, args.seed, Path(scratch))
        setup_s = setup_seconds(name, args.seed) if not args.trace else None
        if args.trace:
            results, metrics, info = traced(wl, name, args.seed)
        else:
            results, metrics, info = measure(wl, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
        problems = wl.check(results) + identity_problems(results)
    failed = sum(r.failed for r in results)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted = {len(results)}, failed = {failed}")
    for line in failure_lines(wl, results) + info:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for p in problems:
        print(f"  INCORRECT: {p}")
    sys.stdout.flush()
    return {"correct": not problems, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (the probe behind setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rotorlab" / "__init__.py").is_file():
        print(f"error: no rotorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            setup(args.workload, args.seed, Path(scratch))
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args) for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
