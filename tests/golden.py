"""Golden reports: the exact output of a fixed list of ``rotorlab`` commands.

Each command has one file under ``tests/golden/``: a header with the Python,
numpy and scipy versions it was made under, the command and its exit code,
and for an ``--out`` command the SHA-256 of the CSV it wrote; then the
command's stdout and stderr as printed.  ``test_golden.py`` runs every
command in process and compares its text with the file byte for byte, with
no tolerance and no excluded line.  A change that moves a report rewrites
the files, and their diff is its log:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from rotorlab.cli import FREE_MOTION_PHASES, main

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"

# name: argv; a final "--out" gets a scratch CSV path
COMMANDS = {
    **{f"verify-seed-{s}": ["verify", "--suite", "all", "--seed", str(s)] for s in range(16)},
    **{f"simulate-{name}": ["simulate", "--f", f, "--periods", "3", "--seed", "0", "--out"]
       for name, f in (("Q", "Q"), ("Q2", "Q^2"), ("sqrtQ-2+Q", "sqrt(Q)*(2+Q)"),
                       ("point", "point"))},
    **{f"freemotion-phase-{i}": ["freemotion", "--phase", p, "--seed", "0", "--out"]
       for i, p in enumerate(FREE_MOTION_PHASES)},
    **{f"hessian-dof{dof}-{name}": ["hessian", "--f", f, "--dof", str(dof), "--seed", "0"]
       for dof in (5, 6) for name, f in (("starlike", "starlike"), ("Q+PQ", "Q+P*Q"))},
    "relation-seed-0": ["relation", "--seed", "0"],
    "casimir-overflow": ["casimir", "--f", "nu_family", "--nu", "1e200", "--seed", "0"],
    "casimir-rotator": ["casimir", "--f", "rotator", "--Q", "4"],
    "fundamental-check-nu-family": ["fundamental-check", "--f", "nu_family", "--nu", "0.5"],
    # a parsed form: its domain is found over the batch, as a builtin's
    "fundamental-check-sqrt-1+sqrtQ": ["fundamental-check", "--f", "sqrt(1+sqrt(Q))",
                                       "--grid", "5"],
    # no grid point inside the domain: nothing is checked, and the check fails
    "fundamental-check-empty": ["fundamental-check", "--f", "sqrt(-1-Q)"],
    "count-invariants-seed-5": ["count-invariants", "--seed", "5"],
    # exp, and the zero, negative and real exponents of a jet power
    "hessian-exp-pow": ["hessian", "--f", "exp(Q)+Q^-1+Q^0.5+P^0", "--seed", "0"],
    # one exit-2 run per family of error message
    **{f"error-{name}": [*argv, "--seed", "0"] for name, argv in (
        ("parse", ["casimir", "--f", "Q+"]),
        ("unknown-name", ["casimir", "--f", "R*Q"]),
        ("parsed-domain", ["casimir", "--f", "sqrt(P)", "--P", "-1"]),
        ("builtin-domain", ["casimir", "--f", "rotator", "--Q", "0"]),
        ("batch-domain", ["relation", "--forms", "sqrt(P)", "Q"]),
        ("unknown-suite", ["verify", "--suite", "nope"]),
        ("singular-hessian", ["simulate", "--f", "rotator", "--periods", "0.1"]),
        ("inert", ["simulate", "--f", "0", "--periods", "0.1"]),
        ("acceleration", ["simulate", "--f", "1e308", "--periods", "0.05"]),
        ("spent-budget", ["simulate", "--f", "2.5*Q - sin(2398*P)", "--periods", "0.05"]),
        ("step-collapse", ["simulate", "--f", "1+Q+P^2", "--periods", "0.05"]),
        ("phase-speed", ["freemotion", "--phase", "3*t"]),
        ("run-scales", ["hessian", "--f", "Q", "--M", "1e300"]),
        ("oserror", ["verify", "--suite", "tetrad", "--report-out", "/nonexistent/dir/r.txt"]),
    )},
}


def path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def render(argv) -> str:
    """The golden text of one command, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        full = [*argv, str(csv)] if argv[-1] == "--out" else list(argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
        header = [f"# {VERSIONS}", f"# rotorlab {shlex.join(argv)}", f"# exit {code}"]
        if csv.exists():
            header.append(f"# out sha256 {hashlib.sha256(csv.read_bytes()).hexdigest()}")
    return "\n".join(header) + "\n[stdout]\n" + out.getvalue() + "[stderr]\n" + err.getvalue()


def diff(name: str, got: str | None = None) -> str:
    """The unified diff from the golden file of ``name`` to its text now
    (``got``, or a new render), '' if they are the same byte for byte.  A
    file made under other versions is not compared: AssertionError, with the
    note to regenerate."""
    want = path(name).read_text()
    made = want.split("\n", 1)[0]
    assert made == f"# {VERSIONS}", (
        f"{path(name).name} was made under {made[2:]}, this is {VERSIONS}: "
        "regenerate the golden files with PYTHONPATH=src python tests/golden.py")
    got = render(COMMANDS[name]) if got is None else got
    if got == want:
        return ""
    return "".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                        f"golden/{name}.txt", "now"))


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {path(n) for n in COMMANDS}:
        stale.unlink()
    for name, argv in COMMANDS.items():
        path(name).write_text(render(argv))


if __name__ == "__main__":
    write_all()
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}", file=sys.stderr)
