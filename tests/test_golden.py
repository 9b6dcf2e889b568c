"""Every report of the golden command list is byte-identical to its file,
and every src function runs in some golden command."""

import argparse
import ast
import math
import sys
from pathlib import Path

import pytest

import golden
import rotorlab
from rotorlab import cli
from work import clear_caches

# src functions that no golden command enters, and why each stays
NOT_ENTERED = {
    "cli._checked": "builds the argparse types, at import",
    "degeneracy._flat": "builds the chart-jet slot tables, at import",
    "jets._each": "wraps the entry-by-entry math functions, at import",
    "jets._vectorized": "wraps the numpy-or-math functions, at import",
    "degeneracy.chart_lagrangian": "perfbench's reference, ROADMAP items 1 and 22",
    "degeneracy.chart_scalars": "perfbench's `chart_lagrangian` reference, items 1 and 22",
    "fform.lagrangian_from_vectors": "perfbench's and the tests' reference, items 1 and 22",
    "invariants.random_kinematic_jet": "perfbench's sampler, items 1 and 22",
    "noether.casimirs_closed_form": "perfbench's oracle, items 1 and 22",
    "minkowski.lorentz_matrix": "the covariance tests' frames, item 27",
    "minkowski._rotation_matrix": "the rotation part of lorentz_matrix, item 27",
    "minkowski.bivector": "the angular momentum of MomentumSet.M, item 15",
    "noether.MomentumSet.M": "the angular momentum, read by tests, item 15",
}


@pytest.fixture(scope="module")
def renders():
    """Each golden command's text, rendered once in this process under
    ``sys.setprofile``, and the code objects of the functions it entered.
    Every ``functools.cache`` of rotorlab's modules is cleared first, so its
    builder runs again whatever an earlier test in this process filled."""
    clear_caches()
    entered = set()

    def enter(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(enter)
    try:
        texts = {name: golden.render(argv) for name, argv in golden.COMMANDS.items()}
    finally:
        sys.setprofile(None)
    return texts, entered


def src_functions():
    """(file, first line) -> dotted name of every function and method in
    src, nested ones too; the first line is a decorator's, if any, as in the
    function's code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(Path(rotorlab.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def test_golden_reports_are_unchanged(renders):
    texts, _ = renders
    assert sorted(golden.GOLDEN.glob("*.txt")) == sorted(map(golden.path, golden.COMMANDS))
    diffs = [d for d in (golden.diff(name, got) for name, got in texts.items()) if d]
    assert not diffs, "reports changed:\n" + "".join(diffs)


def test_every_src_function_runs_in_a_golden_command(renders):
    """The dynamic half of ``test_src_references``: a src function that no
    golden command enters is on NOT_ENTERED with its reason, and an entry
    that a command now enters, or that no longer exists, leaves the list."""
    _, entered = renders
    functions = src_functions()
    hit = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in entered}
    missed = {name for key, name in functions.items() if key not in hit}
    assert missed - set(NOT_ENTERED) == set(), "src functions no golden command enters"
    assert set(NOT_ENTERED) - missed == set(), "stale entries"


def test_every_subcommand_has_a_passing_golden():
    """Each subcommand of the parser runs to a result in some golden report
    that exits 0, so its product path is pinned bit for bit."""
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    passing = {argv[0] for name, argv in golden.COMMANDS.items()
               if "\n# exit 0\n" in golden.path(name).read_text()}
    assert sorted(set(sub.choices) - passing) == []


def test_a_residual_one_ulp_off_fails(monkeypatch):
    """A plant: ``relation``'s spread moved up by one ulp shows as that one
    residual line changed."""
    spread = cli.relation_spread

    def nudged(*args):
        worst, admissible = spread(*args)
        return math.nextafter(worst, math.inf), admissible

    monkeypatch.setattr(cli, "relation_spread", nudged)
    changed = [line for line in golden.diff("relation-seed-0").splitlines()
               if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    assert [line[1:].split(" = ")[0] for line in changed] == ["residual", "residual"]


def test_files_of_other_versions_fail_with_a_note_to_regenerate(monkeypatch):
    monkeypatch.setattr(golden, "VERSIONS", "python 0 numpy 0 scipy 0")
    with pytest.raises(AssertionError, match="regenerate"):
        golden.diff("relation-seed-0")
