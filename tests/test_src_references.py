"""No src function exists for the tests alone.

Every module-level function of ``src/rotorlab``, and every method and
property of its module-level classes, dunders excepted, must be referenced
somewhere in ``src/`` or ``perfbench/`` outside its own body, unless it is on
the allow-list below, each entry with the reason it stays.  Private helpers
are scanned too, so one left behind by a refactor fails here.  The scan goes
by name, so a method counts as referenced when any attribute of that name is.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# test-only src functions that stay, and why
ALLOWED_TEST_ONLY = {
    "capital_invariants",  # the paper's reparametrization invariants I0..I4
    "casimirs_special_S",  # a reference closed form for the Casimirs
    "fq_det_formula",  # the f(Q) Hessian determinant, ROADMAP item 7
    "lorentz_matrix",  # the covariance tests, ROADMAP item 15
    "pq_from_vectors",  # (P, Q) from the four-vectors, for the tests' references
}


def _references(tree):
    """Names read in ``tree``: Name ids, attribute names, and string
    constants (the CLI dispatches to its ``cmd_*`` functions by name)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def _functions(tree):
    """The module's functions, and the methods and properties of its classes,
    dunders excepted."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (f for f in body if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__")))


def _test_only_functions():
    refs, defs = Counter(), []
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs += _references(tree)
        if path.parent == ROOT / "src" / "rotorlab":
            defs += _functions(tree)
    return {d.name for d in defs if refs[d.name] - _references(d)[d.name] == 0}


def test_no_public_src_function_is_called_only_by_tests():
    test_only = _test_only_functions()
    assert test_only - ALLOWED_TEST_ONLY == set(), "src functions that only tests call"
    # an entry that gained a caller, or was deleted, leaves the list
    assert ALLOWED_TEST_ONLY - test_only == set(), "stale allow-list entries"
