"""No src name exists for the tests alone.

Every module-level function, class and constant of ``src/rotorlab``, and
every method and property of its module-level classes, dunders excepted, must
be referenced somewhere in ``src/`` or ``perfbench/`` outside its own
definition, unless it is on the allow-list below, each entry with the reason
it stays.  Private helpers and constants are scanned too, so one left behind
by a refactor fails here.  The scan goes by name, so a method counts as
referenced when any attribute of that name is.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# test-only src names that stay, and why
ALLOWED_TEST_ONLY = {
    "lorentz_matrix",  # the covariance tests' frames, ROADMAP item 27
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


def _definitions(tree):
    """(name, defining node) of the module's functions, classes and constants,
    and of the methods and properties of its classes, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(n.id, node) for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.ClassDef):
            found = [(node.name, node)] + [(f.name, f) for f in node.body
                                           if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            found = [(node.name, node)]
        else:
            found = []
        yield from ((name, d) for name, d in found
                    if not (name.startswith("__") and name.endswith("__")))


def _test_only_names():
    refs, defs = Counter(), []
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs += _references(tree)
        if path.parent == ROOT / "src" / "rotorlab":
            defs += _definitions(tree)
    return {name for name, d in defs if refs[name] - _references(d)[name] == 0}


def test_no_public_src_function_is_called_only_by_tests():
    test_only = _test_only_names()
    assert test_only - ALLOWED_TEST_ONLY == set(), "src names that only tests read"
    # an entry that gained a caller, or was deleted, leaves the list
    assert ALLOWED_TEST_ONLY - test_only == set(), "stale allow-list entries"
