"""Every report of the golden command list is byte-identical to its file."""

import argparse
import math

import pytest

import golden
from rotorlab import cli


def test_golden_reports_are_unchanged():
    assert sorted(golden.GOLDEN.glob("*.txt")) == sorted(map(golden.path, golden.COMMANDS))
    diffs = [d for d in map(golden.diff, golden.COMMANDS) if d]
    assert not diffs, "reports changed:\n" + "".join(diffs)


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
