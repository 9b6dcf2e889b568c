"""Samples are pure functions of their tables of numbers, over the whole
support of the samplers: uniform numbers in [0, 1), and a path's normal
triple away from 0.

Each batch entry is its row built alone, bit for bit, so a sample can be
rebuilt from its row whatever else its table holds.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rotorlab import cli
from rotorlab.degeneracy import chart_states
from rotorlab.invariants import PATH_NUMBERS, kinematic_jets, reproduce_invariant_count
from rotorlab.reports import RunConfig
from conftest import chart_entry, same_bits

_UNIT = st.floats(0.0, 1.0, exclude_max=True)


def _tables(width):
    """Tables of 1 to 6 rows of ``width`` numbers in [0, 1)."""
    return st.integers(1, 6).flatmap(
        lambda rows: hnp.arrays(float, (rows, width), elements=_UNIT, fill=st.nothing()))


def _same_fields(got, want):
    return all(same_bits(getattr(got, f.name), getattr(want, f.name)) for f in fields(got))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=_tables(PATH_NUMBERS).filter(
    lambda t: (np.linalg.norm(t[:, 17:20], axis=1) > 1e-3).all()))
def test_each_kinematic_jet_is_its_row_built_alone(table):
    batch = kinematic_jets(table).entries()
    for i, J in enumerate(batch):
        assert _same_fields(J, kinematic_jets(table[i:i + 1]).entries()[0]), i


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=_tables(12))
def test_each_chart_state_is_its_row_built_alone(table):
    batch = chart_states(table)
    for i, row in enumerate(table):
        assert _same_fields(chart_entry(batch, i), chart_states(row)), i


def _written(rows, width):
    """A (rows, width) table of numbers in [0, 1] written by a formula."""
    i, j = np.mgrid[0:rows, 0:width]
    return 0.5 + 0.5 * np.sin(1.0 + 7 * i + 3 * j)


def _count_points():
    """60 points of [-2, 2]^8 written by a formula, with no generator: one
    decimal each, and k.xdot (column 2) at least 0.4 from 0, as drawn points are."""
    i, j = np.mgrid[0:60, 0:8]
    points = np.round(2 * np.sin(1.0 + 7 * i + 3 * j), 1)
    points[:, 2] = np.where(abs(points[:, 2]) < 0.4, 1.5, points[:, 2])
    return points


def test_the_invariant_count_of_a_written_table():
    rep = reproduce_invariant_count(_count_points())
    assert (rep.rank, rep.nullity, rep.zero_combos, rep.functional_rank) == (5, 10, 2, 3)


# per suite: a written table, and the inputs key that counts its rows (None:
# the suite's inputs count no table rows)
_FED = {"tetrad": (_written(7, 4), "spinors"),
        "invariants": (_written(7, PATH_NUMBERS + 4), "jets"),
        "casimir": (_written(5, PATH_NUMBERS), "jets"),
        "degeneracy": (_written(3, 12), "states"),
        "dynamics": (None, None),
        "count-invariants": (_count_points(), None)}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_each_suite_is_a_function_of_a_written_table(suite):
    # a suite fed a table of any size, not drawn from a seed, returns its
    # table checks as float residuals, each passing its gate, and counts the
    # table's rows as its samples
    table, key = _FED[suite]
    results = cli._SUITE_FUNCS[suite](RunConfig(), table)
    assert list(results) == [name for name, (s, _) in cli.CHECKS.items() if s == suite]
    for name, (residual, inputs) in results.items():
        assert isinstance(residual, float) and residual <= cli.CHECKS[name][1], name
        if key in inputs:
            assert inputs[key] == len(table), name
    assert key is None or any(key in inputs for _, inputs in results.values())


@pytest.mark.xfail(strict=True, reason="the count turns on rounding at a near-singular "
                   "pivot block: a point near k.xdot = 0 gives 3 zero combinations, not 2; "
                   "a case for the search over the count's support (ROADMAP item 33)")
def test_the_count_suite_on_a_written_table_near_k_xdot_zero():
    # the (60, 8) table 2 sin(1 + 7i + 3j), written with no generator: at row
    # 56, k.xdot (column 2) is -0.0355, and the fixed pivot block of the
    # condition matrix there has |det| 7.1e-11
    i, j = np.mgrid[0:60, 0:8]
    residual, counts = cli.suite_count(RunConfig(), 2 * np.sin(1.0 + 7 * i + 3 * j))[
        "count-invariants"]
    assert residual == 0.0, counts
