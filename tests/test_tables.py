"""Samples are pure functions of their tables of numbers, over the whole
support of the samplers: uniform numbers in [0, 1), and a path's normal
triple away from 0.

Each batch entry is its row built alone, bit for bit, so a sample can be
rebuilt from its row whatever else its table holds.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rotorlab.degeneracy import chart_states
from rotorlab.invariants import PATH_NUMBERS, kinematic_jets, reproduce_invariant_count
from conftest import same_bits

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
    for i, state in enumerate(chart_states(table)):
        assert _same_fields(state, chart_states(table[i:i + 1])[0]), i


def test_the_invariant_count_of_a_written_table():
    # 60 points of [-2, 2]^8 written by a formula, with no generator: one
    # decimal each, and k.xdot (column 2) at least 0.4 from 0, as drawn points are
    i, j = np.mgrid[0:60, 0:8]
    points = np.round(2 * np.sin(1.0 + 7 * i + 3 * j), 1)
    points[:, 2] = np.where(abs(points[:, 2]) < 0.4, 1.5, points[:, 2])
    rep = reproduce_invariant_count(points)
    assert (rep.rank, rep.nullity, rep.zero_combos, rep.functional_rank) == (5, 10, 2, 3)
