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

from rotorlab import cli, noether
from rotorlab.degeneracy import chart_states
from rotorlab.fform import builtin, parse_f, pq_from_scalars, scalar_products
from rotorlab.invariants import (PATH_NUMBERS, GaugeJet, gauge_jet_transform, kinematic_jets,
                                 reproduce_invariant_count)
from rotorlab.minkowski import DomainError
from rotorlab.reports import RunConfig
from conftest import chart_entry, nothing_ahead, same_bits

_UNIT = st.floats(0.0, 1.0, exclude_max=True)


def _tables(width):
    """Tables of 1 to 6 rows of ``width`` numbers in [0, 1)."""
    return st.integers(1, 6).flatmap(
        lambda rows: hnp.arrays(float, (rows, width), elements=_UNIT, fill=st.nothing()))


def _same_fields(got, want):
    return all(same_bits(getattr(got, f.name), getattr(want, f.name)) for f in fields(got))


# tables of paths, their normal triples away from 0
_PATHS = _tables(PATH_NUMBERS).filter(
    lambda t: (np.linalg.norm(t[:, 17:20], axis=1) > 1e-3).all())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=_PATHS)
def test_each_kinematic_jet_is_its_row_built_alone(table):
    batch = kinematic_jets(table).entries()
    for i, J in enumerate(batch):
        assert _same_fields(J, kinematic_jets(table[i:i + 1]).entries()[0]), i


def _same_lift(got, want):
    """The held lifts (t, tetrad) of two batches hold the same jets, bit for bit."""
    (t, T), (u, U) = got.lifted, want.lifted
    pairs = [(t, u), *((a, b) for v, w in zip(T, U) for a, b in zip(v, w))]
    return all(same_bits(a.f, b.f) and same_bits(a.g, b.g) and a.h is b.h is None
               for a, b in pairs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(first=_PATHS, second=_PATHS)
def test_each_block_of_a_joint_build_is_its_table_built_alone(first, second):
    # verify builds the invariants and casimir suites' paths as one batch, and
    # each suite reads its rows of it: every field, the held lift, and a gauge
    # shift of the lift are those of its table built alone
    joint = kinematic_jets(np.concatenate([first, second]))
    n = len(first)
    for block, table in ((joint.rows(slice(0, n)), first),
                         (joint.rows(slice(n, n + len(second))), second)):
        alone = kinematic_jets(table)
        assert _same_fields(block, alone) and _same_lift(block, alone)
        G = GaugeJet(*(cli._GAUGE_LO + cli._GAUGE_SPAN * table[:, :4]).T)
        got, want = gauge_jet_transform(block, G), gauge_jet_transform(alone, G)
        assert _same_fields(got, want) and _same_lift(got, want)


# forms with entries outside their domain, and a group of another (M, ell)
_STACKED_FORMS = (builtin("starlike", signs=(1, -1)), builtin("nu_family", nu=2.0),
                  builtin("rotator_f"), builtin("rotator_f", M=2.5, ell=37.5),
                  builtin("starlike", signs=(1, -1), M=2.5, ell=37.5), parse_f("Q"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(table=_PATHS)
def test_the_stacked_casimir_pass_is_each_forms_own_pass(table):
    # batch_casimirs takes one closed form and one momenta pass per (M, ell)
    # group of forms, the grid ahead of the jets for the first two forms and
    # no point ahead for the others: each form's mask and closed form are
    # those of its own casimirs_where_defined, and its entries' columns of the
    # momenta pass are its own momenta_from_vectors pass over its entries
    # inside, bit for bit
    S, grid = kinematic_jets(table), cli.fundamental_grid(3)
    found = noether.batch_casimirs(_STACKED_FORMS, S,
                                   [grid] * 2 + nothing_ahead(_STACKED_FORMS[2:]))
    checked = set()
    for i, (F, got) in enumerate(zip(_STACKED_FORMS, found)):
        _, P, Q = pq_from_scalars(*scalar_products(S.xdot, S.k, S.kdot), F.ell)
        if i < 2:
            P, Q = np.concatenate([grid[0], P]), np.concatenate([grid[1], Q])
        want = noether.casimirs_where_defined([F], [(P, Q)])[0][:3]
        assert all(same_bits(a, b) for a, b in zip(got, want)), F.name
        mine = np.flatnonzero(got[0][len(P) - S.k.shape[1]:])
        columns, ms = S.momenta_by_form.get(F, ({}, None))
        assert sorted(columns) == mine.tolist(), F.name
        if len(mine):
            own = noether.momenta_from_vectors(F, *(v[:, mine] for v in (S.xdot, S.k, S.kdot)))
            at = [columns[j] for j in mine.tolist()]
            assert same_bits(ms.P[:, at], own.P) and same_bits(ms.pi[:, at], own.pi), F.name
            checked.add((F.M, F.ell))
    assert checked == {(1.0, 1.0), (2.5, 37.5)}


def test_a_bad_row_is_named_in_its_own_suites_table(monkeypatch):
    # the casimir suite's row 3 does not build (a NaN angle): verify builds it
    # behind the invariants suite's 7 rows, and its error still names row 3,
    # as the suite fed its table alone names it, not entry 7 + 3 of the batch
    tables = {"invariants": _written(7, PATH_NUMBERS + 4),
              "casimir": _written(5, PATH_NUMBERS)}
    tables["casimir"][3, 0] = np.nan
    for suite, table in tables.items():
        monkeypatch.setitem(cli._SUITE_TABLES, suite, lambda rng, table=table: table)
    with pytest.raises(DomainError) as alone:
        cli.suite_casimir(RunConfig(), tables["casimir"])
    with pytest.raises(DomainError) as joint:
        cli.verify_reports(("invariants", "casimir"), RunConfig())
    assert str(joint.value) == str(alone.value)
    assert str(alone.value).endswith("(batch entry 3)")


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
