"""The seeded samplers draw each table of uniform numbers in one generator
call, with the bits of numpy's per-number ``uniform`` calls.

Each sampler is compared, over seeds 0-999, with a reference that makes the
per-number calls in their order: the samples bit for bit (signed zeros
count) and the generator's state afterwards.  A builder that takes a table
is called on a table drawn as its callers draw it, and a suite's table is
drawn by ``cli._SUITE_TABLES``, as ``verify`` draws it.
"""

import argparse
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from rotorlab import cli, jets
from rotorlab.degeneracy import ChartState, chart_states, random_chart_state
from rotorlab.invariants import (COUNT_SAMPLES, KINEMATIC_RANGES, PATH_NUMBERS,
                                 draw_count_points, draw_path, kinematic_jets)
from rotorlab.reports import RunConfig
from rotorlab.spinor import tetrad_from_angles
from conftest import chart_entry
from references import ref_timelike

SEEDS = range(1000)
_default_rng = np.random.default_rng


def bits(*arrays):
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays]).view(np.int64)


def same_draws(got, want, rng, ref):
    return (np.array_equal(bits(*got), bits(*want))
            and rng.bit_generator.state == ref.bit_generator.state)


# -- references: the per-number calls, in their order ---------------------------

def ref_tetrad_angles(rng):
    return np.array([(rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi),
                      rng.uniform(0.2, 5.0), rng.uniform(0, 4 * np.pi))
                     for _ in range(cli.TETRAD_SPINORS)])


def ref_kinematic_path(rng):
    angles = np.array([(rng.uniform(lo, hi), rate * rng.uniform(0.05, 0.4),
                        rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * np.pi))
                       for lo, hi, rate in KINEMATIC_RANGES])
    return angles, ref_timelike(rng)


def ref_kinematic_jets(paths):
    """The fields of the kinematic jets of per-number drawn (angles, xdot)
    paths at parameter 0, from one batched pass of first-order jets over
    base + amp sin(freq t + off)."""
    rows = np.stack([angles for angles, _ in paths], axis=-1)  # (4, 4, B)
    (t,) = jets.variables(np.zeros(len(paths)), order=1)
    tetrad = tetrad_from_angles(*(base + amp * jets.sin(freq * t + off)
                                  for base, amp, freq, off in rows))
    values, rates = zip(*map(jets.split, tetrad))
    return (np.stack([xdot for _, xdot in paths], axis=-1), *values, *rates)


def ref_gauge(rng):
    return (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1))


def ref_chart_state(rng):
    v = rng.uniform(-0.4, 0.4, 3) / np.sqrt(3.0)
    return ChartState(theta=rng.uniform(0.4, np.pi - 0.4), phi=rng.uniform(0.0, 2 * np.pi),
                      v=tuple(v), thetadot=rng.uniform(-1.0, 1.0),
                      phidot=rng.uniform(-1.0, 1.0), K=rng.uniform(0.5, 2.0),
                      Kdot=rng.uniform(-0.5, 0.5), x=tuple(rng.uniform(-1.0, 1.0, 3)))


def ref_simulate_start(rng):
    return ChartState(theta=rng.uniform(0.8, np.pi - 0.8), phi=rng.uniform(0, 2 * np.pi),
                      v=tuple(rng.uniform(-0.1, 0.1, 3)),
                      thetadot=rng.uniform(0.2, 0.5), phidot=rng.uniform(0.5, 0.9))


def ref_count_points(rng):
    points = []
    while len(points) < COUNT_SAMPLES:  # one 8-number draw per point, kept or not
        s = rng.uniform(-2.0, 2.0, 8)
        if abs(s[2]) > 0.3:
            points.append(s)
    return np.array(points)


def state_numbers(s: ChartState):
    return (s.theta, s.phi, s.v, s.thetadot, s.phidot, s.K, s.Kdot, s.x)


def batch_numbers(batch: ChartState, n: int):
    """``state_numbers`` of each of the n entries of a batch, in batch order."""
    return [x for i in range(n) for x in state_numbers(chart_entry(batch, i))]


# -- capture: the generators the program makes, and what a command draws -------

class CountingGenerator:
    """A numpy Generator that counts the calls of its methods."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return attr(*args, **kwargs)
        return counted


class Made(list):
    """Generators made, in order, and ``calls``: their calls by method."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()


@pytest.fixture
def made(monkeypatch):
    """The generators ``np.random.default_rng`` makes, as counting proxies."""
    made = Made()

    def default_rng(*args, **kwargs):
        made.append(CountingGenerator(_default_rng(*args, **kwargs), made.calls))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


class _Drawn(Exception):
    """Raised by a capture once a run has drawn all its samples."""


def _raise():
    raise _Drawn


def test_tetrad_angles_are_the_per_number_draws():
    # the suite's table, scaled as the suite scales it
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        angles = cli._TETRAD_LO + cli._TETRAD_SPAN * cli._SUITE_TABLES["tetrad"](rng)
        assert same_draws([angles], [ref_tetrad_angles(ref)], rng, ref), seed


def test_kinematic_paths_are_the_per_number_draws():
    # a path's row, drawn and built, is the jet of the per-number draws of its
    # angles and of its timelike xdot; two paths per seed, built as one table
    table, want = [], []
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        table += [draw_path(rng) for _ in range(2)]
        want += [ref_kinematic_path(ref) for _ in range(2)]
        assert rng.bit_generator.state == ref.bit_generator.state, seed
    got = kinematic_jets(table)
    assert np.array_equal(bits(*(getattr(got, f.name) for f in fields(got))),
                          bits(*ref_kinematic_jets(want)))


def test_a_timelike_xdot_is_the_per_number_draws():
    # a row's rapidity is the 17th of its numbers; the builder's xdot is the
    # per-number draws of rapidity, normal triple and scale, after the angles
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        got = kinematic_jets([draw_path(rng) for _ in range(3)]).xdot.T
        want = [ref_kinematic_path(ref)[1] for _ in range(3)]
        assert same_draws(got, want, rng, ref), seed


def test_invariants_suite_draws_the_per_number_jets_and_gauges():
    # each row of the suite's table: a jet's path, then its gauge shift, scaled
    # as the suite scales it, by the per-number draws; the path test above ties
    # a path to the per-number draws of its jet
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        table = cli._SUITE_TABLES["invariants"](rng)
        gauges = cli._GAUGE_LO + cli._GAUGE_SPAN * table[:, PATH_NUMBERS:]
        want_rows, want_gauges = [], []
        for _ in range(cli.INVARIANT_JETS):
            want_rows.append(draw_path(ref))
            want_gauges.append(ref_gauge(ref))
        assert same_draws([table[:, :PATH_NUMBERS], gauges],
                          [np.array(want_rows), np.array(want_gauges)], rng, ref), seed


def test_a_chart_state_is_the_per_number_draws():
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        assert same_draws(state_numbers(random_chart_state(rng)),
                          state_numbers(ref_chart_state(ref)), rng, ref), seed


@pytest.mark.parametrize("n", [1, 4, 7])
def test_a_table_of_chart_states_is_that_many_single_draws(n):
    # relation and the degeneracy suite draw their states as one (n, 12) table,
    # built as one batch: its columns are n single draws
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        got = chart_states(rng.random((n, 12)))
        want = [random_chart_state(ref) for _ in range(n)]
        assert got.theta.shape == (n,)
        assert same_draws(batch_numbers(got, n),
                          [x for s in want for x in state_numbers(s)], rng, ref), seed


def test_relation_draws_its_states_as_sequential_chart_states(monkeypatch, made):
    drawn = []
    monkeypatch.setattr(cli, "hessians",
                        lambda forms, batch, dof: drawn.append(batch) or _raise())
    args = argparse.Namespace(forms=None, states=5)
    for seed in range(50):
        with pytest.raises(_Drawn):
            cli.cmd_relation(args, RunConfig(seed=seed))
        ref = _default_rng(seed)
        want = [ref_chart_state(ref) for _ in range(args.states)]
        assert same_draws(batch_numbers(drawn[-1], args.states),
                          [x for s in want for x in state_numbers(s)], made[-1], ref), seed


def test_simulate_draws_the_per_number_start_state(monkeypatch, made):
    drawn = []
    monkeypatch.setattr(cli, "integrate",
                        lambda F, state, span: drawn.append(state) or _raise())
    args = argparse.Namespace(f="Q", periods=1.0, out=None)
    for seed in SEEDS:
        with pytest.raises(_Drawn):
            cli.cmd_simulate(args, RunConfig(seed=seed))
        ref = _default_rng(seed)
        assert same_draws(state_numbers(drawn[-1]), state_numbers(ref_simulate_start(ref)),
                          made[-1], ref), seed


def test_count_points_are_the_per_point_draws():
    # count-invariants draws its points as tables of the rows still missing
    for seed in SEEDS:
        rng, ref = _default_rng(seed), _default_rng(seed)
        assert same_draws([draw_count_points(rng)], [ref_count_points(ref)], rng, ref), seed


def test_verify_draws_by_the_table(made, capsys):
    # 2,760 calls when every number was its own call: 2,675 uniform, 85 normal;
    # 320 now, all of them random or normal: 235 random (85 of them a path's
    # last number, 3 in count-invariants) and 85 normal
    cli.main(["verify", "--suite", "all", "--seed", "0"])
    capsys.readouterr()
    assert sum(made.calls.values()) <= 320, made.calls
    assert made.calls == {"random": 235, "normal": 85}
