import ast
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

import numpy as np

import rotorlab
from rotorlab import cli, dynamics, fform, jets, minkowski, noether
from rotorlab.cli import main
from rotorlab.fform import builtin, parse_f, pq_from_vectors
from rotorlab.invariants import draw_path, kinematic_jets
from rotorlab.minkowski import DomainError, dot
from rotorlab.noether import casimirs_closed_form
from rotorlab.reports import Report, RunConfig, load_config, render_reports
from conftest import nothing_ahead, same_bits
from references import evaluates
from work import run_counts, src_calls


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def table_checks(suite):
    """The names of ``cli.CHECKS`` in ``suite``, or all of them for "all", in
    table order."""
    return [name for name, (s, _) in cli.CHECKS.items() if suite in (s, "all")]


@pytest.mark.parametrize("suite", ["tetrad", "all"])
def test_verify_tetrad_passes(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--seed", "7")
    assert code == 0
    assert out.count("[check]") == len(table_checks(suite))
    assert re.findall(r"^name = (.*)$", out, re.M) == table_checks(suite)
    assert "status = fail" not in out


def test_the_table_names_the_checks_perfbench_expects():
    """perfbench's verify-sweep compares the check names of each report, in
    order, with its own ``VERIFY_CHECKS``: a check renamed, added or moved in
    the table fails here before it fails the benchmark's check."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text())
    (names,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "VERIFY_CHECKS"]
    assert tuple(cli.CHECKS) == names


def test_each_suite_returns_exactly_its_table_checks_in_order():
    # fed the table of its own seeded draw, a suite gives verify's residuals
    # and inputs: verify draws each suite's table from a generator of its own
    assert {suite for suite, _ in cli.CHECKS.values()} == set(cli.SUITES)
    cfg = RunConfig(seed=0)
    reports = {r.name: r for r in cli.verify_reports(cli.SUITES, cfg)}
    for suite in cli.SUITES:
        results = cli._SUITE_FUNCS[suite](cfg, cli._SUITE_TABLES[suite](
            np.random.default_rng(cfg.seed)))
        assert list(results) == table_checks(suite), suite
        assert all(isinstance(r, float) and isinstance(inputs, dict)
                   for r, inputs in results.values()), suite
        for name, (residual, inputs) in results.items():
            assert same_bits(residual, reports[name].residual), name
            assert inputs == reports[name].inputs, name


def test_suites_read_their_tables_and_verify_draws_them():
    """The suites are pure functions of (cfg, table): no ``suite_*`` function
    makes or reads a generator, ``verify_reports`` is where ``verify`` makes
    one, and only ``hessian``, ``relation`` and ``simulate`` make their own.
    ``_SUITE_FUNCS`` maps each suite to a function (perfbench's tracer times a
    suite by wrapping the function values of dispatch dicts), and
    ``_SUITE_TABLES`` draws a table for each suite, in ``SUITES`` order."""
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    generator = {"default_rng", "random", "normal", "uniform", "rng"}
    for name, node in funcs.items():
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if name.startswith("suite_"):
            assert not (names | attrs) & generator, name
            assert not {n for n in names if n.startswith(("draw_", "random_"))}, name
        if "default_rng" in attrs:
            assert name in ("verify_reports", "cmd_hessian", "cmd_relation",
                            "cmd_simulate"), name
    dicts = {node.targets[0].id: node.value for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
             and isinstance(node.targets[0], ast.Name)}
    suite_funcs, suite_tables = dicts["_SUITE_FUNCS"], dicts["_SUITE_TABLES"]
    assert all(isinstance(v, ast.Name) and v.id in funcs for v in suite_funcs.values)
    assert all(inspect.isfunction(f) and f.__name__.startswith("suite_")
               for f in cli._SUITE_FUNCS.values())
    assert tuple(ast.literal_eval(k) for k in suite_funcs.keys) == cli.SUITES
    assert tuple(ast.literal_eval(k) for k in suite_tables.keys) == cli.SUITES
    assert tuple(cli._SUITE_TABLES) == cli.SUITES


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_count_invariants_reports_counts(capsys):
    code, out = run(capsys, "count-invariants", "--seed", "5")
    assert code == 0
    assert "inputs.rank = 5" in out
    assert "inputs.nullity = 10" in out
    assert "inputs.zero_combos = 2" in out
    assert "inputs.functional_rank = 3" in out


def test_reports_byte_identical_for_same_seed(capsys):
    _, out1 = run(capsys, "verify", "--suite", "invariants", "--seed", "3")
    _, out2 = run(capsys, "verify", "--suite", "invariants", "--seed", "3")
    assert out1 == out2
    _, out3 = run(capsys, "verify", "--suite", "invariants", "--seed", "4")
    assert out1 != out3


def test_casimir_rotator(capsys):
    code, out = run(capsys, "casimir", "--f", "rotator", "--Q", "4")
    assert code == 0
    assert "inputs.PP = 0.99999999999999" in out or "inputs.PP = 1" in out
    assert "inputs.WW = -0.25" in out


def test_casimir_parse_error(capsys):
    code = main(["casimir", "--f", "1 + * Q"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fundamental_check_nu_family(capsys):
    code, out = run(capsys, "fundamental-check", "--f", "nu_family",
                    "--nu", "0.5", "--grid", "8")
    assert code == 0
    assert "status = pass" in out


def test_fundamental_check_fails_on_an_empty_grid(capsys):
    # no grid point lies inside the domain Q < 0 of sqrt(-Q): nothing is checked
    code, out = run(capsys, "fundamental-check", "--f", "sqrt(-Q)")
    assert code == 1
    assert "status = fail" in out and "residual = inf" in out
    assert "inputs.points = 0" in out


@pytest.mark.parametrize("expr", ["sqrt(P)", "P^0.5", "1e100*P"])
def test_fundamental_check_masks_where_the_jets_fail(capsys, expr):
    # an odd grid holds P = 0, where F has no derivative: the mask drops
    # those points, as F's evaluation does, and the others are checked.
    # 1e100*P keeps every point, and the squares in its Casimirs overflow:
    # they read inf, as at one point in ``casimir``, instead of raising
    # OverflowError (exit 2)
    code, out = run(capsys, "fundamental-check", "--f", expr, "--grid", "3")
    assert code == 1
    assert "status = fail" in out
    if expr == "1e100*P":
        assert "residual = inf" in out and "inputs.points = 9" in out
    else:
        assert "inputs.points = 3" in out


def test_a_fundamental_pass_runs_f_once_per_refusing_step_plus_one():
    """The grid's domain and F's partials there come from passes of F over
    the batch: each drops the entries its refusing step names, and the last
    one succeeds; no pass runs entry by entry.  A point outside the domain
    is named with its batch entry."""
    # the outer sqrt of the first refuses at Q >= 1; no step of starlike does
    for F, calls in ((parse_f("sqrt(1 - sqrt(Q))"), 2), (builtin("starlike"), 1)):
        runs = []

        def counted(P, Q, F=F):
            runs.append(np.shape(P.f))
            return F.func(P, Q)

        worst, points = cli.fundamental_residual(dataclasses.replace(F, func=counted), 12)
        assert len(runs) == calls and runs[-1] == (points,), F.name
        assert cli.fundamental_residual(F, 12) == (worst, points)
        with pytest.raises(DomainError, match=r"outside domain .* \(batch entry 1\)"):
            F.eval(np.array([0.3, 0.0]), np.array([0.25, 0.0]), order=1)


def test_relation_domain_error_names_its_batch_entry(capsys):
    # the forms are evaluated over the batch of states; the error names the
    # first state outside the domain as a scalar (P, Q), not whole arrays
    code = main(["relation", "--forms", "sqrt(0.03-Q)", "Q", "--states", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert re.fullmatch(r"error: \(P, Q\) = \(-?[0-9.e-]+, [0-9.e-]+\) outside domain of "
                        r"parsed:sqrt\(0\.03-Q\) \(batch entry 0\): "
                        r"sqrt needs a positive argument, got -[0-9.e-]+\n", captured.err)


# an expression's domain is where its evaluation succeeds; the error names the
# point, then the reason the evaluation fails there
@pytest.mark.parametrize("f, P, reason", [
    ("Q^P", "1", "an exponent must not depend on the variables"),
    ("sqrt(P)", "-1", "sqrt needs a positive argument, got -1.0"),
    ("1/P", "0", "division by zero"),
], ids=["exponent", "sqrt", "division"])
def test_a_parsed_domain_error_says_why(capsys, f, P, reason):
    code = main(["casimir", "--f", f, "--P", P])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: (P, Q) = ({float(P)}, 1.0) outside domain of "
                            f"parsed:{f}: {reason}\n")


@pytest.mark.parametrize("argv, why", [
    (["freemotion", "--phase", "t^1e400"], "error: exponent inf is not finite"),
    (["casimir", "--f", "Q^1e400"], "outside domain of parsed:Q^1e400: exponent inf is not finite"),
    (["hessian", "--f", "Q^-1e400"],
     "outside domain of parsed:Q^-1e400: exponent -inf is not finite"),
], ids=["freemotion", "casimir", "hessian"])
def test_a_non_finite_exponent_is_refused_in_words(capsys, argv, why):
    # 1e400 reads as inf, which a power refuses in the language's words, not
    # with Python's error at converting it to an integer
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(why + "\n")
    assert "OverflowError" not in captured.err


def test_a_builtin_domain_error_keeps_its_text(capsys):
    # a builtin's domain is its expression's, and its error names the
    # failing step as a parsed form's does
    code = main(["casimir", "--f", "rotator", "--P", "2", "--Q", "0"])
    assert code == 2
    assert capsys.readouterr().err == ("error: (P, Q) = (2.0, 0.0) outside domain of rotator_f: "
                                       "sqrt needs a positive argument, got 0.0\n")


def test_a_builtin_reports_as_its_expression(capsys):
    casimir = ("inputs.F =", "inputs.F_P =", "inputs.F_Q =", "inputs.PP =", "inputs.WW =")
    grid = ("residual =", "inputs.points =")
    for argv, keys, want in (
        (["casimir", "--nu", "0.5", "--Q", "2"], casimir, 0),
        (["fundamental-check", "--nu", "0.5"], grid, 0),
    ):
        lines = []
        for f in ("nu_family", "nu*P + sqrt(1 + sqrt(Q) - nu^2*Q)"):
            code, out = run(capsys, *argv, "--f", f)
            assert code == want, argv
            lines.append([line for line in out.splitlines() if line.startswith(keys)])
        assert len(lines[0]) == len(keys) and lines[0] == lines[1], argv


@pytest.mark.parametrize("f", ["nu_family", "nu*P + sqrt(1 + sqrt(Q) - nu^2*Q)"])
def test_an_overflow_in_f_leaves_the_fundamental_grid_unchecked(capsys, f):
    """nu^2 overflows at nu = 1e200, at every grid point: the overflow is F's
    refusing step, as any other, so no point is checked and the check fails
    with exit 1; the builtin reads as its expression, not as an error."""
    code = main(["fundamental-check", "--f", f, "--nu", "1e200"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "status = fail" in out and "residual = inf" in out
    assert "inputs.points = 0" in out


@pytest.mark.parametrize("argv, owner, name", [
    (["fundamental-check", "--f", "rotator", "--grid", "1000000"], cli,
     "fundamental_residual"),
    (["freemotion", "--samples", "1000000000000"], np, "linspace"),
], ids=["fundamental-check", "freemotion"])
def test_an_input_too_large_to_allocate_exits_2(capsys, monkeypatch, argv, owner, name):
    # the allocation fails as numpy fails it, with a MemoryError, but without
    # asking for the memory: an overcommitting host may grant it lazily
    original = getattr(owner, name)

    def refusing(*args, **kwargs):
        sizes = [a for a in (*args, *kwargs.values()) if isinstance(a, int)]
        if max(sizes, default=0) >= 1000000:
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, refusing)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"


@pytest.mark.parametrize("states, why", [
    ("100000000000000000000", "Maximum allowed dimension exceeded"),
    ("100000000000000000", "array is too big; `arr.size * arr.dtype.itemsize` is larger "
                           "than the maximum possible size."),
], ids=["dimension", "bytes"])
def test_relation_with_more_states_than_numpy_can_hold_exits_2(states, why):
    # the states are one (n, 12) table, which numpy refuses before allocating;
    # drawn one state at a time, they used to loop until killed
    proc = run_fresh("-m", "rotorlab.cli", "relation", "--states", states)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {why}\n"


def test_hessian_rank_four(capsys):
    code, out = run(capsys, "hessian", "--f", "nu_family", "--nu", "0.3",
                    "--seed", "3")
    assert code == 0
    assert "inputs.rank = 4" in out
    assert "inputs.singular = true" in out


@pytest.mark.parametrize("seed", [3, 7, 18, 35])
def test_verify_degeneracy_passes_at_small_determinants(capsys, seed):
    # generic f(Q) Hessians at these seeds have |det| down to 5e-23 but
    # sigma_min / sigma_max of at least 7e-5: nondegenerate
    code, out = run(capsys, "verify", "--suite", "degeneracy", "--seed", str(seed))
    assert code == 0
    assert "status = fail" not in out


# README: at these seeds `wp-orthogonality` fails from the rounding of the
# epsilon contraction that forms W (ROADMAP item 6)
@pytest.mark.xfail(strict=True, reason="the rounding of the epsilon contraction "
                   "that forms W fails wp-orthogonality on well-conditioned samples")
@pytest.mark.parametrize("seed", [74, 94, 142, 161, 514, 631, 761, 934])
def test_verify_casimir_passes_at_every_seed(capsys, seed):
    code, _ = run(capsys, "verify", "--suite", "casimir", "--seed", str(seed))
    assert code == 0


def test_verify_casimir_forms_take_the_run_scales(capsys, monkeypatch):
    scales, names = set(), set()
    original = cli.momenta

    def recording(F, J):
        scales.add((F.M, F.ell))
        names.add(F.name)
        return original(F, J)

    monkeypatch.setattr(cli, "momenta", recording)
    run(capsys, "verify", "--suite", "casimir", "--M", "2", "--ell", "0.5")
    assert {"point_particle", "fq"} <= names
    assert scales == {(2.0, 0.5)}


# momenta calls of `verify --suite casimir`, one per in-domain (jet, form)
# pair; perfbench's verify-sweep captures cli.momenta and oracle-checks every
# 5th call on a single jet, so the calls, their order and count must stay
CASIMIR_MOMENTA_CALLS = {0: 299, 1: 297, 2: 299, 3: 300}


def _casimir_samples(seed, extra_forms=()):
    """The forms and the batch of kinematic jets of the casimir suite at seed."""
    rng = np.random.default_rng(seed)
    cfg = RunConfig()
    forms = cli.casimir_forms(cfg, cli.fundamental_forms(cfg)) + list(extra_forms)
    return forms, kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])


def _in_domain_pairs(forms, samples):
    """(jet, form) pairs inside the form's domain, jet-major, each form at its
    jet's (P, Q) from the unbatched jet."""
    for J in samples.entries():
        for F in forms:
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if evaluates(F, at.P, at.Q):
                yield J, F, at


@pytest.mark.parametrize("seed", sorted(CASIMIR_MOMENTA_CALLS))
def test_casimir_suite_takes_momenta_one_jet_at_a_time(capsys, monkeypatch, seed):
    # each record holds the bits of the momenta of its jet alone, signed zeros
    # included, as perfbench's oracle reads them
    calls = []
    original = cli.momenta

    def recording(F, J):
        calls.append((J, F, original(F, J)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "momenta", recording)
    code, _ = run(capsys, "verify", "--suite", "casimir", "--seed", str(seed))
    assert code == 0
    want = [(J, F.name) for J, F, _ in _in_domain_pairs(*_casimir_samples(seed))]
    assert len(calls) == len(want) == CASIMIR_MOMENTA_CALLS[seed]
    for (J, F, ms), (want_J, want_name) in zip(calls, want):
        assert J.k.shape == (4,) and F.name == want_name
        for f in dataclasses.fields(J):
            assert np.array_equal(getattr(J, f.name), getattr(want_J, f.name))
        alone = noether.momenta_from_vectors(F, J.xdot, J.k, J.kdot)
        for name in ("P", "pi", "k", "W"):
            assert same_bits(getattr(ms, name), getattr(alone, name)), name


@pytest.mark.parametrize("seed", [0, 1])
def test_casimir_suite_seeds_the_jets_velocity_scalars_in_one_call(capsys, monkeypatch,
                                                                   seed):
    # every form's momenta pass over the batch starts from one seeding of the
    # whole batch's scalar products: one call a run, not one per jet
    seeded = src_calls(monkeypatch, fform, "velocity_scalars",
                       lambda xdot, k, kdot: np.shape(xdot))
    code, _ = run(capsys, "verify", "--suite", "casimir", "--seed", str(seed))
    assert code == 0
    assert seeded == [(4, cli.CASIMIR_JETS)]


@pytest.mark.parametrize("seed", [0, 1])
def test_casimir_suite_forms_no_angular_momentum(capsys, monkeypatch, seed):
    # no check reads M, so the suite forms no bivector, and it reads W only on
    # the batch of all its pairs: one epsilon contraction per run, not one per
    # momenta call; counted wherever src binds the names
    counts = dict.fromkeys(("bivector", "epsilon_contract"), 0)
    for name in counts:
        original = getattr(minkowski, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("rotorlab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    code, _ = run(capsys, "verify", "--suite", "casimir", "--seed", str(seed))
    assert code == 0
    assert counts == {"bivector": 0, "epsilon_contract": 1}


def _noether_residuals_per_pair(forms, samples):
    """``cli.noether_residuals`` as a loop over the (jet, form) pairs, the
    closed form taken pair by pair: the reference for the batched one."""
    cross, wp = [], []
    for J, F, at in _in_domain_pairs(forms, samples):
        ms = noether.momenta(F, J)
        got = ms.casimirs()
        want = casimirs_closed_form(F, at)
        cross += [abs(got.PP - want.PP) / max(abs(want.PP), 1.0),
                  abs(got.WW - want.WW) / max(abs(want.WW), 1.0)]
        wp.append(abs(dot(ms.W, ms.P)) / max(abs(got.PP), 1.0))
    return tuple(float(np.max(r)) if r else math.inf for r in (cross, wp))


@pytest.mark.parametrize("seed", range(8))
def test_batched_noether_residuals_match_the_per_pair_loop(seed):
    # two more forms: one S(Q) member, and one defined only for Q <= 0.03,
    # so that a parsed domain masks about half of the batch
    forms, samples = _casimir_samples(seed, (parse_f("sqrt(1 + P*P/Q)*(1 + 0.2*Q)"),
                                             parse_f("sqrt(0.03 - Q)")))
    got = cli.noether_residuals(forms, samples, nothing_ahead(forms))
    assert got[:2] == _noether_residuals_per_pair(forms, samples)


# batched passes of F in noether_residuals on the casimir suite's twelve forms
# and jets: one per form, and one more per refusing step of a domain
NOETHER_F_PASSES = {0: 13, 1: 15, 2: 13, 3: 12}


@pytest.mark.parametrize("seed", sorted(NOETHER_F_PASSES))
def test_noether_residuals_take_one_pass_of_f_per_form(monkeypatch, seed):
    # the closed form, the domain mask and the batch momenta read the same
    # pass of F over the batch, counted as F's jet variables seeded on arrays
    forms, samples = _casimir_samples(seed)
    passes = src_calls(monkeypatch, jets, "variables",
                       lambda *args: isinstance(args[0], np.ndarray))
    cli.noether_residuals(forms, samples, nothing_ahead(forms))
    assert passes.count(True) == NOETHER_F_PASSES[seed]


# and with the fundamental grid in each fundamental form's pass
NOETHER_GRID_F_PASSES = {0: 16, 1: 16}


@pytest.mark.parametrize("seed", sorted(NOETHER_GRID_F_PASSES))
def test_the_fundamental_grid_rides_in_each_forms_pass(monkeypatch, seed):
    """With the fundamental grid given to the fundamental forms, the passes of
    F are those without it, the closed form on the grid misses as
    ``fundamental_residual``'s, and the residuals at the jets are the same."""
    forms, samples = _casimir_samples(seed)
    plain = cli.noether_residuals(forms, samples, nothing_ahead(forms))[:2]
    forms, samples = _casimir_samples(seed)
    fundamental = cli.fundamental_forms(RunConfig())
    passes = src_calls(monkeypatch, jets, "variables",
                       lambda *args: isinstance(args[0], np.ndarray))
    ahead = [cli.fundamental_grid(cli.FUNDAMENTAL_GRID)] * len(fundamental)
    cross, wp, at_ahead = cli.noether_residuals(
        forms, samples, ahead + nothing_ahead(forms[len(fundamental):]))
    on_grid, no_grid = at_ahead[:len(fundamental)], at_ahead[len(fundamental):]
    joined = passes.count(True)
    for F in fundamental:
        cli.fundamental_residual(F, cli.FUNDAMENTAL_GRID)
    apart = NOETHER_F_PASSES[seed] + passes.count(True) - joined
    # one pass less per fundamental form than apart, and no more refusing steps
    assert joined == NOETHER_GRID_F_PASSES[seed] <= apart - len(fundamental)
    assert (cross, wp) == plain and len(at_ahead) == len(forms)
    assert all(len(a) == 0 for c in no_grid for a in c)  # inside, PP, WW at no point
    for F, at in zip(fundamental, on_grid):
        assert (cli.fundamental_miss(F, *at)
                == cli.fundamental_residual(F, cli.FUNDAMENTAL_GRID)), F.name


# the work of one ``verify --suite all`` run, counted by ``work.COUNTED``: one
# pass per kind of sample.  The invariants and casimir suites' paths are one
# ``kinematic_jets`` batch; the degeneracy suite takes one ``hessians`` call
# at DOF5 and one at DOF6, the starlike's with the relation forms, each on
# one chart-jet stack, and the dynamics suite one stack for its free motion;
# each ``hessians`` call takes one (P, Q) pass and one Lagrangian chain step
# for all its forms, of one M and ell, the chain step reading that pass, and
# the relation check one Casimir Jacobian for all of them; the casimir suite
# takes one momenta pass for its twelve forms, of one M and ell, reading the
# (P, Q) pass of its batch, and the dynamics suite one; each form takes
# one pass of F per suite (``FForm._try``), plus one per refusing step of its
# domain; and the dynamics suite one free-motion query for its phases and one
# for its speeds.  The relation check reads each form's (P, Q) from its DOF6
# Hessian report, so no run takes ``chart_scalars`` of a chart state.  These
# are a cold run's counts: a warm one reads the dynamics suite's memo
VERIFY_WORK = {"kinematic_jets": 1, "hessians": 2, "chart_scalar_jets": 3,
               "chart_scalars": 0, "pq_from_scalars": 9, "lagrangian_from_scalars": 5,
               "jacobian_pq": 1, "momenta_from_vectors": 2, "Jet * Jet": 213,
               "FForm._try": 30, "FForm.eval": 14, "svd": 15,
               "FreeMotionTrajectory.jets": 2}


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_takes_one_pass_per_form_and_free_motion(monkeypatch, seed):
    assert run_counts(monkeypatch, ["verify", "--suite", "all", "--seed", str(seed)]) == (
        0, VERIFY_WORK)


def test_relation_reads_each_forms_pq_from_its_hessian_report(monkeypatch):
    # one DOF6 hessians call for the six forms, of one M and ell, which takes
    # their (P, Q) once, for F's partials and for their one Lagrangian chain
    # step (``lagrangian_from_scalars``); relation_check takes no (P, Q) of
    # its own, and one Casimir Jacobian for the six forms
    assert len(cli.RELATION_FORMS) == 6
    counters = ("hessians", "chart_scalars", "pq_from_scalars", "lagrangian_from_scalars",
                "jacobian_pq")
    assert run_counts(monkeypatch, ["relation", "--seed", "0"], counters) == (
        0, {"hessians": 1, "chart_scalars": 0, "pq_from_scalars": 1,
            "lagrangian_from_scalars": 1, "jacobian_pq": 1})


# rows of the work ledger: a run and the exact counts of ``work.COUNTED`` it pins
RUN_WORK = {
    # the chart jets and the SVD do not depend on F: one of each for the six
    # DOF5 margin forms, and one for the DOF6 starlike and the five relation
    # forms together, not one per form (12 and 12 a run when each form took
    # its own, 3 and 3 when the starlike and the relation forms took a call each)
    "degeneracy-0": (["verify", "--suite", "degeneracy", "--seed", "0"],
                     {"chart_scalar_jets": 2, "svd": 2}),
    "degeneracy-1": (["verify", "--suite", "degeneracy", "--seed", "1"],
                     {"chart_scalar_jets": 2, "svd": 2}),
    # relation_check reads F and its partials from the hessians pass, which
    # evaluates F once per form: 6 calls for the six relation forms
    "relation-0": (["relation", "--seed", "0"], {"FForm.eval": 6}),
}


@pytest.mark.parametrize("row", RUN_WORK)
def test_a_run_takes_the_work_of_its_ledger_row(monkeypatch, row):
    argv, counts = RUN_WORK[row]
    assert run_counts(monkeypatch, argv, tuple(counts)) == (0, counts)


# the free-motion queries of a cold ``verify --suite all`` run, then of a warm
# one in the same process, at the same seed and at the next: the dynamics
# suite reads no seed, so it runs once per (M, ell) in a process
WARM_FREE_MOTION_QUERIES = {"cold": 2, "warm": 0, "warm, next seed": 0}


def test_a_warm_verify_queries_no_free_motion_and_prints_the_same(capsys, monkeypatch):
    queries = src_calls(monkeypatch, dynamics.FreeMotionTrajectory, "jets")
    docs, counts = [], {}
    for row, seed in zip(WARM_FREE_MOTION_QUERIES, ("0", "0", "1")):
        before = len(queries)
        docs.append(run(capsys, "verify", "--suite", "all", "--seed", seed))
        counts[row] = len(queries) - before
    assert counts == WARM_FREE_MOTION_QUERIES
    cli._dynamics_checks.cache_clear()
    assert docs == [docs[0], docs[0], run(capsys, "verify", "--suite", "all", "--seed", "1")]


def test_interleaved_scales_each_run_as_a_cold_run(capsys):
    """Runs that interleave two (M, ell) in one process, a seed each, report
    what each reports in a process of its own: the memo is keyed on (M, ell)
    and holds one entry per pair."""
    runs = [("0",), ("1", "--M", "2.5", "--ell", "37.5"), ("2",)]

    def verify(seed, *scales):
        return run(capsys, "verify", "--suite", "all", "--seed", seed, *scales)

    cold = []
    for argv in runs:
        cli._dynamics_checks.cache_clear()
        cold.append(verify(*argv))
    cli._dynamics_checks.cache_clear()
    assert [verify(*argv) for argv in runs] == cold
    assert cli._dynamics_checks.cache_info().currsize == 2
    assert f"inputs.target = {0.05 * 37.5:.17g}\n" in cold[1][1]


@pytest.mark.parametrize("seed", range(8))
def test_batched_w_is_each_pairs_w_formed_once(monkeypatch, seed):
    """The suite reads W only on its batch of all pairs.  Each pair's own
    record, which perfbench's oracle reads, has that batch entry's W bit for
    bit, signed zeros included; a record contracts epsilon once however often
    W is read; and a joined record's W is the concatenation of its parts'."""
    forms, samples = _casimir_samples(seed, (parse_f("sqrt(1 + P*P/Q)*(1 + 0.2*Q)"),
                                             parse_f("sqrt(0.03 - Q)")))
    records, batches, contractions = [], [], []
    original_momenta, original_contract = cli.momenta, noether.epsilon_contract

    def recording(F, J):
        records.append(original_momenta(F, J))
        return records[-1]

    class Recorded(noether.MomentumSet):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(self)

    def counting(*args):
        contractions.append(np.shape(args[0]))
        return original_contract(*args)

    monkeypatch.setattr(cli, "momenta", recording)
    monkeypatch.setattr(cli, "MomentumSet", Recorded)
    monkeypatch.setattr(noether, "epsilon_contract", counting)
    cli.noether_residuals(forms, samples, nothing_ahead(forms))
    (batch,) = batches
    assert contractions == [(4, len(records))]
    assert batch.W is batch.W and len(contractions) == 1
    for b, ms in enumerate(records):
        assert same_bits(ms.W, batch.W[:, b])
        assert ms.W is ms.W
    assert len(contractions) == 1 + len(records)
    half = len(records) // 2
    parts = [noether.MomentumSet(batch.P[:, s], batch.pi[:, s], batch.k[:, s])
             for s in (slice(None, half), slice(half, None))]
    joined = dynamics._joined(parts)
    assert same_bits(joined.W, np.concatenate([p.W for p in parts], axis=-1))
    assert same_bits(joined.W, batch.W)


def test_noether_residuals_with_no_pair_in_a_domain_fail():
    # sqrt(-1 - Q) is defined at no jet, so no momenta are taken and the
    # batch is empty; nothing was checked, so both worst residuals read inf,
    # as the per-pair loop's
    forms, samples = _casimir_samples(0)
    nowhere = [parse_f("sqrt(-1 - Q)")]
    assert not list(_in_domain_pairs(nowhere, samples))
    got = cli.noether_residuals(nowhere, samples, nothing_ahead(nowhere))[:2]
    assert got == _noether_residuals_per_pair(nowhere, samples) == (math.inf, math.inf)


def _with_nan(x, at=0):
    """A copy of x with NaN in its entry ``at`` (flat), or NaN for a float."""
    x = np.array(x, dtype=float)
    x.flat[at] = np.nan
    return x if x.ndim else float(x)


def _nan_closed_form(at):
    """A poison for the closed-form (PP, WW): NaN in PP's entry ``at``."""
    return lambda c: (_with_nan(c[0], at), c[1])


def _nan_singular_values(rep):
    """A Hessian report whose margin is NaN."""
    return dataclasses.replace(rep, singular_values=_with_nan(rep.singular_values))


def _nan_report(i):
    """A poison for a list of Hessian reports: report i's margin is NaN."""
    return lambda reps: [*reps[:i], _nan_singular_values(reps[i]), *reps[i + 1:]]


def _nan_rank(reps):
    """A poison for a list of Hessian reports: a NaN in the rank of report 1."""
    return [reps[0], dataclasses.replace(reps[1], rank=_with_nan(reps[1].rank)), *reps[2:]]


def _in_second_phase(poison):
    """A plant that poisons the second phase's record of a list of records,
    one per phase, so that one phase's NaN sits among finite ones."""
    return lambda records: [records[0], poison(records[1]), *records[2:]]


# check: (owner, function, poison), in table order: the second call of the
# function (or the call POISONED_CALL names) in the check's suite returns
# poison(its result), a NaN in one sample of the check; the tetrad suite
# calls its two functions once, on the whole batch, and so does the
# invariants suite with identity_checks; the casimir suite takes the closed
# form of all its forms in one casimirs_from_partials call, through
# noether.casimirs_where_defined: form by form, a fundamental form's grid
# points inside its domain, then its jets inside, and for the other two forms
# their jets alone; the dynamics suite takes its phases' records from one
# trajectory_samples call, and the NaN lands in the second phase's record
NAN_PLANTS = {
    "tetrad-relations": (cli, "tetrad_relations",
                         lambda d: {**d, "kk": _with_nan(d["kk"])}),
    "tetrad-gram-det": (cli, "gram_det", _with_nan),
    "gauge-invariance": (cli, "iota", _with_nan),
    "scalar-identities": (cli, "identity_checks",
                          lambda d: {**d, "kdkd+ak2+bk2": _with_nan(d["kdkd+ak2+bk2"])}),
    "fundamental-conditions": (noether, "casimirs_from_partials", _nan_closed_form(
        cli.FUNDAMENTAL_GRID**2 + cli.CASIMIR_JETS)),
    "noether-crosscheck": (noether, "casimirs_from_partials",
                           _nan_closed_form(-cli.CASIMIR_JETS)),
    "wp-orthogonality": (cli, "momenta",
                         lambda ms: dataclasses.replace(ms, pi=_with_nan(ms.pi))),
    "degenerate-hessians": (cli, "hessians", _nan_report(0)),
    "nu-family-rank-4": (cli, "hessians", _nan_rank),
    "nondegenerate-dets": (cli, "hessians", _nan_report(2)),
    "relation-consistency": (cli, "relation_check", lambda r: (r[0], _with_nan(r[1]))),
    "free-motion-el-residuals": (cli, "trajectory_samples", _in_second_phase(
        lambda s: dataclasses.replace(
            s, el=dataclasses.replace(s.el, residuals=_with_nan(s.el.residuals))))),
    "free-motion-conservation": (cli, "charge_drift", lambda d: {**d, "W_drift": np.nan}),
    "indeterminism-divergence": (cli, "trajectory_samples", _in_second_phase(
        lambda s: dataclasses.replace(s, x=_with_nan(s.x)))),
    "angular-speed-identity": (cli, "angular_speed", _with_nan),
}
# the degeneracy suite takes the Hessians of its six DOF5 forms over its batch
# of states in one call, two singular forms (the rotator, then the nu-family)
# then four nondegenerate ones, and those of the DOF6 starlike, then the five
# relation forms, in a second: the NaN lands in the first nondegenerate
# form's report of the first call, in the starlike's, or in the nu-family's
# rank; a rank counts singular
# values, so a NaN Hessian has rank 0 and fails with a gap of 4, and the
# NaN planted in the count checks that the gap's maximum keeps it; it calls
# relation_check once, and the NaN lands in the first form's K at the first
# state; the rotator, first, is defined at each of the 144 grid points and 25
# jets, so the fundamental-conditions NaN lands in the second form's grid, at
# its first point, and the noether-crosscheck NaN, 25 entries from the end,
# in the closed form at the first jet of F = Q, which has no grid and is
# defined at every jet; the wp-orthogonality NaN lands in pi of the second
# pair's momenta, and so in its W and W.P
POISONED_CALL = {"tetrad-relations": 1, "tetrad-gram-det": 1, "scalar-identities": 1,
                 "fundamental-conditions": 1, "noether-crosscheck": 1,
                 "nu-family-rank-4": 1, "nondegenerate-dets": 1,
                 "relation-consistency": 1, "free-motion-el-residuals": 1,
                 "indeterminism-divergence": 1}
# the checks no NaN can reach, and why
NO_NAN_PLANT = {
    "count-invariants": "its residual is a sum of integer gaps of matrix ranks from the "
                        "expected counts; a rank is a count, which no NaN sample makes NaN",
}


def test_every_check_has_a_nan_plant_or_a_reason():
    assert [c for c in cli.CHECKS if c not in NO_NAN_PLANT] == list(NAN_PLANTS)
    assert set(NO_NAN_PLANT) <= set(cli.CHECKS)


def _plant_nan(monkeypatch, check):
    """Install the NaN plant of ``check``; returns the calls of its function."""
    owner, name, poison = NAN_PLANTS[check]
    original = getattr(owner, name)
    calls = []
    at = POISONED_CALL.get(check, 2)

    def planted(*args, **kwargs):
        calls.append(name)
        out = original(*args, **kwargs)
        return poison(out) if len(calls) == at else out

    monkeypatch.setattr(owner, name, planted)
    return calls


def _assert_nan_fails(capsys, check, calls):
    code, out = run(capsys, "verify", "--suite", cli.CHECKS[check][0], "--seed", "0")
    assert len(calls) >= POISONED_CALL.get(check, 2)
    assert code == 1
    block = next(b for b in out.split("\n\n") if f"name = {check}\n" in b)
    assert "status = fail" in block and "residual = nan" in block


@pytest.mark.parametrize("check", NAN_PLANTS)
def test_a_nan_sample_fails_its_check(capsys, monkeypatch, check):
    _assert_nan_fails(capsys, check, _plant_nan(monkeypatch, check))


@pytest.mark.parametrize("check", [c for c, (suite, _) in cli.CHECKS.items()
                                   if suite == "dynamics"])
def test_a_dynamics_nan_plant_fails_after_a_warm_run_once_the_memo_is_cleared(
        capsys, monkeypatch, check):
    """After a warm run the memo answers, so a plant installed then is not
    called and the check passes; cleared, the suite runs and the NaN fails it."""
    assert run(capsys, "verify", "--suite", "dynamics", "--seed", "0")[0] == 0
    calls = _plant_nan(monkeypatch, check)
    code, out = run(capsys, "verify", "--suite", "dynamics", "--seed", "1")
    assert (code, calls, out.count("status = pass")) == (0, [], 4)
    cli._dynamics_checks.cache_clear()
    _assert_nan_fails(capsys, check, calls)


def test_relation_consistency(capsys):
    code, out = run(capsys, "relation", "--states", "3", "--seed", "2")
    assert code == 0
    assert "status = pass" in out


@pytest.mark.parametrize("forms", [["Q"], ["0", "0"]], ids=["Q", "0-0"])
def test_relation_fails_when_no_state_compares_two_forms(capsys, forms):
    # no state has two admissible forms, so no spread was measured
    code, out = run(capsys, "relation", "--forms", *forms)
    assert code == 1
    assert "status = fail" in out and "residual = inf" in out
    assert "inputs.admissible = 0" in out


def test_simulate_conservation(capsys):
    code, out = run(capsys, "simulate", "--f", "Q", "--periods", "3")
    assert code == 0
    assert "conservation-drift" in out
    assert "status = pass" in out


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("form", ["Q", "Q^2"])
def test_simulate_report_does_not_depend_on_out(tmp_path, capsys, form, seed):
    argv = ["simulate", "--f", form, "--periods", "1", "--seed", seed]
    plain = run(capsys, *argv)
    path = tmp_path / "traj.csv"
    assert run(capsys, *argv, "--out", str(path)) == plain
    assert plain[0] == 0 and path.read_text().count("\n") == 51


@pytest.mark.parametrize("argv", [
    pytest.param(["casimir", "--f", "Q*1e308*10"], id="Q*1e308*10"),
    pytest.param(["casimir", "--f", "1e200*Q^2"], id="1e200*Q^2"),
    pytest.param(["hessian", "--f", "1e300*Q^3"], id="hessian-1e300*Q^3"),
    pytest.param(["hessian", "--f", "Q*1e308*10"], id="hessian-Q*1e308*10"),
    pytest.param(["hessian", "--f", "rotator", "--M", "1631524070317519.8",
                  "--ell", "1.3967714046445984e-114"], id="hessian-sqrt-underflow"),
])
def test_casimir_fails_on_non_finite_values(capsys, argv):
    # F overflows in Q*1e308*10, so its partials, Casimirs and Hessian are
    # not numbers; F is finite but PP and WW overflow in 1e200*Q^2, and the
    # Hessian determinant in 1e300*Q^3; at these scales the second derivative
    # of sqrt(Q) underflows to -inf.  The report says so, and no
    # floating-point warning reaches stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert "status = fail" in out and "residual = inf" in out
    assert err == "" and caught == []


def test_simulate_degenerate_form_aborts(capsys):
    code = main(["simulate", "--f", "rotator"])
    assert code == 2
    assert "singular" in capsys.readouterr().err


def test_simulate_integration_failure_exits_2(capsys):
    # the integrator's step size collapses on 1 + Q + P^2; the same state
    # integrates in the DOF6 chart (ROADMAP item 16)
    code = main(["simulate", "--f", "1+Q+P^2", "--periods", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: integration failed") and "Traceback" not in err


# README: simulate integrates in the DOF5 chart with K held at 1, which is
# the Euler-Lagrange system only when F does not depend on P; from the same
# state, integrating in the DOF6 chart conserves PP and WW to 2e-10
@pytest.mark.xfail(strict=True, reason="simulate holds K = 1, exact only for f(Q) members")
def test_simulate_conserves_casimirs_of_a_p_dependent_form(capsys):
    code, out = run(capsys, "simulate", "--f", "Q+P*Q", "--periods", "1")
    assert code == 0, out


def run_fresh(*args):
    """A fresh interpreter on this checkout's rotorlab, however pytest was
    started; a timeout, so that a hang fails instead of stalling the run."""
    env = {**os.environ, "PYTHONPATH": str(Path(rotorlab.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("form", ["1e308", "(6)+(((Q)+(1e308))/(-1))"])
def test_simulate_unsolvable_hessian_exits_2(form):
    # the QR of H overflows at t = 0, and a NaN acceleration used to stall DOP853
    proc = run_fresh("-m", "rotorlab.cli", "simulate", "--f", form, "--periods", "0.05")
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_simulate_non_finite_hessian_exits_2(capsys):
    # F overflows to inf at the start state; its Hessian used to read as
    # vanishing ("every coordinate is inert")
    assert exit_code(["simulate", "--f", "Q*1e308*1e10", "--periods", "0.05"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: velocity Hessian not solvable in floating point")
    assert "inert" not in err and "Traceback" not in err


def test_simulate_oscillatory_form_spends_its_budget_and_exits_2():
    # DOP853 creeps along this form at about 10^5 right-hand-side calls per
    # unit of lab time; it used to run for minutes
    proc = run_fresh("-m", "rotorlab.cli", "simulate", "--f",
                     "((2.5)*(Q))-(sin((2398)*(P)))", "--periods", "0.05")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: integration stopped after ")
    assert "right-hand-side calls" in proc.stderr and " at t = " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("form, why", [
    ("1e308", "velocity Hessian not solvable in floating point (acceleration not finite)"),
    ("Q*1e308*1e10", "velocity Hessian not solvable in floating point "
                     "(Hessian or force not finite)"),
    ("rotator", "velocity Hessian singular (R diagonal ratio "),
    ("1+Q+P^2", "integration failed (Required step size is less than spacing "
                "between numbers)"),
    ("Q", "integration stopped after 100 right-hand-side calls (the budget for "),
    ("0", "every coordinate is inert for parsed:0 (velocity Hessian and force vanish)"),
])
def test_every_stalled_solve_names_its_state(monkeypatch, capsys, form, why):
    if form == "Q":  # a budget of 100 calls, spent long before --periods 1 ends
        monkeypatch.setattr(dynamics, "RHS_CALLS_FLOOR", 100)
        monkeypatch.setattr(dynamics, "RHS_CALLS_PER_TIME", 0)
    raised = []

    def integrate(*args):
        try:
            return dynamics.integrate(*args)
        except dynamics.SingularHessianError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(cli, "integrate", integrate)
    assert exit_code(["simulate", "--f", form, "--periods", "1"]) == 2
    err = capsys.readouterr().err
    (e,) = raised
    assert err == f"error: {e}\n" and err.startswith(f"error: {why}")
    s = e.state
    assert err.endswith(f" at t = {s['t']:.6g}: q = {dynamics._floats(s['q'])}, "
                        f"qd = {dynamics._floats(s['qd'])}\n")
    assert isinstance(s["t"], float) and len(s["q"]) == len(s["qd"]) == 5


STARTUP_PROBE = """
import contextlib, io, json, sys
from rotorlab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

codes = [run(argv) for argv in json.loads(sys.argv[1])]
before = scipy_modules()
simulate = run(["simulate", "--periods", "0.05"])
print(json.dumps({"codes": codes, "before": before, "simulate": simulate,
                  "after": scipy_modules()}))
"""


def test_only_simulate_loads_scipy():
    """The seven other commands load no scipy.  simulate loads two modules
    of scipy by themselves: the LAPACK extension, for the QR solve, and the
    DOP853 coefficients, for rotorlab's integrator; neither the scipy.linalg
    nor the scipy.integrate package."""
    commands = [["verify", "--suite", "all", "--seed", "0"], ["freemotion", "--samples", "3"],
                ["casimir", "--f", "Q"], ["hessian", "--f", "Q"], ["relation", "--states", "1"],
                ["fundamental-check", "--f", "rotator", "--grid", "3"], ["count-invariants"]]
    proc = run_fresh("-c", STARTUP_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(commands)
    assert got["before"] == []
    assert got["simulate"] == 0
    assert got["after"] == ["scipy.integrate._ivp.dop853_coefficients", "scipy.linalg._flapack"]


LAPACK_PROBE = """
from rotorlab import dynamics
ours = dynamics._lapack()
import scipy.linalg.lapack as lapack
print([a is b for a, b in zip(ours, (lapack.dgeqrf, lapack.dormqr, lapack.dtrtrs,
                                    lapack.dlange), strict=True)])
"""


def test_the_solve_uses_scipys_own_lapack_routines():
    """The extension that the solve loads by itself is the module scipy.linalg
    imports later: one LAPACK in the process, the same routine objects."""
    proc = run_fresh("-c", LAPACK_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True, True]\n"


TABLEAU_PROBE = """
import sys
from rotorlab import dop853
if sys.argv[1] == "rotorlab":
    ours = dop853._tableau()
from scipy.integrate._ivp import dop853_coefficients, rk
if sys.argv[1] == "scipy.integrate":
    ours = dop853._tableau()
print(ours is dop853_coefficients is rk.dop853_coefficients is sys.modules[ours.__name__])
"""


@pytest.mark.parametrize("first", ["rotorlab", "scipy.integrate"])
def test_one_dop853_tableau_in_either_import_order(first):
    """Whether rotorlab loads scipy's DOP853 coefficients before scipy.integrate
    is imported or after, the process holds one such module, the one scipy's
    own DOP853 reads: the source is not run a second time."""
    proc = run_fresh("-c", TABLEAU_PROBE, first)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("ell", ["1e-100", "1e-8", "0.001", "1.5", "2", "1000"])
def test_verify_dynamics_passes_in_units_of_ell(capsys, ell):
    """The dynamics suite draws its phases, angular speeds and divergence
    target in units of ell, so no valid ell is bad input or a failure."""
    code, out = run(capsys, "verify", "--suite", "dynamics", "--ell", ell)
    assert code == 0
    assert out.count("[check]") == out.count("status = pass") == 4
    assert f"inputs.target = {0.05 * float(ell):.17g}\n" in out


def test_freemotion_writes_trajectory(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out = run(capsys, "freemotion", "--phase", "t", "--tmax", "10",
                    "--samples", "21", "--out", str(out_file))
    assert code == 0
    assert "status = fail" not in out
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("t,x0")
    assert len(lines) == 22


def residuals(doc):
    """The residual of each report of a document, by check name."""
    return {re.search(r"^name = (.*)$", block, re.M)[1]:
            float(re.search(r"^residual = (.*)$", block, re.M)[1])
            for block in doc.split("[check]")[1:]}


def test_each_suite_phase_reruns_as_a_freemotion_command(capsys):
    """At ell = M = 1, ``freemotion --phase E`` at its defaults (``--tmax 20
    --samples 81``) reruns the dynamics suite's phase E bit for bit: each of
    the suite's free-motion residuals is the largest of the three commands'."""
    suite = residuals(run(capsys, "verify", "--suite", "dynamics")[1])
    commands = [residuals(run(capsys, "freemotion", "--phase", e)[1])
                for e in cli.FREE_MOTION_PHASES]
    for check, command in (("free-motion-el-residuals", "freemotion-el-residuals"),
                           ("free-motion-conservation", "freemotion-conservation")):
        assert suite[check] == max(r[command] for r in commands) > 0.0


@pytest.mark.parametrize("argv, band", [
    (["--phase", "1e-13*t"], "(2e-12, 2.0)"),  # under the speed floor
    (["--phase", "t", "--ell", "1e-150"], "(2e+138, 2e+150)"),
], ids=["slow-phase", "small-ell"])
def test_phase_speed_error_names_the_band_it_checks(capsys, argv, band):
    """The band in the message is the one checked: from the speed floor
    SPEED_FLOOR 2/ell, not from 0, up to 2/ell."""
    assert exit_code(["freemotion", *argv]) == 2
    assert f" outside {band} (batch entry 0)\n" in capsys.readouterr().err


def test_parser_is_built_once_and_dispatches_at_call_time(capsys, monkeypatch):
    """One parser per process; each call looks up the current ``cmd_*``
    function, so a replacement made between calls is the one that runs."""
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    for name in ("first", "second"):
        monkeypatch.setattr(cli, "cmd_count",
                            lambda args, cfg, name=name: [Report(name, 0.0, 0.0)])
        code, out = run(capsys, "count-invariants")
        assert code == 0 and f"name = {name}\n" in out
    assert len(built) == 1
    # a bad flag after a successful call is still rejected by argparse
    assert exit_code(["count-invariants", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("ROTORLAB_SEED", "9")
    _, out = run(capsys, "count-invariants")
    assert "seed = 9" in out


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("seed = 4\nell = 1.25\n# comment\n")
    _, out = run(capsys, "freemotion", "--config", cfg, "--tmax", "3",
                 "--samples", "7")
    assert "seed = 4" in out
    _, out = run(capsys, "freemotion", "--config", cfg, "--seed", "8",
                 "--tmax", "3", "--samples", "7")
    assert "seed = 8" in out


def test_report_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    _, out = run(capsys, "count-invariants", "--report-out", str(path))
    assert path.read_text() == out


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(M=-1.0)
    with pytest.raises(ValueError):
        RunConfig(ell=0.0)


def test_report_status_rule():
    assert Report("x", 1e-12, 1e-10).status == "pass"
    assert Report("x", 1e-9, 1e-10).status == "fail"
    doc = render_reports([Report("x", 0.0, 1.0, 3, {"n": 2})])
    assert "name = x" in doc and "inputs.n = 2" in doc


@pytest.mark.parametrize("line", ["not a key value line", "foo = 1", "out = x.csv",
                                  "tolerance.el = 1e-7"],
                         ids=["no-equals", "unknown-key", "out-key", "tolerance-key"])
def test_load_config_rejects_bad_lines(tmp_path, capsys, line):
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(f"seed = 1\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")) as exc:
        load_config(path)
    if "=" in line:  # the error names the unknown key
        assert repr(line.split("=")[0].strip()) in str(exc.value)
    assert main(["count-invariants", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hessian", "--f", "Q", "--state", "bogus"],
    ["fundamental-check", "--f", "nu_family", "--grid", "0"],
    ["relation", "--states", "0"],
    ["relation", "--forms"],  # no expression: not the default forms
    ["simulate", "--periods", "0"],
    ["simulate", "--periods", "-1"],
    ["simulate", "--periods", "inf"],
    # F = 0: every coordinate is inert, so nothing would be integrated or checked
    ["simulate", "--f", "0", "--periods", "0.5"],
    ["simulate", "--f", "sin((Q)-(Q))", "--periods", "0.5"],
    ["freemotion", "--samples", "0"],
    ["freemotion", "--tmax", "nan"],
    ["freemotion", "--tmax", "inf"],
    ["freemotion", "--phase", "1"],  # a constant phase: the null direction never turns
    # a phase that fails at one time of the batch: division by zero, overflow,
    # the square root of a negative number
    ["freemotion", "--phase", "t+0.01/(t-1)", "--tmax", "2", "--samples", "3"],
    ["freemotion", "--phase", "t+exp(t*800)*0", "--tmax", "2", "--samples", "3"],
    ["freemotion", "--phase", "t+0.1*sqrt(t-1)", "--tmax", "2", "--samples", "3"],
    ["casimir", "--f", "Q", "--Q", "nan"],
    ["casimir", "--f", "Q", "--P", "inf"],
    ["casimir", "--f", "Q", "--M", "nan"],
    ["casimir", "--f", "6^2398"],
    ["casimir", "--f", "exp(Q)", "--Q", "1000"],
    ["casimir", "--f", "0^-1"],
    ["casimir", "--f", "Q^P"],  # the exponent's derivatives would be dropped
    ["casimir", "--f", "Q#"],  # a character the tokenizer does not know
    ["casimir", "--f", "(" * 2000 + "Q" + ")" * 2000],
    ["casimir", "--f", "+".join(["Q"] * 2000)],
    # names of no builtin: an unknown name in an expression
    ["casimir", "--f", "sqrtS"],
    ["casimir", "--f", "fq"],
    # scales M^2 or M^4 ell^2 outside the floating-point range
    ["freemotion", "--M", "1e160"],
    ["verify", "--suite", "casimir", "--M", "1e200"],
    ["casimir", "--f", "rotator", "--M", "1e200"],
    ["simulate", "--M", "1e200", "--periods", "0.1"],
    ["casimir", "--f", "rotator", "--M", "1e-100"],
    # a report file that cannot be written: a missing directory, a directory
    ["count-invariants", "--report-out", "/nonexistent/dir/x"],
    ["count-invariants", "--report-out", "."],
])
def test_bad_input_exits_2(capsys, argv):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    *([cmd, "--f", "nu_family", "--nu", "1e200"] for cmd in ("casimir", "hessian", "simulate")),
    ["relation", "--forms", "nu_family", "Q", "--nu", "1e200"],
    ["casimir", "--f", "Q^400", "--Q", "1e10"],
], ids=["casimir", "hessian", "simulate", "relation", "casimir-Q^400"])
def test_an_overflow_exits_2_with_its_message_in_words(capsys, argv):
    """An OverflowError of a float power holds (errno, message): the report
    prints the message, not the tuple."""
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("Numerical result out of range\n")
    assert "(34," not in err


def _expressions_over(*names):
    leaves = st.sampled_from([*names, "0", "1", "2.5", "-1", "6", "1e308", "1e-320", "2398"])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "-"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
    ), max_leaves=10)


_expressions = _expressions_over("P", "Q", "nu")
# the alphabet holds t too, so that the text also reads as a phase over t
_text = st.text(alphabet="PQnu0123456789.e+-*/^() sqrtxpinco,", max_size=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=st.one_of(_expressions, _text), Q=st.sampled_from(["0", "1e-3", "1", "1000"]))
def test_casimir_fuzz_exit_codes(expr, Q):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = exit_code(["casimir", f"--f={expr}", "--Q", Q])
    assert code in (0, 1, 2)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(expr=st.one_of(_expressions, _text), periods=st.sampled_from(["0.01", "0.05"]))
def test_simulate_fuzz_exit_codes(expr, periods):
    """simulate on any expression exits 0, 1 or 2 without a traceback, and
    makes at most its budget of right-hand-side calls, plus the one of its
    start-up check; a run that finishes counted at least one, so the count
    does watch the right-hand side."""
    spans, calls = [], [0]

    def integrate(F, initial, t_span, *args):
        spans.append(abs(t_span[1] - t_span[0]))
        return dynamics.integrate(F, initial, t_span, *args)

    def counted(*args):
        calls[0] += 1
        return hessian_and_force(*args)

    hessian_and_force = dynamics._hessian_and_force
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr(cli, "integrate", integrate)
        mp.setattr(dynamics, "_hessian_and_force", counted)
        code = exit_code(["simulate", f"--f={expr}", "--periods", periods])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    budget = [dynamics.RHS_CALLS_FLOOR + dynamics.RHS_CALLS_PER_TIME * s for s in spans]
    assert calls[0] <= 1 + sum(budget)
    assert code != 0 or calls[0] > 0


@settings(max_examples=250, deadline=None, derandomize=True)
@given(expr=st.one_of(_expressions_over("t"), _text))
def test_freemotion_phase_fuzz_exit_codes(expr):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = exit_code(["freemotion", f"--phase={expr}", "--tmax", "3", "--samples", "4"])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


# hessian, relation and fundamental-check differentiate L by one chain step
# from F's partials at (P, Q); the expressions make that step meet constant
# forms, partials that overflow and 0 * inf; the odd grid holds P = 0, the
# edge of many domains.  A leading space keeps an expression that starts
# with "-" from reading as an option of --forms.
@settings(max_examples=350, deadline=None, derandomize=True)
@given(expr=st.one_of(_expressions, _text),
       argv=st.sampled_from([["hessian", "--f={}", "--dof", "5"],
                             ["hessian", "--f={}", "--dof", "6"],
                             ["relation", "--states", "2", "--forms", "Q+P*Q", " {}"],
                             ["fundamental-check", "--f={}", "--grid", "4"],
                             ["fundamental-check", "--f={}", "--grid", "3"]]))
def test_chain_fuzz_exit_codes(expr, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = exit_code([a.format(expr) for a in argv])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


_log_scale = st.floats(-300.0, 300.0).map(lambda e: repr(10.0 ** e))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(M=_log_scale, ell=_log_scale,
       argv=st.sampled_from([["casimir", "--f", "rotator"], ["casimir", "--f", "Q^2+P"],
                             ["casimir", "--f", "starlike"], ["hessian", "--f", "rotator"],
                             ["fundamental-check", "--f", "nu_family", "--grid", "3"],
                             ["freemotion", "--samples", "3", "--tmax", "1"]]))
def test_scale_fuzz_exit_codes(M, ell, argv):
    """Any M and ell from 1e-300 to 1e300 exit 0, 1 or 2, never by an
    exception."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = exit_code([*argv, "--M", M, "--ell", ell])
    assert code in (0, 1, 2)
