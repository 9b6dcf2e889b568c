import ast
import gc
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from rotorlab import fform, jets
from rotorlab.degeneracy import DOF5, DOF6, chart_scalar_jets, chart_states, random_chart_state
from rotorlab.fform import (
    BUILTIN_NAMES,
    BUILTINS,
    ParseError,
    PQPoint,
    builtin,
    lagrangian_from_scalars,
    lagrangian_from_vectors,
    parse_f,
    parse_phase,
    pq_from_scalars,
    pq_from_vectors,
)
from rotorlab.invariants import random_kinematic_jet
from rotorlab.minkowski import DomainError
from conftest import same_bits
from references import evaluates
from test_cli import _expressions


def fd_partials(F, P, Q, h=1e-6):
    f = F.func
    FP = (f(P + h, Q) - f(P - h, Q)) / (2 * h)
    FQ = (f(P, Q + h) - f(P, Q - h)) / (2 * h)
    return FP, FQ


# text -> its exact value at (P, Q) = (0.5, 4.0)
PARSED_VALUES = [
    ("1 + 2*Q - Q/4", 8.0), ("sqrt(Q)*(2+Q)", 12.0),
    ("2^3^2", 512.0), ("-2^2", -4.0), ("2^-1", 0.5), ("2^-2^2", 0.0625),  # ^ is right-associative
    ("-Q^2", -16.0), ("P*Q^2", 8.0), ("1-2-3", -4.0), ("P/Q*2", 0.25),
    ("01", 1.0), ("007", 7.0), ("1e-01", 0.1), (".5", 0.5), ("5.", 5.0), ("1E+2", 100.0),
    ("sqrt (Q)", 2.0), ("+Q", 4.0), ("\t1 +\n 2*Q\t- Q/4\n", 8.0), (" \n -P", -0.5),
    ("1." + "9" * 5000, 2.0),  # a fraction has no digit limit
]


def test_parser_values_and_precedence():
    for text, want in PARSED_VALUES:
        F = parse_f(text)
        got = F.func(0.5, 4.0)
        assert (got, type(got), F.eval(0.5, 4.0).F) == (want, float, want), text
    for text in ("9^9^9", "2398^2398"):  # float powers: they overflow, not grow an int
        with pytest.raises(DomainError, match="OverflowError"):
            parse_f(text).func(0.5, 4.0)


def test_parser_nu_substitution():
    F = parse_f("nu*P + sqrt(1 + sqrt(Q) - nu^2*Q)", nu=0.5)
    assert F.func(0.2, 0.3) == pytest.approx(
        0.5 * 0.2 + np.sqrt(1 + np.sqrt(0.3) - 0.25 * 0.3))


PARSE_ERRORS = [
    "1 + * Q", "foo(Q)", "R + Q", "1 + (Q", "Q Q", "P**2", "P* *2", "P//Q", "P%Q", "0x10",
    "1_000", "1j", "True", "P if Q else 1", "P.real", "(P)(Q)", "(sqrt)(Q)", "sqrt(P, Q)",
    "sqrt(x=P)", "sqrt(Q,)", "sqrt()", "abs(P)", "[P]", "P < Q", "lambda: P", '"P"', "\x00",
    "1or Q", "(" * 300 + "P" + ")" * 300, "-" * 5000 + "P", "Q^" * 5000 + "Q",
    "9" * 5000, "Q+" + "9" * 5000,
]
# an integer past Python's 4,300 digits, at the literal's first character
TOO_LONG = {"9" * 5000: 0, "Q+" + "9" * 5000: 2, "Q+0" + "9" * 5000: 2}


def test_parser_errors_carry_positions():
    for text in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_f(text)
        assert 0 <= e.value.pos < len(text), text[:20]
        assert str(e.value).endswith(f" (at position {e.value.pos})")
    for text, pos in TOO_LONG.items():
        with pytest.raises(ParseError) as e:
            parse_f(text)
        assert (str(e.value), e.value.pos) == (f"number too long (at position {pos})", pos)


def test_parse_phase_over_t():
    ph = parse_phase("t + 0.1*(t - sin(t))")
    (tj,) = jets.variables(2.0)
    out = ph(tj)
    assert out.f == pytest.approx(2.0 + 0.1 * (2.0 - np.sin(2.0)))
    assert out.g[0] == pytest.approx(1.0 + 0.1 * (1.0 - np.cos(2.0)))
    with pytest.raises(ParseError):
        parse_phase("P + t")


# the CLI fuzz alphabet and characters that only Python reads, and words and
# literals of Python that are not the language's
_PYTHON_TEXT = st.one_of(
    st.text(alphabet="PQnu0123456789.e+-*/^() sqrtxpinco,_jx#[]<=:'\";\t\n", max_size=24),
    st.lists(st.sampled_from(["P", "Q", "nu", "sqrt", "(", ")", "^", "*", "**", "-", "+", "/",
                              "//", "01", "1e-01", "0x10", "1_0", "1j", "2", " ", "\t", "\n",
                              ",", ".", "if", "else", "or", "not", "in", "lambda", ":", "True",
                              "..."]), max_size=12).map("".join),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.one_of(_expressions, _PYTHON_TEXT))
@example(text="1or Q")  # Python warns on this text
def test_parse_f_returns_a_form_or_raises_a_parse_error(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            assert isinstance(parse_f(text), fform.FForm)
        except ParseError as e:
            assert 0 <= e.pos <= len(text)
    assert caught == []


def _mask(F, points):
    """The domain mask that ``F.eval_inside`` finds over a batch of float
    (P, Q) points, at the order the closed-form Casimirs read."""
    P, Q = (np.array(v, dtype=float) for v in zip(*points))
    return F.eval_inside(P, Q, order=1)[0].tolist()


def test_domain_respects_sqrt_and_division():
    F = parse_f("sqrt(Q - 1)")
    points = [(0.0, 2.0), (0.0, 0.5)]
    assert _mask(F, points) == [evaluates(F, *pt) for pt in points] == [True, False]
    F = parse_f("1/P")
    assert _mask(F, [(0.0, 1.0)]) == [evaluates(F, 0.0, 1.0)] == [False]


@pytest.mark.parametrize("p", [65, 66, -66])
def test_a_whole_power_above_64_keeps_the_whole_line(p):
    """P^p for a whole |p| > 64 is x^p, twice differentiable at P < 0 as at
    P > 0; P^-66 at P = 0 stays outside the domain, for its zero divisor."""
    v = parse_f(f"P^{p}").eval(-0.5, 1.0)
    want = ((-0.5) ** p, p * (-0.5) ** (p - 1), p * (p - 1) * (-0.5) ** (p - 2))
    assert (v.F, v.F_P, v.F_PP) == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)
    assert (v.F_Q, v.F_PQ, v.F_QQ) == (0.0, 0.0, 0.0)
    F = parse_f("P^-66")
    assert _mask(F, [(0.0, 1.0)]) == [evaluates(F, 0.0, 1.0)] == [False]
    with pytest.raises(DomainError, match="ZeroDivisionError"):
        F.eval(0.0, 1.0)


@pytest.mark.parametrize("F", [parse_f("sqrt(Q - 1)"), builtin("starlike", signs=(1, -1)),
                               builtin("point_particle")], ids=lambda F: F.name)
def test_domain_mask_takes_the_batch_shape(F):
    # a bool array of the batch shape, entry by entry the float answer and
    # that of the entry as a batch of one, also for a domain that ignores (P, Q)
    P, Q = np.array([0.0, 0.3, -0.2, 0.1]), np.array([2.0, 0.5, 9.0, 1.5])
    mask = F.eval_inside(P, Q, order=1)[0]
    assert mask.dtype == bool and mask.shape == P.shape
    assert mask.tolist() == [evaluates(F, p, q) for p, q in zip(P.tolist(), Q.tolist())]
    alone = [F.eval_inside(P[i:i + 1], Q[i:i + 1], order=1)[0] for i in range(P.size)]
    assert all(m.dtype == bool and m.shape == (1,) for m in alone)
    assert [m.item() for m in alone] == mask.tolist()


# every builtin, and the expressions of an S(Q) and an f(Q) member
DOMAIN_BUILTINS = [
    builtin("point_particle"), builtin("rotator_f"),
    *(builtin("starlike", signs=s) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))),
    *(builtin("nu_family", nu=nu, signs=s)
      for nu in (0.0, 0.5, 2.0) for s in ((1, 1), (1, -1))),
    parse_f("sqrt(1 + P*P/Q)*(1 + Q)"), parse_f("sqrt(Q)"),
]
_EDGE = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))  # 0, -0, subnormals, ...


def _why(F, P, Q):
    """The message of the DomainError that F's own evaluation on jets raises
    at a float (P, Q) outside its domain."""
    with pytest.raises(DomainError) as info:
        F.func(*jets.variables(P, Q))
    return str(info.value)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(F=st.one_of(st.sampled_from(DOMAIN_BUILTINS), _expressions.map(parse_f)),
       points=st.lists(st.tuples(_EDGE, _EDGE), min_size=1, max_size=3))
# where a batch entry and a float used to part: 1 / 0 and cos(inf) in a
# batch, and a float Q whose cube underflows in P^2 / Q
@example(F=parse_f("(P)^(-1)"), points=[(1.0, 1.0), (0.0, 1.0)])
@example(F=parse_f("cos((1e308)*(10)*(P))"), points=[(0.0, 1.0), (0.5, 1.0)])
@example(F=builtin("starlike"), points=[(0.3, 1.0), (0.3, 1e-200)])
def test_domain_is_where_eval_returns(F, points):
    """The mask of F.eval_inside holds exactly where F.eval(P, Q) returns, for
    builtins and expressions, at P = 0 and Q = 0 too, for each point as a
    batch of one; a batch mask is its entries' answers, and a batch evaluates
    exactly when every entry does, or names the first that does not and why
    it fails."""
    P, Q = (np.array(v) for v in zip(*points))
    with np.errstate(all="ignore"):
        ok = [evaluates(F, p, q) for p, q in points]
        assert [_mask(F, [pt]) for pt in points] == [[o] for o in ok]
        assert _mask(F, points) == ok
        if all(ok):
            F.eval(P, Q)
        else:
            i = ok.index(False)
            why = re.escape(_why(F, *points[i]))
            with pytest.raises(DomainError, match=rf"\(batch entry {i}\): {why}$"):
                F.eval(P, Q)


def test_a_refusal_that_names_no_entry_is_settled_entry_by_entry():
    """math.exp overflows inside one batch entry and names none: each entry is
    evaluated alone, the one that refuses is dropped and the rest run once
    more.  An exponent that depends on P refuses at every entry.  A refusal
    of the batch that no entry makes alone (here numpy's overflow of Q*Q,
    raised under errstate, while a float's Q*Q is inf) is raised."""
    F, runs = parse_f("exp(Q)"), []

    def counted(P, Q):
        runs.append(np.shape(P.f))
        return F.func(P, Q)

    P, Q = np.array([0.5, 0.0, -1.0]), np.array([1.0, 1000.0, 2.0])
    inside, v = fform.FForm(counted).eval_inside(P, Q, order=1)
    assert inside.tolist() == [True, False, True] and runs == [(3,), (), (), (), (2,)]
    assert same_bits(v.F_Q, np.array([F.eval(0.5, 1.0).F_Q, F.eval(-1.0, 2.0).F_Q]))
    inside, v = parse_f("Q^P").eval_inside(P[:2], Q[:2])
    assert inside.tolist() == [False, False] and v is None
    with np.errstate(over="raise"), pytest.raises(DomainError, match="^FloatingPointError"):
        parse_f("Q*Q").eval_inside(P[:2], np.array([1e200, 2.0]))


def test_refusing_steps_of_eval_inside_leave_no_frame_in_a_cycle():
    """A refusal raised by ``jets.raise_where`` is not kept in a local of the
    raising frame, so each refusing step of ``eval_inside`` leaves no cycle
    of frames for the cyclic collector: freed as soon as it is handled."""
    gc.collect()
    gc.disable()
    try:
        inside, _ = parse_f("sqrt(1-P^2)+Q").eval_inside(np.linspace(-2.0, 2.0, 41),
                                                          np.ones(41), order=1)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        frames = [o for o in gc.garbage if isinstance(o, types.FrameType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert 0 < inside.sum() < inside.size and frames == []


def test_batch_eval_names_the_entry_outside_the_domain():
    # a builtin's error, as an expression's, ends with its failing step
    F = builtin("starlike", signs=(1, -1))
    P, Q = np.array([0.1, 0.2, 0.3]), np.array([0.5, 9.0, 16.0])
    why = r": sqrt needs a positive argument, got -2\.008888888888889$"
    with pytest.raises(DomainError, match=r"^\(P, Q\) = \(0\.2, 9\.0\) outside domain "
                                          r"of starlike\[\+1,-1\] \(batch entry 1\)" + why):
        F.eval(P, Q)
    with pytest.raises(DomainError, match=r"^\(P, Q\) = \(0\.2, 9\.0\) outside domain "
                                          r"of starlike\[\+1,-1\]" + why):
        F.eval(0.2, 9.0)


def test_eval_partials_match_finite_differences():
    rng = np.random.default_rng(0)
    forms = [parse_f("sqrt(1 + sqrt(Q))"), parse_f("Q + P*Q + P^2"),
             builtin("starlike"), builtin("nu_family", nu=0.4)]
    for F in forms:
        for _ in range(10):
            P, Q = rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0)
            if not evaluates(F, P, Q):
                continue
            v = F.eval(P, Q)
            FP, FQ = fd_partials(F, P, Q)
            assert v.F_P == pytest.approx(FP, rel=1e-6, abs=1e-8)
            assert v.F_Q == pytest.approx(FQ, rel=1e-6, abs=1e-8)


def test_builtin_rotator_value():
    F = builtin("rotator_f")
    assert F.eval(0.0, 4.0).F == pytest.approx(np.sqrt(3.0))
    assert F.eval(0.7, 4.0).F_P == 0.0


def test_nu_family_at_zero_equals_rotator():
    nu0 = builtin("nu_family", nu=0.0)
    rot = builtin("rotator_f")
    for P, Q in [(0.0, 1.0), (0.4, 2.5), (-0.3, 0.2)]:
        assert nu0.eval(P, Q).F == pytest.approx(rot.eval(P, Q).F, rel=1e-14)


def test_starlike_sign_branches():
    P, Q = 0.3, 0.8
    for s1 in (1, -1):
        for s2 in (1, -1):
            F = builtin("starlike", signs=(s1, s2))
            want = s1 * np.sqrt((1 + s2 * np.sqrt(Q)) * (1 + P * P / Q))
            assert F.eval(P, Q).F == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        builtin("starlike", signs=(1, -1)).eval(0.0, 4.0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_builtin_is_its_expression_bit_for_bit(name):
    """A builtin's F and partials are those of ``parse_f`` of its expression
    with the signs written in, at each float (P, Q) and on the batch of them,
    signed zeros included, for every sign pair and nu."""
    P = np.array([0.0, -0.0, 0.3, -0.7])
    Q = np.array([0.04, 1e-3, 0.1, 0.01])  # inside every member's domain at nu = 2
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        text = BUILTINS[name][1].replace("s1", str(s1)).replace("s2", str(s2))
        for nu in (0.0, 0.5, 2.0):
            F, G = builtin(name, signs=(s1, s2), nu=nu), parse_f(text, nu=nu)
            for at in (*zip(P.tolist(), Q.tolist()), (P, Q)):
                for got, want in zip(F.eval(*at), G.eval(*at)):
                    assert same_bits(got, want), (F.name, text, at)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin("no_such_form")
    assert BUILTIN_NAMES == ("point_particle", "rotator_f", "starlike", "nu_family")


def test_pq_from_rotator_point(rotator_jet):
    J = rotator_jet
    at = pq_from_vectors(J.xdot, J.k, J.kdot, ell=1.0)
    assert at.P == pytest.approx(0.0, abs=1e-14)
    assert at.Q == pytest.approx(4.0)


def test_lagrangian_density_at_rotator_point(rotator_jet):
    F = builtin("rotator_f")
    J = rotator_jet
    assert lagrangian_from_vectors(F, J.xdot, J.k, J.kdot) == pytest.approx(-1.5)


def test_lagrangian_requires_timelike_and_forward():
    F = builtin("rotator_f")
    rng = np.random.default_rng(1)
    J = random_kinematic_jet(rng)
    bad = J.__class__(xdot=np.array([0.1, 1.0, 0.0, 0.0]), k=J.k, m=J.m, a=J.a,
                      b=J.b, kdot=J.kdot, mdot=J.mdot, adot=J.adot, bdot=J.bdot)
    with pytest.raises(DomainError):
        lagrangian_from_vectors(F, bad.xdot, bad.k, bad.kdot)


# -- L's one chain step against jet arithmetic through P and Q ---------------

U = np.finfo(float).eps / 2  # the unit roundoff
# |chain step - reference| <= CHAIN_BOUND u (row scale) for L's value, gradient
# and Hessian rows; the worst over 64 such draws per case (rng [seed, len(dof),
# order], seeds 0-63) was 4 u (value), 9 u (gradient) and 25 u (Hessian rows)
CHAIN_BOUND = 64
CHAIN_FORMS = {
    "rotator": builtin("rotator_f"),
    "starlike": builtin("starlike"),
    "nu_family": builtin("nu_family", nu=0.5, M=1.5, ell=0.7),
    "constant": parse_f("2.5"),
    "1+Q+P^2": parse_f("1+Q+P^2"),
    "Q+P*Q": parse_f("Q+P*Q", M=0.8, ell=1.3),
}


def reference_lagrangian(F, xx, kx, kdx, kdkd):
    """L = -M sqrt(xx) F(P, Q) by jet arithmetic through P and Q, the
    reference for ``lagrangian_from_scalars``' chain step."""
    _, P, Q = pq_from_scalars(xx, kx, kdx, kdkd, F.ell)
    return -F.M * jets.sqrt(xx) * F.func(P, Q)


def _entry(stack, b):
    """Batch entry b of the stack (values, G, H)."""
    values, G, H = stack
    return [v[b] for v in values], G[..., b], None if H is None else H[..., b]


def _jets(stack):
    """The stack (values, G, H) as four jets."""
    values, G, H = stack
    return [jets.Jet(*s) for s in zip(values, G, [None] * 4 if H is None else H)]


def _within(got, want, scale):
    """|got - want| <= CHAIN_BOUND u scale, and exact where the scale is 0."""
    return np.all(np.abs(got - want) <= CHAIN_BOUND * U * scale)


@pytest.mark.parametrize("name", CHAIN_FORMS)
@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
@pytest.mark.parametrize("order", [1, 2])
def test_lagrangian_chain_step_matches_jet_arithmetic(name, dof, order):
    """L on the chart scalars' jets (16 states), from F's partials at (P, Q)
    and one chain step, against the reference.  The scales are the terms of
    the chain sums, with L's partials in the four scalars taken from the
    reference on jets seeded in the scalars: the value's scale is the largest
    of |L|, |kdx dL/dkdx| and |kdkd dL/dkdkd|; the gradient's the largest
    |dL/ds_i ds_i/dv|; Hessian row a's the largest |dL/ds_i d2s_i/dv_a dv_b|
    and |d2L/ds_i ds_j ds_i/dv_a ds_j/dv_b|.  First-order scalars give a
    first-order L, and each batch entry is the single state's L bit for bit."""
    F = CHAIN_FORMS[name]
    rng = np.random.default_rng([len(dof), order])
    q, qd = chart_states(rng.random((16, 12))).coords(dof)
    values, G, H = scalars = chart_scalar_jets(q, qd, dof)
    if order == 1:
        scalars = values, G, None
    got = lagrangian_from_scalars(F, scalars)
    want = reference_lagrangian(F, *_jets(scalars))
    values = np.array(values)
    ds = reference_lagrangian(F, *jets.variables(*values))
    assert _within(got.f, want.f, np.max(np.abs([want.f, *(ds.g[2:] * values[2:])]), axis=0))
    assert _within(got.g, want.g, np.max(np.abs(ds.g[:, None] * G), axis=(0, 1)))
    if order == 1:
        assert got.h is None
    else:
        first = np.abs(ds.g[:, None, None] * H).max(axis=(0, 2))
        second = np.abs(ds.h[:, :, None, None] * G[:, None, :, None]
                        * G[None, :, None, :]).max(axis=(0, 1, 3))
        assert _within(got.h, want.h, np.maximum(first, second)[:, None])
    for b in (0, 9, 15):
        one = lagrangian_from_scalars(F, _entry(scalars, b))
        assert one.f == got.f[b] and np.array_equal(one.g, got.g[..., b])
        assert (one.h is None) if order == 1 else np.array_equal(one.h, got.h[..., b])


def test_lagrangian_chain_step_takes_constant_scalars():
    """A scalar held constant, as a zero-rate jet, gives the L of jet
    arithmetic on that scalar as a plain number."""
    F = CHAIN_FORMS["1+Q+P^2"]
    q, qd = random_chart_state(np.random.default_rng(5)).coords(DOF5)
    xx, kx, kdx, kdkd = _jets(chart_scalar_jets(q, qd, DOF5))
    got = lagrangian_from_scalars(F, jets.stack((xx, kx, jets.constant(kdx.f, kdx.n), kdkd)))
    want = reference_lagrangian(F, xx, kx, kdx.f, kdkd)
    scale = max(abs(want.f), np.max(np.abs(want.g)), np.max(np.abs(want.h)))
    assert np.allclose(got.g, want.g, rtol=0.0, atol=CHAIN_BOUND * U * scale)
    assert np.allclose(got.h, want.h, rtol=0.0, atol=CHAIN_BOUND * U * scale)


def test_negative_Q_rejected():
    with pytest.raises(DomainError):
        PQPoint(0.0, -1.0)


# -- forward-mode partials against central differences on random expression
# trees, compared wherever the values are finite and two step sizes agree.
# A tree is compared only where each of its subtrees has a value of 0 or of a
# magnitude in FD_RANGE: a larger one can absorb a variable in rounding, as in
# sin(P + 1e308), whose float values do not depend on P although its jet
# does, and a smaller nonzero one can make the jets' rates cancel to
# rounding, as in P/P near P = 0 ---

FD_STEPS = (1e-4, 5e-5)
FD_AGREE = 1e-6  # largest gap of the two central differences compared, per unit scale
FD_TOL = 1e-5  # largest gap of a partial from the finer difference, per unit scale
FD_RANGE = (1e-6, 1e6)
FD_DRAWS = {"expr": _expressions, "P": st.floats(-0.9, 0.9), "Q": st.floats(0.05, 4.0)}
FD_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _subtree_values(node, env):
    """The float value of every subtree of a parsed expression; a call's
    function name is not a subtree."""
    if isinstance(node, ast.BinOp):
        children = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        children = [node.operand]
    else:
        children = getattr(node, "args", [])  # a call's one argument
    return [fform._evaluate(node, env), *(v for c in children for v in _subtree_values(c, env))]


def _central(F, P, Q, dP, dQ):
    """Central difference of F along (dP, dQ), over the step as rounded."""
    lo, hi = (P - dP, Q - dQ), (P + dP, Q + dQ)
    return (F.func(*hi) - F.func(*lo)) / ((hi[0] - lo[0]) + (hi[1] - lo[1]))


def _check_partials(expr, P, Q):
    F = parse_f(expr)
    with np.errstate(all="ignore"):
        try:
            tree = fform._parse(expr, ("P", "Q", "nu"))
            values = _subtree_values(tree, {"P": P, "Q": Q, "nu": 0.0})
            v = F.eval(P, Q)
            diffs = [[_central(F, P, Q, h * (i == 0), h * (i == 1)) for h in FD_STEPS]
                     for i in range(2)]
        except DomainError:
            return
    if not all(x == 0.0 or FD_RANGE[0] <= abs(x) <= FD_RANGE[1] for x in values):
        return
    for got, (coarse, fine) in zip((v.F_P, v.F_Q), diffs):
        scale = max(1.0, abs(fine))
        finite = np.isfinite([v.F, got, coarse, fine]).all()
        if finite and abs(coarse - fine) <= FD_AGREE * scale:
            assert abs(got - fine) <= FD_TOL * scale, (expr, P, Q, got, fine)


@FD_SETTINGS
@given(**FD_DRAWS)
def test_partials_match_central_differences(expr, P, Q):
    _check_partials(expr, P, Q)


def test_central_differences_reject_a_sign_flip_in_sin(monkeypatch):
    def flipped(x):  # jets.sin with the sign of its first derivative flipped
        if not isinstance(x, jets.Jet):
            return jets.sin(x)
        s = jets.sin(x.f)
        return jets._chain(x, s, -jets.cos(x.f), -s)

    monkeypatch.setitem(fform._FUNCTIONS, "sin", flipped)
    # the same draws, stopping at the first failure instead of shrinking it
    planted = given(**FD_DRAWS)(_check_partials)
    planted = settings(FD_SETTINGS, phases=[Phase.generate])(planted)
    with pytest.raises(AssertionError):
        planted()
