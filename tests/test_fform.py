import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rotorlab import fform, jets
from rotorlab.fform import (
    BUILTIN_NAMES,
    ParseError,
    PQPoint,
    builtin,
    lagrangian_from_vectors,
    parse_f,
    parse_phase,
    pq_from_vectors,
)
from rotorlab.invariants import random_kinematic_jet
from rotorlab.minkowski import DomainError
from test_cli import _expressions


def fd_partials(F, P, Q, h=1e-6):
    f = lambda p, q: F(p, q)
    FP = (f(P + h, Q) - f(P - h, Q)) / (2 * h)
    FQ = (f(P, Q + h) - f(P, Q - h)) / (2 * h)
    return FP, FQ


def test_parser_values_and_precedence():
    F = parse_f("1 + 2*Q - Q/4")
    assert F(0.0, 2.0) == pytest.approx(1 + 4 - 0.5)
    F = parse_f("2^3^2")  # right-associative
    assert F(0.0, 1.0) == pytest.approx(512.0)
    F = parse_f("-Q^2")
    assert F(0.0, 3.0) == pytest.approx(-9.0)
    F = parse_f("sqrt(Q)*(2+Q)")
    assert F(0.0, 4.0) == pytest.approx(12.0)


def test_parser_nu_substitution():
    F = parse_f("nu*P + sqrt(1 + sqrt(Q) - nu^2*Q)", nu=0.5)
    assert F(0.2, 0.3) == pytest.approx(
        0.5 * 0.2 + np.sqrt(1 + np.sqrt(0.3) - 0.25 * 0.3))


def test_parser_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_f("1 + * Q")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse_f("foo(Q)")
    with pytest.raises(ParseError):
        parse_f("R + Q")
    with pytest.raises(ParseError):
        parse_f("1 + (Q")
    with pytest.raises(ParseError):
        parse_f("Q Q")


def test_parse_phase_over_t():
    ph = parse_phase("t + 0.1*(t - sin(t))")
    (tj,) = jets.variables(2.0)
    out = ph(tj)
    assert out.f == pytest.approx(2.0 + 0.1 * (2.0 - np.sin(2.0)))
    assert out.g[0] == pytest.approx(1.0 + 0.1 * (1.0 - np.cos(2.0)))
    with pytest.raises(ParseError):
        parse_phase("P + t")


def test_domain_respects_sqrt_and_division():
    F = parse_f("sqrt(Q - 1)")
    assert F.in_domain(0.0, 2.0)
    assert not F.in_domain(0.0, 0.5)
    F = parse_f("1/P")
    assert not F.in_domain(0.0, 1.0)


def test_eval_partials_match_finite_differences():
    rng = np.random.default_rng(0)
    forms = [parse_f("sqrt(1 + sqrt(Q))"), parse_f("Q + P*Q + P^2"),
             builtin("starlike"), builtin("nu_family", nu=0.4)]
    for F in forms:
        for _ in range(10):
            P, Q = rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0)
            if not F.in_domain(P, Q):
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


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin("no_such_form")
    assert len(BUILTIN_NAMES) == 6


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
    """The float value of every subtree of a parsed expression."""
    out = [fform._evaluate(node, env)]
    for child in node[1:]:
        if isinstance(child, tuple):
            out += _subtree_values(child, env)
    return out


def _central(F, P, Q, dP, dQ):
    """Central difference of F along (dP, dQ), over the step as rounded."""
    lo, hi = (P - dP, Q - dQ), (P + dP, Q + dQ)
    return (F(*hi) - F(*lo)) / ((hi[0] - lo[0]) + (hi[1] - lo[1]))


def _check_partials(expr, P, Q):
    F = parse_f(expr)
    with np.errstate(all="ignore"):
        try:
            tree = fform._Parser(expr).parse()
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
