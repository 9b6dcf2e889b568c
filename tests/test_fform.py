import numpy as np
import pytest

from rotorlab import jets
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
