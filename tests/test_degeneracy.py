import numpy as np
import pytest

from rotorlab import jets
from rotorlab.degeneracy import (
    DOF5,
    DOF6,
    ChartState,
    chart_scalars,
    chart_vectors,
    fq_det_formula,
    hessian,
    jacobian_pq,
    random_chart_state,
    relation_check,
)
from rotorlab.fform import PQPoint, builtin, parse_f
from rotorlab.minkowski import DomainError, dot
from rotorlab.noether import casimirs_closed_form


def test_chart_vectors_are_consistent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        st = random_chart_state(rng)
        for dof in (DOF5, DOF6):
            q, qd = st.coords(dof)
            xdot, k, kdot = chart_vectors(q, qd, dof)
            assert abs(dot(k, k)) < 1e-12 * max(k[0] ** 2, 1.0)
            assert abs(dot(k, kdot)) < 1e-12 * max(k[0] ** 2, 1.0)
            assert xdot[0] == 1.0
            if len(dof) == 5:
                assert k[0] == 1.0


def _rel_gap(got, want, scale):
    return float(np.max(np.abs(np.asarray(got) - want))) / max(scale, 1e-300)


@pytest.mark.parametrize("dof", [DOF5, DOF6])
def test_chart_scalars_match_dots_of_chart_vectors(dof):
    """The closed-form scalars equal the four dots of ``chart_vectors``, on
    floats and on jets seeded in every coordinate and velocity: the value to
    rounding of the dot's largest term, g and h to rounding of their largest
    entry."""
    rng = np.random.default_rng(21)
    n = len(dof)
    for _ in range(50):
        q, qd = random_chart_state(rng).coords(dof)
        vs = jets.variables(*q, *qd)
        for q_, qd_ in ((q, qd), (vs[:n], vs[n:])):
            xdot, k, kdot = chart_vectors(q_, qd_, dof)
            pairs = ((xdot, xdot), (k, xdot), (kdot, xdot), (kdot, kdot))
            for (u, v), got in zip(pairs, chart_scalars(q_, qd_, dof)):
                want = dot(u, v)
                terms = sum(abs(jets.value(a) * jets.value(b)) for a, b in zip(u, v))
                assert _rel_gap(jets.value(got), jets.value(want), terms) <= 1e-14
                if isinstance(want, jets.Jet):
                    assert want.n == 2 * n
                    assert _rel_gap(got.g, want.g, np.max(np.abs(want.g))) <= 1e-14
                    assert _rel_gap(got.h, want.h, np.max(np.abs(want.h))) <= 1e-14


def test_pole_states_rejected():
    with pytest.raises(DomainError):
        ChartState(theta=1e-5, phi=0.0).check_pole()
    F = builtin("rotator_f")
    with pytest.raises(DomainError):
        hessian(F, ChartState(theta=np.pi, phi=0.0))


def test_fundamental_families_have_singular_hessians():
    rng = np.random.default_rng(1)
    for _ in range(5):
        st = random_chart_state(rng)
        rot = hessian(builtin("rotator_f"), st, DOF5)
        assert rot.is_singular and rot.rank == 4
        nu = hessian(builtin("nu_family", nu=0.4), st, DOF5)
        assert nu.is_singular and nu.rank == 4
        star = hessian(builtin("starlike"), st, DOF6)
        assert star.is_singular


def test_generic_fq_hessian_nonsingular():
    rng = np.random.default_rng(2)
    for expr in ("Q", "Q^2", "1+Q", "sqrt(Q)*(2+Q)"):
        F = parse_f(expr)
        for _ in range(3):
            st = random_chart_state(rng)
            rep = hessian(F, st, DOF5)
            assert not rep.is_singular
            assert rep.rank == 5


def test_jacobian_pq_matches_finite_differences():
    rng = np.random.default_rng(3)
    for F in (parse_f("1+Q+P^2"), builtin("nu_family", nu=0.3),
              parse_f("Q+P*Q")):
        for _ in range(5):
            P, Q = rng.uniform(-0.4, 0.4), rng.uniform(0.3, 2.0)
            if not F.in_domain(P, Q):
                continue
            h = 1e-5

            def pw(p, q):
                c = casimirs_closed_form(F, PQPoint(p, q))
                return np.array([c.PP, c.WW])

            JPP = (pw(P + h, Q) - pw(P - h, Q)) / (2 * h)
            JQQ = (pw(P, Q + h) - pw(P, Q - h)) / (2 * h)
            fd = JPP[0] * JQQ[1] - JQQ[0] * JPP[1]
            got = jacobian_pq(F, PQPoint(P, Q), F.eval(P, Q))
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_relation_flags_degenerate_jacobian():
    rng = np.random.default_rng(5)
    st = random_chart_state(rng)
    entries = relation_check([parse_f("Q")], st, DOF6)
    assert not entries[0].admissible


def test_fq_determinant_bracket_values():
    rng = np.random.default_rng(6)
    st = random_chart_state(rng)
    res = fq_det_formula(lambda q: q, st)
    assert res.bracket == pytest.approx(3.0, rel=1e-12)
    res = fq_det_formula(lambda q: q * q, st)
    assert res.bracket == pytest.approx(7.0, rel=1e-12)


def test_fq_bracket_vanishes_on_distinguished_family():
    rng = np.random.default_rng(7)
    for _ in range(5):
        st = random_chart_state(rng)
        for s2 in (1.0, -1.0):
            f = lambda q, s=s2: jets.sqrt(1.0 + s * jets.sqrt(q))
            try:
                res = fq_det_formula(f, st)
            except (DomainError, ValueError):
                continue  # inner sign can leave the domain at large Q
            assert abs(res.bracket) < 1e-10
            assert abs(res.direct_det) < 1e-10
        res = fq_det_formula(lambda q: 2.7 * jets.sqrt(1.0 + jets.sqrt(q)), st)
        assert abs(res.bracket) < 1e-10


def test_fq_determinant_ratio_is_f_independent():
    rng = np.random.default_rng(8)
    fs = [lambda q: q, lambda q: q * q, lambda q: 1.0 + q,
          lambda q: jets.sqrt(q) * (2.0 + q)]
    for _ in range(3):
        st = random_chart_state(rng)
        ks = np.array([fq_det_formula(f, st).K for f in fs])
        assert np.max(np.abs(ks - ks[0])) < 1e-7 * abs(ks[0])


def test_hessian_report_of_rotator_is_singular():
    rng = np.random.default_rng(9)
    rep = hessian(builtin("rotator_f"), random_chart_state(rng), DOF5)
    assert len(rep.dof) == 5 and rep.rank == 4 and rep.is_singular
