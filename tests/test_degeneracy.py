import dataclasses

import numpy as np
import pytest

from rotorlab import jets
from rotorlab.degeneracy import (
    ADMISSIBLE_TOL,
    DOF5,
    DOF6,
    RANK_TOL,
    ChartState,
    chart_derivatives,
    chart_scalars,
    chart_states,
    hessian,
    hessians,
    jacobian_pq,
    random_chart_state,
    relation_check,
)
from rotorlab.cli import RELATION_FORMS
from rotorlab.fform import PQPoint, builtin, parse_f, pq_from_scalars
from rotorlab.minkowski import DomainError, dot, four
from rotorlab.noether import casimirs_closed_form
from rotorlab.spinor import null_from_angles
from conftest import chart_entry, same_bits
from references import evaluates, fq_det_formula


def chart_vectors(q, qd, dof):
    """Reference for ``chart_scalars``: (xdot, k, kdot) from chart coordinates,
    built as vectors; generic over floats and jets."""
    theta, phi = q[3], q[4]
    K = q[5] if len(dof) == 6 else 1.0
    Kd = qd[5] if len(dof) == 6 else 0.0
    st, ct = jets.sin(theta), jets.cos(theta)
    sp, cp = jets.sin(phi), jets.cos(phi)
    n_th = [ct * cp, ct * sp, -st]
    n_ph = [-st * sp, st * cp, 0.0 * st]
    nd = [n_th[i] * qd[3] + n_ph[i] * qd[4] for i in range(3)]
    xdot = four(1.0 + 0.0 * qd[0], qd[0], qd[1], qd[2])
    k = null_from_angles(theta, phi, K)
    # kdot = Kdot (1, n) + K (0, ndot)
    kr = null_from_angles(theta, phi, Kd)
    kdot = four(kr[0], kr[1] + K * nd[0], kr[2] + K * nd[1], kr[3] + K * nd[2])
    return xdot, k, kdot


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
            if not evaluates(F, P, Q):
                continue
            h = 1e-5

            def pw(p, q):
                c = casimirs_closed_form(F, PQPoint(p, q))
                return np.array([c.PP, c.WW])

            JPP = (pw(P + h, Q) - pw(P - h, Q)) / (2 * h)
            JQQ = (pw(P, Q + h) - pw(P, Q - h)) / (2 * h)
            fd = JPP[0] * JQQ[1] - JQQ[0] * JPP[1]
            got = jacobian_pq(F, P, Q, F.eval(P, Q))
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_relation_flags_degenerate_jacobian():
    rng = np.random.default_rng(5)
    forms = [parse_f("Q")]
    admissible, K = relation_check(forms, hessians(forms, chart_states(rng.random((1, 12))), DOF6))
    assert admissible.shape == K.shape == (1, 1)
    assert not admissible[0, 0] and np.isnan(K[0, 0])


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


HESSIAN_FORMS = [builtin("rotator_f"), builtin("nu_family", nu=0.4), builtin("starlike"),
                 parse_f("Q^2"), parse_f("sqrt(1+P^2+Q)")]


@pytest.mark.parametrize("dof", [DOF5, DOF6])
@pytest.mark.parametrize("F", HESSIAN_FORMS, ids=[F.name for F in HESSIAN_FORMS])
def test_batched_hessian_matches_each_state(F, dof):
    rng = np.random.default_rng(10)
    table = rng.random((6, 12))
    batch = hessian(F, chart_states(table), dof)
    n = len(dof)
    assert batch.matrix.shape == (6, n, n) and batch.singular_values.shape == (6, n)
    for i, row in enumerate(table):
        one = hessian(F, chart_states(row), dof)
        assert np.array_equal(batch.matrix[i], one.matrix)
        assert np.array_equal(batch.singular_values[i], one.singular_values)
        assert batch.det[i] == one.det and batch.rank[i] == one.rank
        assert batch.margin[i] == one.margin and batch.is_singular[i] == one.is_singular
    assert type(one.rank) is int and type(one.det) is float
    assert type(one.margin) is float and type(one.is_singular) is bool


def test_batched_hessian_isolates_an_overflowing_entry():
    rng = np.random.default_rng(11)
    # F = 1e290 Q^4 overflows at Q ~ 1e5 only
    batch = _with_thetadot_300_at_1(chart_states(rng.random((3, 12))))
    F = parse_f("1e290*Q^4")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = hessian(F, batch, DOF5)
        alone = [hessian(F, chart_entry(batch, i), DOF5) for i in (0, 2)]
    assert not np.isfinite(rep.matrix[1]).all()
    assert np.isnan(rep.singular_values[1]).all() and rep.rank[1] == 0
    for i, one in zip((0, 2), alone):
        assert np.isfinite(one.singular_values).all()
        assert np.array_equal(rep.singular_values[i], one.singular_values)
        assert rep.rank[i] == one.rank == 5


def _with_thetadot_300_at_1(batch):
    """The batch with entry 1's thetadot set to 300."""
    thetadot = batch.thetadot.copy()
    thetadot[1] = 300.0
    return dataclasses.replace(batch, thetadot=thetadot)


def _hessian_of_each_matrix(F, state, dof):
    """Reference for ``hessians``: F's velocity block of ``chart_derivatives``
    alone, then each state's matrix through an SVD and a determinant of its
    own; (matrices, singular values, ranks, dets) over the states."""
    q, qd = state.coords(dof)
    n = len(dof)
    H = chart_derivatives(F, q, qd, dof)[1][:, n:]
    out = []
    for M in (np.moveaxis(H, -1, 0) if q.ndim == 2 else H[None]):
        sv = (np.linalg.svd(M, compute_uv=False) if np.isfinite(M).all()
              else np.full(n, np.nan))
        out.append((M, sv, np.sum(sv > RANK_TOL * np.maximum(sv[0], 1e-300)),
                    np.linalg.det(M)))
    return [np.array(x) for x in zip(*out)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# form lists for ``hessians``, and the index of the form whose Hessian
# overflows at state 1 of ``_with_thetadot_300_at_1``'s batch (Q ~ 1e5 at
# ell = 1, ~ 1.6e8 at ell = 37.5), sitting between forms whose Hessians stay
# finite there: 1e290 Q^4 in one (M, ell) group; the relation forms at (1, 1)
# interleaved with two forms at (2.5, 37.5), which take a chain step of their
# own; and 1e280 Q^4 in the second of two interleaved groups
_SECOND = {"M": 2.5, "ell": 37.5}
_HESSIAN_FORMS = {
    "one-group": ([builtin("rotator_f"), parse_f("Q^2"), parse_f("1e290*Q^4"),
                   builtin("starlike"), parse_f("sqrt(1+P^2+Q)")], 2),
    "two-groups": ([parse_f(RELATION_FORMS[0]), parse_f("Q^2", **_SECOND),
                    *map(parse_f, RELATION_FORMS[1:3]), builtin("rotator_f", **_SECOND),
                    *map(parse_f, RELATION_FORMS[3:])], None),
    "overflow-in-second-group": ([parse_f("Q^2", **_SECOND), builtin("rotator_f"),
                                  parse_f("1e280*Q^4", **_SECOND), parse_f("1+Q+P^2"),
                                  builtin("starlike", **_SECOND)], 2),
}


@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch4"])
def test_hessians_are_each_forms_own_bit_for_bit(dof, batch):
    # every form's report is its own call's, bit for bit, whatever group it
    # shares a chain step with; an overflow stays in its own form's block
    rng = np.random.default_rng(14)
    states = _with_thetadot_300_at_1(chart_states(rng.random((4, 12))))
    state = states if batch else chart_entry(states, 1)
    for case, (forms, overflowing) in _HESSIAN_FORMS.items():
        with np.errstate(over="ignore", invalid="ignore"):
            got = hessians(forms, state, dof)
            want = [_hessian_of_each_matrix(F, state, dof) for F in forms]
        assert len(got) == len(forms)
        n, shape = len(dof), ((4,) if batch else ())
        for i, (rep, (M, sv, rank, det)) in enumerate(zip(got, want)):
            name = (case, forms[i].name)
            assert rep.matrix.shape == shape + (n, n) and rep.dof == tuple(dof)
            for a, b in ((rep.matrix, M), (rep.singular_values, sv), (rep.det, det)):
                assert np.array_equal(_bits(a), _bits(b).reshape(np.shape(a))), name
            assert np.array_equal(rep.rank, rank.reshape(np.shape(rep.rank))), name
            # the rows of state 1 and of the others
            k, rows, ranks = int(batch), rep.singular_values.reshape(-1, n), np.ravel(rep.rank)
            finite = np.isfinite(rows).all(axis=1)
            if i == overflowing:  # NaN singular values and rank 0 at state 1 only
                assert not np.isfinite(rep.matrix.reshape(-1, n, n)[k]).all(), name
                assert np.isnan(rows[k]).all() and ranks[k] == 0, name
                assert finite.sum() == len(rows) - 1, name
            else:
                assert finite.all() and ranks.min() > 0, name
        if not batch:
            assert all(type(r.rank) is int and type(r.det) is float for r in got)


def test_pole_state_in_a_batch_names_its_entry():
    rng = np.random.default_rng(12)
    batch = chart_states(rng.random((3, 12)))
    theta = batch.theta.copy()
    theta[1] = np.pi  # a pole entry, between two drawn states
    with pytest.raises(DomainError, match=r"batch entry 1\)"):
        hessian(builtin("rotator_f"), dataclasses.replace(batch, theta=theta), DOF6)


@pytest.mark.parametrize("ell", [1.0, 37.5])
@pytest.mark.parametrize("dof", [DOF5, DOF6], ids=["DOF5", "DOF6"])
def test_a_hessian_report_keeps_the_pq_of_its_chart_scalars(dof, ell):
    """Each report's (P, Q) is ``pq_from_scalars`` of ``chart_scalars`` on
    floats, bit for bit, for one state and for a batch: the (P, Q) that
    ``relation_check`` reads from the reports."""
    forms = [builtin("rotator_f", ell=ell), *(parse_f(e, ell=ell) for e in RELATION_FORMS)]
    for seed in range(20):
        table = np.random.default_rng(seed).random((5, 12))
        for state in (chart_states(table), chart_states(table[0])):
            want = pq_from_scalars(*chart_scalars(*state.coords(dof), dof), ell)[1:]
            for F, rep in zip(forms, hessians(forms, state, dof), strict=True):
                assert all(same_bits(a, b) for a, b in zip(rep.pq, want, strict=True)), (
                    seed, F.name)


def _relation_per_state(forms, st):
    """Reference for ``relation_check``: one state and one form at a time, on
    floats."""
    scalars = chart_scalars(*st.coords(DOF6), DOF6)
    admissible, Ks = [], []
    for F in forms:
        _, P, Q = pq_from_scalars(*scalars, F.ell)
        v = F.eval(P, Q)
        num = v.F - P * v.F_P
        den = v.F_P * (P**2 + Q) - P * v.F
        jac = jacobian_pq(F, P, Q, v)
        det = hessian(F, st, DOF6).det
        tol = ADMISSIBLE_TOL * max(abs(v.F), 1.0)
        ok = not (abs(den) <= tol or abs(num) <= tol
                  or abs(jac) <= ADMISSIBLE_TOL * max(abs(det), 1.0))
        admissible.append(ok)
        Ks.append(det / ((num / den) * jac) if ok else np.nan)
    return admissible, Ks


@pytest.mark.parametrize("seed", range(8))
def test_batched_relation_check_matches_the_per_state_loop(seed):
    # "Q" and "0" are inadmissible everywhere; the second list interleaves two
    # forms at (M, ell) = (2.5, 37.5) with those at (1, 1), and ends with "Q"
    # at (2.5, 37.5)
    one = [parse_f(e) for e in RELATION_FORMS + ("Q", "0")]
    mixed = [*one[:1], parse_f("1+Q+P^2", **_SECOND), *one[1:4],
             parse_f("sqrt(1+P^2+Q)", **_SECOND), *one[4:6], parse_f("Q", **_SECOND), one[7]]
    rng = np.random.default_rng(seed)
    table = rng.random((5, 12))
    for forms in (one, mixed):
        admissible, K = relation_check(forms, hessians(forms, chart_states(table), DOF6))
        want = [_relation_per_state(forms, chart_states(row)) for row in table]
        assert np.array_equal(admissible, np.array([w[0] for w in want]).T)
        assert np.array_equal(K, np.array([w[1] for w in want]).T, equal_nan=True)
        assert admissible[:-2].sum() >= 2 * len(table) and not admissible[-2:].any()
