import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorlab import cli, jets, noether
from rotorlab.dynamics import _joined
from rotorlab.fform import (FForm, PQPoint, builtin, lagrangian_from_vectors, parse_f,
                            pq_from_scalars, pq_from_vectors, scalar_products,
                            velocity_scalars)
from rotorlab.invariants import KinematicJet, draw_path, kinematic_jets, random_kinematic_jet
from rotorlab.minkowski import SIGNATURE, DomainError, bivector, dot, lorentz_matrix
from rotorlab.reports import RunConfig
from rotorlab.noether import (
    FUNDAMENTAL_WW_FACTOR,
    MomentumSet,
    casimirs_closed_form,
    casimirs_from_partials,
    casimirs_where_defined,
    fundamental_casimirs,
    momenta,
    momenta_from_vectors,
)
from conftest import nothing_ahead, same_bits
from references import casimirs_special_S, evaluates
from work import run_counts, src_calls


def all_forms():
    forms = [builtin("point_particle"), builtin("rotator_f"),
             parse_f("Q"), parse_f("sqrt(1 + P*P/Q)*(1 + 0.3*Q)")]
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        forms.append(builtin("starlike", signs=signs))
    for nu in (-0.6, 0.0, 0.8):
        forms.append(builtin("nu_family", nu=nu))
    return forms


def test_noether_casimirs_match_closed_form():
    rng = np.random.default_rng(0)
    forms = all_forms()
    for J in kinematic_jets([draw_path(rng) for _ in range(40)]).entries():
        for F in forms:
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not evaluates(F, at.P, at.Q):
                continue
            got = momenta(F, J).casimirs()
            want = casimirs_closed_form(F, at)
            assert got.PP == pytest.approx(want.PP, rel=1e-9,
                                           abs=1e-9 * max(abs(want.PP), 1.0))
            assert got.WW == pytest.approx(want.WW, rel=1e-9,
                                           abs=1e-9 * max(abs(want.WW), 1.0))


def test_pauli_lubanski_orthogonal_to_momentum():
    rng = np.random.default_rng(1)
    for J in kinematic_jets([draw_path(rng) for _ in range(30)]).entries():
        for F in (builtin("rotator_f"), parse_f("Q*Q")):
            ms = momenta(F, J)
            scale = max(abs(dot(ms.P, ms.P)), 1.0)
            assert abs(dot(ms.W, ms.P)) < 1e-10 * scale


def _pauli_lubanski_loop(M, P):
    """Reference: the component sum over all index triples, sign by counting."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    M_low, P_low = eta @ M @ eta, eta @ P

    def eps(*perm):
        if len(set(perm)) < 4:
            return 0
        return (-1) ** sum(perm[x] > perm[y] for x in range(4) for y in range(x + 1, 4))

    W = np.zeros(4)
    for mu in range(4):
        acc = 0.0
        for a, b, g in itertools.product(range(4), repeat=3):
            e = eps(mu, a, b, g)
            if e:
                acc += e * M_low[a, b] * P_low[g]
        W[mu] = -0.5 * acc
    return W


def test_pauli_lubanski_is_minus_epsilon_contract():
    # momenta take W = -eps(k, pi, P); the full sum over M = x^P - P^x +
    # k^pi - pi^k agrees, since the orbital term drops out
    rng = np.random.default_rng(4)
    for _ in range(20):
        J = random_kinematic_jet(rng)
        x = rng.normal(size=4)
        for F in all_forms():
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not evaluates(F, at.P, at.Q):
                continue
            ms = momenta(F, J, x=x)
            scale = np.max(np.abs(ms.M)) * np.max(np.abs(ms.P))
            gap = np.max(np.abs(ms.W - _pauli_lubanski_loop(ms.M, ms.P)))
            assert gap <= 1e-14 * scale


def test_lagrangian_is_euler_homogeneous_in_the_velocities():
    # L is homogeneous of degree 1 in v = (xdot, kdot): g.v = L and H v = 0,
    # each to rounding of its largest term
    rng = np.random.default_rng(12)
    pairs = 0
    for J in kinematic_jets([draw_path(rng) for _ in range(24)]).entries():
        v = np.concatenate([J.xdot, J.kdot])
        vs = jets.variables(*v)
        for F in all_forms():
            at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
            if not evaluates(F, at.P, at.Q):
                continue
            L = lagrangian_from_vectors(F, vs[:4], J.k, vs[4:])
            terms = max(np.max(np.abs(L.g * v)), abs(L.f))
            assert abs(L.g @ v - L.f) <= 1e-13 * terms
            assert np.max(np.abs(L.h @ v)) <= 1e-13 * np.max(np.abs(L.h * v))
            pairs += 1
    assert pairs >= 200


def _momenta_by_jet_arithmetic(F, xdot, k, kdot, order=1):
    """The momenta with the eight velocities seeded as jet variables of the
    given order and the four scalar products taken by jet arithmetic."""
    vs = jets.variables(*xdot, *kdot, order=order)
    L = lagrangian_from_vectors(F, vs[:4], k, vs[4:])
    sign = SIGNATURE.reshape((4,) + (1,) * (k.ndim - 1))
    P, pi = -(L.g[:4] * sign), -(L.g[4:] * sign)
    return MomentumSet(P=P, pi=pi, k=k)


def _outcome(fn, F, xdot, k, kdot, **kw):
    """The momenta, or the message of the DomainError raised instead."""
    try:
        return fn(F, xdot, k, kdot, **kw)
    except DomainError as exc:
        return str(exc)


def _assert_same_bits(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for name in ("P", "pi", "M", "W"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def test_seeded_scalar_products_give_the_jet_arithmetic_momenta(rotator_jet):
    """``momenta_from_vectors`` seeds the four scalar products in closed form;
    P, pi, M and W, signed zeros included, and every DomainError message are
    those of the eight velocities seeded as jets, one jet at a time and as a
    batch, for the casimir suite's jets and forms and the relation forms."""
    cfg = RunConfig()
    forms = [*cli.casimir_forms(cfg, cli.fundamental_forms(cfg)),
             *map(parse_f, cli.RELATION_FORMS)]
    # the rotator point has exact zeros in xdot, k and kdot
    J = rotator_jet
    cases = [(J.xdot, J.k, J.kdot), (J.xdot[:, None], J.k[:, None], J.kdot[:, None])]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        S = kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])
        cases += [(S.xdot, S.k, S.kdot), *((e.xdot, e.k, e.kdot) for e in S.entries())]
    assert len(cases) == 2 + 8 * (1 + cli.CASIMIR_JETS)
    outside = 0
    for xdot, k, kdot in cases:
        for F in forms:
            want = _outcome(_momenta_by_jet_arithmetic, F, xdot, k, kdot)
            _assert_same_bits(_outcome(momenta_from_vectors, F, xdot, k, kdot), want)
            outside += isinstance(want, str)
    assert outside > 0
    # a spacelike velocity fails in both before the form is read
    xdot = np.array([0.1, 1.0, 0.0, 0.0])
    want = _outcome(_momenta_by_jet_arithmetic, forms[0], xdot, J.k, J.kdot)
    assert "xdot.xdot" in want
    assert _outcome(momenta_from_vectors, forms[0], xdot, J.k, J.kdot) == want


def _casimir_forms():
    """The twelve forms whose momenta the casimir suite takes."""
    cfg = RunConfig()
    return cli.casimir_forms(cfg, cli.fundamental_forms(cfg))


def test_momenta_of_a_jet_are_those_of_its_vectors_alone_and_in_a_batch():
    """``momenta(F, J)`` of an entry of a batch reads its column of the pass
    of F over the batch that ``batch_casimirs`` keeps.  For the casimir
    suite's twelve forms on its jets at seeds 0-7, the pass is kept, over the
    entries of the form's domain, and each entry's P, pi, M and W, signed
    zeros included, are those of ``momenta_from_vectors`` on the jet's vectors
    alone, and those of entry j of one batched call over the entries inside
    the form's domain."""
    forms = _casimir_forms()
    assert len(forms) == 12
    pairs = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        S = kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])
        entries = S.entries()
        for F in forms:
            inside = noether.batch_casimirs([F], S, nothing_ahead([F]))[0][0]
            assert F in S.momenta_by_form
            _, P, Q = pq_from_scalars(*scalar_products(S.xdot, S.k, S.kdot), F.ell)
            assert inside.tolist() == F.eval_inside(P, Q, order=1)[0].tolist()
            inside = np.flatnonzero(inside)
            batch = momenta_from_vectors(F, S.xdot[:, inside], S.k[:, inside],
                                         S.kdot[:, inside])
            for b, j in enumerate(inside):
                J = entries[j]
                got = momenta(F, J)
                _assert_same_bits(got, momenta_from_vectors(F, J.xdot, J.k, J.kdot))
                _assert_same_bits(got, MomentumSet(batch.P[:, b], batch.pi[:, b],
                                                   batch.k[:, b]))
                pairs += 1
    assert pairs >= 8 * 250


def test_second_order_pass_gives_the_momenta_bit_for_bit(rotator_jet):
    """The gradient of a second-order pass is the first-order momenta, signed
    zeros included: P, pi, M and W of ``momenta_from_vectors`` for the casimir
    suite's twelve forms, at the rotator point and on seed 0's jets."""
    rng = np.random.default_rng(0)
    S = kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])
    pairs = 0
    for J in [rotator_jet, *S.entries()]:
        for F in _casimir_forms():
            want = _outcome(momenta_from_vectors, F, J.xdot, J.k, J.kdot)
            got = _outcome(_momenta_by_jet_arithmetic, F, J.xdot, J.k, J.kdot, order=2)
            _assert_same_bits(got, want)
            pairs += not isinstance(want, str)
    assert pairs >= 250


def _casimir_batch(seed):
    rng = np.random.default_rng(seed)
    return kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])


def _momenta_outcome(F, J, x=None):
    """``momenta(F, J)``, or the message of the DomainError or float error
    raised instead."""
    try:
        return momenta(F, J, x=x)
    except (DomainError, ArithmeticError) as exc:
        return str(exc)


def _with_first(S, **vectors):
    """The batch S with the given vectors in its first entry."""
    return dataclasses.replace(S, **{name: np.column_stack([v, getattr(S, name)[:, 1:]])
                                     for name, v in vectors.items()})


@pytest.mark.parametrize("expr, batch, kept", [
    ("sqrt(0.03 - Q)", _casimir_batch, True),  # a domain that masks about half the batch
    ("sqrt(1+sqrt(Q))+P*Q", _casimir_batch, True),  # no domain predicate
    # the batch's pass stops at the first entry: on a spacelike xdot, whose
    # (P, Q) raises, and on k.xdot sqrt(xdot.xdot) = 1e-350, which a float
    # division by zero meets in the momenta, so that nothing is kept
    ("Q", lambda seed: _with_first(_casimir_batch(seed), xdot=np.array([0.1, 1.0, 0.0, 0.0])),
     DomainError),
    ("Q", lambda seed: _with_first(_casimir_batch(seed), xdot=1e-150 * np.eye(4)[0],
                                   k=np.array([1e-50, 1e-50, 0.0, 0.0])), False),
], ids=["masked", "no-predicate", "spacelike", "underflow"])
def test_an_entry_of_a_batch_has_the_momenta_of_the_jet_alone(expr, batch, kept):
    """``momenta`` of an entry of a batch, after ``batch_casimirs`` has run
    over it as the casimir suite runs it, is that of the same jet unlinked
    from it: the same P, pi, M and W, signed zeros included, where the jet
    has momenta, and the same error text where it raises, at seeds 0-3."""
    F = parse_f(expr)
    inside = outside = 0
    for seed in range(4):
        S = batch(seed)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as cli.main
            if kept is DomainError:
                with pytest.raises(DomainError, match="xdot.xdot"):
                    noether.batch_casimirs([F], S, nothing_ahead([F]))
            else:
                noether.batch_casimirs([F], S, nothing_ahead([F]))
        assert (F in S.momenta_by_form) is (kept is True)
        for J in S.entries():
            alone = KinematicJet(*(getattr(J, f.name) for f in dataclasses.fields(J)))
            assert J.batch is not None and alone.batch is None
            got = _momenta_outcome(F, J)
            _assert_same_bits(got, _momenta_outcome(F, alone))
            outside += isinstance(got, str)
            inside += not isinstance(got, str)
    assert inside > 0 and (outside > 0 or expr == "sqrt(1+sqrt(Q))+P*Q")


def test_a_batch_of_one_gives_its_entry_the_momenta_of_its_vectors():
    """``random_kinematic_jet`` is the entry of a batch of one: its momenta
    about the origin and about a point x, and its DomainError texts, are
    those of ``momenta_from_vectors`` on its vectors."""
    rng = np.random.default_rng(5)
    x = np.array([-0.0, 1.5, 0.0, -2.0])
    checked = 0
    for _ in range(10):
        J = random_kinematic_jet(rng)
        S, i = J.batch
        assert S.k.shape == (4, 1) and i == 0
        for F in [*_casimir_forms(), parse_f("sqrt(0.03 - Q)")]:
            for at in (None, x):
                want = _outcome(momenta_from_vectors, F, J.xdot, J.k, J.kdot, x=at)
                _assert_same_bits(_momenta_outcome(F, J, x=at), want)
                checked += not isinstance(want, str)
    assert checked >= 100


def test_writing_into_a_record_leaves_every_other_record_as_it_was():
    """Records of one batch pass do not share memory: a write into one
    record's P and pi moves no bit of any other record, nor of a record of
    the same pair asked for again."""
    S = _casimir_batch(0)
    for F in _casimir_forms():
        noether.batch_casimirs([F], S, nothing_ahead([F]))
        assert F in S.momenta_by_form
    entries = S.entries()
    records = [(F, J, momenta(F, J)) for J in entries for F in _casimir_forms()
               if not isinstance(_momenta_outcome(F, J), str)]
    before = [(ms.P.tobytes(), ms.pi.tobytes(), ms.k.tobytes()) for _, _, ms in records]
    F, J, first = records[0]
    first.P[:] = np.nan
    first.pi[:] = np.nan
    for (_, _, ms), bits in zip(records[1:], before[1:]):
        assert (ms.P.tobytes(), ms.pi.tobytes(), ms.k.tobytes()) == bits
    again = momenta(F, J)
    assert (again.P.tobytes(), again.pi.tobytes(), again.k.tobytes()) == before[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_casimir_suite_takes_one_momenta_pass_for_every_form(monkeypatch, seed):
    """The casimir suite's per-pair momenta come from one
    ``momenta_from_vectors`` pass over its jet batch for its twelve forms, of
    one M and ell: 1 a run, not one per form (12) or per (jet, form) pair.
    Each form's entries have their own columns of that pass, and together
    they fill it."""
    batches = src_calls(monkeypatch, noether, "batch_casimirs", lambda forms, S, *rest: S)
    argv = ["verify", "--suite", "casimir", "--seed", str(seed)]
    assert run_counts(monkeypatch, argv, ["momenta_from_vectors"]) == (
        0, {"momenta_from_vectors": 1})
    (S,) = batches
    kept = S.momenta_by_form
    assert sorted(F.name for F in kept) == sorted(F.name for F in _casimir_forms())
    (ms,) = {id(ms): ms for _, ms in kept.values()}.values()
    columns = sorted(c for cols, _ in kept.values() for c in cols.values())
    assert columns == list(range(ms.P.shape[1]))


def test_momenta_leave_the_jets_scalar_products_as_seeded(rotator_jet):
    """The twelve forms' momenta share one jet's scalar products, and none of
    them writes to them."""
    J, calls = rotator_jet, 0
    for F in _casimir_forms():
        at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
        if evaluates(F, at.P, at.Q):
            momenta(F, J)
            calls += 1
    assert calls == 8  # the rotator point lies outside four forms' domains
    (values, G, H), (want_values, want_G, want_H) = (
        J.velocity_scalars, velocity_scalars(J.xdot, J.k, J.kdot))
    assert H is None and want_H is None
    for a, b in ((values, want_values), (G, want_G)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_angular_momentum_formed_when_read_is_the_eager_bivector(rotator_jet):
    """``MomentumSet.M``, formed when read, is bit for bit, signed zeros
    included, ``bivector`` of its P and pi about x: at the origin (x None), at
    a given x, for each entry of a batch, and for a joined batch."""
    J = rotator_jet  # exact zeros in xdot, k and kdot
    rng = np.random.default_rng(3)
    S = kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])
    X = np.where(rng.random(S.k.shape) < 0.3, -0.0, rng.normal(size=S.k.shape))
    x0 = np.array([-0.0, 1.5, 0.0, -2.0])
    checked = 0
    for F in _casimir_forms():
        at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
        if evaluates(F, at.P, at.Q):
            for x in (None, x0):
                ms = momenta_from_vectors(F, J.xdot, J.k, J.kdot, x=x)
                origin = np.zeros(4) if x is None else x
                assert same_bits(ms.M, bivector(origin, ms.P, J.k, ms.pi))
                checked += 1
        _, P, Q = pq_from_scalars(*scalar_products(S.xdot, S.k, S.kdot), F.ell)
        inside = np.flatnonzero(F.eval_inside(P, Q, order=1)[0])
        xdot, k, kdot = S.xdot[:, inside], S.k[:, inside], S.kdot[:, inside]
        for x in (None, X[:, inside]):
            batch = momenta_from_vectors(F, xdot, k, kdot, x=x)
            for b in range(inside.size):
                origin = np.zeros(4) if x is None else x[:, b]
                assert same_bits(batch.M[:, :, b],
                                 bivector(origin, batch.P[:, b], k[:, b], batch.pi[:, b]))
                checked += 1
            half = inside.size // 2
            parts = [momenta_from_vectors(F, xdot[:, s], k[:, s], kdot[:, s],
                                          x=None if x is None else x[:, s])
                     for s in (slice(None, half), slice(half, None))]
            assert same_bits(_joined(parts).M, batch.M)
    assert checked >= 2 * 250


def test_closed_forms_at_first_order_are_those_at_second_order():
    """``casimirs_where_defined``, and ``cli.fundamental_residual`` through
    it, read F, F_P and F_Q from F's first-order jets: PP, WW and the
    residual are those of the second-order evaluation bit for bit, over the
    casimir suite's twelve forms on its jet batch at seed 0 and on the
    domain points of the 12 x 12 grid."""
    rng = np.random.default_rng(0)
    S = kinematic_jets([draw_path(rng) for _ in range(cli.CASIMIR_JETS)])
    points = 0
    for F in _casimir_forms():
        pp_target, ww_target = fundamental_casimirs(F.M, F.ell)
        _, P, Q = pq_from_scalars(*scalar_products(S.xdot, S.k, S.kdot), F.ell)
        for P, Q in ((P, Q), _grid_arrays(_reference_domain_grid(F, 12))):
            inside, PP, WW, _ = casimirs_where_defined([F], [(P, Q)])[0]
            P, Q = P[inside], Q[inside]
            v = F.eval(P, Q)
            want_PP, want_WW = casimirs_from_partials(F, P, Q, v.F, v.F_P, v.F_Q)
            assert same_bits(PP[inside], want_PP)
            assert same_bits(WW[inside], want_WW)
            points += P.size
        # want_PP and want_WW are the grid's, the last batch
        want = cli._worst([np.abs(want_PP / pp_target - 1.0),
                           np.abs(want_WW / ww_target - 1.0)])
        assert cli.fundamental_residual(F, 12) == (want, P.size)
    assert points >= 1000


def test_static_point_particle_has_rest_momentum():
    F = builtin("point_particle", M=2.5)
    xdot = np.array([1.0, 0.0, 0.0, 0.0])
    k = np.array([1.0, 0.0, 0.0, 1.0])
    kdot = np.zeros(4)
    ms = momenta_from_vectors(F, xdot, k, kdot)
    assert np.allclose(ms.P, [2.5, 0.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(ms.W, 0.0, atol=1e-13)


def test_angular_momentum_shifts_with_x_but_w_does_not():
    rng = np.random.default_rng(2)
    J = random_kinematic_jet(rng)
    F = builtin("rotator_f")
    a = momenta(F, J, x=np.zeros(4))
    b = momenta(F, J, x=np.array([1.0, -2.0, 0.5, 3.0]))
    assert not np.allclose(a.M, b.M)
    assert np.allclose(a.W, b.W, atol=1e-12 * max(np.abs(a.W).max(), 1.0))
    assert np.allclose(a.P, b.P)


def _grid_arrays(points):
    P, Q = np.array(points, dtype=float).reshape(-1, 2).T
    return P, Q


def test_fundamental_residuals_tiny_for_fundamental_forms():
    grid = [(P, Q) for P in np.linspace(-0.5, 0.5, 8) for Q in np.linspace(0.1, 3.0, 8)]
    forms = [builtin("rotator_f")]
    for nu in (-1.0, -0.3, 0.0, 0.5, 2.0):
        forms.append(builtin("nu_family", nu=nu))
    for F in forms:
        pts = [(P, Q) for P, Q in grid if evaluates(F, P, Q)]
        _, PP, WW, _ = casimirs_where_defined([F], [_grid_arrays(pts)])[0]
        assert np.max(np.abs(PP / F.M**2 - 1.0)) < 1e-10
        assert np.max(np.abs(WW / (FUNDAMENTAL_WW_FACTOR * F.M**4 * F.ell**2) - 1.0)) < 1e-10
        assert cli.fundamental_residual(F, 8)[0] < 1e-10


def test_fundamental_residuals_large_for_generic_form():
    worst, points = cli.fundamental_residual(parse_f("Q + P^2"), 5)
    assert worst > 0.1 and points == 25


def test_fundamental_residuals_rejects_out_of_domain():
    """The grid pass checks F only at the grid points inside its domain, and
    a grid with none there fails, as nothing was checked; outside the domain
    the evaluation it guards names the first point."""
    F = builtin("starlike", signs=(1, -1))
    worst, points = cli.fundamental_residual(F, 12)
    assert worst < 1e-10 and points == len(_reference_domain_grid(F, 12)) == 36
    assert cli.fundamental_residual(parse_f("sqrt(-1-Q)"), 12) == (math.inf, 0)
    grid = _grid_arrays([(0.1, 0.5), (0.2, 9.0), (0.3, 16.0)])
    with pytest.raises(DomainError, match=r"\(P, Q\) = \(0\.2, 9\.0\) outside domain "
                                          r"of starlike\[\+1,-1\] \(batch entry 1\)"):
        F.eval(*grid, order=1)


def test_casimirs_where_defined_masks_the_batch():
    # NaN outside the domain; inside, each entry is the closed form at its
    # point, and the partials are those of F's first-order pass there, bit
    # for bit; with no entry inside, there are none
    F = builtin("starlike", signs=(1, -1))
    P, Q = _grid_arrays([(0.1, 0.5), (0.2, 9.0), (-0.3, 0.25)])
    inside, PP, WW, v = casimirs_where_defined([F], [(P, Q)])[0]
    assert inside.tolist() == [True, False, True]
    assert np.isnan(PP[1]) and np.isnan(WW[1])
    for i in (0, 2):
        c = casimirs_closed_form(F, PQPoint(P[i], Q[i]))
        assert (PP[i], WW[i]) == (c.PP, c.WW)
    want = F.eval(P[inside], Q[inside], order=1)
    assert all(same_bits(a, b) for a, b in zip(v[:3], want[:3]))
    assert v[3:] == want[3:] == (None, None, None)
    inside, PP, WW, v = casimirs_where_defined([F], [(P[1:2], Q[1:2])])[0]
    assert inside.tolist() == [False] and v is None
    assert np.isnan(PP[0]) and np.isnan(WW[0])


def _reference_domain_grid(F, n):
    return [(float(P), float(Q)) for P in np.linspace(-0.9, 0.9, n)
            for Q in np.linspace(0.05, 4.0, n) if evaluates(F, P, Q)]


def _reference_fundamental_residual(F, grid):
    """The largest relative miss of PP and WW, one point at a time."""
    pp_res, ww_res = 0.0, 0.0
    for pt in grid:
        c = casimirs_closed_form(F, PQPoint(*pt))
        pp_res = max(pp_res, abs(c.PP / F.M**2 - 1.0))
        ww_res = max(ww_res, abs(c.WW / (FUNDAMENTAL_WW_FACTOR * F.M**4 * F.ell**2) - 1.0))
    return max(pp_res, ww_res)


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(M=1.3, ell=0.7)])
def test_fundamental_residuals_equal_per_point_loop(cfg):
    """The batched grid pass gives the per-point residual exactly, over the
    same number of domain points; inf where the grid has none."""
    forms = cli.fundamental_forms(cfg) + [
        builtin("point_particle", M=cfg.M, ell=cfg.ell),
        parse_f("sqrt(1 + P*P/Q)*(1 + 0.2*Q)", M=cfg.M, ell=cfg.ell),
        parse_f("Q + P^2", M=cfg.M, ell=cfg.ell), parse_f("sqrt(1 - Q)*(1 + P)"),
        parse_f("sqrt(-1 - Q)")]
    for F in forms:
        for n in (1, 7, 12):
            grid = _reference_domain_grid(F, n)
            want = _reference_fundamental_residual(F, grid) if grid else math.inf
            assert cli.fundamental_residual(F, n) == (want, len(grid))


def test_special_S_family_matches_closed_form():
    S = lambda q: 1.0 + 0.25 * q
    F = FForm(func=lambda P, Q: jets.sqrt(1.0 + P * P / Q) * S(Q), M=1.3, ell=0.7)
    for Q in (0.2, 1.0, 3.0):
        got = casimirs_special_S(S, Q, M=1.3, ell=0.7)
        # the shape sqrt(1 + P^2/Q) S(Q) makes PP, WW functions of Q alone
        for P in (0.0, 0.4):
            want = casimirs_closed_form(F, PQPoint(P, Q))
            assert got.PP == pytest.approx(want.PP, rel=1e-12)
            assert got.WW == pytest.approx(want.WW, rel=1e-12, abs=1e-12)


def test_special_S_needs_positive_Q():
    with pytest.raises(DomainError):
        casimirs_special_S(lambda q: q, 0.0)


def test_ww_factor_constant():
    assert FUNDAMENTAL_WW_FACTOR == -0.25


# the gate of the covariance test: a transformed charge may miss its
# transform by this much relative to the largest term that enters it.  For W
# = -eps(k, pi, P), whose terms can cancel to 1e-8 of their size at small Q,
# that term is at most max|k| max|pi| max|P|.
COVARIANCE_TOL = 1e-9
_speed = st.floats(-0.5, 0.5)  # |v| <= 0.87: gamma up to 2
_angle = st.floats(-np.pi, np.pi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), boost=st.tuples(_speed, _speed, _speed),
       rotation=st.tuples(_angle, _angle, _angle))
def test_noether_charges_are_lorentz_covariant(seed, boost, rotation):
    """Momenta of the transformed (xdot, k, kdot, x) are Lambda P, Lambda W
    and Lambda M Lambda^T, and PP and WW are unchanged, for every builtin form."""
    L = lorentz_matrix(boost, rotation)
    aL = np.abs(L)
    rows = np.max(aL.sum(axis=1))  # largest |Lambda V| for max|V| = 1
    rng = np.random.default_rng(seed)
    J = random_kinematic_jet(rng)
    x = rng.uniform(-1.0, 1.0, 4)
    for F in all_forms():
        at = pq_from_vectors(J.xdot, J.k, J.kdot, F.ell)
        if not evaluates(F, at.P, at.Q):
            continue
        ms = momenta_from_vectors(F, J.xdot, J.k, J.kdot, x=x)
        mt = momenta_from_vectors(F, L @ J.xdot, L @ J.k, L @ J.kdot, x=L @ x)
        w_term = max(np.max(np.abs(k)) * np.max(np.abs(m.pi)) * np.max(np.abs(m.P))
                     for k, m in ((J.k, ms), (L @ J.k, mt)))
        assert np.max(np.abs(mt.P - L @ ms.P)) <= COVARIANCE_TOL * np.max(aL @ np.abs(ms.P))
        assert np.max(np.abs(mt.W - L @ ms.W)) <= COVARIANCE_TOL * rows * w_term
        assert (np.max(np.abs(mt.M - L @ ms.M @ L.T))
                <= COVARIANCE_TOL * np.max(aL @ np.abs(ms.M) @ aL.T))
        assert abs(dot(mt.P, mt.P) - dot(ms.P, ms.P)) <= COVARIANCE_TOL * np.sum(ms.P**2)
        assert abs(dot(mt.W, mt.W) - dot(ms.W, ms.W)) <= COVARIANCE_TOL * w_term**2
