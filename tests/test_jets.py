import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorlab import jets


def fd_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hess(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return H


def test_variables_seed_identity():
    x, y = jets.variables(2.0, 3.0)
    assert x.f == 2.0 and y.f == 3.0
    assert np.array_equal(x.g, [1.0, 0.0]) and np.array_equal(y.g, [0.0, 1.0])
    assert not x.h.any() and not y.h.any()


def test_arithmetic_matches_finite_differences():
    rng = np.random.default_rng(3)

    def func(v):
        x, y, z = v
        return (x * y - z / (1.0 + x * x)) * (y + 2.0) - x**3 + 5.0

    for _ in range(20):
        pt = rng.uniform(-2.0, 2.0, 3)
        xs = jets.variables(*pt)
        out = func(xs)
        assert out.f == pytest.approx(func(pt), rel=1e-14)
        assert np.allclose(out.g, fd_grad(func, pt), rtol=1e-6, atol=1e-7)
        assert np.allclose(out.h, fd_hess(func, pt), rtol=1e-4, atol=1e-5)
        assert np.allclose(out.h, out.h.T)


def test_elementary_functions_match_finite_differences():
    rng = np.random.default_rng(11)
    cases = [
        (jets.sqrt, np.sqrt, (0.1, 4.0)),
        (jets.sin, np.sin, (-3.0, 3.0)),
        (jets.cos, np.cos, (-3.0, 3.0)),
        (jets.exp, np.exp, (-2.0, 2.0)),
        (jets.acos, np.arccos, (-0.9, 0.9)),
    ]
    for jf, nf, (lo, hi) in cases:
        for _ in range(10):
            v = rng.uniform(lo, hi)
            (x,) = jets.variables(v)
            out = jf(x)
            f = lambda a: nf(a[0])
            assert out.f == pytest.approx(nf(v), rel=1e-14)
            assert out.g[0] == pytest.approx(fd_grad(f, [v])[0], rel=1e-5, abs=1e-7)
            assert out.h[0, 0] == pytest.approx(fd_hess(f, [v])[0, 0], rel=2e-3, abs=1e-4)


def test_atan2_full_plane():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        if abs(a) + abs(b) < 0.3:
            continue
        x, y = jets.variables(a, b)
        out = jets.atan2(y, x)
        f = lambda v: np.arctan2(v[1], v[0])
        assert out.f == pytest.approx(np.arctan2(b, a), rel=1e-14)
        assert np.allclose(out.g, fd_grad(f, [a, b]), rtol=1e-5, atol=1e-7)
        assert np.allclose(out.h, fd_hess(f, [a, b]), rtol=1e-3, atol=1e-4)


def test_integer_and_real_powers():
    (x,) = jets.variables(1.7)
    cube = x**3
    assert cube.f == pytest.approx(1.7**3)
    assert cube.g[0] == pytest.approx(3 * 1.7**2)
    assert cube.h[0, 0] == pytest.approx(6 * 1.7)
    frac = x**0.5
    assert frac.f == pytest.approx(np.sqrt(1.7))
    assert frac.g[0] == pytest.approx(0.5 / np.sqrt(1.7))
    # a jet exponent would lose its derivatives: refused, not taken as a number
    with pytest.raises(TypeError, match="derivatives"):
        x ** jets.constant(2.0, 1)


def test_functions_pass_floats_through():
    assert jets.sqrt(4.0) == 2.0
    assert jets.sin(0.0) == 0.0
    assert jets.value(3.5) == 3.5
    (x,) = jets.variables(2.0)
    assert jets.value(x) == 2.0


def test_constant_has_zero_derivatives():
    c = jets.constant(4.2, 3)
    assert c.f == 4.2
    assert not c.g.any() and not c.h.any()


def test_sqrt_of_negative_rejected():
    (x,) = jets.variables(-1.0)
    with pytest.raises(ValueError):
        jets.sqrt(x)


# -- the number fast paths and the in-place product, against the generic path --

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-2)


@st.composite
def jet_strategy(draw, n=None, f=finite):
    if n is None:
        n = draw(st.integers(1, 4))
    g = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    a = np.array(draw(st.lists(finite, min_size=n * n, max_size=n * n))).reshape(n, n)
    return jets.Jet(draw(f), g, a + a.T)


@st.composite
def jet_pair(draw, f=finite):
    n = draw(st.integers(1, 4))
    return draw(jet_strategy(n=n, f=f)), draw(jet_strategy(n=n, f=nonzero))


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def assert_same_jet(a, b):
    assert a.f == b.f
    assert np.array_equal(a.g, b.g) and np.array_equal(a.h, b.h)


@settings(max_examples=60, deadline=None)
@given(x=jet_strategy(f=nonzero), k=st.integers(-50, 50).filter(bool), c=nonzero)
def test_number_operand_matches_constant_jet(x, k, c):
    for num in (k, c, np.float64(c)):
        const = jets.constant(float(num), x.n)
        for op in BINARY_OPS:
            assert_same_jet(op(x, num), op(x, const))
            assert_same_jet(op(num, x), op(const, x))


@settings(max_examples=60, deadline=None)
@given(pair=jet_pair(f=nonzero), c=nonzero)
def test_operations_leave_operands_unchanged(pair, c):
    x, y = pair
    before = [(z.f, z.g.copy(), z.h.copy()) for z in (x, y)]
    for op in BINARY_OPS:
        for a, b in ((x, y), (y, x), (x, c), (c, x), (y, c), (c, y)):
            op(a, b)
    for fn in (operator.neg, abs, lambda z: z**3, lambda z: z**-2, jets.sin, jets.cos):
        fn(x), fn(y)
    jets.atan2(x, y), jets.atan2(1.0, y)
    for (f0, g0, h0), z in zip(before, (x, y)):
        assert z.f == f0 and np.array_equal(z.g, g0) and np.array_equal(z.h, h0)


@settings(max_examples=60, deadline=None)
@given(pair=jet_pair())
def test_jet_product_matches_outer_formula(pair):
    x, y = pair
    z = x * y
    s = x.h * y.f + y.h * x.f
    t = np.outer(x.g, y.g)
    assert z.f == x.f * y.f
    assert np.array_equal(z.g, x.f * y.g + y.f * x.g)
    assert np.array_equal(z.h, s + t + np.outer(y.g, x.g))
    # h_ij and h_ji add the two cross terms in opposite order, so the product
    # is symmetric to rounding, and exactly when both Hessians vanish
    bound = 4 * np.finfo(float).eps * (np.abs(s) + np.abs(t) + np.abs(t.T))
    assert np.all(np.abs(z.h - z.h.T) <= bound)
    zero = np.zeros_like(x.h)
    w = jets.Jet(x.f, x.g, zero) * jets.Jet(y.f, y.g, zero)
    assert np.array_equal(w.h, w.h.T)


# -- a batch of jets against the same jets one at a time ----------------------

positive = st.floats(1e-3, 1e3)
unit = st.floats(-0.999, 0.999)
moderate = st.floats(-50.0, 50.0)


@st.composite
def jet_batches(draw, count, values):
    """``count`` batches of the same width and batch size, each drawn entry by
    entry with the jet values from the strategies in ``values``."""
    n, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return [[draw(jet_strategy(n=n, f=v)) for _ in range(size)]
            for v in values[:count]]


def stack(entries):
    """One batched jet from unbatched ones: the batch axis last."""
    return jets.Jet(np.array([e.f for e in entries]), np.stack([e.g for e in entries], -1),
                    np.stack([e.h for e in entries], -1))


def assert_entries(batched, entries):
    """Each batch entry of ``batched`` is bit-identical to its unbatched jet."""
    for b, e in enumerate(entries):
        assert batched.f[b] == e.f
        assert np.array_equal(batched.g[..., b], e.g)
        assert np.array_equal(batched.h[..., b], e.h)


def test_batched_jets_keep_the_trailing_axis():
    x, y = jets.variables(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5]))
    z = x * y
    assert z.n == 2 and z.f.shape == (3,) and z.g.shape == (2, 3) and z.h.shape == (2, 2, 3)
    with pytest.raises(ValueError, match="batch shape"):
        jets.variables(1.0, 2.0)[0] * np.array([1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(batches=jet_batches(2, (finite, nonzero)), c=nonzero)
def test_batched_arithmetic_matches_entries(batches, c):
    xs, ys = batches
    x, y = stack(xs), stack(ys)
    cs = c * np.arange(1.0, len(xs) + 1.0)
    for op in BINARY_OPS:
        assert_entries(op(x, y), [op(a, b) for a, b in zip(xs, ys)])
        assert_entries(op(x, c), [op(a, c) for a in xs])
        assert_entries(op(c, y), [op(c, b) for b in ys])
        assert_entries(op(x, cs), [op(a, ci) for a, ci in zip(xs, cs)])
        assert_entries(op(cs, y), [op(ci, b) for ci, b in zip(cs, ys)])
    for p in (-2, 0, 3):
        assert_entries(y ** p, [b ** p for b in ys])
    assert_entries(-x, [-a for a in xs])
    assert_entries(abs(y), [abs(b) for b in ys])


@settings(max_examples=60, deadline=None)
@given(batches=jet_batches(3, (positive, unit, moderate)), p=st.sampled_from([0.5, 1.5, -0.7]))
def test_batched_functions_match_entries(batches, p):
    """Bit for bit: sin, cos and sqrt use numpy on a batch, which rounds as
    math does; exp, acos, atan2 and real powers go through math per entry."""
    pos, uni, mod = batches
    x, u, m = stack(pos), stack(uni), stack(mod)
    assert_entries(x ** p, [a ** p for a in pos])
    assert_entries(jets.sqrt(x), [jets.sqrt(a) for a in pos])
    assert_entries(jets.acos(u), [jets.acos(a) for a in uni])
    for fn in (jets.sin, jets.cos, jets.exp):
        assert_entries(fn(m), [fn(a) for a in mod])
    assert_entries(jets.atan2(m, x), [jets.atan2(a, b) for a, b in zip(mod, pos)])
    assert_entries(jets.atan2(m, 1.5), [jets.atan2(a, 1.5) for a in mod])
    assert_entries(jets.atan2(-0.5, u), [jets.atan2(-0.5, a) for a in uni])


def test_sqrt_second_derivative_is_minus_inf_where_it_underflows():
    # below about 1e-215, r * x underflows to 0 in -0.25 / (r * x): the
    # quotient is -inf for a float as for a batch entry, not an error
    xs = [jets.variables(v)[0] for v in (1e-220, 4.0)]
    with np.errstate(divide="ignore"):
        entries = [jets.sqrt(x) for x in xs]
        assert_entries(jets.sqrt(stack(xs)), entries)
    assert entries[0].h[0, 0] == -np.inf and entries[0].f == np.sqrt(1e-220)


def test_batched_domain_errors_name_the_first_failing_entry():
    x = stack([jets.variables(v)[0] for v in (4.0, -1.0, -2.0)])
    with pytest.raises(ValueError, match=r"got -1\.0 \(batch entry 1\)"):
        jets.sqrt(x)
    with pytest.raises(ValueError, match=r"got 1\.0 \(batch entry 1\)"):
        jets.acos(stack([jets.variables(v)[0] for v in (0.5, 1.0, 2.0)]))
    with pytest.raises(ValueError, match=r"batch entry 1"):
        x ** 0.5
    with pytest.raises(ValueError, match=r"batch entry 2"):
        abs(x + 2.0)
    with pytest.raises(ValueError, match=r"batch entry 0"):
        jets.atan2(x * 0.0, x * 0.0)
