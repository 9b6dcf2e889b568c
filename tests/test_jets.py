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
    # unbatched seeds share one read-only identity and zero Hessian per width
    assert x.g.base is jets.variables(5.0, 6.0)[0].g.base
    with pytest.raises(ValueError, match="read-only"):
        x.h[0, 0] = 1.0
    # second order unless asked otherwise, for batches too
    x, y = jets.variables(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert x.h.shape == (2, 2, 3) and not x.h.any() and not y.h.any()


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
    with pytest.raises(TypeError, match="not 'Jet'"):
        x ** jets.constant(2.0, 1)


@pytest.mark.parametrize("convert", [float, lambda x: np.asarray([x], dtype=float)],
                         ids=["float", "asarray"])
def test_a_jet_is_not_taken_as_a_float(convert):
    # Python and numpy refuse a Jet as a number, as a jet exponent is refused
    # above, so its derivatives cannot drop silently: a Jet has no __float__
    (x,) = jets.variables(1.7)
    with pytest.raises(TypeError, match="not 'Jet'"):
        convert(x)


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


def test_a_batch_refusal_keeps_its_mask():
    # the error of a refusing step over a batch names all its entries as
    # ``bad``, which ``FForm.eval_inside`` drops; a float refusal has none
    (x,) = jets.variables(np.array([1.0, -1.0, 0.0, 4.0]))
    with pytest.raises(ValueError, match=r"got -1\.0 \(batch entry 1\)$") as info:
        jets.sqrt(x)
    assert info.value.bad.tolist() == [False, True, True, False]
    with pytest.raises(ValueError) as info:
        jets.sqrt(jets.variables(-1.0)[0])
    assert not hasattr(info.value, "bad")


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
    for fn in (operator.neg, lambda z: z**3, lambda z: z**-2, jets.sin, jets.cos):
        fn(x), fn(y)
    jets.atan2(x, y)
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


def bits(u):
    return [np.asarray(v).tobytes() for v in (u.f, u.g, u.h)]


@pytest.mark.parametrize("op", BINARY_OPS)
@pytest.mark.parametrize("reflected", [False, True], ids=["jet-left", "jet-right"])
def test_plain_operands_follow_one_rule(op, reflected):
    """A number enters ``+ - * /`` as its float, on either side; an array of
    another batch shape is refused, and any other type is no operand."""
    apply = (lambda x, c: op(c, x)) if reflected else op
    x, _ = jets.variables(1.5, -0.25)
    xb, _ = jets.variables(np.array([1.5, 2.0, 2.5]), np.zeros(3))
    for u, wrong in ((x, np.ones(2)), (xb, np.ones(2)), (xb, np.ones((3, 1)))):
        with pytest.raises(ValueError, match="does not match the batch shape"):
            apply(u, wrong)
    for junk in ([1.0], "2", None):
        with pytest.raises(TypeError):
            apply(x, junk)
    for c in (True, np.int64(3), np.float64(-0.7)):
        got, want = apply(x, c), apply(x, float(c))
        assert type(got.f) is float and bits(got) == bits(want)
        assert bits(apply(xb, c)) == bits(apply(xb, float(c)))


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


def test_sqrt_second_derivative_is_minus_inf_where_it_underflows():
    # below about 1e-215, r * x underflows to 0 in -0.25 / (r * x): the
    # quotient is -inf for a float as for a batch entry, not an error
    xs = [jets.variables(v)[0] for v in (1e-220, 4.0)]
    with np.errstate(divide="ignore"):
        entries = [jets.sqrt(x) for x in xs]
        assert_entries(jets.sqrt(stack(xs)), entries)
    assert entries[0].h[0, 0] == -np.inf and entries[0].f == np.sqrt(1e-220)


def test_reciprocal_derivatives_are_infinite_where_they_underflow():
    # below about 1e-108, x^3 underflows to 0 in 2 / x^3, and below about
    # 1e-162 x^2 in -1 / x^2: the quotients are infinite for a float as for
    # a batch entry, not an error (and inf * 0 makes a Hessian NaN)
    xs = [jets.variables(v)[0] for v in (1e-200, 1e-120, 4.0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = [1.0 / x for x in xs]
        batched = 1.0 / stack(xs)
    for b, e in enumerate(entries):
        assert batched.f[b] == e.f and np.array_equal(batched.g[..., b], e.g)
        assert np.array_equal(batched.h[..., b], e.h, equal_nan=True)
    assert entries[0].g[0] == -np.inf and entries[1].h[0, 0] == np.inf


def test_batched_domain_errors_name_the_first_failing_entry():
    x = stack([jets.variables(v)[0] for v in (4.0, -1.0, -2.0)])
    with pytest.raises(ValueError, match=r"got -1\.0 \(batch entry 1\)"):
        jets.sqrt(x)
    with pytest.raises(ValueError, match=r"got 1\.0 \(batch entry 1\)"):
        jets.acos(stack([jets.variables(v)[0] for v in (0.5, 1.0, 2.0)]))
    with pytest.raises(ValueError, match=r"batch entry 1"):
        x ** 0.5
    with pytest.raises(ValueError, match=r"batch entry 0"):
        jets.atan2(x * 0.0, x * 0.0)
    # where a float raises, so does a batch entry: sin at inf, 1 / 0
    with pytest.raises(ValueError, match=r"math domain error \(batch entry 1\)"):
        jets.sin(stack([jets.variables(v)[0] for v in (0.5, np.inf)]))
    with pytest.raises(ZeroDivisionError, match=r"batch entry 2"):
        1.0 / stack([jets.variables(v)[0] for v in (0.5, -1.0, 0.0)])


# -- first-order jets against second-order ones --------------------------------


def first_order(x):
    """The first-order jet with the value and gradient of x."""
    return jets.Jet(x.f, x.g, None)


def assert_first_order_matches(fn, *args):
    """fn with any nonempty set of its jet arguments cut to first order gives a
    first-order jet with the value and gradient of fn on the arguments; a
    proper subset mixes first- with second-order operands."""
    want = fn(*args)
    at = [i for i, a in enumerate(args) if isinstance(a, jets.Jet)]
    for mask in range(1, 2 ** len(at)):
        cut = [i for b, i in enumerate(at) if mask >> b & 1]
        got = fn(*(first_order(a) if i in cut else a for i, a in enumerate(args)))
        assert got.h is None
        assert np.array_equal(got.f, want.f) and np.array_equal(got.g, want.g)


def test_first_order_hessian_is_never_read():
    x, y = jets.variables(2.0, 3.0, order=1)
    assert x.h is None and np.array_equal(x.g, [1.0, 0.0])
    for z in (x, jets.sin(x * y) + 1.0, x ** 0):
        with pytest.raises(TypeError):
            z.h[0, 0]
    (b,) = jets.variables(np.array([1.0, 2.0]), order=1)
    with pytest.raises(TypeError):
        (b * b).h[0, 0]
    with pytest.raises(ValueError, match="order 1 or 2"):
        jets.variables(1.0, order=3)


@settings(max_examples=60, deadline=None)
@given(batches=jet_batches(2, (finite, nonzero)), c=nonzero)
def test_first_order_arithmetic_keeps_value_and_gradient(batches, c):
    xs, ys = batches
    cs = c * np.arange(1.0, len(xs) + 1.0)
    for x, y, cc in ((stack(xs), stack(ys), cs), (xs[0], ys[0], c)):
        for op in BINARY_OPS:
            for args in ((x, y), (x, c), (c, y), (x, cc), (cc, y)):
                assert_first_order_matches(op, *args)
        for fn in (operator.neg, lambda z: z ** -2, lambda z: z ** 0, lambda z: z ** 3):
            assert_first_order_matches(fn, y)


@settings(max_examples=60, deadline=None)
@given(batches=jet_batches(3, (positive, unit, moderate)), p=st.sampled_from([0.5, 1.5, -0.7]))
def test_first_order_functions_keep_value_and_gradient(batches, p):
    pos, uni, mod = batches
    for x, u, m in ((stack(pos), stack(uni), stack(mod)), (pos[0], uni[0], mod[0])):
        assert_first_order_matches(lambda z: z ** p, x)
        assert_first_order_matches(jets.sqrt, x)
        assert_first_order_matches(jets.acos, u)
        for fn in (jets.sin, jets.cos, jets.exp):
            assert_first_order_matches(fn, m)
        assert_first_order_matches(jets.atan2, m, x)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("batch", [None, 5])
def test_compose_is_the_chain_rule(order, batch):
    """``compose`` on f(u, v, w) = u v + sin(w), with f's partials, is the jet
    arithmetic of u * v + sin(w) to rounding, first or second order; a batch
    entry is the unbatched call bit for bit, and a first-order result has no
    Hessian."""
    rng = np.random.default_rng([order, batch or 1])
    shape = (3,) if batch is None else (3, batch)
    x = jets.variables(*rng.uniform(-1.0, 1.0, shape), order=order)
    u, v, w = x[0] * x[1] + x[2], jets.sin(x[0]) * x[2], x[1] * x[1] - x[0]
    want = u * v + jets.sin(w)
    sw, cw, z = jets.sin(w.f), jets.cos(w.f), 0.0 * u.f
    got = jets.compose(jets.stack([u, v, w]), u.f * v.f + sw, (v.f, u.f, cw),
                       ((z, 1.0 + z, z), (1.0 + z, z, z), (z, z, -sw)))
    assert np.allclose(got.g, want.g, rtol=0.0, atol=1e-14)
    if order == 1:
        assert got.h is None
    else:
        assert np.allclose(got.h, want.h, rtol=0.0, atol=1e-14)
        assert np.array_equal(got.h, got.h.swapaxes(0, 1))
    if batch is not None:
        one = jets.compose(
            jets.stack([jets.Jet(a.f[2], a.g[..., 2], None if a.h is None else a.h[..., 2])
                        for a in (u, v, w)]),
            got.f[2], (v.f[2], u.f[2], cw[2]),
            ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, -sw[2])))
        assert np.array_equal(one.g, got.g[..., 2])
        assert (one.h is None) if order == 1 else np.array_equal(one.h, got.h[..., 2])


def _compose_loop(inner, f, d, D):
    """``compose`` at second order as a loop over the inner jets, one term of
    each sum at a time: the reference for the order of its sums."""
    g = d[0] * inner[0].g
    t = [D[0][j] * inner[0].g for j in range(len(inner))]
    for i in range(1, len(inner)):
        g = g + d[i] * inner[i].g
        t = [t[j] + D[i][j] * inner[i].g for j in range(len(inner))]
    h = d[0] * inner[0].h + inner[0].g[:, None] * t[0]
    for i in range(1, len(inner)):
        h = h + (d[i] * inner[i].h + inner[i].g[:, None] * t[i])
    h = h * 0.5
    return g, h + h.swapaxes(0, 1)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("batch", [None, 1, 5])
def test_compose_sums_in_index_order(n, batch):
    """``compose`` adds the terms of its sums in index order, bit for bit as
    the loop over the inner jets, also where a jet has a single variable, and
    at first order too."""
    rng = np.random.default_rng([n, batch or 0])
    shape = () if batch is None else (batch,)

    def draw(*dims):  # magnitudes over 16 decades, so that the order shows
        return rng.normal(size=dims + shape) * 10.0 ** rng.integers(-8, 8, size=dims + shape)

    for _ in range(20):
        inner = [jets.Jet(draw()[()] if batch is None else draw(), draw(n), draw(n, n))
                 for _ in range(4)]
        d = [draw()[()] if batch is None else draw() for _ in range(4)]
        D = [[draw()[()] if batch is None else draw() for _ in range(4)] for _ in range(4)]
        g, h = _compose_loop(inner, 1.0, d, D)
        got = jets.compose(jets.stack(inner), 1.0, d, D)
        assert np.array_equal(got.g, g) and np.array_equal(got.h, h)
        first = jets.compose(jets.stack([jets.Jet(u.f, u.g, None) for u in inner]), 1.0, d, None)
        assert np.array_equal(first.g, g) and first.h is None


@pytest.mark.parametrize("batch", [None, 5])
def test_compose_does_not_read_the_layout_of_its_stack(batch):
    """``compose`` builds its weights W C-ordered itself, so the layout of
    the stack it is given moves no bit: a Fortran-ordered G and H, or ones
    whose leading axis is the contiguous one, give the C-ordered stack's
    result, at either order, for 2 to 6 inner jets."""
    rng = np.random.default_rng([11, batch or 0])
    shape = () if batch is None else (batch,)

    def draw(*dims):  # magnitudes over 16 decades, so that the order shows
        return rng.normal(size=dims + shape) * 10.0 ** rng.integers(-8, 8, size=dims + shape)

    layouts = (np.asfortranarray, lambda a: np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0))
    for m in range(2, 7):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G, H, d, D = draw(m, n), draw(m, n, n), list(draw(m)), list(map(list, draw(m, m)))
            want = jets.compose((None, G, H), 1.0, d, D)
            first = jets.compose((None, G, None), 1.0, d, None)
            for layout in layouts:
                assert bits(jets.compose((None, layout(G), layout(H)), 1.0, d, D)) == bits(want)
                got = jets.compose((None, layout(G), None), 1.0, d, None)
                assert np.asarray(got.g).tobytes() == np.asarray(first.g).tobytes()


@pytest.mark.parametrize("batch", [None, 1, 5])
def test_stack_takes_plain_numbers_and_mixed_orders(batch):
    """``stack`` turns separate jets into ``compose``'s stack, and plain
    numbers into their values with no rates; a first-order jet among
    second-order ones makes the stack, and so the result, first order."""
    rng = np.random.default_rng([3, batch or 0])
    shape = (2,) if batch is None else (2, batch)
    x, y = jets.variables(*rng.uniform(0.5, 1.5, shape))
    u, v = x * y, jets.sin(x)
    c = 0.75 if batch is None else np.full(batch, 0.75)
    d = [rng.uniform(-1.0, 1.0, shape[1:])[()] for _ in range(2)]
    f, G, H = jets.stack([c, c])
    assert f[0] is c and (G, H) == (None, None)
    first = jets.stack([u, jets.Jet(v.f, v.g, None)])
    assert first[2] is None and jets.compose(first, 1.0, d, None).h is None


@pytest.mark.parametrize("fn", ["stack", "split", "atan2"])
@pytest.mark.parametrize("plain_first", [True, False], ids=["plain-first", "jet-first"])
@pytest.mark.parametrize("batch", [None, 3])
def test_a_plain_number_among_jets_is_refused(fn, plain_first, batch):
    """``stack``, ``split`` and ``atan2`` never promote a plain number among
    jets to a zero-rate jet, nor drop its place: the mix raises, in either
    order.  ``split`` reads rates, so plain numbers alone raise too."""
    shape = (2,) if batch is None else (2, batch)
    x, _ = jets.variables(*np.full(shape, 0.5))
    c = 0.75 if batch is None else np.full(batch, 0.75)
    pair = (c, x) if plain_first else (x, c)
    call = {"stack": jets.stack, "split": jets.split, "atan2": lambda p: jets.atan2(*p)}[fn]
    with pytest.raises(TypeError, match="jets mixed with plain numbers"):
        call(pair)
    if fn == "split":
        with pytest.raises(TypeError, match="rates of jets"):
            jets.split((c, c))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("batch", [None, 5])
def test_compose_keeps_the_sign_of_a_zero_sum_at_either_order(order, batch):
    """Where every chain term is -0.0, ``compose`` reads -0.0 in g and h, as
    the jet arithmetic of (-0.0) x + (-0.0) y does, at either order."""
    shape = (2,) if batch is None else (2, batch)
    x, y = jets.variables(*np.full(shape, 0.5), order=order)
    want = (-0.0) * x + (-0.0) * y
    zero = -0.0 if batch is None else np.full(batch, -0.0)
    got = jets.compose(jets.stack([x, y]), want.f, (zero, zero),
                       ((zero, zero), (zero, zero)))
    assert bits(got) == bits(want)
    assert np.signbit(got.g).all()
    assert got.h is None if order == 1 else np.signbit(got.h).all()
