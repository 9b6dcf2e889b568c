"""Forward-mode automatic differentiation carrying value, gradient and Hessian.

A ``Jet`` is a truncated second-order Taylor expansion in ``n`` independent
variables.  All arithmetic propagates derivatives exactly (to rounding), which
is what the Hessian, momentum and Euler-Lagrange machinery rely on.

A jet may also be first order: ``variables(..., order=1)`` seeds jets whose
``h`` is ``None``, and the result of an operation is truncated to the lowest
order among its jet operands, so every operation on a first-order jet skips
its Hessian terms (Taylor propagation to a chosen degree, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  The value and
gradient formulas do not depend on the order, so ``f`` and ``g`` are the same
bit for bit at either order, signed zeros included.  A first-order Hessian
was never formed: reading an entry of ``None`` raises, it never reads as zero.

A jet may also carry a batch of B expansions in the same variables (the
vector forward mode of Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 3).  The batch axis comes last: ``f`` is a float or a ``(B,)``
array, ``g`` is ``(n,)`` or ``(n, B)`` and ``h`` is ``(n, n)`` or
``(n, n, B)``.  Every operation is one formula that broadcasts over the
trailing axis, and each batch entry is bit-identical to the same operation on
unbatched jets: the elementary functions whose numpy versions round
differently from ``math`` (``exp``, ``acos`` and ``atan2``) are evaluated
entry by entry through ``math``, and real powers through ``np.float_power``,
which is Python's pow where finite (``power``).  The operands of one operation
share one batch shape.

``compose`` gives the jet of a function of m functions from its first and
second partials, by one chain step; it is the one multi-input chain step.  It
reads their gradients and Hessians stacked on a leading axis, as the
Lagrangian's seeders write them; separate jets, as atan2's, go through ``stack``.

A plain number is never promoted to a zero-derivative jet (``constant`` makes
one).  The math functions take plain floats and arrays as numbers, so kernels
can be written once for numbers and jets.  A plain operand of ``+ - * /``,
either side, shifts the value or scales the whole jet: an int, a float or a
numpy scalar enters as its float, an array of the jet's batch shape as itself,
one number per entry (any other shape raises ValueError), and any other type
is no operand (TypeError).  ``stack`` and ``atan2`` take all jets or all plain
numbers, ``split`` only jets; a mix raises TypeError.  A result may share its
``g`` and ``h`` arrays with an operand (``x + 1.0`` keeps ``x.g``), the jets
returned by ``variables`` share one Hessian array, and unbatched seeds of one
width share read-only arrays across calls.  This is safe because no jet is
ever written in place: treat ``g`` and ``h`` as read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np


_ARRAY = np.ndarray
_NUMBER = (int, float, np.integer, np.floating)


def _each(fn, nin):
    """``fn`` from ``math`` on floats, and entry by entry on arrays."""
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(x, *rest):
        if isinstance(x, _ARRAY):
            return ufunc(x, *rest).astype(float)
        return fn(x, *rest)

    return apply


_pow_each = _each(pow, 2)


def power(x, p):
    """x ** p as Python computes it on floats, on a float or on each entry of
    an array.  On an array, ``np.float_power`` (C's pow, as Python's; numpy's
    power rounds differently) stands if every entry is finite; otherwise pow
    runs entry by entry, so an overflow, 0 to a negative power or a negative
    base to a fractional one raises as on a float."""
    if isinstance(x, _ARRAY):
        with np.errstate(all="ignore"):
            out = np.float_power(x, p)
        if np.isfinite(out).all():
            return out
    return _pow_each(x, p)


def _vectorized(fn, ufunc):
    """``fn`` from ``math`` on floats, the numpy ufunc that matches it bit for
    bit on arrays."""
    return lambda x: ufunc(x) if isinstance(x, _ARRAY) else fn(x)


_sqrt = _vectorized(math.sqrt, np.sqrt)
_sin = _vectorized(math.sin, np.sin)
_cos = _vectorized(math.cos, np.cos)
# np.exp, np.arccos and np.arctan2 miss math's result by 1 ulp on some inputs
_exp = _each(math.exp, 1)
_acos = _each(math.acos, 1)
_atan2 = _each(math.atan2, 2)


def raise_where(bad, error, message, *values):
    """Raise ``error(message.format(*values))`` where ``bad`` holds.

    ``bad`` is a bool, or a bool array of the batch shape, kept as the
    error's ``bad``; then ``values`` are arrays of that shape, and the message
    names their values at the first entry where ``bad`` holds and its index.
    """
    if isinstance(bad, _ARRAY):
        if bad.any():
            i = int(np.argmax(bad))
            exc = error(message.format(*(v[i] for v in values)) + f" (batch entry {i})")
            exc.bad = bad
            try:
                raise exc
            finally:  # no local keeps exc, so its traceback and this frame form no cycle
                del exc
    elif bad:
        raise error(message.format(*values))


def _plain(x, other):
    """The non-jet operand ``other`` of the jet ``x``: a float for a number,
    the array itself if it has x's batch shape, None for any other type."""
    if isinstance(other, _NUMBER):
        return float(other)
    if isinstance(other, _ARRAY):
        if other.shape != np.shape(x.f):
            raise ValueError(f"operand of shape {other.shape} does not match "
                             f"the batch shape {np.shape(x.f)}")
        return other
    return None


class Jet:
    """Second-order jet: value ``f``, gradient ``g`` (n,), Hessian ``h`` (n, n),
    each with a trailing batch axis when batched; a first-order jet has
    ``h = None``.  ``g`` and ``h`` must be float arrays (or ``h`` None); they
    are stored as given.
    """

    __slots__ = ("f", "g", "h")
    # numpy hands binary operations with a jet operand back to the jet
    __array_ufunc__ = None

    def __init__(self, f, g, h):
        # an unbatched value stays a Python float: numpy scalars are slower
        self.f = f if type(f) is float else (f if isinstance(f, _ARRAY) else float(f))
        self.g = g
        self.h = h

    @property
    def n(self):
        return self.g.shape[0]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None if self.h is None or other.h is None else self.h + other.h
            return Jet(self.f + other.f, self.g + other.g, h)
        c = _plain(self, other)
        return NotImplemented if c is None else Jet(self.f + c, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.g, _negated(self.h))

    def __sub__(self, other):
        if isinstance(other, Jet):
            h = None if self.h is None or other.h is None else self.h - other.h
            return Jet(self.f - other.f, self.g - other.g, h)
        c = _plain(self, other)
        return NotImplemented if c is None else Jet(self.f - c, self.g, self.h)

    def __rsub__(self, other):
        c = _plain(self, other)
        return NotImplemented if c is None else Jet(c - self.f, -self.g, _negated(self.h))

    def __mul__(self, other):
        if isinstance(other, Jet):
            g = self.f * other.g + other.f * self.g
            if self.h is None or other.h is None:
                return Jet(self.f * other.f, g, None)
            # h = self.h o.f + o.h self.f + g o.g^T + o.g g^T, summed in that order
            t = self.g[:, None] * other.g
            h = self.h * other.f
            h += other.h * self.f
            h += t
            h += t.swapaxes(0, 1)
            return Jet(self.f * other.f, g, h)
        c = _plain(self, other)
        if c is None:
            return NotImplemented
        return Jet(self.f * c, self.g * c, None if self.h is None else self.h * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        c = _plain(self, other)
        return NotImplemented if c is None else self * (1.0 / c)

    def __rtruediv__(self, other):
        c = _plain(self, other)
        return NotImplemented if c is None else _reciprocal(self) * c

    def __pow__(self, p):
        p = float(p)
        if not math.isfinite(p):  # int(p) would raise Python's own OverflowError
            raise ValueError(f"exponent {p} is not finite")
        if p == int(p) and abs(p) <= 64:
            k = int(p)
            if k == 0:
                return constant(_full(self.f, 1.0), self.n, 1 if self.h is None else 2)
            if k < 0:
                return 1.0 / (self ** (-k))
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        if p != int(p):  # a whole power is x^p on the whole line; pow refuses 0 ** -k
            raise_where(self.f <= 0.0, ValueError, f"x**{p} needs x > 0, got x={{}}", self.f)
        return _chain(
            self,
            power(self.f, p),
            p * power(self.f, p - 1.0),
            p * (p - 1.0) * power(self.f, p - 2.0),
        )


def variables(*vals, order=2):
    """Seed independent jet variables from numeric values: floats, or arrays
    of one batch shape (a batch of seeds per variable).  ``order=1`` seeds
    first-order jets (``h`` is None), for callers that read only ``f`` and
    ``g``."""
    if order not in (1, 2):
        raise ValueError(f"a jet has order 1 or 2, not {order!r}")
    n = len(vals)
    shape = getattr(vals[0], "shape", ()) if n else ()
    eye, zero = (np.multiply.outer(np.eye(n), np.ones(shape)), np.zeros((n, n) + shape)) \
        if shape else _unbatched_seeds(n)
    return [Jet(v, eye[i], zero if order == 2 else None) for i, v in enumerate(vals)]


@functools.cache
def _unbatched_seeds(n):
    """The seeds of n unbatched variables, made once and read-only."""
    eye, zero = np.eye(n), np.zeros((n, n))
    eye.flags.writeable = zero.flags.writeable = False
    return eye, zero


def constant(v, n, order=2):
    """A jet of value ``v`` (a float or a batch array) in n variables, with
    zero derivatives, of the given order."""
    shape = np.shape(v)
    return Jet(v, np.zeros((n,) + shape), np.zeros((n, n) + shape) if order == 2 else None)


def _negated(h):
    return None if h is None else -h


def _full(like, v):
    """The float v, or v at every entry of a batch shaped like ``like``."""
    return np.full(like.shape, v) if isinstance(like, _ARRAY) else v


def value(x):
    """Numeric value of a jet or plain number: a float, or a float array for a batch."""
    if isinstance(x, Jet):
        return x.f
    return x if isinstance(x, _ARRAY) else float(x)


def _all_jets(items):
    """Whether ``items`` are jets, not plain numbers; a mix raises TypeError."""
    kinds = {isinstance(u, Jet) for u in items}
    if len(kinds) == 2:
        raise TypeError("jets mixed with plain numbers; make the numbers jets.constant")
    return True in kinds


def split(vec):
    """Values and first derivatives of jets in one parameter, of one batch
    shape, as two float arrays of shape (len(vec),) or (len(vec), B)."""
    if not _all_jets(vec):
        raise TypeError("split reads the rates of jets, not of plain numbers")
    return np.array([c.f for c in vec]), np.array([c.g[0] for c in vec])


def _chain(u, f, f1, f2):
    """Compose a scalar function (value f, derivatives f1, f2) with jet u."""
    g = u.g
    if u.h is None:
        return Jet(f, f1 * g, None)
    h = f1 * u.h
    h += f2 * (g[:, None] * g)
    return Jet(f, f1 * g, h)


def stack(items):
    """The m functions ``items``, all jets in the same variables or all plain
    numbers, as one stack ``(f, G, H)``: their values, gradients G (m, n[, B])
    and Hessians H (m, n, n[, B]); H is None if a jet is first order, both are
    None for plain numbers."""
    f = [value(u) for u in items]
    if not _all_jets(items):
        return f, None, None
    H = None if any(u.h is None for u in items) else np.array([u.h for u in items])
    return f, np.array([u.g for u in items]), H


def join(items):
    """Jets of one order in the same variables as one batch: their entries in
    order along the batch axis, an unbatched jet one entry.  It moves values
    and derivatives and computes nothing, so each entry keeps its bits."""
    def batched(a, lead):
        return np.reshape(a, np.shape(a)[:lead] + (-1,))
    h = None if any(u.h is None for u in items) else \
        np.concatenate([batched(u.h, 2) for u in items], axis=-1)
    return Jet(np.concatenate([batched(u.f, 0) for u in items]),
               np.concatenate([batched(u.g, 1) for u in items], axis=-1), h)


def compose(inner, f, d, D):
    """The jet of a function of m functions u_1, ..., u_m of the same
    variables, from its value ``f`` and its first and second partials in the
    u_i at their values: ``d`` (m entries) and the symmetric ``D`` (m rows of
    m), each entry a float, or an array of the batch shape for a batch.
    ``inner`` is the u_i's stack ``(f, G, H)`` (see ``stack``); a size-1 axis
    of G and H ahead of the batch's broadcasts over a leading axis of the entries.

    One chain step through the composite (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 13):

        g = sum_i d_i g_i,    h = sum_i d_i h_i + sum_ij D_ij g_i g_j^T.

    The sums over i run in index order, one term at a time, so each batch
    entry is bit-identical to the unbatched call: the terms are stacked on a
    leading axis, which ``np.add.reduce`` adds in index order where a term
    has two or more entries or there are fewer than eight terms (numpy sums
    pairwise only along a contiguous run of eight or more).  So the weights W
    are built C-ordered here (a transposed view made numpy sum in another
    order); the layout of G and H moves no bit.  Each sum starts from -0.0, so
    a sum of -0.0 terms is -0.0, as for jets.  The result is first order if H
    is None, and then ``D`` is not read (it may be None).
    """
    _, G, H = inner
    # g and t_j = sum_i D_ij g_i in one sum: row i of W is (d_i[, D_i1, ..., D_im])
    W = np.array(list(zip(d)) if H is None else [(di, *Di) for di, Di in zip(d, D)])
    gt = np.add.reduce(W[:, :, None] * G[:, None], axis=0, initial=-0.0)
    if H is None:
        return Jet(f, gt[0], None)
    # sum_i d_i h_i + sum_ij D_ij g_i g_j^T = sum_i (g_i t_i^T + d_i h_i)
    T = G[:, :, None] * gt[1:, None]
    T += W[:, 0, None, None] * H
    h = np.add.reduce(T, axis=0, initial=-0.0)
    # made symmetric bit for bit, halved first so that it overflows only where h does
    h *= 0.5
    return Jet(f, gt[0], h + h.swapaxes(0, 1))


def _reciprocal(u):
    raise_where(u.f == 0.0, ZeroDivisionError, "float division by zero")  # as for a float
    # numpy quotients: infinite, as in a batch, where a power of u.f underflows to 0
    return _chain(u, 1.0 / u.f, np.float64(-1.0) / power(u.f, 2),
                  np.float64(2.0) / power(u.f, 3))


def sqrt(x):
    if not isinstance(x, Jet):
        raise_where(x < 0.0, ValueError, "sqrt of negative value {}", x)
        return _sqrt(x)
    raise_where(x.f <= 0.0, ValueError, "sqrt needs a positive argument, got {}", x.f)
    r = _sqrt(x.f)
    # a numpy quotient, so that where r * x.f underflows to 0 the second
    # derivative of a float is -inf, as it is for a batch entry
    return _chain(x, r, 0.5 / r, np.float64(-0.25) / (r * x.f))


def sin(x):
    if not isinstance(x, Jet):
        return _sin(x)
    raise_where(np.isinf(x.f), ValueError, "math domain error")  # as math.sin at a float
    s = _sin(x.f)
    return _chain(x, s, _cos(x.f), -s)


def cos(x):
    if not isinstance(x, Jet):
        return _cos(x)
    raise_where(np.isinf(x.f), ValueError, "math domain error")  # as math.cos at a float
    c = _cos(x.f)
    return _chain(x, c, -_sin(x.f), -c)


def exp(x):
    if not isinstance(x, Jet):
        return _exp(x)
    e = _exp(x.f)
    return _chain(x, e, e, e)


def acos(x):
    if not isinstance(x, Jet):
        return _acos(x)
    raise_where(np.logical_not((-1.0 < x.f) & (x.f < 1.0)), ValueError,
                "acos is differentiable only on (-1, 1), got {}", x.f)
    s = 1.0 - x.f * x.f
    return _chain(x, _acos(x.f), -1.0 / _sqrt(s), -x.f / power(s, 1.5))


def atan2(y, x):
    if not _all_jets((y, x)):
        return _atan2(y, x)
    yf, xf = y.f, x.f
    d = xf * xf + yf * yf
    raise_where(d == 0.0, ValueError, "atan2 undefined at the origin")
    d2 = power(d, 2)
    fxx = 2.0 * xf * yf / d2
    fxy = (yf * yf - xf * xf) / d2
    return compose(stack((x, y)), _atan2(yf, xf), (-yf / d, xf / d), ((fxx, fxy), (fxy, -fxx)))
