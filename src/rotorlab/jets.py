"""Forward-mode automatic differentiation carrying value, gradient and Hessian.

A ``Jet`` is a truncated second-order Taylor expansion in ``n`` independent
variables.  All arithmetic propagates derivatives exactly (to rounding), which
is what the Hessian, momentum and Euler-Lagrange machinery rely on.  Plain
floats pass through the module-level math functions unchanged, so numerical
kernels can be written once and evaluated either on numbers or on jets.

A jet may also carry a batch of B expansions in the same variables (the
vector forward mode of Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 3).  The batch axis comes last: ``f`` is a float or a ``(B,)``
array, ``g`` is ``(n,)`` or ``(n, B)`` and ``h`` is ``(n, n)`` or
``(n, n, B)``.  Every operation is one formula that broadcasts over the
trailing axis, and each batch entry is bit-identical to the same operation on
unbatched jets: the elementary functions whose numpy versions round
differently from ``math`` (``exp``, ``acos``, ``atan2`` and real powers) are
evaluated entry by entry through ``math``.  Plain numbers are likewise floats
or arrays of the batch shape, and the operands of one operation share one
batch shape.

A plain-number operand of ``+ - * /`` shifts the value or scales the whole
jet; it is never promoted to a zero-derivative jet.  A result may share its
``g`` and ``h`` arrays with an operand (``x + 1.0`` keeps ``x.g``), and the
jets returned by ``variables`` share one Hessian array.  This is safe because
no jet is ever written in place: treat ``g`` and ``h`` as read-only.
"""

from __future__ import annotations

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


# x ** p as Python computes it on floats, on a float or on each entry of an
# array (numpy's power rounds differently)
power = _each(pow, 2)


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

    ``bad`` is a bool, or a bool array of the batch shape; then each of
    ``values`` is an array of that shape, the message names the values at
    the first entry where ``bad`` holds, and ends with that entry's index.
    """
    if isinstance(bad, _ARRAY):
        if not bad.any():
            return
        i = int(np.argmax(bad))
        raise error(message.format(*(v[i] for v in values)) + f" (batch entry {i})")
    if bad:
        raise error(message.format(*values))


class Jet:
    """Second-order jet: value ``f``, gradient ``g`` (n,), Hessian ``h`` (n, n),
    each with a trailing batch axis when batched.

    ``g`` and ``h`` must be float arrays; they are stored as given.
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

    def __repr__(self):
        return f"Jet({self.f!r}, grad={self.g!r})"

    # -- arithmetic -------------------------------------------------------

    def _batch(self, other):
        """An array operand: a plain number per batch entry."""
        if other.shape != np.shape(self.f):
            raise ValueError(f"operand of shape {other.shape} does not match "
                             f"the batch shape {np.shape(self.f)}")
        return other

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f, self.g + other.g, self.h + other.h)
        if isinstance(other, _NUMBER):
            return Jet(self.f + float(other), self.g, self.h)
        if isinstance(other, _ARRAY):
            return Jet(self.f + self._batch(other), self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f, self.g - other.g, self.h - other.h)
        if isinstance(other, _NUMBER):
            return Jet(self.f - float(other), self.g, self.h)
        if isinstance(other, _ARRAY):
            return Jet(self.f - self._batch(other), self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(float(other) - self.f, -self.g, -self.h)
        if isinstance(other, _ARRAY):
            return Jet(self._batch(other) - self.f, -self.g, -self.h)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            # h = self.h o.f + o.h self.f + g o.g^T + o.g g^T, summed in that order
            t = self.g[:, None] * other.g
            h = self.h * other.f
            h += other.h * self.f
            h += t
            h += t.swapaxes(0, 1)
            return Jet(self.f * other.f, self.f * other.g + other.f * self.g, h)
        if isinstance(other, _NUMBER):
            c = float(other)
        elif isinstance(other, _ARRAY):
            c = self._batch(other)
        else:
            return NotImplemented
        return Jet(self.f * c, self.g * c, self.h * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        if isinstance(other, _NUMBER):
            return self * (1.0 / float(other))
        if isinstance(other, _ARRAY):
            return self * (1.0 / self._batch(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return _reciprocal(self) * float(other)
        if isinstance(other, _ARRAY):
            return _reciprocal(self) * self._batch(other)
        return NotImplemented

    def __pow__(self, p):
        p = float(p)
        if p == int(p) and abs(p) <= 64:
            k = int(p)
            if k == 0:
                return constant(_full(self.f, 1.0), self.n)
            if k < 0:
                return 1.0 / (self ** (-k))
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        raise_where(self.f <= 0.0, ValueError, f"x**{p} needs x > 0, got x={{}}", self.f)
        return _chain(
            self,
            power(self.f, p),
            p * power(self.f, p - 1.0),
            p * (p - 1.0) * power(self.f, p - 2.0),
        )

    def __abs__(self):
        raise_where(self.f == 0.0, ValueError, "abs() is not differentiable at 0")
        return self * np.sign(self.f)

    def __float__(self):
        raise TypeError("refusing to silently drop derivatives; use jets.value()")


def variables(*vals):
    """Seed independent jet variables from numeric values: floats, or arrays
    of one batch shape (a batch of seeds per variable)."""
    n = len(vals)
    shape = getattr(vals[0], "shape", ()) if n else ()
    eye = np.multiply.outer(np.eye(n), np.ones(shape)) if shape else np.eye(n)
    zero = np.zeros((n, n) + shape)
    return [Jet(v, eye[i], zero) for i, v in enumerate(vals)]


def constant(v, n):
    """A jet of value ``v`` (a float or a batch array) in n variables, with
    zero derivatives."""
    shape = np.shape(v)
    return Jet(v, np.zeros((n,) + shape), np.zeros((n, n) + shape))


def _full(like, v):
    """The float v, or v at every entry of a batch shaped like ``like``."""
    return np.full(like.shape, v) if isinstance(like, _ARRAY) else v


def value(x):
    """Numeric value of a jet or plain number: a float, or a float array for
    a batch."""
    if isinstance(x, Jet):
        return x.f
    return x if isinstance(x, _ARRAY) else float(x)


def split(vec):
    """Values and first derivatives of jets in one parameter, as two float
    arrays, of shape (len(vec),) or (len(vec), B); a plain-number entry has
    derivative 0.  The entries share one batch shape."""
    val = np.array([value(c) for c in vec])
    der = np.array([c.g[0] if isinstance(c, Jet) else _full(value(c), 0.0) for c in vec])
    return val, der


def _chain(u, f, f1, f2):
    """Compose a scalar function (value f, derivatives f1, f2) with jet u."""
    g = u.g
    h = f1 * u.h
    h += f2 * (g[:, None] * g)
    return Jet(f, f1 * g, h)


def _chain2(ux, uy, f, fx, fy, fxx, fyy, fxy):
    gx, gy = ux.g, uy.g
    g = fx * gx + fy * gy
    h = fx * ux.h
    h += fy * uy.h
    h += fxx * (gx[:, None] * gx)
    h += fyy * (gy[:, None] * gy)
    t = gx[:, None] * gy
    h += fxy * (t + t.swapaxes(0, 1))
    return Jet(f, g, h)


def _reciprocal(u):
    return _chain(u, 1.0 / u.f, -1.0 / power(u.f, 2), 2.0 / power(u.f, 3))


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
    s = _sin(x.f)
    return _chain(x, s, _cos(x.f), -s)


def cos(x):
    if not isinstance(x, Jet):
        return _cos(x)
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
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return _atan2(y, x)
    if not isinstance(y, Jet):
        y = constant(_full(x.f, y), x.n)
    if not isinstance(x, Jet):
        x = constant(_full(y.f, x), y.n)
    d = x.f * x.f + y.f * y.f
    raise_where(d == 0.0, ValueError, "atan2 undefined at the origin")
    f = _atan2(y.f, x.f)
    fx, fy = -y.f / d, x.f / d
    d2 = power(d, 2)
    fxx = 2.0 * x.f * y.f / d2
    fyy = -fxx
    fxy = (y.f * y.f - x.f * x.f) / d2
    return _chain2(x, y, f, fx, fy, fxx, fyy, fxy)
