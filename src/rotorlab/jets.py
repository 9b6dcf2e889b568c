"""Forward-mode automatic differentiation carrying value, gradient and Hessian.

A ``Jet`` is a truncated second-order Taylor expansion in ``n`` independent
variables.  All arithmetic propagates derivatives exactly (to rounding), which
is what the Hessian, momentum and Euler-Lagrange machinery rely on.  Plain
floats pass through the module-level math functions unchanged, so numerical
kernels can be written once and evaluated either on numbers or on jets.

A plain-number operand of ``+ - * /`` shifts the value or scales the whole
jet; it is never promoted to a zero-derivative jet.  A result may share its
``g`` and ``h`` arrays with an operand (``x + 1.0`` keeps ``x.g``), and the
jets returned by ``variables`` share one Hessian array.  This is safe because
no jet is ever written in place: treat ``g`` and ``h`` as read-only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "variables",
    "constant",
    "value",
    "split",
    "sqrt",
    "sin",
    "cos",
    "exp",
    "acos",
    "atan2",
]


_NUMBER = (int, float, np.integer, np.floating)


class Jet:
    """Second-order jet: value ``f``, gradient ``g`` (n,), Hessian ``h`` (n, n).

    ``g`` and ``h`` must be float arrays; they are stored as given.
    """

    __slots__ = ("f", "g", "h")

    def __init__(self, f, g, h):
        self.f = float(f)
        self.g = g
        self.h = h

    @property
    def n(self):
        return self.g.shape[0]

    def __repr__(self):
        return f"Jet({self.f!r}, grad={self.g!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f, self.g + other.g, self.h + other.h)
        if isinstance(other, _NUMBER):
            return Jet(self.f + float(other), self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f, self.g - other.g, self.h - other.h)
        if isinstance(other, _NUMBER):
            return Jet(self.f - float(other), self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(float(other) - self.f, -self.g, -self.h)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            # h = self.h o.f + o.h self.f + g o.g^T + o.g g^T, summed in that order
            t = self.g[:, None] * other.g
            h = self.h * other.f
            h += other.h * self.f
            h += t
            h += t.T
            return Jet(self.f * other.f, self.f * other.g + other.f * self.g, h)
        if isinstance(other, _NUMBER):
            c = float(other)
            return Jet(self.f * c, self.g * c, self.h * c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _chain(other, 1.0 / other.f, -1.0 / other.f**2,
                                 2.0 / other.f**3)
        if isinstance(other, _NUMBER):
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return _chain(self, 1.0 / self.f, -1.0 / self.f**2,
                          2.0 / self.f**3) * float(other)
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, Jet):
            if p.g.any() or p.h.any():
                raise ValueError("jet-valued exponents are not supported")
            p = p.f
        p = float(p)
        if p == int(p) and abs(p) <= 64:
            k = int(p)
            if k == 0:
                return constant(1.0, self.n)
            if k < 0:
                return 1.0 / (self ** (-k))
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        if self.f <= 0.0:
            raise ValueError(f"x**{p} needs x > 0, got x={self.f}")
        return _chain(
            self,
            self.f**p,
            p * self.f ** (p - 1.0),
            p * (p - 1.0) * self.f ** (p - 2.0),
        )

    def __abs__(self):
        if self.f == 0.0:
            raise ValueError("abs() is not differentiable at 0")
        return self if self.f > 0.0 else -self

    # -- comparisons on values (handy for domain checks) ------------------

    def __lt__(self, other):
        return self.f < value(other)

    def __le__(self, other):
        return self.f <= value(other)

    def __gt__(self, other):
        return self.f > value(other)

    def __ge__(self, other):
        return self.f >= value(other)

    def __float__(self):
        raise TypeError("refusing to silently drop derivatives; use jets.value()")


def variables(*vals):
    """Seed independent jet variables from numeric values."""
    n = len(vals)
    eye, zero = np.eye(n), np.zeros((n, n))
    return [Jet(v, eye[i], zero) for i, v in enumerate(vals)]


def constant(v, n):
    return Jet(v, np.zeros(n), np.zeros((n, n)))


def value(x):
    """Numeric value of a jet or plain number."""
    return x.f if isinstance(x, Jet) else float(x)


def split(vec):
    """Values and first derivatives of jets in one parameter, as two float
    arrays; a plain-number entry has derivative 0."""
    val = np.array([value(c) for c in vec])
    der = np.array([c.g[0] if isinstance(c, Jet) else 0.0 for c in vec])
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
    h += fxy * (t + t.T)
    return Jet(f, g, h)


def sqrt(x):
    if not isinstance(x, Jet):
        if x < 0.0:
            raise ValueError(f"sqrt of negative value {x}")
        return math.sqrt(x)
    if x.f <= 0.0:
        raise ValueError(f"sqrt needs a positive argument, got {x.f}")
    r = math.sqrt(x.f)
    return _chain(x, r, 0.5 / r, -0.25 / (r * x.f))


def sin(x):
    if not isinstance(x, Jet):
        return math.sin(x)
    return _chain(x, math.sin(x.f), math.cos(x.f), -math.sin(x.f))


def cos(x):
    if not isinstance(x, Jet):
        return math.cos(x)
    return _chain(x, math.cos(x.f), -math.sin(x.f), -math.cos(x.f))


def exp(x):
    if not isinstance(x, Jet):
        return math.exp(x)
    e = math.exp(x.f)
    return _chain(x, e, e, e)


def acos(x):
    if not isinstance(x, Jet):
        return math.acos(x)
    if not -1.0 < x.f < 1.0:
        raise ValueError("acos is differentiable only on (-1, 1)")
    s = 1.0 - x.f * x.f
    return _chain(x, math.acos(x.f), -1.0 / math.sqrt(s), -x.f / s**1.5)


def atan2(y, x):
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return math.atan2(y, x)
    if not isinstance(y, Jet):
        y = constant(y, x.n)
    if not isinstance(x, Jet):
        x = constant(x, y.n)
    d = x.f * x.f + y.f * y.f
    if d == 0.0:
        raise ValueError("atan2 undefined at the origin")
    f = math.atan2(y.f, x.f)
    fx, fy = -y.f / d, x.f / d
    fxx = 2.0 * x.f * y.f / d**2
    fyy = -fxx
    fxy = (y.f * y.f - x.f * x.f) / d**2
    return _chain2(x, y, f, fx, fy, fxx, fyy, fxy)
