"""The Lagrangian family L = -M sqrt(xdot.xdot) F(P, Q).

P and Q are the two reparametrization-invariant, scale-free combinations of a
null vector's motion relative to its worldline.  An ``FForm`` wraps a generic
evaluator F(P, Q) (floats or jets) together with the dimensional parameters
(M, ell); a parameter nu of F is bound into F itself.  ``FForm.eval`` gives
F and its partials, exact to rounding, from one evaluation on jets at a float
or batch (P, Q).  F's domain, a builtin's too, is where that evaluation
succeeds, found over a batch in one pass per refusing step (``eval_inside``),
whose last pass also gives F and its partials on the entries inside.
The Lagrangian reads the velocities only through four scalar products
(``scalar_products``), taken as one stack of their values and rates
(``jets.stack``), and is differentiated once: F's partials at (P, Q), L's
partials in the four scalars in closed form, and one chain step, batched too.

Builtins are the members the paper names: the point particle, the rotator
sqrt(1 + sqrt(Q)) and the two families with fixed mass and spin, each an
expression that ``parse_f`` reads with its signs written in.  ``parse_f``
reads one over P, Q, nu, and ``parse_phase`` one over t, in Python's
arithmetic grammar with ^ for powers: decimal numbers (read as floats), the
names, + - * / ^, parentheses, and sqrt, sin, cos, exp; anything else is a
ParseError.
"""

from __future__ import annotations

import ast
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import jets
from .minkowski import DomainError, dot


@dataclass(frozen=True)
class PQPoint:
    P: float
    Q: float

    def __post_init__(self):
        if self.Q < 0.0:
            raise DomainError(f"Q = {self.Q} must be nonnegative")


class FFormValue(NamedTuple):
    F: float
    F_P: float
    F_Q: float
    F_PP: float
    F_PQ: float
    F_QQ: float


@dataclass(frozen=True)
class FForm:
    """A member of the Lagrangian family with exact partials.  Its domain is
    where F is twice differentiable: where its evaluation on jets succeeds."""

    func: Callable  # (P, Q) -> scalar, generic over floats and jets
    name: str = "custom"
    M: float = 1.0
    ell: float = 1.0

    def eval(self, P, Q, order=2) -> FFormValue:
        """F and its partials at (P, Q) from one evaluation of F on jets of the
        given order (at order 1 the second partials are None): floats, or
        arrays for batch arrays.  Outside the domain its DomainError names
        (P, Q), for a batch the first entry outside and its index, and why."""
        where = ""
        if isinstance(P, np.ndarray):
            inside, v = self.eval_inside(P, Q, order)
            if inside.all():
                return v
            i = int(np.argmin(inside))
            P, Q, where = P[i].item(), Q[i].item(), f" (batch entry {i})"
        v = self._try(P, Q, order)
        if isinstance(v, DomainError):
            raise DomainError(f"(P, Q) = ({P}, {Q}) outside domain of {self.name}{where}: {v}")
        return v

    def eval_inside(self, P, Q, order=2):
        """(inside, value) over a batch of (P, Q) arrays: the domain's mask,
        and F and its partials on the entries inside (None if there are none).
        F runs on jets over the entries still inside, once per refusing step
        plus one: the step names its entries (``jets.raise_where``'s ``bad``,
        down the ``__cause__`` chain), which are dropped.  A refusal that
        names none, as an overflow that Python raises, is settled entry by entry;
        if no entry refuses alone, the batch's refusal is raised."""
        inside = np.ones(P.shape, dtype=bool)
        while True:
            at = P[inside], Q[inside]
            v = cause = self._try(*at, order)
            if not isinstance(v, DomainError):
                return inside, v
            while cause is not None and not hasattr(cause, "bad"):
                cause = cause.__cause__
            bad = getattr(cause, "bad", None)
            if bad is None:
                bad = [isinstance(self._try(p, q, order), DomainError)
                       for p, q in zip(*(a.tolist() for a in at))]
                if not any(bad):
                    raise v
            inside[inside] = np.logical_not(bad)
            if not inside.any():
                return inside, None

    def _try(self, P, Q, order=2):
        """F and its partials at (P, Q) from one evaluation of F on jets, or
        the DomainError that the evaluation raises."""
        try:
            out = self.func(*jets.variables(P, Q, order=order))
        except DomainError as exc:
            return exc
        if not isinstance(out, jets.Jet):  # F does not depend on P or Q
            c = np.full(np.shape(P), float(out)) if np.ndim(P) else float(out)
            out = jets.constant(c, 2, order)
        g, h = out.g, ((None, None),) * 2 if out.h is None else out.h
        if g.ndim == 1:  # one state: Python floats, faster than numpy scalars
            g, h = g.tolist(), h if out.h is None else h.tolist()
        return FFormValue(out.f, *g, *h[0], h[1][1])


def form_groups(forms) -> dict:
    """The indices of ``forms`` per (M, ell), the pairs in the order they first appear."""
    keys = [(F.M, F.ell) for F in forms]
    return {k: [i for i, c in enumerate(keys) if c == k] for k in dict.fromkeys(keys)}


def scalar_products(xdot, k, kdot):
    """xdot.xdot, k.xdot, kdot.xdot and kdot.kdot, the four scalar products
    that L reads; jet-generic, and per batch entry for (4, B) arrays."""
    return dot(xdot, xdot), dot(k, xdot), dot(kdot, xdot), dot(kdot, kdot)


def pq_from_vectors(xdot, k, kdot, ell: float) -> PQPoint:
    """(P, Q) from raw (xdot, k, kdot); see ``pq_from_scalars``."""
    _, P, Q = pq_from_scalars(*scalar_products(xdot, k, kdot), ell)
    return PQPoint(P=float(P), Q=float(Q))


def pq_from_scalars(xx, kx, kdx, kdkd, ell: float):
    """(sqrt(x.x), P, Q) from the scalar products xdot.xdot, k.xdot,
    kdot.xdot and kdot.kdot, with P = ell kd.x / (k.x sqrt(x.x)) and
    Q = -ell^2 kd.kd / (k.x)^2; jet-generic."""
    xxv, kxv = jets.value(xx), jets.value(kx)
    jets.raise_where(xxv <= 0.0, DomainError, "xdot.xdot = {} must be positive", xxv)
    jets.raise_where(kxv <= 0.0, DomainError, "k.xdot = {} must be positive", kxv)
    rt = jets.sqrt(xx)
    return rt, ell * kdx / (kx * rt), -(ell**2) * kdkd / (kx * kx)


# -- expression parser -------------------------------------------------------
# An expression is Python's arithmetic with ^ for powers.  ``_parse`` writes
# ^ as ** and hands the text to ``ast.parse``; the tree it keeps holds decimal
# numbers (as floats), the given names, + - * / ** and unary + -, and calls
# of a bare ``_FUNCTIONS`` name on one argument.  Python never compiles it.


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_FUNCTIONS = {"sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos, "exp": jets.exp}
# a character outside the language, or two *s in a row: Python's power, not ours
_FOREIGN = re.compile(r"[^\sA-Za-z0-9.+\-*/^()]|\*\s*\*")
# an integer literal: the zeros that lead it (Python refuses 01, read here as
# 1), then its digits
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])(0*)([0-9]+)(?![\w.])")
_NUMBER = re.compile(r"(?:[0-9]+\.?|[0-9]*\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _parse(text: str, names):
    """The checked ast of an expression over ``names``, its numbers floats.
    A ParseError's position indexes ``text``."""
    bad = _FOREIGN.search(text)
    if bad:
        raise ParseError(f"unexpected {text[bad.end() - 1]!r}", bad.end() - 1)
    limit = sys.get_int_max_str_digits()  # Python's, past which it reads no integer
    for m in _INTEGER.finditer(text):
        if limit and len(m[2]) > limit:
            raise ParseError("number too long", m.start())
    # one line, blanks for whitespace and leading zeros, then without its
    # leading blanks and with ^ as **: column c of src is text[origin[c]]
    src = _INTEGER.sub(lambda m: " " * len(m[1]) + m[2], re.sub(r"\s", " ", text))
    lead = len(src) - len(src.lstrip())
    origin = [i for i, c in enumerate(src) for _ in ("**" if c == "^" else c)]
    origin = origin[lead:] + [len(text)]
    src = src[lead:].replace("^", "**")

    def error(message, col):
        return ParseError(message, origin[min(col, len(src))])

    def check(node):
        if isinstance(node, ast.Constant):
            number = src[node.col_offset:node.end_col_offset]
            if not _NUMBER.fullmatch(number):
                raise error(f"bad number {number!r}", node.col_offset)
            node.value = float(number)
        elif isinstance(node, ast.Name):
            if node.id not in names:
                raise error(f"unknown name {node.id!r}", node.col_offset)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            check(node.operand)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            check(node.left)
            check(node.right)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.col_offset == node.col_offset  # not (sqrt)(Q)
              and len(node.args) == 1):  # no = or ** in the text, so no keywords
            if node.func.id not in _FUNCTIONS:
                raise error(f"unknown function {node.func.id!r}", node.col_offset)
            check(node.args[0])
        else:
            segment = text[origin[node.col_offset]:origin[node.end_col_offset]]
            raise error(f"unexpected {segment!r}", node.col_offset)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1or Q warns, and raises as a SyntaxError
            tree = ast.parse(src, mode="eval").body
        check(tree)
    except SyntaxError as exc:
        # an offset of 0 is the end of the text, as for '1 +'
        raise error(exc.msg, exc.offset - 1 if exc.offset else len(src)) from None
    except (RecursionError, MemoryError):  # MemoryError: the parser's stack overflowed
        raise ParseError("expression nested too deeply", 0) from None
    return tree


def _evaluate(tree, env):
    """``_eval_node``, with a step's refusal (a ValueError: its message) or an
    overflow, a zero divisor inside the jets or a tree too deep to recurse
    through (its type, message) reported as a DomainError."""
    try:
        return _eval_node(tree, env)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    except (ArithmeticError, RecursionError) as exc:
        raise DomainError(f"{type(exc).__name__}: {exc.args[-1]}") from exc


def _eval_node(node, env):
    kind = type(node)
    if kind is ast.Constant:
        return node.value
    if kind is ast.Name:
        return env[node.id]
    if kind is ast.UnaryOp:
        x = _eval_node(node.operand, env)
        return -x if type(node.op) is ast.USub else x  # a Jet has no __pos__
    if kind is ast.Call:
        return _FUNCTIONS[node.func.id](_eval_node(node.args[0], env))
    a = _eval_node(node.left, env)
    b = _eval_node(node.right, env)
    op = type(node.op)
    if op is ast.Pow:
        if isinstance(b, jets.Jet):
            # its derivatives would be dropped: a^b is differentiated in a only
            raise DomainError("an exponent must not depend on the variables")
        out = a**b
        if isinstance(out, complex):
            raise DomainError(f"{a} ^ {b} is not real")
        return out
    if op is ast.Add:
        return a + b
    if op is ast.Sub:
        return a - b
    if op is ast.Mult:
        return a * b
    jets.raise_where(jets.value(b) == 0.0, DomainError, "division by zero")
    return a / b  # ast.Div, the one operator left


def parse_f(expr: str, M: float = 1.0, ell: float = 1.0, nu: float = 0.0) -> FForm:
    """Compile an expression over P, Q, nu into an FForm."""
    return FForm(func=_form_func(_parse(expr, ("P", "Q", "nu")), nu=nu),
                 name=f"parsed:{expr}", M=M, ell=ell)


def _form_func(tree, **params):
    """F(P, Q) from the ast of an expression, its other names bound to ``params``."""
    return lambda P, Q: _evaluate(tree, {"P": P, "Q": Q, **params})


def parse_phase(expr: str):
    """Compile an expression over t into a jet-generic scalar function."""
    tree = _parse(expr, ("t",))
    return lambda t, _tree=tree: _evaluate(_tree, {"t": t})


# -- builtins ----------------------------------------------------------------
# name: (its label, showing the parameters F reads; F as an expression over
# P, Q, nu and the (outer, inner) signs s1, s2, which alone gives its domain)

BUILTINS = {
    "point_particle": ("point_particle", "1"),
    "rotator_f": ("rotator_f", "sqrt(1 + sqrt(Q))"),
    "starlike": ("starlike[{s1:+d},{s2:+d}]", "s1*sqrt((1 + s2*sqrt(Q))*(1 + P*P/Q))"),
    "nu_family": ("nu_family[{nu},{s1:+d},{s2:+d}]", "nu*P + s1*sqrt(1 + s2*sqrt(Q) - nu^2*Q)"),
}
BUILTIN_NAMES = tuple(BUILTINS)
_TREES = {n: _parse(e, ("P", "Q", "nu", "s1", "s2")) for n, (_, e) in BUILTINS.items()}


def builtin(name: str, *, signs=(1, 1), nu: float = 0.0, M: float = 1.0,
            ell: float = 1.0) -> FForm:
    """The member ``name`` of ``BUILTINS``, its expression evaluated as
    ``parse_f`` evaluates one; ``signs`` are (s1, s2): for ``starlike`` the
    signs of +-sqrt((1 +- sqrt(Q))(1 + P^2/Q)), for ``nu_family`` those of
    nu P +- sqrt(1 +- sqrt(Q) - nu^2 Q)."""
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    s1, s2 = signs
    return FForm(func=_form_func(_TREES[name], nu=nu, s1=s1, s2=s2),
                 name=BUILTINS[name][0].format(nu=nu, s1=s1, s2=s2), M=M, ell=ell)


# -- Lagrangian density ------------------------------------------------------


def lagrangian_from_vectors(F: FForm, xdot, k, kdot):
    """L = -M sqrt(x.x) F(P, Q) from raw (xdot, k, kdot); jet-generic."""
    return lagrangian_from_scalars(F, jets.stack(scalar_products(xdot, k, kdot)))


# The rates of the factors of the scalar products u.v = x.x, k.x, kd.x and
# kd.kd in the eight velocity slots (xdot, kdot), per product and term a:
# _DV holds dv^a, _DU du^a of the products _HAS_DU (k is constant: not k.x).
_RATE_X, _RATE_KD = np.eye(4, 8), np.eye(4, 8, 4)
_DV = np.array([_RATE_X, _RATE_X, _RATE_X, _RATE_KD])
_DU = np.array([_RATE_X, _RATE_KD, _RATE_KD])
_HAS_DU = [0, 2, 3]


def velocity_scalars(xdot, k, kdot):
    """The stack (values, G, None) of xdot.xdot, k.xdot, kdot.xdot and
    kdot.kdot with their gradients G (4, 8) in the eight velocities
    (xdot, kdot), k held constant; (4, B) arrays give a batch, G (4, 8, B).

    The gradients are seeded in closed form, and bit for bit as jet
    arithmetic on ``variables(*xdot, *kdot, order=1)`` computes them, signed
    zeros included: term a of u.v has the gradient u^a dv^a + v^a du^a (k.x
    only k^a dx^a), and the terms are subtracted in the order of ``dot``.
    The values are the float ``dot``'s products and differences.
    """
    xdot, k, kdot = (np.asarray(v, dtype=float) for v in (xdot, k, kdot))
    u = np.array([xdot, k, kdot, kdot])
    v = np.array([xdot, xdot, xdot, kdot])
    batch = (...,) + (None,) * (u.ndim - 2)  # the selectors take the batch axis
    g = u[:, :, None] * _DV[batch]
    g[_HAS_DU] += v[_HAS_DU, :, None] * _DU[batch]
    # ((t0 - t1) - t2) - t3 over the terms, as dot subtracts them
    f, g = np.subtract.reduce(u * v, axis=1), np.subtract.reduce(g, axis=1)
    return (f.tolist() if f.ndim == 1 else f), g, None  # one state: Python floats


def lagrangian_from_scalars(F: FForm, scalars, partials=None):
    """L = -M sqrt(xx) F(P, Q) from the stack ``scalars`` of the scalar
    products (xx, kx, kdx, kdkd) = (xdot.xdot, k.xdot, kdot.xdot, kdot.kdot):
    their values, floats or batch arrays, and their gradients and Hessians
    (``jets.stack``); with no gradients, L's value.

    L reads the velocities only through these four scalars, so it is
    differentiated once.  F's value and partials come from ``FForm.eval`` at
    the float (P, Q), the one evaluation of F and of its domain, or are given
    as ``partials`` by a caller that holds that evaluation: for several forms
    of one M and ell on an axis ahead of the batch's, over which a size-1 axis
    of G and H broadcasts.  With c = ell / (kx sqrt(xx)) and
    e = -ell^2 / kx^2, the partials of P and Q in s = (xx, kx, kdx, kdkd) are

        dP/ds = (-P / 2xx, -P / kx, c, 0),    dQ/ds = (0, -2Q / kx, 0, e),

    and the nonzero second partials are P_{xx xx} = 3P / 4xx^2,
    P_{xx kx} = P / (2 xx kx), P_{xx kdx} = -c / 2xx, P_{kx kx} = 2P / kx^2,
    P_{kx kdx} = -c / kx, Q_{kx kx} = 6Q / kx^2 and Q_{kx kdkd} = -2e / kx.
    They give L's gradient and Hessian in s entry by entry, and one chain
    step (``jets.compose``) carries those to the scalars' own variables; no
    jet arithmetic runs through P and Q.  A stack with no Hessians (the
    momenta's) takes F's jet to first order and skips L's Hessian."""
    values, G, H = scalars
    xx, kx, _, _ = values
    rt, P, Q = pq_from_scalars(*values, F.ell)
    Fv, FP, FQ, FPP, FPQ, FQQ = partials or F.eval(P, Q, order=1 if H is None else 2)
    if G is None:
        return -F.M * rt * Fv
    a = -F.M
    c = F.ell / (kx * rt)
    e = -(F.ell**2) / (kx * kx)
    p0, p1, q1 = -P / (2.0 * xx), -P / kx, -2.0 * Q / kx
    # F's gradient in s
    f0, f1, f2, f3 = FP * p0, FP * p1 + FQ * q1, FP * c, FQ * e
    # L = a sqrt(xx) F, and sqrt(xx) has the derivatives 0.5 / rt, -0.25 / (rt xx)
    art, ar1 = a * rt, a * (0.5 / rt)
    d = (art * f0 + ar1 * Fv, art * f1, art * f2, art * f3)
    D = None
    if H is not None:
        # F's Hessian in s, F_ij = p_i A_j + q_i B_j + F_P P_ij + F_Q Q_ij with
        # A_j = F_PP p_j + F_PQ q_j and B_j = F_PQ p_j + F_QQ q_j; the terms
        # F_P P_ij + F_Q Q_ij are written through the f_i
        A0, A1, A2, A3 = FPP * p0, FPP * p1 + FPQ * q1, FPP * c, FPQ * e
        B1, B2, B3 = FPQ * p1 + FQQ * q1, FPQ * c, FQQ * e
        F00 = p0 * A0 - 1.5 * f0 / xx
        F01 = p0 * A1 - f0 / kx
        F02 = p0 * A2 - 0.5 * f2 / xx
        F11 = p1 * A1 + q1 * B1 - (2.0 * f1 + FQ * q1) / kx
        F12 = p1 * A2 + q1 * B2 - f2 / kx
        F13 = p1 * A3 + q1 * B3 - 2.0 * f3 / kx
        D00 = art * F00 + 2.0 * ar1 * f0 + (np.float64(-0.25) * a / (rt * xx)) * Fv
        D01, D02, D03 = art * F01 + ar1 * f1, art * F02 + ar1 * f2, art * (p0 * A3) + ar1 * f3
        D11, D12, D13 = art * F11, art * F12, art * F13
        D22, D23, D33 = art * (c * A2), art * (c * A3), art * (e * B3)
        D = ((D00, D01, D02, D03), (D01, D11, D12, D13),
             (D02, D12, D22, D23), (D03, D13, D23, D33))
    return jets.compose(scalars, a * rt * Fv, d, D)
