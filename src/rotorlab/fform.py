"""The Lagrangian family L = -M sqrt(xdot.xdot) F(P, Q).

P and Q are the two reparametrization-invariant, scale-free combinations of a
null vector's motion relative to its worldline.  An ``FForm`` wraps a generic
evaluator F(P, Q) (floats or jets) together with the dimensional parameters
(M, ell, nu) and a domain predicate; first and second partials come from
forward-mode differentiation, exact to rounding.  The Lagrangian and its
scalars take batched jets or arrays as well (see ``jets``), and a domain
predicate then answers per batch entry.

Builtins cover the point particle, the f(Q) rotator subfamily, the two
closed-form families satisfying the fixed mass/spin conditions, and the
distinguished sqrt(1 + P^2/Q) * S(Q) shape.  ``parse_f`` accepts user
expressions over P, Q, nu with + - * / ^ and sqrt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A member of the Lagrangian family with exact partials."""

    func: Callable  # (P, Q) -> scalar, generic over floats and jets
    name: str = "custom"
    M: float = 1.0
    ell: float = 1.0
    nu: float = 0.0
    # (P, Q) -> whether F is defined there: a bool, or a bool array for arrays
    domain: Callable = field(default=lambda P, Q: Q >= 0.0)

    def __call__(self, P, Q):
        return self.func(P, Q)

    def in_domain(self, P, Q) -> bool:
        """Whether (P, Q), or every entry of a batch of them, lies in the domain."""
        ok = self.domain(P, Q)
        return bool(ok.all() if isinstance(ok, np.ndarray) else ok)

    def eval(self, P: float, Q: float) -> FFormValue:
        if not self.in_domain(P, Q):
            raise DomainError(f"(P, Q) = ({P}, {Q}) outside domain of {self.name}")
        pj, qj = jets.variables(P, Q)
        out = self.func(pj, qj)
        if not isinstance(out, jets.Jet):
            return FFormValue(float(out), 0.0, 0.0, 0.0, 0.0, 0.0)
        return FFormValue(out.f, out.g[0], out.g[1], out.h[0, 0], out.h[0, 1], out.h[1, 1])


def pq_from_vectors(xdot, k, kdot, ell: float) -> PQPoint:
    """(P, Q) from raw (xdot, k, kdot); see ``pq_from_scalars``."""
    _, P, Q = pq_from_scalars(dot(xdot, xdot), dot(k, xdot), dot(kdot, xdot),
                              dot(kdot, kdot), ell)
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


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", val, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


_FUNCTIONS = {"sqrt": jets.sqrt, "sin": jets.sin, "cos": jets.cos, "exp": jets.exp}


class _Parser:
    def __init__(self, text: str, names=("P", "Q", "nu")):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        try:
            node = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            node = (op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] in "+-":
            self.next()
            node = self.unary()
            return node if tok[0] == "+" else ("neg", node)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            return ("^", base, self.unary())  # right-associative
        return base

    def atom(self):
        tok = self.next()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "name":
            if self.peek()[0] == "(":
                if tok[1] not in _FUNCTIONS:
                    raise ParseError(f"unknown function {tok[1]!r}", tok[2])
                self.next()
                arg = self.expr()
                self.expect(")")
                return ("call", tok[1], arg)
            if tok[1] in self.names:
                return ("var", tok[1])
            raise ParseError(f"unknown name {tok[1]!r}", tok[2])
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _evaluate(tree, env):
    """``_eval_node``, with overflow, a zero divisor inside the jets, or a tree
    too deep to recurse through reported as a DomainError."""
    try:
        return _eval_node(tree, env)
    except (ArithmeticError, RecursionError) as exc:
        raise DomainError(f"{type(exc).__name__}: {exc}") from exc


def _eval_node(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_eval_node(node[1], env)
    if kind == "call":
        try:
            return _FUNCTIONS[node[1]](_eval_node(node[2], env))
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
    a = _eval_node(node[1], env)
    if kind == "^":
        b = _eval_node(node[2], env)
        if isinstance(b, jets.Jet):
            # its derivatives would be dropped: a^b is differentiated in a only
            raise DomainError("an exponent must not depend on the variables")
        try:
            out = a**b
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        if isinstance(out, complex):
            raise DomainError(f"{a} ^ {b} is not real")
        return out
    b = _eval_node(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        jets.raise_where(jets.value(b) == 0.0, DomainError, "division by zero")
        return a / b
    raise AssertionError(f"bad node {node!r}")


def parse_f(expr: str, M: float = 1.0, ell: float = 1.0, nu: float = 0.0) -> FForm:
    """Compile an expression over P, Q, nu into an FForm."""
    tree = _Parser(expr).parse()

    def func(P, Q, _tree=tree):
        return _evaluate(_tree, {"P": P, "Q": Q, "nu": nu})

    def defined(P, Q):
        try:
            _evaluate(tree, {"P": float(P), "Q": float(Q), "nu": nu})
        except DomainError:
            return False
        return True

    def domain(P, Q):
        if isinstance(P, np.ndarray) or isinstance(Q, np.ndarray):
            # a batch: entry by entry, as floats
            return np.array([defined(p, q) for p, q in np.broadcast(P, Q)])
        return defined(P, Q)

    return FForm(func=func, name=f"parsed:{expr}", M=M, ell=ell, nu=nu, domain=domain)


def parse_phase(expr: str):
    """Compile an expression over t into a jet-generic scalar function."""
    tree = _Parser(expr, names=("t",)).parse()
    return lambda t, _tree=tree: _evaluate(_tree, {"t": t})


# -- builtins ----------------------------------------------------------------

BUILTIN_NAMES = ("point_particle", "rotator_f", "starlike", "nu_family", "sqrtS", "fq")


def builtin(name: str, *, signs=(1, 1), nu: float = 0.0, M: float = 1.0,
            ell: float = 1.0, S=None, f=None) -> FForm:
    """Closed-form family members with analytically smooth evaluators.

    ``signs``: for ``starlike`` the (outer, inner) signs of
    +-sqrt((1 +- sqrt(Q))(1 + P^2/Q)); for ``nu_family`` the (outer, inner)
    signs of nu P +- sqrt(1 +- sqrt(Q) - nu^2 Q).  ``sqrtS`` takes a generic
    callable S(Q); ``fq`` a generic callable f(Q).
    """
    s1, s2 = signs

    if name == "point_particle":
        return FForm(func=lambda P, Q: 1.0 + 0.0 * P, name=name, M=M, ell=ell,
                     domain=lambda P, Q: True)

    if name == "rotator_f":
        return FForm(
            func=lambda P, Q: jets.sqrt(1.0 + jets.sqrt(Q)) + 0.0 * P,
            name=name, M=M, ell=ell,
            domain=lambda P, Q: Q > 0.0,
        )

    if name == "starlike":
        def func(P, Q):
            return s1 * jets.sqrt((1.0 + s2 * jets.sqrt(Q)) * (1.0 + P * P / Q))

        def domain(P, Q):
            return (Q > 0.0) & (1.0 + s2 * np.sqrt(np.abs(Q)) > 0.0)

        return FForm(func=func, name=f"starlike[{s1:+d},{s2:+d}]", M=M, ell=ell,
                     domain=domain)

    if name == "nu_family":
        def func(P, Q, _nu=nu):
            return _nu * P + s1 * jets.sqrt(1.0 + s2 * jets.sqrt(Q) - _nu**2 * Q)

        def domain(P, Q, _nu=nu):
            return (Q > 0.0) & (1.0 + s2 * np.sqrt(np.abs(Q)) - _nu**2 * Q > 0.0)

        return FForm(func=func, name=f"nu_family[{nu},{s1:+d},{s2:+d}]",
                     M=M, ell=ell, nu=nu, domain=domain)

    if name == "sqrtS":
        if S is None:
            raise ValueError("sqrtS needs the S(Q) callable")

        def func(P, Q, _S=S):
            return jets.sqrt(1.0 + P * P / Q) * _S(Q)

        return FForm(func=func, name="sqrtS", M=M, ell=ell,
                     domain=lambda P, Q: Q > 0.0)

    if name == "fq":
        if f is None:
            raise ValueError("fq needs the f(Q) callable")

        def func(P, Q, _f=f):
            return _f(Q) + 0.0 * P

        return FForm(func=func, name="fq", M=M, ell=ell,
                     domain=lambda P, Q: Q > 0.0)

    raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


# -- Lagrangian density ------------------------------------------------------


def lagrangian_from_vectors(F: FForm, xdot, k, kdot):
    """L = -M sqrt(x.x) F(P, Q) from raw (xdot, k, kdot); jet-generic."""
    return lagrangian_from_scalars(F, dot(xdot, xdot), dot(k, xdot),
                                   dot(kdot, xdot), dot(kdot, kdot))


def lagrangian_from_scalars(F: FForm, xx, kx, kdx, kdkd):
    """L = -M sqrt(xx) F(P, Q) from the scalar products xdot.xdot, k.xdot,
    kdot.xdot and kdot.kdot; jet-generic."""
    rt, P, Q = pq_from_scalars(xx, kx, kdx, kdkd, F.ell)
    Pv, Qv = jets.value(P), jets.value(Q)
    jets.raise_where(np.logical_not(F.domain(Pv, Qv)), DomainError,
                     f"(P, Q) = ({{}}, {{}}) outside domain of {F.name}", Pv, Qv)
    return -F.M * rt * F.func(P, Q)
