"""A small arithmetic expression language for defining map components.

Grammar (this is the stable textual format accepted by config files and the
command line):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := base ('^' number)?
    base   := number | ident | '(' expr ')'

Identifiers 'x' and 'y' are the map variables; any other identifier is a
named parameter. Exponents are literal numbers only, so every expression is
differentiable by elementary rules. Unary minus binds looser than '^', i.e.
-x^2 parses as -(x^2). There is no implicit multiplication: "2x" is a
syntax error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ParseError, SingularityError, UnboundParameterError
from .geometry import Matrix2, Point2, Rect

DIV_TOL = 1e-12

# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes. Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr  # for '^' this is always a Const


ZERO = Const(0.0)
ONE = Const(1.0)

# ---------------------------------------------------------------------------
# Tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | one of + - * / ^ ( ) | 'end'
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number {lexeme!r}", i, ("number",))
            toks.append(_Token("number", lexeme, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i,
                         ("number", "identifier", "'('", "'-'"))
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    _BASE_EXPECTED = ("number", "identifier", "'('", "'-'")

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected token {t.text!r}", t.offset,
                             ("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        e = self.base()
        if self.peek().kind == "^":
            self.advance()
            t = self.peek()
            if t.kind != "number":
                raise ParseError("exponent must be a literal number", t.offset,
                                 ("number",))
            self.advance()
            e = BinOp("^", e, Const(float(t.text)))
        return e

    def base(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            return Const(float(t.text))
        if t.kind == "ident":
            self.advance()
            if t.text in ("x", "y"):
                return Var(t.text)
            return Param(t.text)
        if t.kind == "(":
            self.advance()
            e = self.expr()
            t = self.peek()
            if t.kind != ")":
                raise ParseError("unbalanced parenthesis", t.offset, ("')'",))
            self.advance()
            return e
        found = repr(t.text) if t.text else "end of input"
        raise ParseError(f"expected an expression, found {found}",
                         t.offset, self._BASE_EXPECTED)


def parse(text: str) -> Expr:
    """Parse text into an expression tree; raises ParseError with byte offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: Expr, x: float, y: float, params: Mapping[str, float] | None = None) -> float:
    """Evaluate with real arithmetic; |denominator| < 1e-12 raises SingularityError."""
    params = params or {}
    return _eval(e, x, y, params)


def _eval(e: Expr, x: float, y: float, params: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundParameterError(e.name)
    if isinstance(e, Neg):
        return -_eval(e.child, x, y, params)
    if isinstance(e, BinOp):
        a = _eval(e.left, x, y, params)
        if e.op == "^":
            b = e.right.value  # type: ignore[union-attr]
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                raise SingularityError(f"cannot raise {a!r} to power {b!r}")
            return v
        b = _eval(e.right, x, y, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if abs(b) < DIV_TOL:
            raise SingularityError(f"division by {b!r}")
        return a / b
    raise TypeError(f"not an expression node: {e!r}")


def _eval_array(e: Expr, x: np.ndarray, y: np.ndarray,
                params: Mapping[str, float], bad: np.ndarray):
    """Elementwise _eval on arrays; marks in bad where _eval would raise.

    Every operation is the one _eval applies to a float, so unmarked results
    are bit-identical to it. '^' goes through math.pow per element, because
    np.power rounds differently in the last bit.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundParameterError(e.name)
    if isinstance(e, Neg):
        return -_eval_array(e.child, x, y, params, bad)
    if isinstance(e, BinOp):
        a = _eval_array(e.left, x, y, params, bad)
        if e.op == "^":
            return _pow_array(a, e.right.value, bad)  # type: ignore[union-attr]
        b = _eval_array(e.right, x, y, params, bad)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        tiny = np.abs(b) < DIV_TOL
        bad |= tiny
        return a / np.where(tiny, np.nan, b)
    raise TypeError(f"not an expression node: {e!r}")


def _pow_array(a, b: float, bad: np.ndarray):
    a = np.broadcast_to(a, bad.shape)
    out = np.empty(bad.shape)
    for k, v in enumerate(a.flat):
        try:
            out.flat[k] = math.pow(v, b)
        except (ValueError, OverflowError):
            out.flat[k] = math.nan
            bad.flat[k] = True
    return out


# ---------------------------------------------------------------------------
# Differentiation and constant folding


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to 'x' or 'y', constant-folded."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    return constant_fold(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.child, var))
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du = _diff(u, var)
        if e.op == "+":
            return BinOp("+", du, _diff(v, var))
        if e.op == "-":
            return BinOp("-", du, _diff(v, var))
        if e.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, _diff(v, var)))
        if e.op == "/":
            dv = _diff(v, var)
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Const(2.0)))
        # power with constant exponent: d(u^c) = c * u^(c-1) * u'
        c = v.value  # type: ignore[union-attr]
        return BinOp("*", BinOp("*", Const(c), BinOp("^", u, Const(c - 1.0))), du)
    raise TypeError(f"not an expression node: {e!r}")


def constant_fold(e: Expr) -> Expr:
    """Fold constant subtrees and drop arithmetic identities (x+0, x*1, ^1, ...)."""
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Neg):
        c = constant_fold(e.child)
        if isinstance(c, Const):
            return Const(-c.value)
        if isinstance(c, Neg):
            return c.child
        return Neg(c)
    if isinstance(e, BinOp):
        a = constant_fold(e.left)
        b = constant_fold(e.right)
        if e.op == "^":
            exp = b.value  # type: ignore[union-attr]
            if exp == 0.0:
                return ONE
            if exp == 1.0:
                return a
            if isinstance(a, Const):
                return Const(math.pow(a.value, exp))
            return BinOp("^", a, b)
        if isinstance(a, Const) and isinstance(b, Const):
            if e.op == "+":
                return Const(a.value + b.value)
            if e.op == "-":
                return Const(a.value - b.value)
            if e.op == "*":
                return Const(a.value * b.value)
            if abs(b.value) >= DIV_TOL:
                return Const(a.value / b.value)
            return BinOp(e.op, a, b)  # keep the pole visible
        if e.op == "+":
            if _is_zero(a):
                return b
            if _is_zero(b):
                return a
        elif e.op == "-":
            if _is_zero(b):
                return a
            if _is_zero(a):
                return constant_fold(Neg(b))
        elif e.op == "*":
            if _is_zero(a) or _is_zero(b):
                return ZERO
            if _is_one(a):
                return b
            if _is_one(b):
                return a
        elif e.op == "/":
            if _is_zero(a):
                return ZERO
            if _is_one(b):
                return a
        return BinOp(e.op, a, b)
    raise TypeError(f"not an expression node: {e!r}")


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# ---------------------------------------------------------------------------
# Pretty printer

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(e: Expr) -> str:
    """Render an expression; parse(to_text(e)) reproduces the tree."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            s = _fmt_number(-v)
            inner = f"-{s}"
            return f"({inner})" if parent_prec > _PRECEDENCE["neg"] else inner
        return _fmt_number(v)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        inner = f"-{_render(e.child, _PRECEDENCE['neg'])}"
        return f"({inner})" if parent_prec > _PRECEDENCE["neg"] else inner
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        if e.op == "^":
            left = _render(e.left, prec + 1)  # ^ of non-atom needs parens
            s = f"{left}^{_fmt_number(e.right.value)}"  # type: ignore[union-attr]
        else:
            left = _render(e.left, prec)
            right = _render(e.right, prec + 1)  # - and / are left associative
            s = f"{left} {e.op} {right}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Building planar maps from expressions


class ExprPair:
    """Evaluator for a pair of expressions; usable as a PlanarMap step function."""

    __slots__ = ("f", "g", "params")

    def __init__(self, f: Expr, g: Expr, params: Mapping[str, float]):
        self.f = f
        self.g = g
        self.params = dict(params)

    def __call__(self, x: float, y: float):
        return (_eval(self.f, x, y, self.params),
                _eval(self.g, x, y, self.params))

    def batch(self, x: np.ndarray, y: np.ndarray):
        """Both components on arrays; NaN in both wherever __call__ raises."""
        bad = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        with np.errstate(all="ignore"):
            f = _eval_array(self.f, x, y, self.params, bad)
            g = _eval_array(self.g, x, y, self.params, bad)
        return np.where(bad, np.nan, f), np.where(bad, np.nan, g)


class ExprJacobian:
    """Exact Jacobian of an expression pair via symbolic partials."""

    __slots__ = ("fx", "fy", "gx", "gy", "params")

    def __init__(self, f: Expr, g: Expr, params: Mapping[str, float]):
        self.fx = differentiate(f, "x")
        self.fy = differentiate(f, "y")
        self.gx = differentiate(g, "x")
        self.gy = differentiate(g, "y")
        self.params = dict(params)

    def __call__(self, x: float, y: float) -> Matrix2:
        p = self.params
        return Matrix2(_eval(self.fx, x, y, p), _eval(self.fy, x, y, p),
                       _eval(self.gx, x, y, p), _eval(self.gy, x, y, p))


def expr_map(f_text: str, g_text: str,
             params: Mapping[str, float] | None = None,
             domain: Rect | None = None,
             name: str = "expr-map"):
    """Build a PlanarMap from two expression strings with an exact Jacobian."""
    from .planarmap import PlanarMap  # local import keeps module layering one-way

    params = dict(params or {})
    f = parse(f_text)
    g = parse(g_text)
    for e in (f, g):
        _check_params_bound(e, params)
    domain = domain or Rect(-math.inf, math.inf, -math.inf, math.inf)
    pair = ExprPair(f, g, params)
    return PlanarMap(name=name,
                     step=pair,
                     batch=pair.batch,
                     domain=domain,
                     jac=ExprJacobian(f, g, params),
                     params=params,
                     meta={"f": f_text, "g": g_text})


def _check_params_bound(e: Expr, params: Mapping[str, float]):
    if isinstance(e, Param) and e.name not in params:
        raise UnboundParameterError(e.name)
    if isinstance(e, Neg):
        _check_params_bound(e.child, params)
    elif isinstance(e, BinOp):
        _check_params_bound(e.left, params)
        _check_params_bound(e.right, params)
