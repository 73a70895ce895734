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
# Evaluation: expressions compile to straight-line Python functions


def evaluate(e: Expr, x: float, y: float, params: Mapping[str, float] | None = None) -> float:
    """Evaluate with real arithmetic; |denominator| < 1e-12 raises SingularityError."""
    return _compile_scalar((e,), params or {}, "return {0}")(x, y)


def _compile_scalar(roots, params: Mapping[str, float], ret: str):
    """A function (x, y) computing every root on floats; ret formats the
    return statement from the roots' variable names.

    A denominator below DIV_TOL in magnitude, or a '^' that math.pow rejects,
    raises SingularityError.
    """
    body, names, ns = _emit(roots, params, array=False)
    return _define(body, ret.format(*names), ns)


def _compile_batch(roots, params: Mapping[str, float]):
    """A function (x, y) computing every root on numpy arrays, NaN wherever
    the scalar function raises."""
    body, names, ns = _emit(roots, params, array=True)
    body = ["bad = _zeros(_broadcast(x, y).shape, dtype=bool)",
            "with _errstate(all='ignore'):"] + ["    " + s for s in body or ["pass"]]
    ret = ", ".join(f"_where(bad, _nan, {v})" for v in names)
    return _define(body, f"return {ret}", ns)


def _define(body: list, ret: str, ns: dict):
    """Compile `def _fn(x, y)` from body and return statement in namespace ns;
    the function keeps its source as fn.source."""
    lines = ["def _fn(x, y):"] + ["    " + s for s in body + [ret]]
    source = "\n".join(lines) + "\n"
    exec(compile(source, "<compmap.expr>", "exec"), ns)
    fn = ns["_fn"]
    fn.source = source
    return fn


def _emit(roots, params: Mapping[str, float], array: bool):
    """Straight-line statements that compute every node of roots, one
    temporary per node.

    Shared subtrees (by identity) are computed once, and statements come in
    the order the tree walk evaluates the nodes, left operand first, so every
    value is the same floating-point result and the first singularity met is
    the same one. Constants and parameters are bound by name in the returned
    namespace. Returns (statements, root variable names, namespace).
    """
    ns = {"DIV_TOL": DIV_TOL, "_Matrix2": Matrix2, "_nan": math.nan,
          "_pow": math.pow, "_pow_errors": (ValueError, OverflowError),
          "_div_error": _div_error, "_pow_error": _pow_error,
          "_unbound": _unbound, "_pow_array": _pow_array, "_abs": np.abs,
          "_where": np.where, "_zeros": np.zeros, "_broadcast": np.broadcast,
          "_errstate": np.errstate}
    body = []
    names = {}  # id(node) -> variable name
    for root in roots:
        stack = [(root, False)]
        while stack:
            e, children_done = stack.pop()
            if id(e) in names:
                continue
            if isinstance(e, Var):
                names[id(e)] = "x" if e.name == "x" else "y"
                continue
            k = len(names)
            if isinstance(e, Const):
                names[id(e)] = f"k{k}"
                ns[f"k{k}"] = e.value
                continue
            if isinstance(e, Param):
                if e.name in params:
                    names[id(e)] = f"p{k}"
                    ns[f"p{k}"] = float(params[e.name])
                else:  # raises where the tree walk would meet it
                    ns[f"n{k}"] = e.name
                    names[id(e)] = f"t{k}"
                    body.append(f"t{k} = _unbound(n{k})")
                continue
            if not isinstance(e, (Neg, BinOp)):
                raise TypeError(f"not an expression node: {e!r}")
            if not children_done:
                stack.append((e, True))
                if isinstance(e, Neg):
                    stack.append((e.child, False))
                elif e.op == "^":
                    stack.append((e.left, False))
                else:
                    stack.append((e.right, False))
                    stack.append((e.left, False))
                continue
            t = f"t{k}"
            names[id(e)] = t
            if isinstance(e, Neg):
                body.append(f"{t} = -{names[id(e.child)]}")
                continue
            a = names[id(e.left)]
            if e.op == "^":
                ns[f"k{k}"] = e.right.value  # type: ignore[union-attr]
                if array:
                    body.append(f"{t} = _pow_array({a}, k{k}, bad)")
                else:
                    body += ["try:", f"    {t} = _pow({a}, k{k})",
                             "except _pow_errors:",
                             f"    raise _pow_error({a}, k{k})"]
                continue
            b = names[id(e.right)]
            if e.op != "/":
                body.append(f"{t} = {a} {e.op} {b}")
            elif array:
                body += [f"tiny = _abs({b}) < DIV_TOL", "bad |= tiny",
                         f"{t} = {a} / _where(tiny, _nan, {b})"]
            else:
                body += [f"if abs({b}) < DIV_TOL:", f"    raise _div_error({b})",
                         f"{t} = {a} / {b}"]
    return body, [names[id(r)] for r in roots], ns


def _div_error(b) -> SingularityError:
    return SingularityError(f"division by {b!r}")


def _pow_error(a, b) -> SingularityError:
    return SingularityError(f"cannot raise {a!r} to power {b!r}")


def _unbound(name: str):
    raise UnboundParameterError(name)


def _pow_array(a, b: float, bad: np.ndarray):
    """math.pow per element (np.power rounds differently in the last bit);
    marks in bad where math.pow raises."""
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
    """Fold constant subtrees and drop arithmetic identities (x+0, x*1, ^1, ...).

    A subtree shared by several parents (as the product rule shares them) is
    folded once, and the folded result is shared the same way.
    """
    return _fold(e, {})


def _fold(e: Expr, memo: dict) -> Expr:
    key = id(e)
    if key in memo:
        return memo[key][1]
    if isinstance(e, (Const, Var, Param)):
        out = e
    elif isinstance(e, Neg):
        out = _fold_neg(_fold(e.child, memo))
    elif isinstance(e, BinOp):
        out = _fold_binop(e.op, _fold(e.left, memo), _fold(e.right, memo), memo)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = (e, out)  # holding e keeps its id from being reused
    return out


def _fold_neg(c: Expr) -> Expr:
    if isinstance(c, Const):
        return Const(-c.value)
    if isinstance(c, Neg):
        return c.child
    return Neg(c)


def _fold_binop(op: str, a: Expr, b: Expr, memo: dict) -> Expr:
    """Fold op applied to the folded operands a and b."""
    if op == "^":
        exp = b.value  # type: ignore[union-attr]
        if exp == 0.0:
            return ONE
        if exp == 1.0:
            return a
        if isinstance(a, Const):
            try:
                return Const(math.pow(a.value, exp))
            except (ValueError, OverflowError):
                pass  # keep the node, so evaluating it reports the singularity
        return BinOp("^", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        if op == "+":
            return Const(a.value + b.value)
        if op == "-":
            return Const(a.value - b.value)
        if op == "*":
            return Const(a.value * b.value)
        if abs(b.value) >= DIV_TOL:
            return Const(a.value / b.value)
        return BinOp(op, a, b)  # keep the pole visible
    if op == "+":
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif op == "-":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return _fold(Neg(b), memo)
    elif op == "*":
        if _is_zero(a) or _is_zero(b):
            return ZERO
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    elif op == "/":
        if _is_zero(a):
            return ZERO
        if _is_one(b):
            return a
    return BinOp(op, a, b)


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
    """Compiled pair of expressions; usable as a PlanarMap step function."""

    __slots__ = ("f", "g", "params", "_step", "_batch")

    def __init__(self, f: Expr, g: Expr, params: Mapping[str, float]):
        self.f = f
        self.g = g
        self.params = dict(params)
        self._step = _compile_scalar((f, g), self.params, "return {0}, {1}")
        self._batch = _compile_batch((f, g), self.params)

    def __call__(self, x: float, y: float):
        return self._step(x, y)

    def batch(self, x: np.ndarray, y: np.ndarray):
        """Both components on arrays; NaN in both wherever __call__ raises."""
        return self._batch(x, y)

    def __reduce__(self):  # compiled functions do not pickle; recompile
        return ExprPair, (self.f, self.g, self.params)


class ExprJacobian:
    """Exact Jacobian of an expression pair via symbolic partials, compiled
    into one function that returns a Matrix2."""

    __slots__ = ("f", "g", "params", "_jac")

    def __init__(self, f: Expr, g: Expr, params: Mapping[str, float]):
        self.f = f
        self.g = g
        self.params = dict(params)
        partials = [differentiate(e, v) for e in (f, g) for v in ("x", "y")]
        self._jac = _compile_scalar(partials, self.params,
                                    "return _Matrix2({0}, {1}, {2}, {3})")

    def __call__(self, x: float, y: float) -> Matrix2:
        return self._jac(x, y)

    def __reduce__(self):
        return ExprJacobian, (self.f, self.g, self.params)


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
