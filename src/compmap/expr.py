"""A small arithmetic expression language for defining map components.

Grammar (this is the stable textual format accepted by config files and the
command line):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := base ('^' '-'? number)?
    base   := number | ident | '(' expr ')'

Identifiers 'x' and 'y' are the map variables; any other identifier is a
named parameter. Exponents are literal numbers only, so every expression is
differentiable by elementary rules. Unary minus binds looser than '^', i.e.
-x^2 parses as -(x^2). There is no implicit multiplication: "2x" is a
syntax error. Nesting past Python's recursion limit (about 190 levels of
parentheses) is a ParseError; every transform walks trees of any depth.
"""

from __future__ import annotations

import math
from types import MethodType
from typing import Mapping, Union

import numpy as np

from .errors import ParseError, SingularityError, UnboundParameterError
from .geometry import Matrix2, Point2, Rect, record_class

DIV_TOL = 1e-12

# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes. Instances are immutable."""

    __slots__ = ()


@record_class
class Const(Expr):
    value: float


@record_class
class Var(Expr):
    name: str  # 'x' or 'y'

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError(f"unknown variable {self.name!r}: use 'x' or 'y'")


@record_class
class Param(Expr):
    name: str


@record_class
class Neg(Expr):
    child: Expr
    op = "neg"  # its key in _OPS, as BinOp.op is


@record_class
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr  # for '^' this is always a Const

    def __post_init__(self):
        if self.op == "neg" or self.op not in _OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")
        # to_text could not render a NaN exponent in a form parse reads back
        if self.op == "^" and isinstance(self.right, Const) and math.isnan(self.right.value):
            raise ValueError("the exponent of '^' is NaN")


ZERO = Const(0.0)
ONE = Const(1.0)

# ---------------------------------------------------------------------------
# Tokenizer / parser


@record_class
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
        j = i + 1  # where the next token may start
        if c in "+-*/^()":
            toks.append(_Token(c, c, i))
        elif c.isdigit() or (c == "." and j < n and text[j].isdigit()):
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            k = j + 1 + (text[j + 1:j + 2] in ("+", "-"))  # an exponent's digits
            if text[j:j + 1] in ("e", "E") and text[k:k + 1].isdigit():
                j = k
                while j < n and text[j].isdigit():
                    j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number {lexeme!r}", i, ("number",))
            toks.append(_Token("number", lexeme, i))
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i,
                             ("number", "identifier", "'('", "'-'"))
        i = j
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    _BASE_EXPECTED = ("number", "identifier", "'('", "'-'")
    _LEVELS = (("+", "-"), ("*", "/"))  # binary operators, loosest first
    # What base takes, as a set: `in` on a tuple compares the kind with each
    # item before its own, one level past take toward the recursion limit,
    # so the deepest nesting would meet that limit a token earlier
    _ATOMS = frozenset(("number", "ident", "("))

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def take(self, kinds: tuple | frozenset = ()) -> _Token:
        """The next token, consumed if its kind is in kinds."""
        t = self.toks[self.pos]
        if t.kind in kinds:
            self.pos += 1
        return t

    def parse(self) -> Expr:
        e = self.binary(0)
        t = self.take()
        if t.kind != "end":
            raise ParseError(f"unexpected token {t.text!r}", t.offset,
                             ("operator", "end of input"))
        return e

    def binary(self, level: int) -> Expr:
        """Operands joined left to right by the operators of _LEVELS[level]:
        a sum (level 0) of products, a product (level 1) of factors."""
        ops = self._LEVELS[level]
        e = self.factor() if level else self.binary(1)
        while (t := self.take(ops)).kind in ops:
            e = BinOp(t.kind, e, self.factor() if level else self.binary(1))
        return e

    def factor(self) -> Expr:
        negations = 0
        while self.take(("-",)).kind == "-":
            negations += 1
        e = self.power()
        for _ in range(negations):
            e = Neg(e)
        return e

    def power(self) -> Expr:
        e = self.base()
        if self.take(("^",)).kind == "^":
            sign = "-" if self.take(("-",)).kind == "-" else ""
            t = self.take(("number",))
            if t.kind != "number":
                raise ParseError("exponent must be a literal number", t.offset,
                                 ("number",))
            e = BinOp("^", e, Const(float(sign + t.text)))
        return e

    def base(self) -> Expr:
        t = self.take(self._ATOMS)
        if t.kind == "number":
            return Const(float(t.text))
        if t.kind == "ident":
            return Var(t.text) if t.text in ("x", "y") else Param(t.text)
        if t.kind == "(":
            e = self.binary(0)
            t = self.take((")",))
            if t.kind != ")":
                raise ParseError("unbalanced parenthesis", t.offset, ("')'",))
            return e
        found = repr(t.text) if t.text else "end of input"
        raise ParseError(f"expected an expression, found {found}",
                         t.offset, self._BASE_EXPECTED)


def parse(text: str) -> Expr:
    """Parse text into an expression tree; raises ParseError with byte offset."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.take().offset) from None


# ---------------------------------------------------------------------------
# Evaluation: expressions compile to straight-line Python functions


def evaluate(e: Expr, x: float, y: float, params: Mapping[str, float] | None = None) -> float:
    """Evaluate with real arithmetic; |denominator| < 1e-12 raises SingularityError."""
    body, names, ns = _emit(_interned((e,)), params or {}, "float")
    return _define("value", body, f"return {names[0]}", ns)(None, x, y)


def _compile_batch(interned, params: Mapping[str, float], name: str):
    """A function name(self, x, y) computing every root of interned on numpy
    arrays of one shape, NaN in a root wherever the scalar function raises
    computing it.

    The code is the plain arithmetic: a guarded division turns a vanishing
    denominator into NaN, as '^' does where math.pow raises, and + - * / ^
    and negation carry a NaN to the root (see _pow_array); the guard runs
    once per division level (see _emit). Callers enter np.errstate.
    """
    body, names, ns = _emit(interned, params, "array")
    ret = ", ".join(
        v if {"x", "y"} <= _variables(r) else f"_full({v}, x, y)"
        for r, v in zip(interned[0], names))
    return _define(name, body, f"return {ret}", ns)


def _define(name: str, body: list, ret: str, ns: dict):
    """Compile `def name(self, x, y)` from body and return statement in
    namespace ns; the function keeps its source as fn.source. The unused
    self lets it be bound as a method (see _Compiled)."""
    lines = [f"def {name}(self, x, y):"] + ["    " + s for s in body + [ret]]
    source = "\n".join(lines) + "\n"
    fn = _function(source, ns)
    fn.source = source
    return fn


def _function(source: str, ns: dict):
    """The function that source, one function definition, defines, with
    globals ns."""
    defined = {}
    exec(compile(source, "<compmap.expr>", "exec"), ns, defined)
    [fn] = defined.values()
    return fn


def _operands(e) -> tuple:
    """The operands of node e, left first; a leaf has none."""
    if isinstance(e, BinOp):
        return e.left, e.right
    if isinstance(e, Neg):
        return (e.child,)
    return ()


def _nodes(roots):
    """Every distinct node (by identity) of roots once, after its operands,
    left operand first, root by root. The walk keeps its own stack, so a
    tree of any depth works."""
    seen = set()
    stack = [(r, _operands(r)) for r in reversed(roots)]
    while stack:
        e, operands = stack.pop()  # operands () once e's are done
        if id(e) in seen:
            continue
        if operands:
            stack.append((e, ()))
            stack += [(c, _operands(c)) for c in reversed(operands)]
        else:
            seen.add(id(e))
            yield e


def _walk(root, rule):
    """rule(node, *results of its operands) at every node of root, in walk
    order; returns the result at root. A node shared by several parents is
    visited once and its result shared; any other result is dropped once
    used, so that texts do not pile up."""
    nodes = list(_nodes((root,)))
    shared = _reused(nodes)
    out = {}  # id(node) -> its result, until its last parent is done
    for e in nodes:
        out[id(e)] = rule(e, *[out[id(c)] if id(c) in shared else out.pop(id(c))
                               for c in _operands(e)])
    return out[id(root)]


def _variables(e: Expr) -> set:
    return {n.name for n in _nodes((e,)) if isinstance(n, Var)}


def _interned(roots):
    """(roots, nodes): roots with every set of structurally equal subtrees
    replaced by one shared node, so that _emit computes each distinct
    subexpression once, and the shared nodes in walk order."""
    canon = {}  # structural key -> the shared node
    done = {}  # id(node) -> its shared node
    for e in _nodes(roots):
        operands = [done[id(c)] for c in _operands(e)]
        if operands:
            key = (e.op, *map(id, operands))
        elif isinstance(e, Const):
            key = ("const", float(e.value).hex())  # tells 0.0 from -0.0
        elif isinstance(e, (Var, Param)):
            key = (type(e).__name__, e.name)
        else:  # not an expression node; _emit reports it
            key = ("node", id(e))
        if key not in canon:  # e, its operands replaced by their shared nodes
            same = all(a is b for a, b in zip(operands, _operands(e)))
            canon[key] = e if same else (
                BinOp(e.op, *operands) if isinstance(e, BinOp) else Neg(*operands))
        done[id(e)] = canon[key]
    return [done[id(r)] for r in roots], list(canon.values())


def _reused(nodes) -> set:
    """Ids of the nodes that are an operand more than once among nodes."""
    seen, reused = set(), set()
    for e in nodes:
        for c in _operands(e):
            if id(c) in seen:
                reused.add(id(c))
            seen.add(id(c))
    return reused


# The array flavour names a subexpression nested this deep, which keeps the
# generated code within the Python parser's nesting limits.
NEST_DEPTH = 32

# Per operation: the "float" flavour's statements computing t from operands a
# and b, raising SingularityError inline (no call per division), and the array
# flavour's expression, where a divisor b is its guarded name (see _emit).
_OPS = {
    "neg": (["{t} = -{a}"], "(-{a})"),
    "+": (["{t} = {a} + {b}"], "({a} + {b})"),
    "-": (["{t} = {a} - {b}"], "({a} - {b})"),
    "*": (["{t} = {a} * {b}"], "({a} * {b})"),
    "/": (["if abs({b}) < DIV_TOL:", "    raise _Singular(f'division by {{{b}!r}}')",
           "{t} = {a} / {b}"], "({a} / {b})"),
    "^": (["try:", "    {t} = _pow({a}, {b})", "except _pow_errors:",
           "    raise _Singular(f'cannot raise {{{a}!r}} to power {{{b}!r}}')"],
          "_pow_array({a}, {b})"),
}


def _emit(interned, params: Mapping[str, float], flavour: str):
    """Python statements computing the roots of interned (see _interned), in
    one of two flavours. Returns (statements, root names, namespace).

    "float" computes one node per statement, in the order the tree walk
    evaluates them, left operand first, so every value is the same
    floating-point result and the first singularity met is the same one.

    "array" computes on numpy arrays, each root as one nested
    expression, so numpy frees every intermediate array as soon as it is
    used; a node used twice, a divisor, or a node nested NEST_DEPTH deep
    gets its own statement. Divisions are guarded level by level, the levels
    counted in this same walk: a node's level is the highest of its
    operands', and a division's guard goes one level past its divisor's, so
    the division is at least at that level. The divisors of a level are thus
    computed first, and one _dens call binds new names q<j> to them, as they
    are if every element of every one is at least DIV_TOL, else through
    _den, NaN where below DIV_TOL in magnitude. Either way every bit is the
    one a _den per division gives, and no division by a tiny divisor runs.
    The names are new because a divisor may also be an operand elsewhere.

    Constants and parameters are bound by name in the returned namespace.
    """
    ns = {"DIV_TOL": DIV_TOL, "_Matrix2": Matrix2,
          "_pow": math.pow, "_pow_errors": (ValueError, OverflowError),
          "_Singular": SingularityError, "_Unbound": UnboundParameterError,
          "_pow_array": _pow_array, "_full": _full, "_dens": _dens}
    roots, nodes = interned
    array = flavour == "array"
    named = _reused(nodes) | {id(r) for r in roots} | {
        id(e.right) for e in nodes if isinstance(e, BinOp) and e.op == "/"} if array else set()
    stages, guarded = [[]], [{}]  # by level: statements, divisor code -> guarded name
    code = {}  # id(node) -> its value as a Python expression
    depth = {}  # id(node) -> nesting depth of that expression
    level = {}  # id(node) -> the level of the deepest division in node; 0 if absent
    for k, e in enumerate(nodes):
        kids = _operands(e)
        if not kids:
            code[id(e)], depth[id(e)] = _leaf(e, k, params, ns, stages[0]), 0
            continue
        t = f"t{k}"
        statements, expression = _OPS[e.op]
        fields = dict(zip("ab", [code[id(c)] for c in kids]), t=t)
        if not array:
            code[id(e)] = t
            stages[0] += [s.format(**fields) for s in statements]
            continue
        at = max(level.get(id(c), 0) for c in kids)
        if e.op == "/":  # its guard runs one level past its divisor's
            guard = level.get(id(e.right), 0) + 1
            if guard == len(stages):
                stages.append([])
                guarded.append({})
            fields["b"] = guarded[guard].setdefault(fields["b"], f"q{sum(map(len, guarded))}")
            at = max(at, guard)
        text = expression.format(**fields)
        d = 1 + max(depth[id(c)] for c in kids)
        if id(e) in named or d >= NEST_DEPTH:
            stages[at].append(f"{t} = {text}")
            text, d = t, 0
        code[id(e)], depth[id(e)], level[id(e)] = text, d, at
    body = stages[0]
    for names, stage in zip(guarded[1:], stages[1:]):
        body += [f"{', '.join(names.values())}, = _dens(({', '.join(names)},))"]
        body += stage
    return body, [code[id(r)] for r in roots], ns


def _leaf(e, k: int, params: Mapping[str, float], ns: dict, body: list) -> str:
    """The name of leaf e (number k) in the generated code, bound in ns."""
    if isinstance(e, Var):
        return "x" if e.name == "x" else "y"
    if isinstance(e, Const):
        ns[f"k{k}"] = e.value
        return f"k{k}"
    if not isinstance(e, Param):
        raise TypeError(f"not an expression node: {e!r}")
    if e.name in params:
        ns[f"p{k}"] = float(params[e.name])
        return f"p{k}"
    ns[f"n{k}"] = e.name  # raises where the tree walk would meet it
    body.append(f"raise _Unbound(n{k})")
    return f"n{k}"


_POW = np.frompyfunc(math.pow, 2, 1)


def _pow_array(a, b: float):
    """math.pow per element (np.power rounds differently in the last bit),
    NaN where math.pow raises, and NaN where a is NaN and b is ±0, where
    math.pow returns 1: so '^' carries NaN as every other operator does."""
    try:
        out = np.asarray(_POW(a, b), dtype=float)
    except (ValueError, OverflowError):  # some element raises: find which, one at a time
        a = np.asarray(a)
        out = np.empty(a.shape)
        for k, v in enumerate(a.flat):
            try:
                out.flat[k] = math.pow(v, b)
            except (ValueError, OverflowError):
                out.flat[k] = math.nan
    if b == 0:
        out[np.isnan(a)] = math.nan
    return out


def _dens(divisors: tuple):
    """The divisors of one division level (see _emit): as they are if every
    element of every one is at least DIV_TOL, else each through _den.

    One reduction per divisor, which takes floats, 0-d and empty arrays and
    any numeric dtype alike: the least of its elements and DIV_TOL (cast to
    its dtype: 0 for integers, which so always take _den) reads DIV_TOL or
    more, NaN never, only where _den would return the divisor itself. A
    divisor with a negative element sends the level to _den after the
    reductions up to its own, which a _den per division would not make.
    """
    for d in divisors:
        if not np.minimum.reduce(d, axis=None, initial=DIV_TOL) >= DIV_TOL:
            return [_den(d) for d in divisors]
    return divisors


def _den(b):
    """Divisor b with NaN where |b| < DIV_TOL: the fallback of _dens."""
    # Returning b itself when nothing is tiny (NaN is not >= DIV_TOL), as
    # _dens does too, is safe only because generated code never writes into
    # an array in place.
    if np.size(b) and np.abs(b).min() >= DIV_TOL:
        return b
    return np.where(np.abs(b) < DIV_TOL, np.nan, b)


def _full(v, x, y) -> np.ndarray:
    """v as a new float array of the broadcast shape of x and y."""
    out = np.empty(np.broadcast(x, y).shape)
    out[...] = v
    return out


# ---------------------------------------------------------------------------
# Differentiation and constant folding


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to 'x' or 'y', constant-folded."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    return constant_fold(_walk(e, lambda n, *ds: _diff(n, var, *ds)))


def _diff(e: Expr, var: str, du=None, dv=None) -> Expr:
    """The derivative of node e from du and dv, those of its operands."""
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(du)
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        if e.op in ("+", "-"):
            return BinOp(e.op, du, dv)
        if e.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if e.op == "/":
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
    return _walk(e, _fold)


def _fold(e: Expr, a=None, b=None) -> Expr:
    """Node e folded, given its folded operands a and b."""
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Neg):
        return _fold_neg(a)
    if not isinstance(e, BinOp):
        raise TypeError(f"not an expression node: {e!r}")
    op = e.op
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
            return _fold_neg(b)
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


def _fold_neg(c: Expr) -> Expr:
    if isinstance(c, Const):
        return Const(-c.value)
    if isinstance(c, Neg):
        return c.child
    return Neg(c)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# ---------------------------------------------------------------------------
# Pretty printer

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def to_text(e: Expr) -> str:
    """Render an expression; parse(to_text(e)) reproduces the tree."""
    return _walk(e, _render)[0]


def _render(e: Expr, *operands: tuple) -> tuple:
    """(text, precedence) of node e, given those of its operands."""
    if isinstance(e, Const):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return f"-{_fmt_number(-v)}", _PRECEDENCE["neg"]
        return _fmt_number(v), _PRECEDENCE["atom"]
    if isinstance(e, (Var, Param)):
        return e.name, _PRECEDENCE["atom"]
    if isinstance(e, Neg):
        return f"-{_wrap(operands[0], _PRECEDENCE['neg'])}", _PRECEDENCE["neg"]
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        if e.op == "^":  # ^ of non-atom needs parens
            left = _wrap(operands[0], prec + 1)
            return f"{left}^{_fmt_number(e.right.value)}", prec  # type: ignore[union-attr]
        # - and / are left associative
        return f"{_wrap(operands[0], prec)} {e.op} {_wrap(operands[1], prec + 1)}", prec
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(rendered: tuple, prec: int) -> str:
    """The text of rendered (text, precedence), in parentheses if it binds
    looser than prec."""
    text, own = rendered
    return f"({text})" if own < prec else text


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):  # parse reads 1e999 as inf, and inf - inf is NaN
        return repr(v).replace("inf", "1e999").replace("nan", "(1e999 - 1e999)")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Building planar maps from expressions


class _Compiled:
    """Expressions (the roots) compiled once into two functions bound as
    methods: scalar(x, y) computes them on floats and returns the Python
    expression value formats from their names ("{0}, {1}" returns the two
    roots as a pair); batch(X, Y) computes them on numpy arrays of one shape
    and returns them as a tuple, NaN in a root wherever scalar raises
    computing it (a NaN base carries through '^', see _pow_array). On floats a
    denominator below DIV_TOL in magnitude, or a '^' that math.pow rejects,
    raises SingularityError. Callers of batch enter np.errstate. source is
    the generated code of scalar.

    Calling a method runs no Python code besides the compiled function, and
    a PlanarMap built from them pickles: a bound method pickles as its
    attribute of the instance, and the instance recompiles (see inlined for
    what it does not carry)."""

    __slots__ = ("roots", "params", "value", "scalar", "batch", "source",
                 "_inline", "_loops")

    def __init__(self, roots, params: Mapping[str, float], value: str):
        interned = _interned(roots)
        self.roots = tuple(interned[0])
        self.params = dict(params)
        self.value = value
        body, names, ns = _emit(interned, self.params, "float")
        image = value.format(*names)
        self.scalar = MethodType(_define("scalar", body, f"return {image}", ns), self)
        self.batch = MethodType(_compile_batch(interned, self.params, "batch"), self)
        self.source = self.scalar.source
        self._inline = body, image, ns
        self._loops = {}  # source -> its function, see inlined

    def inlined(self, source: str, ns: Mapping):
        """The function that source, one function definition, defines, with
        scalar written in: each line `<targets> = step(x, y)` becomes
        scalar's statements and `<targets> = <value>`, so that the function
        computes what calling scalar there computes. Its globals are
        scalar's namespace plus ns. No name in ns or local to the function
        may be one the generated code uses: t<k>, k<k>, p<k> and n<k> for a
        number k, or a name with a leading underscore.

        Compiled once per source and kept on this instance; a pickle leaves
        them behind and the copy compiles its own."""
        fn = self._loops.get(source)
        if fn is None:
            body, image, own = self._inline
            lines = []
            for line in source.splitlines():
                if line.endswith(" = step(x, y)"):
                    indent = line[:len(line) - len(line.lstrip())]
                    lines += [indent + s for s in body]
                    line = f"{line[:-len('step(x, y)')]}{image}"
                lines.append(line)
            fn = self._loops[source] = _function("\n".join(lines) + "\n", {**own, **ns})
        return fn

    def __reduce__(self):
        # Compiled functions do not pickle, and pickle recurses per tree level:
        # the nodes go in walk order, a leaf as is, others as (op, operand indices)
        nodes = list(_nodes(self.roots))
        index = {id(e): k for k, e in enumerate(nodes)}
        flat = [(e.op, *[index[id(c)] for c in _operands(e)]) if _operands(e) else e
                for e in nodes]
        return _unflattened, (flat, [index[id(r)] for r in self.roots], self.params,
                              self.value)


def _unflattened(flat, roots, params: Mapping[str, float], value: str) -> _Compiled:
    """The _Compiled that _Compiled.__reduce__ flattened, recompiled."""
    nodes = []
    for e in flat:
        if isinstance(e, tuple):
            kids = [nodes[k] for k in e[1:]]
            e = Neg(*kids) if e[0] == "neg" else BinOp(e[0], *kids)
        nodes.append(e)
    return _Compiled([nodes[k] for k in roots], params, value)


def _planar_map(name: str, f: Expr, g: Expr, partials, values: Mapping[str, float],
                domain: Rect, params: Mapping[str, float], meta: dict):
    """The PlanarMap of f and g with the Jacobian partials (df/dx, df/dy,
    dg/dx, dg/dy), all compiled with the parameter values `values`."""
    from .planarmap import PlanarMap  # local import keeps module layering one-way

    step = _Compiled((f, g), values, "{0}, {1}")
    jac = _Compiled(partials, values, "_Matrix2({0}, {1}, {2}, {3})")
    return PlanarMap(name=name, step=step.scalar, batch=step.batch, domain=domain,
                     jac=jac.scalar, batch_jac=jac.batch, params=params, meta=meta)


def expr_map(f_text: str, g_text: str,
             params: Mapping[str, float] | None = None,
             domain: Rect | None = None,
             name: str = "expr-map"):
    """Build a PlanarMap from two expression strings with an exact Jacobian."""
    params = dict(params or {})
    f = parse(f_text)
    g = parse(g_text)
    for e in _nodes((f, g)):
        if isinstance(e, Param) and e.name not in params:
            raise UnboundParameterError(e.name)
    domain = domain or Rect(-math.inf, math.inf, -math.inf, math.inf)
    partials = [differentiate(e, v) for e in (f, g) for v in ("x", "y")]
    return _planar_map(name, f, g, partials, params, domain, params,
                       {"f": f_text, "g": g_text})
