import ast
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (ParseError, Point2, Rect, SingularityError, UnboundParameterError,
                     check_boundary_endpoint_conditions, make_example)
from compmap.expr import (DIV_TOL, ONE, BinOp, Const, Neg, Param, Var, _Compiled, _den,
                          _pow_array, constant_fold, differentiate, evaluate, expr_map,
                          parse, to_text)
from compmap.planarmap import jacobian, fd_jacobian
from compmap.systems import EXAMPLE_IDS

from helpers import per_division_batch, random_expr, tree_batch, tree_batch_roots, tree_eval


def test_parse_structure():
    e = parse("x/(a+y)")
    assert e == BinOp("/", Var("x"), BinOp("+", Param("a"), Var("y")))


def test_unary_minus_binds_looser_than_power():
    e = parse("-x^2")
    assert e == Neg(BinOp("^", Var("x"), Const(2.0)))


ATOM = ("number", "identifier", "'('", "'-'")  # what may start an expression
_ATOM = ", ".join(ATOM)

# (text, message, offset, expected) at each site that raises ParseError; the
# str tests (isdigit, isalpha, isalnum, isspace) decide the Unicode cases
PARSE_ERRORS = [
    ("x*(", f"expected an expression, found end of input at offset 3 (expected {_ATOM})",
     3, ATOM),
    ("", f"expected an expression, found end of input at offset 0 (expected {_ATOM})",
     0, ATOM),
    ("2x", "unexpected token 'x' at offset 1 (expected operator, end of input)",
     1, ("operator", "end of input")),  # no implicit multiplication
    ("x^y", "exponent must be a literal number at offset 2 (expected number)",
     2, ("number",)),
    ("x^-y", "exponent must be a literal number at offset 3 (expected number)",
     3, ("number",)),
    ("x^(2)", "exponent must be a literal number at offset 2 (expected number)",
     2, ("number",)),
    ("(x+y", "unbalanced parenthesis at offset 4 (expected ')')", 4, ("')'",)),
    ("1.2.3", "malformed number '1.2.3' at offset 0 (expected number)", 0, ("number",)),
    ("1e\u00b2", "malformed number '1e\u00b2' at offset 0 (expected number)", 0, ("number",)),
    ("x $", f"unexpected character '$' at offset 2 (expected {_ATOM})", 2, ATOM),
    # the whole text is tokenized before parsing: the "$" is met, not the ")"
    ("x) $", f"unexpected character '$' at offset 3 (expected {_ATOM})", 3, ATOM),
    ("\u00bd", f"unexpected character '\u00bd' at offset 0 (expected {_ATOM})", 0, ATOM),
]


def test_parse_errors_carry_offsets():
    for text, message, offset, expected in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.offset, exc.value.expected) == \
            (message, offset, expected), text
    assert parse("\u0663") == Const(3.0)  # ARABIC-INDIC DIGIT THREE
    assert parse("x^-\u0663") == BinOp("^", Var("x"), Const(-3.0))


def test_deep_nesting_parses_or_is_a_parse_error():
    minuses = "-" * 1000 + "x"
    assert to_text(parse(minuses)) == minuses
    assert evaluate(parse(minuses), 0.5, 0.0) == 0.5
    with pytest.raises(ParseError, match="^expression nests too deeply at offset"):
        parse("(" * 1000 + "x" + ")" * 1000)  # the offset depends on the stack in use


@pytest.mark.parametrize("text", ["x^0.5", "(x+y)^-2", "y^0.25"])
def test_derivatives_with_negative_exponents_round_trip(text):
    for var in ("x", "y"):
        rendered = to_text(differentiate(parse(text), var))
        assert to_text(parse(rendered)) == rendered
    assert to_text(differentiate(parse("x^0.5"), "x")) == "0.5 * x^-0.5"
    assert parse("x^-2") == BinOp("^", Var("x"), Const(-2.0))
    with pytest.raises(ParseError) as exc:
        parse("x^-y")
    assert exc.value.offset == 3


def test_eval_examples():
    assert evaluate(parse("x/(a+y)"), 1.0, 1.0, {"a": 2.0}) == pytest.approx(1 / 3)
    assert evaluate(parse("x+y"), 0.0, 0.0) == 0.0
    assert evaluate(parse("y/(1+x)"), 1.0, 1.0) == pytest.approx(0.5)


def test_eval_errors():
    with pytest.raises(UnboundParameterError):
        evaluate(parse("a*x"), 1.0, 1.0, {})
    with pytest.raises(SingularityError):
        evaluate(parse("x/(a+y)"), 1.0, -2.0, {"a": 2.0})


def test_differentiate_examples():
    assert differentiate(parse("x*y"), "x") == Var("y")
    assert differentiate(parse("c"), "x") == Const(0.0)
    d = differentiate(parse("x/(a+y)"), "y")
    # quotient rule: -x/(a+y)^2; check pointwise
    for x, y in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.25)):
        want = -x / (2.0 + y) ** 2
        assert evaluate(d, x, y, {"a": 2.0}) == pytest.approx(want, rel=1e-14)


def test_power_rule():
    d = differentiate(parse("x^3"), "x")
    for x in (0.5, 1.0, 2.0):
        assert evaluate(d, x, 0.0) == pytest.approx(3 * x * x)
    assert differentiate(parse("x^3"), "y") == Const(0.0)


@st.composite
def expr_trees(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    return random_expr(np.random.default_rng(seed), depth=5)


@settings(max_examples=60, deadline=None)
@given(e=expr_trees())
def test_pretty_print_round_trip(e):
    text = to_text(e)
    reparsed = parse(text)
    assert to_text(reparsed) == text
    assert to_text(parse(to_text(reparsed))) == text


def test_round_trip_preserves_tree_for_plain_text():
    for s in ("x/(a+y)", "1 - x*y + y^2", "-(x + y)/(1 - b)", "x - y - c"):
        e = parse(s)
        assert parse(to_text(e)) == e


def test_constant_folding_preserves_values():
    rng = np.random.default_rng(7)
    params = {"a": 1.3, "b": 0.7, "c": 2.1}
    checked = 0
    while checked < 60:
        e = random_expr(rng, depth=5)
        folded = constant_fold(e)
        x, y = rng.uniform(0.5, 2.0, 2)
        try:
            want = evaluate(e, x, y, params)
        except SingularityError:
            continue
        if not math.isfinite(want) or abs(want) > 1e12:
            continue
        got = evaluate(folded, x, y, params)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        checked += 1


def test_derivative_matches_finite_differences():
    # 100 random (expression, point) pairs; relative agreement 1e-5
    rng = np.random.default_rng(2024)
    params = {"a": 1.3, "b": 0.7, "c": 2.1}
    checked = 0
    while checked < 100:
        e = random_expr(rng, depth=5)
        var = "x" if rng.random() < 0.5 else "y"
        x, y = rng.uniform(0.5, 2.0, 2)
        try:
            d_sym = evaluate(differentiate(e, var), x, y, params)
            h = 1e-6 * max(1.0, abs(x if var == "x" else y))
            if var == "x":
                fplus = evaluate(e, x + h, y, params)
                fminus = evaluate(e, x - h, y, params)
            else:
                fplus = evaluate(e, x, y + h, params)
                fminus = evaluate(e, x, y - h, params)
        except SingularityError:
            continue
        d_fd = (fplus - fminus) / (2 * h)
        if not (math.isfinite(d_sym) and math.isfinite(d_fd)):
            continue
        if max(abs(d_sym), abs(d_fd)) > 1e8:
            continue  # conditioning of the FD quotient, not a derivative bug
        assert abs(d_sym - d_fd) <= 1e-5 * max(1.0, abs(d_sym), abs(d_fd))
        checked += 1


def test_expr_map_matches_builtin_ex1(ex1):
    m = expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0}, name="ex1-dsl")
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y = rng.uniform(0.1, 4.0, 2)
        assert m.step(x, y) == pytest.approx(ex1.map.step(x, y), rel=1e-14)
        ja = jacobian(m, Point2(x, y))
        jb = jacobian(ex1.map, Point2(x, y))
        assert np.allclose(ja, jb, rtol=1e-12, atol=1e-14)


def test_expr_map_exact_jacobian_agrees_with_fd():
    m = expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0})
    p = Point2(1.2, 0.7)
    exact = jacobian(m, p)
    fd = fd_jacobian(m, p)
    assert np.allclose(exact, fd, rtol=1e-6, atol=1e-9)


def test_expr_map_unbound_parameter():
    with pytest.raises(UnboundParameterError):
        expr_map("x/(a+y)", "y", {})


# ---------------------------------------------------------------------------
# Compiled expressions against the tree-walking oracle in helpers.py

PARAMS = {"a": 1.3, "b": -0.7, "c": 2.1}


def _outcome(fn):
    """Hex floats of fn()'s values, or the error it raises."""
    try:
        return tuple(float(v).hex() for v in fn())
    except (SingularityError, UnboundParameterError) as exc:
        return type(exc).__name__, str(exc)


def _same_arrays(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and all(
        float(u).hex() == float(v).hex() or (math.isnan(u) and math.isnan(v))
        for u, v in zip(a.ravel(), b.ravel()))


def _pair(f, g, params):
    return _Compiled((f, g), params, "{0}, {1}")


def _assert_compiled_matches_oracle(f, g, pts, params=PARAMS):
    pair = _pair(f, g, params)
    partials = [differentiate(e, v) for e in (f, g) for v in ("x", "y")]
    jac = _Compiled(partials, params, "_Matrix2({0}, {1}, {2}, {3})")
    for x, y in pts:
        assert _outcome(lambda: pair.scalar(x, y)) == _outcome(
            lambda: (tree_eval(f, x, y, params), tree_eval(g, x, y, params))), (x, y)
        assert _outcome(lambda: (evaluate(f, x, y, params),)) == _outcome(
            lambda: (tree_eval(f, x, y, params),))
        assert _outcome(lambda: jac.scalar(x, y)) == _outcome(
            lambda: [tree_eval(d, x, y, params) for d in partials]), (x, y)
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    with np.errstate(all="ignore"):
        got = pair.batch(X, Y)
    want = tree_batch(f, g, X, Y, params)
    assert _same_arrays(got[0], want[0]) and _same_arrays(got[1], want[1])
    # the batch Jacobian: NaN in some entry wherever the scalar one raises,
    # its values bit for bit elsewhere
    with np.errstate(all="ignore"):
        got = jac.batch(X, Y)
    for n, (x, y) in enumerate(pts):
        row = tuple(float(a[n]) for a in got)
        want = _outcome(lambda: [tree_eval(d, x, y, params) for d in partials])
        if want[0] in ("SingularityError", "UnboundParameterError"):
            assert any(math.isnan(v) for v in row), (x, y)
        else:
            assert tuple(v.hex() for v in row) == want, (x, y)


coord = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.3, -1.3, 0.7, 1e-13, -1e-13, 5e-324]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
def test_compiled_matches_tree_walk_on_random_trees(seed, pts):
    rng = np.random.default_rng(seed)
    _assert_compiled_matches_oracle(random_expr(rng, depth=5),
                                    random_expr(rng, depth=5), pts)


@pytest.mark.parametrize("f, g", [
    ("(x - 2)^0.5 + y^1.5", "(-x)^2.5 - (y - 1)^0.25"),  # negative bases
    ("x^320", "(y/1e3)^320 + x"),  # overflow and underflow
    ("-x*0 - y", "-(x - x)/y"),  # signed zeros
    ("x/(a + y) + x^0", "(x*y)^2.5 + x/b"),
    ("x/(y*1e999 - 1e999) + y/(x*0)", "x/(-0*y) - 1/(y - y)"),  # NaN and ±0 divisors
    ("(x/(y*1e999 - 1e999))^2 + y/(x*0)", "x/(-0*y) + y^0"),  # the same, through '^'
    ("(1/x)^0 + y", "(y/(x - x))^0"),  # a singular base at exponent 0 stays NaN
    ("(y*1e999 - 1e999)^0 + x", "x^0*y"),  # so does a NaN base the scalar meets
])
def test_compiled_matches_tree_walk_on_edge_cases(f, g):
    pts = [(x, y) for x in (-3.0, -0.0, 0.0, 0.5, 1.7, 12.0)
           for y in (-1.3, -0.0, 0.0, 2.0, 1e-13)]
    _assert_compiled_matches_oracle(parse(f), parse(g), pts)


def test_folded_nonfinite_constants_compile():
    inf = constant_fold(parse("1e200*1e200*x + y"))
    nan = constant_fold(parse("(1e200*1e200 - 1e200*1e200) + y"))
    minus_inf = constant_fold(parse("(0 - 1e200*1e200)*y + x"))
    assert inf.left.left == Const(math.inf) and math.isnan(nan.left.value)
    assert minus_inf.left.left == Const(-math.inf)
    pts = [(0.0, 1.0), (-2.0, 0.5), (3.0, -0.0)]
    _assert_compiled_matches_oracle(inf, nan, pts)
    _assert_compiled_matches_oracle(minus_inf, nan, pts)
    # to_text renders them so that parsing and folding gives the same bits
    for t in (inf, nan, minus_inf):
        back = constant_fold(parse(to_text(t)))
        want, got = _pair(t, t, {}), _pair(back, back, {})
        assert got.source == want.source
        for x, y in pts:
            assert _outcome(lambda: got.scalar(x, y)) == _outcome(lambda: want.scalar(x, y))
        X, Y = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        with np.errstate(all="ignore"):
            assert all(_same_arrays(u, v) for u, v in zip(got.batch(X, Y), want.batch(X, Y)))


@pytest.mark.parametrize("op", ["%", "**", "neg", ""])
def test_binop_rejects_unknown_operators(op):
    with pytest.raises(ValueError, match=re.escape(f"operator {op!r}")):
        BinOp(op, Var("x"), Const(3.0))


@pytest.mark.parametrize("name", ["z", "X", "a", ""])
def test_var_rejects_names_other_than_x_and_y(name):
    with pytest.raises(ValueError, match=re.escape(f"variable {name!r}")):
        Var(name)


def test_power_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="NaN"):
        BinOp("^", Var("x"), Const(math.nan))
    # infinite exponents render as 1e999 and parse back
    for e in (BinOp("^", Var("x"), Const(math.inf)),
              BinOp("^", Var("y"), Const(-math.inf))):
        assert parse(to_text(e)) == e


@pytest.mark.parametrize("b", [
    np.empty(0), np.empty((0, 3)), np.array(0.5), np.array(1e-13), np.array(-0.0), 2.0,
    np.array([math.nan, 1.0]), np.array([math.nan]), np.array([math.inf, -math.inf]),
    np.array([0.0, -0.0, 3.0]), np.array([1e-13, -1e-13, DIV_TOL, -DIV_TOL]),
    np.array([[2.0, -3.0], [1e300, -1e-12]]),
])
def test_den_is_the_where_guard(b):
    assert _same_arrays(_den(b), np.where(np.abs(b) < DIV_TOL, np.nan, b))


# ---------------------------------------------------------------------------
# One division guard per level against one guard per division (helpers.py)

# b = -0.7: a parameter divisor is negative, and so the _den branch runs
_LEAVES = st.sampled_from([
    Var("x"), Var("y"), Param("a"), Param("b"), Const(1.0), Const(-2.0), Const(0.0),
    Const(1e-13), Const(-1e-13), Const(math.inf), Const(-math.inf), Const(math.nan)])
_POINT = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1.0, -1.0, 2.5, -3.0, 1e300,
                          math.inf, -math.inf, math.nan])


def _division_trees(power: bool):
    """Trees of + - * / and negation, '^' too if power, with divisions nested
    in divisors (two levels per nesting step)."""
    def extend(kids):
        ops = [st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
               st.builds(Neg, kids),
               st.builds(lambda n, c, d: BinOp("/", n, BinOp("+", c, BinOp("/", ONE, d))),
                         kids, _LEAVES, kids)]
        if power:
            ops.append(st.builds(lambda e, p: BinOp("^", e, Const(p)), kids,
                                 st.sampled_from([2.0, 0.5, -1.0, 3.0])))
        return st.one_of(ops)
    return st.recursive(_LEAVES, extend, max_leaves=8)


@st.composite
def _division_pairs(draw):
    """(f, g): f divides by a divisor that is also one of its operands
    outside the division; g nests three levels of division when drawn so."""
    trees = _division_trees(draw(st.booleans()))
    d = draw(st.one_of(_LEAVES, trees))  # leaves: constant and parameter divisors
    f = BinOp(draw(st.sampled_from("+-*")), BinOp("/", draw(trees), d), d)
    g = draw(trees)
    if draw(st.booleans()):
        inner = BinOp("+", Var("y"), BinOp("/", Var("x"), draw(trees)))
        g = BinOp("/", g, BinOp("-", draw(_LEAVES), BinOp("/", ONE, inner)))
    return f, g


@st.composite
def _inputs(draw):
    """(X, Y): 0-d or 1-d arrays, empty ones too, of floats or of int64 (an
    integer divisor always takes the _den branch)."""
    integer = draw(st.booleans())
    coord, dtype = (st.integers(-3, 3), np.int64) if integer else (_POINT, float)
    if draw(st.booleans()):
        return np.array(draw(coord), dtype=dtype), np.array(draw(coord), dtype=dtype)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=8))
    return (np.array([p[0] for p in pts], dtype=dtype),
            np.array([p[1] for p in pts], dtype=dtype))


@settings(max_examples=200, deadline=None)
@given(pair=_division_pairs(), inputs=_inputs())
def test_level_guard_matches_one_guard_per_division(pair, inputs):
    X, Y = inputs
    partials = [differentiate(e, v) for e in pair for v in ("x", "y")]
    for roots, value in ((pair, "{0}, {1}"), (partials, "_Matrix2({0}, {1}, {2}, {3})")):
        compiled = _Compiled(roots, PARAMS, value)
        with np.errstate(all="ignore"):
            got = compiled.batch(X, Y)
            oracle = per_division_batch(roots, PARAMS)(X, Y)
        walked = tree_batch_roots(compiled.roots, X, Y, PARAMS)
        for u, v, w in zip(got, oracle, walked):
            assert np.shape(u) == np.shape(X) and _same_arrays(u, v) and _same_arrays(u, w)


def test_each_division_level_has_one_guard():
    for eid in EXAMPLE_IDS:
        assert make_example(eid).map.batch.__func__.source.count("_dens(") == 1, eid
    m = expr_map("x/(1+1/(y+2))", "y")
    assert m.batch.__func__.source.count("_dens(") == 2
    # y + 2 vanishes at -2, and 1 + 1/(y + 2) is negative at -2.5
    x = np.array([-2.0, -2.5, 0.5, 3.0])
    with np.errstate(all="ignore"):
        got = m.batch(x, x)
    assert all(_same_arrays(u, v) for u, v in
               zip(got, tree_batch(parse("x/(1+1/(y+2))"), Var("y"), x, x, {})))
    assert math.isnan(got[0][0]) and got[0][1] == 2.5
    # a guard goes one level past its divisor's, not to its division's level:
    # y + 3 is guarded with y, though its division sits a level higher
    assert expr_map("(x/(1+1/y))/(y+3)", "y").batch.__func__.source == (
        "def batch(self, x, y):\n"
        "    t7 = (y + k6)\n"
        "    q0, q2, = _dens((y, t7,))\n"
        "    t4 = (k1 + (k1 / q0))\n"
        "    q1, = _dens((t4,))\n"
        "    t8 = ((x / q1) / q2)\n"
        "    return t8, _full(y, x, y)\n")


def test_a_guarded_divisor_keeps_its_value_elsewhere():
    # y + 1 is a divisor and an operand outside the division: where it is 0
    # the quotient is NaN and the sum keeps the 0
    m = expr_map("x/(y+1) + (y+1)", "(y+1)*x")
    f, g = m.batch(np.array([2.0, 2.0]), np.array([-1.0, 1.0]))
    assert math.isnan(f[0]) and f[1] == 3.0 and g.tolist() == [0.0, 4.0]


def test_boundary_check_with_no_starts_batches_empty_arrays(ex3_t2, ex3_t2_fp):
    # delta has no part with area in this region: the lockstep searches call
    # batch and batch_jac on empty arrays
    rep = check_boundary_endpoint_conditions(ex3_t2.map, ex3_t2_fp, Rect(2, 3, 1.5, 2.5))
    assert rep.starts == 0


def test_equal_subexpressions_are_computed_once():
    f = parse("x/((1+x)*(1+x)) + y/((1+x)*(1+x))")
    assigned = sum(isinstance(n, ast.Assign)
                   for n in ast.walk(ast.parse(_pair(f, Var("y"), {}).source)))
    assert assigned == 5  # 1+x, its square, two quotients, the sum
    # constants equal as floats but not bit for bit stay apart
    signed = BinOp("-", BinOp("*", Var("x"), Const(-0.0)),
                   BinOp("*", Var("x"), Const(0.0)))
    _assert_compiled_matches_oracle(signed, f, [(1.0, 2.0), (-1.0, 0.5)])
    assert math.copysign(1.0, _pair(signed, f, {}).scalar(1.0, 2.0)[0]) == -1.0


@pytest.mark.parametrize("text", ["10^400*x + y", "(0-2)^0.5*x + y"])
def test_constant_power_math_pow_rejects_stays_unfolded(text):
    # math.pow overflows (10^400) or leaves the reals ((-2)^0.5): folding
    # keeps the node, and evaluating it reports a singularity
    folded = constant_fold(parse(text))
    assert isinstance(folded.left.left, BinOp) and folded.left.left.op == "^"
    with pytest.raises(SingularityError):
        evaluate(folded, 1.0, 1.0)
    assert differentiate(parse(text), "y") == Const(1.0)


def test_unbound_parameter_raises_where_the_tree_walk_meets_it():
    assert _outcome(lambda: (evaluate(parse("x/y + q"), 1.0, 0.0),)) == \
        ("SingularityError", "division by 0.0")
    with pytest.raises(UnboundParameterError):
        evaluate(parse("x/y + q"), 1.0, 1.0)


def test_deep_trees_compile():
    e = Var("x")
    for _ in range(3000):  # far deeper than Python's parser nests parentheses
        e = BinOp("+", Neg(e), Const(1.0))
    pair = _pair(e, Var("y"), {})
    assert pair.scalar(0.5, 2.0) == (0.5, 2.0)
    fx, gy = pair.batch(np.array([0.5, 1.5]), np.array([2.0, 3.0]))
    assert fx.tolist() == [0.5, 1.5] and gy.tolist() == [2.0, 3.0]


def test_long_sum_builds_and_renders():
    # far deeper than Python's recursion limit; texts and floats are compared,
    # as == and repr of a tree recurse
    n = 5000
    text = " + ".join("x" if k % 2 == 0 else "x * y" for k in range(n))
    assert to_text(parse(text)) == text
    m = expr_map(text, "y")
    for x, y in ((0.3, 1.7), (-1.1, 0.45), (2.0, -0.0)):
        f, fx, fy = x, 1.0, 0.0  # the sum and its partials, left to right
        for k in range(1, n):
            f, fx, fy = (f + x, fx + 1.0, fy) if k % 2 == 0 else (f + x * y, fx + y, fy + x)
        assert m.step(x, y) == (f, y)
        assert tuple(m.jac(x, y)) == (fx, fy, 0.0, 1.0)
        X, Y = np.array([x]), np.array([y])
        assert [a.tolist() for a in m.batch(X, Y)] == [[f], [y]]
        assert [a.tolist() for a in m.batch_jac(X, Y)] == [[fx], [fy], [0.0], [1.0]]


def _statements(fn):
    return sum(isinstance(n, ast.stmt) for n in ast.walk(ast.parse(fn.source)))


def test_long_product_jacobian_is_linear_in_the_factors():
    n = 320
    m = expr_map("*".join(["x"] * n), "y/2")
    assert _statements(m.jac.__func__) < 8 * n
    f = parse("*".join(["x"] * n))
    fx = differentiate(f, "x")
    for x in (0.5, 0.9, 1.1):
        j = m.jac(x, 0.25)
        assert float(j.a11).hex() == float(tree_eval(fx, x, 0.25, {})).hex()
        assert (j.a12, j.a21, j.a22) == (0.0, 0.0, 0.5)


def test_expr_map_pickles():
    _assert_pickles(expr_map("x/(a+y) + (x*y)^1.5", "y/(1+x) - a", {"a": 2.0},
                             name="pk"))


def test_builtin_map_pickles():
    _assert_pickles(make_example("ex2").map)  # binds h1 = h2 = 0, not in params


def test_deep_expr_map_pickles():
    # pickle recurses once per level of a nested structure; this tree is far
    # deeper than its recursion limit
    _assert_pickles(expr_map(" + ".join(["x", "x * y"] * 1000), "y"))


def _assert_pickles(m):
    m2 = pickle.loads(pickle.dumps(m))
    assert m2.name == m.name and m2.params == m.params and m2.meta == m.meta
    assert m2.batch.__self__ is m2.step.__self__
    assert m2.step.__self__.source == m.step.__self__.source
    assert m2.jac.__self__.source == m.jac.__self__.source
    pts = [(1.0, 1.0), (0.3, -2.0), (-1.0, 0.5), (2.5, 0.7), (-0.5, -2.0)]
    for x, y in pts:
        assert _outcome(lambda: m2.step(x, y)) == _outcome(lambda: m.step(x, y))
        assert _outcome(lambda: m2.jac(x, y)) == _outcome(lambda: m.jac(x, y))
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    for u, v in zip(m2.batch(X, Y), m.batch(X, Y)):
        assert _same_arrays(u, v)
    with np.errstate(all="ignore"):
        for u, v in zip(m2.batch_jac(X, Y), m.batch_jac(X, Y)):
            assert _same_arrays(u, v)


@pytest.mark.parametrize("b", [2.0, 0.5, 3.0, -1.5, 320.0, 0.0, -0.0])
def test_pow_array_is_math_pow_per_element(b):
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.uniform(-3.0, 3.0, 500),
                        [0.0, -0.0, 1e200, -1e200, math.inf, -math.inf, math.nan]])
    got = _pow_array(a, b)
    assert got.shape == a.shape
    for v, g in zip(a.tolist(), got.tolist()):
        try:
            want = math.pow(v, b)
        except (ValueError, OverflowError):
            assert math.isnan(g), v  # NaN where math.pow raises
        else:
            if math.isnan(v):  # math.pow(nan, 0) is 1: NaN carries through '^'
                want = math.nan
            assert g.hex() == want.hex(), v
    assert float(_pow_array(3.0, b)).hex() == math.pow(3.0, b).hex()
    assert math.isnan(_pow_array(math.nan, b))
