"""Shared test utilities: direction comparison, a random-expression generator,
the expression tree-walkers that compiled expressions replaced, the batch
compiler with one guard per division that the guard per level replaced,
the hand-written built-in steps and Jacobians that their expression form
replaced, independent vectorized re-implementations of the built-in
recurrences used as brute-force oracles (they deliberately bypass the
library code paths they are checking), the plain scalar orbit loops
that curves compiles per map, the scalar column solver, the probe scan's
row loop and the column positions' sorted set that array code replaced,
unstable-curve trace, Newton search, boundary-endpoint check and
competitivity check the lockstep ones replaced, the step-keyed Taylor ray
fit that the one-array fit replaced, the per-cell raster writers and
readers that the array ones replaced, a map-evaluation counter,
and the orbit and quadrant predicates that only tests use as oracles."""

import math
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np

from compmap import (BoundaryEndpointReport, CompetitivityReport,
                     DegenerateRootError, EndpointLabel, Matrix2,
                     MonotoneCurve, NoConvergenceError, PlanarMap, Point2,
                     Rect, SingularityError, TaylorRay, UnboundParameterError,
                     endpoint_analysis, jacobian, validate_curve)
from compmap import basins
from compmap.basins import (LABEL_CODES, LABEL_NAMES, PGM_GRAY, LimitRecord,
                            SideVerdict, _read_meta)
from compmap.classification import ILL_CONDITION_REL
from compmap.errors import check_count, check_tolerance
from compmap import curves
from compmap.curves import PROBES, UNSTABLE_SEEDS
from compmap.fixedpoints import (BOUNDARY_GRID, MAX_HALVINGS, NEWTON_MAX_ITER,
                                 NEWTON_TOL, NONHYPERBOLIC_TOL, RESTART_STEPS, _delta_parts,
                                 _record)
from compmap.geometry import sup_norm
from compmap.planarmap import _EVAL_ERRORS, COMPETITIVE_TOL, _sample_grid
from compmap.expr import (DIV_TOL, NEST_DEPTH, BinOp, Const, Neg, Param, Var, _den, _define,
                          _full, _interned, _leaf, _operands, _pow_array, _reused,
                          _variables)


def normalize_direction(v):
    """Unit vector with the first component of magnitude > 1e-12 positive."""
    vx, vy = float(v[0]), float(v[1])
    n = np.hypot(vx, vy)
    vx, vy = vx / n, vy / n
    lead = vx if abs(vx) > 1e-12 else vy
    if lead < 0:
        vx, vy = -vx, -vy
    return Point2(vx + 0.0, vy + 0.0)


def direction_close(u, v, tol):
    a = normalize_direction(u)
    b = normalize_direction(v)
    return max(abs(a.x - b.x), abs(a.y - b.y)) <= tol


# ---------------------------------------------------------------------------
# Random expression generator (depth-bounded, rational-friendly)

PARAM_NAMES = ("a", "b", "c")


def random_expr(rng, depth=5):
    if depth <= 0 or rng.random() < 0.28:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Const(float(np.round(rng.uniform(-3.0, 3.0), 3)))
        if kind == 1:
            return Var("x" if rng.random() < 0.5 else "y")
        return Param(PARAM_NAMES[rng.integers(0, len(PARAM_NAMES))])
    op = rng.choice(["+", "-", "*", "/", "^", "neg"])
    if op == "neg":
        return Neg(random_expr(rng, depth - 1))
    if op == "^":
        return BinOp("^", random_expr(rng, depth - 1),
                     Const(float(rng.integers(0, 4))))
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


# ---------------------------------------------------------------------------
# Tree-walking expression evaluators: the oracle for compiled expressions


def tree_eval(e, x, y, params):
    """Evaluate e on floats by walking the tree; raises where a compiled
    scalar function must raise."""
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
        return -tree_eval(e.child, x, y, params)
    if isinstance(e, BinOp):
        a = tree_eval(e.left, x, y, params)
        if e.op == "^":
            b = e.right.value
            try:
                v = math.pow(a, b)
            except (ValueError, OverflowError):
                raise SingularityError(f"cannot raise {a!r} to power {b!r}")
            return v
        b = tree_eval(e.right, x, y, params)
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


def tree_eval_array(e, x, y, params, bad):
    """Elementwise tree_eval on arrays; marks in bad where tree_eval raises.
    '^' goes through math.pow per element."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Param):
        return float(params[e.name])
    if isinstance(e, Neg):
        return -tree_eval_array(e.child, x, y, params, bad)
    a = tree_eval_array(e.left, x, y, params, bad)
    if e.op == "^":
        a = np.broadcast_to(a, bad.shape)
        out = np.empty(bad.shape)
        for k, v in enumerate(a.flat):
            try:
                out.flat[k] = math.pow(v, e.right.value)
            except (ValueError, OverflowError):
                out.flat[k] = math.nan
                bad.flat[k] = True
        return out
    b = tree_eval_array(e.right, x, y, params, bad)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    tiny = np.abs(b) < DIV_TOL
    bad |= tiny
    return a / np.where(tiny, np.nan, b)


def has_power(e):
    if isinstance(e, Neg):
        return has_power(e.child)
    if isinstance(e, BinOp):
        return e.op == "^" or has_power(e.left) or has_power(e.right)
    return False


def tree_batch(f, g, x, y, params):
    """The batch step of the pair (f, g) by tree walk: NaN in a component
    wherever tree_eval raises on it; in both components wherever tree_eval
    raises on either, if f or g has a '^'."""
    return tree_batch_roots((f, g), x, y, params)


def tree_batch_roots(roots, x, y, params):
    """tree_batch for any number of roots: NaN in a root wherever tree_eval
    raises on it; in every root wherever tree_eval raises on any, if one has
    a '^'."""
    shape = np.broadcast(x, y).shape
    bads = [np.zeros(shape, dtype=bool) for _ in roots]
    with np.errstate(all="ignore"):
        values = [tree_eval_array(r, x, y, params, bad) for r, bad in zip(roots, bads)]
    if any(has_power(r) for r in roots):
        bads = [np.logical_or.reduce(bads)] * len(roots)
    return tuple(np.where(bad, np.nan, v) for bad, v in zip(bads, values))


# The array expressions of the compiled batch functions when every divisor
# had its own guard; {bad} is ", bad" when a root has a '^'.
_PER_DIVISION = {"neg": "(-{a})", "+": "({a} + {b})", "-": "({a} - {b})",
                 "*": "({a} * {b})", "/": "({a} / _den({b}{bad}))",
                 "^": "_pow_array({a}, {b}{bad})"}


def per_division_batch(roots, params):
    """The function (x, y) -> the roots on arrays, as expr compiled it with
    one _den(divisor[, bad]) per division, before divisions were guarded
    level by level: the oracle for the level guard, bit for bit."""
    roots, nodes = interned = _interned(roots)
    masked = any(isinstance(e, BinOp) and e.op == "^" for e in nodes)
    bad = ", bad" if masked else ""
    ns = {"_Unbound": UnboundParameterError, "_den": _den, "_pow_array": _pow_array,
          "_where": np.where, "_nan": math.nan, "_zeros": np.zeros,
          "_broadcast": np.broadcast, "_errstate": np.errstate, "_full": _full}
    named = _reused(nodes) | {id(r) for r in roots}
    body, code, depth = [], {}, {}
    for k, e in enumerate(nodes):
        kids = _operands(e)
        if not kids:
            code[id(e)], depth[id(e)] = _leaf(e, k, params, ns, body), 0
            continue
        text = _PER_DIVISION[e.op].format(
            **dict(zip("ab", [code[id(c)] for c in kids])), bad=bad)
        d = 1 + max(depth[id(c)] for c in kids)
        if id(e) in named or d >= NEST_DEPTH:
            body.append(f"t{k} = {text}")
            text, d = f"t{k}", 0
        code[id(e)], depth[id(e)] = text, d
    names = [code[id(r)] for r in roots]
    if masked:
        body = ["bad = _zeros(_broadcast(x, y).shape, dtype=bool)",
                "with _errstate(all='ignore'):"] + ["    " + s for s in body]
        ret = ", ".join(f"_where(bad, _nan, {v})" for v in names)
    else:
        ret = ", ".join(v if {"x", "y"} <= _variables(r) else f"_full({v}, x, y)"
                        for r, v in zip(roots, names))
    return partial(_define("batch", body, f"return {ret}", ns), None)


# ---------------------------------------------------------------------------
# The built-in maps as hand-written Python: the oracle for their expression
# form. Each step and Jacobian takes the denominator guard as a keyword;
# nan_guard turns a step into the batch step.


def guard(d, what):
    if abs(d) < DIV_TOL:
        raise SingularityError(f"denominator {what} vanished")
    return d


def nan_guard(d, what):
    return np.where(np.abs(d) < DIV_TOL, np.nan, d)


def square_guard(d, what):
    """Raises where the square of d is below DIV_TOL, as a compiled division
    by d*d does."""
    if abs(d * d) < DIV_TOL:
        raise SingularityError(f"denominator ({what})^2 vanished")
    return d


def ex1_step(a, x, y, _guard=guard):
    return x / _guard(a + y, "a+y"), y / _guard(1.0 + x, "1+x")


def ex1_jac(a, x, y, _guard=guard):
    d1 = _guard(a + y, "a+y")
    d2 = _guard(1.0 + x, "1+x")
    return Matrix2(1.0 / d1, -x / (d1 * d1), -y / (d2 * d2), 1.0 / d2)


def lg_step(b1, b2, c1, c2, h1, h2, x, y, _guard=guard):
    d1 = _guard(1.0 + x + c1 * y, "1+x+c1*y")
    d2 = _guard(1.0 + y + c2 * x, "1+y+c2*x")
    return b1 * x / d1 + h1, b2 * y / d2 + h2


def lg_jac(b1, b2, c1, c2, x, y, _guard=guard):
    d1 = _guard(1.0 + x + c1 * y, "1+x+c1*y")
    d2 = _guard(1.0 + y + c2 * x, "1+y+c2*x")
    return Matrix2(b1 * (1.0 + c1 * y) / (d1 * d1), -b1 * c1 * x / (d1 * d1),
                   -b2 * c2 * y / (d2 * d2), b2 * (1.0 + c2 * x) / (d2 * d2))


def ex3_step(x, y, _guard=guard):
    return y, 1.0 + x / _guard(y, "y")


def ex3_jac(x, y, _guard=guard):
    yy = _guard(y, "y")
    return Matrix2(0.0, 1.0, 1.0 / yy, -x / (yy * yy))


def ex3_t2_step(x, y, _guard=guard):
    yy = _guard(y, "y")
    s = _guard(x + y, "x+y")
    return 1.0 + x / yy, 1.0 + y * y / s


def ex3_t2_jac(x, y, _guard=guard):
    yy = _guard(y, "y")
    s = _guard(x + y, "x+y")
    return Matrix2(1.0 / yy, -x / (yy * yy),
                   -y * y / (s * s), y * (2.0 * x + y) / (s * s))


def ex4_step(B1, g2, a2, b1, x, y, _guard=guard):
    d1 = _guard(B1 * x + y, "B1*x+y")
    d2 = _guard(x, "x")
    return b1 * x / d1, (a2 + g2 * y) / d2


def ex4_jac(B1, g2, a2, b1, x, y, _guard=guard):
    d1 = _guard(B1 * x + y, "B1*x+y")
    d2 = _guard(x, "x")
    return Matrix2(b1 * y / (d1 * d1), -b1 * x / (d1 * d1),
                   -(a2 + g2 * y) / (d2 * d2), g2 / d2)


def hand_written(eid, p):
    """(step, jac) of built-in eid with parameters p: functions of
    (x, y, _guard=...)."""
    if eid == "ex1":
        return partial(ex1_step, p["a"]), partial(ex1_jac, p["a"])
    if eid in ("ex2", "ex5"):
        lg = (p["b1"], p["b2"], p["c1"], p["c2"])
        return (partial(lg_step, *lg, p.get("h1", 0.0), p.get("h2", 0.0)),
                partial(lg_jac, *lg))
    if eid == "ex3_T":
        return ex3_step, ex3_jac
    if eid == "ex3_T2":
        return ex3_t2_step, ex3_t2_jac
    ex4 = (p["B1"], p["gamma2"], p["alpha2"], p["beta1"])
    return partial(ex4_step, *ex4), partial(ex4_jac, *ex4)


# ---------------------------------------------------------------------------
# Vectorized oracle steppers (independent re-implementations)


def ex1_step_np(a, X, Y):
    return X / (a + Y), Y / (1.0 + X)


def ex2_step_np(b1, b2, c1, c2, X, Y):
    return b1 * X / (1.0 + X + c1 * Y), b2 * Y / (1.0 + Y + c2 * X)


def ex3_t2_step_np(X, Y):
    return 1.0 + X / Y, 1.0 + Y * Y / (X + Y)


def ex4_step_np(B1, g2, a2, b1, X, Y):
    return b1 * X / (B1 * X + Y), (a2 + g2 * Y) / X


def ex5_step_np(b1, b2, c1, c2, h1, h2, X, Y):
    return (b1 * X / (1.0 + X + c1 * Y) + h1,
            b2 * Y / (1.0 + Y + c2 * X) + h2)


def ex1_limit_y(a, X, Y, iters=400):
    """Limiting y-coordinate of the ex1 recurrence, vectorized."""
    X = np.array(X, dtype=float, copy=True)
    Y = np.array(Y, dtype=float, copy=True)
    for _ in range(iters):
        X, Y = ex1_step_np(a, X, Y)
    return Y


def ex1_boundary_scan(a, x_col, y_lo, y_hi, n_scan=513, fp_y=1.0, iters=400):
    """Brute-force separatrix ordinate in one column via a dense orbit scan.

    Returns (boundary_y or None, scan_step): the midpoint between the last
    start whose limit falls below fp_y and the first whose limit falls above.
    """
    ys = np.linspace(y_lo, y_hi, n_scan)
    lim = ex1_limit_y(a, np.full(n_scan, x_col, dtype=float), ys, iters=iters)
    above = lim > fp_y
    step = (y_hi - y_lo) / (n_scan - 1)
    if above.all() or (~above).all():
        return None, step
    k = int(np.argmax(above))  # limits increase with the start ordinate
    if k == 0:
        return None, step
    return 0.5 * (ys[k - 1] + ys[k]), step


# ---------------------------------------------------------------------------
# Scalar orbit loops: plain Python, calling the map's step once per iterate


def classify_quadrant(m, x, y, n, fp, opts):
    """basins._classify_quadrant written out: the quadrant-mode verdict from
    the orbit point x_n = (x, y), and the orbit point it stopped at."""
    eps = opts.epsilon_margin
    fx, fy = fp
    dom = m.domain
    step = m.step
    for n in range(n, opts.max_iter + 1):
        dx = x - fx
        dy = y - fy
        if abs(dx) <= eps and abs(dy) <= eps:
            return SideVerdict("band", n), x, y
        if dx <= -eps and dy >= eps:
            return SideVerdict("minus", n), x, y
        if dx >= eps and dy <= -eps:
            return SideVerdict("plus", n), x, y
        if abs(x) > basins.ESCAPE_BOUND or abs(y) > basins.ESCAPE_BOUND:
            return SideVerdict("undecided", n, "divergence"), x, y
        try:
            x, y = step(x, y)
        except SingularityError:
            return SideVerdict("undecided", n, "singularity"), x, y
        if not (math.isfinite(x) and math.isfinite(y)):
            return SideVerdict("undecided", n, "singularity"), x, y
        if not (dom.x_lo <= x <= dom.x_hi and dom.y_lo <= y <= dom.y_hi):
            return SideVerdict("undecided", n, "escape"), x, y
    return SideVerdict("undecided", opts.max_iter, "max_iter"), x, y


def limit_orbit(step, x, y, n, tol, max_iter):
    """basins._limit_orbit written out: T* from the orbit point x_n = (x, y),
    as (flag, x_k, y_k, k)."""
    tol = min(tol, basins.LIMIT_RESIDUAL_TOL)
    while n < max_iter:
        try:
            xn, yn = step(x, y)
        except SingularityError:
            return "singularity", x, y, n
        if not (math.isfinite(xn) and math.isfinite(yn)):
            return "singularity", x, y, n
        if abs(xn) > basins.ESCAPE_BOUND or abs(yn) > basins.ESCAPE_BOUND:
            return "divergence", x, y, n
        if abs(xn - x) < tol and abs(yn - y) < tol:
            return "", x, y, n
        x, y = xn, yn
        n += 1
    return "max_iter", x, y, n


def scalar_classify_side(m, p, fp, opts):
    """classify_side on the loops above."""
    x, y = float(p[0]), float(p[1])
    if opts.mode == "quadrant_escape":
        return classify_quadrant(m, x, y, 0, fp, opts)[0]
    flag, x, y, n = limit_orbit(m.step, x, y, 0, opts.conv_tol, opts.max_iter)
    if flag:
        return SideVerdict("undecided", n, flag)
    code = int(basins._limit_codes(np.array([x]), np.array([y]), fp, opts)[0])
    return SideVerdict(basins.LABEL_NAMES[code], n,
                       "incomparable_limit" if code == basins._UNDECIDED else "")


def scalar_limit_equilibrium(m, p, tol=1e-10, max_iter=100_000):
    """limit_equilibrium on limit_orbit."""
    start = Point2(*p)
    flag, x, y, n = limit_orbit(m.step, float(start.x), float(start.y), 0, tol, max_iter)
    return LimitRecord(start, None if flag else Point2(x, y), n, flag)


# ---------------------------------------------------------------------------
# Scalar column bisection: one scalar_classify_side call at a time, column by column


def column_probes(fp, slope, cx, window, curve_tol, probes=PROBES):
    """The ordinates scanned in column cx, ascending: probes uniform ones,
    plus a tangent-predicted pair when cx is near the fixed point."""
    y_lo, y_hi = window.y_lo, window.y_hi
    ys = [y_lo + (i + 0.5) * (y_hi - y_lo) / probes for i in range(probes)]
    dx = cx - fp[0]
    if abs(dx) <= 0.05 * window.width():
        yp = fp[1] + slope * dx
        delta = max(4.0 * abs(slope * dx), 16.0 * curve_tol)
        for cand in (yp - delta, yp + delta):
            if y_lo < cand < y_hi:
                ys.append(cand)
        ys.sort()
    return ys


def column_positions(window, fpx, columns):
    """curves._column_positions as a sorted set of Python floats, each
    geometric offset a Python ** power."""
    x0 = min(max(fpx, window.x_lo), window.x_hi)
    xs = {fpx} if window.x_lo <= fpx <= window.x_hi else set()
    spans = (x0 - window.x_lo, window.x_hi - x0)
    for side, span in enumerate(spans):
        if span <= 0:
            continue
        n_side = max(2, round(columns * span / (spans[0] + spans[1])))
        sign = -1.0 if side == 0 else 1.0
        n_uni = n_side // 2
        n_geo = n_side - n_uni
        xs.update(x0 + sign * span * (i + 0.5) / n_uni for i in range(n_uni))
        xs.update(x0 + sign * (span if n_geo == 1 else
                               span * curves.THETA_MIN ** (1.0 - i / (n_geo - 1)))
                  for i in range(n_geo))
    return sorted(xs)


def solve_column(m, fp, slope, cx, window, curve_tol, probes, sopts):
    """Locate the curve ordinate in one column; returns (y, flag) or (None, flag)."""
    ys = column_probes(fp, slope, cx, window, curve_tol, probes)
    lo = None
    hi = None
    saw_minus = False
    saw_plus = False
    for y in ys:
        v = scalar_classify_side(m, Point2(cx, y), fp, sopts)
        if v.label == "band":
            return y, ""
        if v.label == "plus":
            saw_plus = True
            lo = y
        elif v.label == "minus":
            saw_minus = True
            hi = y
            if lo is not None:
                break
    if lo is None or hi is None or hi <= lo:
        if saw_minus and not saw_plus:
            return None, "no_bracket:all_minus"
        if saw_plus and not saw_minus:
            return None, "no_bracket:all_plus"
        return None, "no_bracket:mixed"
    for _ in range(curves.MAX_BISECTIONS):
        if hi - lo <= curve_tol:
            break
        mid = 0.5 * (lo + hi)
        v = scalar_classify_side(m, Point2(cx, mid), fp, sopts)
        if v.label == "minus":
            hi = mid
        elif v.label == "plus":
            lo = mid
        elif v.label == "band":
            return mid, ""
        else:
            return 0.5 * (lo + hi), "undecided_probe"
    return 0.5 * (lo + hi), ""


def solve_columns_one_by_one(m, fp, slope, cxs, window, curve_tol, sopts,
                             gap=None):
    """curves._solve_columns' columns, as column_pairs gives them, from
    solve_column per column: the linear scan whether or not the order
    licence holds, and without a linear gap."""
    return [solve_column(m, fp, slope, cx, window, curve_tol, PROBES, sopts)
            for cx in cxs]


def scan_rows(V, P):
    """curves._scan as the probe scan was written before it: one round per
    probe index over the columns still scanning, and a plus above a minus
    sought row by row."""
    n = len(V)
    lo, hi, y = np.full((3, n), math.nan)
    ilo, ihi = np.zeros((2, n), dtype=int)
    j = np.arange(n)  # the columns still scanning
    for i in range(P.shape[1]):
        codes, py = V[j, i], P[j, i]
        band = codes == LABEL_CODES["band"]
        plus, minus = codes == LABEL_CODES["plus"], codes == LABEL_CODES["minus"]
        closed = minus & ~np.isnan(lo[j])
        y[j[band]] = py[band]
        lo[j[plus]], ilo[j[plus]] = py[plus], i
        hi[j[minus]], ihi[j[minus]] = py[minus], i
        j = j[~(band | closed)]
    inverted = False
    for row in V.tolist():
        seen_minus = False
        for code in row:
            inverted |= seen_minus and code == LABEL_CODES["plus"]
            seen_minus |= code == LABEL_CODES["minus"]
    return lo, hi, y, ilo, ihi, inverted


def spy_bisection(monkeypatch, record):
    """Patch curves._sided so that every call curves._bisect makes passes
    its points to record(xs, ys) first; the probe and location calls of
    _solve_columns and _locate, told apart by the calling frame, do not."""
    sided = curves._sided

    def spy(m, xs, ys, *rest, **kwargs):
        if sys._getframe(1).f_code.co_name == "_bisect":
            record(xs, ys)
        return sided(m, xs, ys, *rest, **kwargs)

    monkeypatch.setattr(curves, "_sided", spy)


def column_pairs(result):
    """curves._solve_columns' (y, flags) as one (y, flag) or (None, flag)
    pair per column, as solve_column returns them; None stays None."""
    if result is None:
        return None
    y, flags = result
    return [(None if math.isnan(v) else v, flag) for v, flag in zip(y.tolist(), flags)]


def solved_one_by_one(*args):
    """Drop-in for curves._solve_columns: solve_columns_one_by_one in its
    (y, flags) form."""
    pairs = solve_columns_one_by_one(*args)
    return (np.array([math.nan if y is None else y for y, _flag in pairs]),
            [flag for _y, flag in pairs])


# ---------------------------------------------------------------------------
# Scalar unstable-curve trace: one seed at a time, one step call per iterate


def scalar_trace_unstable_curve(m, fp, steps=100, seed_radius=1e-4):
    """trace_unstable_curve with each seed's orbit iterated by m.step; the
    arguments must pass trace_unstable_curve's checks."""
    v = fp.eigen.v_mu
    fpl = fp.location
    pts = [fpl]
    truncated_right = False
    truncated_left = False
    for k in range(UNSTABLE_SEEDS):
        t = -seed_radius + 2.0 * seed_radius * k / (UNSTABLE_SEEDS - 1)
        x = fpl.x + t * v.x
        y = fpl.y + t * v.y
        right_side = t * v.x > 0
        if m.domain.contains(Point2(x, y)):
            pts.append(Point2(x, y))
        for _ in range(steps):
            try:
                x, y = m.step(x, y)
            except SingularityError:
                break
            if not (math.isfinite(x) and math.isfinite(y)
                    and m.domain.contains(Point2(x, y))):
                if right_side:
                    truncated_right = True
                else:
                    truncated_left = True
                break
            pts.append(Point2(x, y))

    pts.sort(key=lambda p: (p.x, -p.y))
    kept = []
    dropped = 0
    for p in pts:
        if kept:
            if p.x - kept[-1].x < 1e-6:
                continue
            if not p.y < kept[-1].y:
                dropped += 1
                continue
        kept.append(p)
    notes = (f"{dropped} vertices dropped by the monotonicity filter",) if dropped else ()
    curve = MonotoneCurve(vertices=tuple(kept), monotonicity="decreasing",
                          endpoint_left=EndpointLabel("truncated", kept[0]),
                          endpoint_right=EndpointLabel("truncated", kept[-1]),
                          notes=notes)
    left, right = endpoint_analysis(m, curve, m.domain)
    if truncated_left:
        left = EndpointLabel("truncated", kept[0])
    if truncated_right:
        right = EndpointLabel("truncated", kept[-1])
    curve = replace(curve, endpoint_left=left, endpoint_right=right)
    validate_curve(curve)
    return curve


# ---------------------------------------------------------------------------
# Scalar Newton: one start at a time, raising where the search fails, with its
# own residual, chain-rule Jacobian and restart


def _residual(m, p, k, target):
    """T^k(p) - target, with target None meaning p."""
    x, y = p
    for _ in range(k):
        x, y = m.step(x, y)
    t = p if target is None else target
    return Point2(x - t.x, y - t.y)


def _dt(m, p, k):
    """DT^k(p), by the chain rule along the orbit of p."""
    j = jacobian(m, p)
    for _ in range(k - 1):
        p = Point2(*m.step(p.x, p.y))
        a = jacobian(m, p)
        j = Matrix2(a.a11 * j.a11 + a.a12 * j.a21, a.a11 * j.a12 + a.a12 * j.a22,
                    a.a21 * j.a11 + a.a22 * j.a21, a.a21 * j.a12 + a.a22 * j.a22)
    return j


def _iterate_ahead(m, p):
    """The RESTART_STEPS-th iterate of p, or None if the orbit meets a
    SingularityError or a non-finite point, or stays put."""
    x, y = p
    for _ in range(RESTART_STEPS):
        try:
            x, y = m.step(x, y)
        except SingularityError:
            return None
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
    q = Point2(x, y)
    return q if q.dist_inf(p) > 0 else None


def scalar_solve(m, guess, k=1, target=None, tol=NEWTON_TOL, fallback=False):
    """Damped Newton on T^k(p) - target = 0 (target None: p) from one start;
    returns the root and its sup-norm residual, or raises."""
    p = Point2(float(guess[0]), float(guess[1]))
    fp = _residual(m, p, k, target)
    res = sup_norm(fp.x, fp.y)
    for _ in range(NEWTON_MAX_ITER):
        if res < tol:
            return p, res
        j = _dt(m, p, k)
        if target is None:
            j = Matrix2(j.a11 - 1.0, j.a12, j.a21, j.a22 - 1.0)
        det = j.det()
        try:
            singular = abs(det) < 1e-14 * max(1.0, j.norm_inf()) ** 2
        except OverflowError:
            raise NoConvergenceError(
                f"Newton matrix overflows at ({p.x:.6g}, {p.y:.6g})") from None
        if singular:
            q = _iterate_ahead(m, p) if fallback else None
            if q is not None:
                p = q
                fp = _residual(m, p, k, target)
                res = sup_norm(fp.x, fp.y)
                continue
            raise NoConvergenceError(
                f"singular Newton matrix at ({p.x:.6g}, {p.y:.6g})")
        dx = (-fp.x * j.a22 + fp.y * j.a12) / det
        dy = (-fp.y * j.a11 + fp.x * j.a21) / det
        accepted = False
        for _h in range(MAX_HALVINGS + 1):
            cand = Point2(p.x + dx, p.y + dy)
            try:
                fc = _residual(m, cand, k, target)
                cres = sup_norm(fc.x, fc.y)
                if math.isfinite(cres) and cres < res:
                    p, fp, res = cand, fc, cres
                    accepted = True
                    break
            except _EVAL_ERRORS:
                pass
            dx *= 0.5
            dy *= 0.5
        if not accepted:
            raise NoConvergenceError(
                f"Newton stalled at ({p.x:.6g}, {p.y:.6g}), residual {res:.3g}")
    if res < tol:
        return p, res
    raise NoConvergenceError(f"no convergence after {NEWTON_MAX_ITER} Newton "
                             f"iterations (residual {res:.3g})")


def scalar_period_two(m, guess):
    """find_period_two with scalar_solve, one step for the image and the
    chain-rule DT^2."""
    root, res = scalar_solve(m, guess, k=2)
    img = Point2(*m.step(root.x, root.y))
    if root.dist_inf(img) < 10.0 * NEWTON_TOL:
        raise DegenerateRootError("degenerate")
    return _record(root, "period_two", img, _dt(m, root, 2), res)


def scalar_boundary_report(m, fp, region):
    """check_boundary_endpoint_conditions with one scalar search per start
    and kind of root, each building the record the search returns."""

    def fixed(s):
        root, res = scalar_solve(m, s, fallback=True)
        return _record(root, "fixed", None, jacobian(m, root), res).location

    fp_pt = fp.location
    parts = _delta_parts(region, fp_pt.x, fp_pt.y)
    starts = [Point2(x, y) for r, _k in parts
              for x, y in zip(*(a.tolist() for a in _sample_grid(r, BOUNDARY_GRID ** 2)))]
    fixed_w, p2_w, pre_w = [], [], []
    searches = ((fixed_w, True, fixed),
                (p2_w, False, lambda s: scalar_period_two(m, s).location),
                (pre_w, True, lambda s: scalar_solve(m, s, target=fp_pt)[0]))
    for s in starts:
        for bag, off_fp, search in searches:
            try:
                r = search(s)
            except (NoConvergenceError, SingularityError, OverflowError):
                continue
            if (region.contains(r)
                    and any(in_quadrant_interior(fp_pt, r, k, 1e-9) for _, k in parts)
                    and (not off_fp or r.dist_inf(fp_pt) > 1e-6)
                    and all(not r.dist_inf(q) < 1e-6 for q in bag)):
                bag.append(r)
    det = jacobian(m, fp_pt).det()
    return BoundaryEndpointReport(
        condition_i=not fixed_w and not p2_w,
        condition_ii=not fixed_w and det > 0 and not pre_w,
        condition_iii=not p2_w and det < 0 and not pre_w,
        det_at_fp=det, starts=len(starts), fixed_witnesses=tuple(fixed_w),
        period_two_witnesses=tuple(p2_w), preimage_witnesses=tuple(pre_w))


def scalar_check_competitive(m, region, samples=100):
    """check_competitive with one jacobian call per grid point."""
    tol = COMPETITIVE_TOL
    competitive = strongly = True
    failures = n_ok = 0
    witness = None
    for x, y in zip(*(a.tolist() for a in _sample_grid(region, samples))):
        p = Point2(x, y)
        try:
            j = jacobian(m, p)
        except _EVAL_ERRORS:
            failures += 1
            continue
        n_ok += 1
        ok_weak = (j.a11 >= -tol and j.a12 <= tol and j.a21 <= tol and j.a22 >= -tol)
        ok_strong = (j.a11 > tol and j.a12 < -tol and j.a21 < -tol and j.a22 > tol)
        if not ok_weak and competitive:
            competitive = False
            witness = (p, j)
        strongly = strongly and ok_strong
    return CompetitivityReport(competitive=competitive,
                               strongly=competitive and strongly, samples=n_ok,
                               failures=failures, witness=witness)


def _fit_parity(vals: dict, powers: tuple) -> tuple:
    """Solve sum_k a_k t^p_k = vals[t] for the three sampled step sizes,
    in the scaled variable s = t/h."""
    ts = sorted(vals.keys(), reverse=True)
    h = ts[0]
    A = np.array([[(t / h) ** p for p in powers] for t in ts])
    b = np.array([vals[t] for t in ts])
    scaled = np.linalg.solve(A, b)
    return tuple(scaled[k] / h ** p for k, p in enumerate(powers))


def dict_taylor_along_eigenvector(m, fp, v, degree=4, h=0.1):
    """taylor_along_eigenvector with its samples in dicts keyed by step, one
    solve per component and parity, and the ill-conditioning flag computed
    as sqrt(disagreement) > bound (False on a NaN fit)."""
    check_count("degree", degree, 2, 4)
    check_tolerance("step h", h)
    fx, fy = m.step(fp[0], fp[1])
    if not sup_norm(fx - fp[0], fy - fp[1]) <= 1e-10:
        raise ValueError(f"({fp[0]:.6g}, {fp[1]:.6g}) is not a fixed point to "
                         "residual 1e-10")
    v = Point2(*v).unit()
    x0, y0 = fp

    def phi(t):
        px, py = m.step(x0 + t * v.x, y0 + t * v.y)
        return (px - x0 - t * v.x, py - y0 - t * v.y)

    steps = (h, h / 2.0, h / 4.0, h / 8.0)
    even = {0: {}, 1: {}}
    odd = {0: {}, 1: {}}
    for t in steps:
        plus = phi(t)
        minus = phi(-t)
        for c in (0, 1):
            even[c][t] = 0.5 * (plus[c] + minus[c])
            odd[c][t] = 0.5 * (plus[c] - minus[c])

    def fits(base):
        sel = [t for t in steps if t <= base][:3]
        out = {}
        for c in (0, 1):
            ev = {t: even[c][t] for t in sel}
            od = {t: odd[c][t] for t in sel}
            out[c] = (_fit_parity(ev, (2, 4, 6)), _fit_parity(od, (1, 3, 5)))
        return out

    primary = fits(h)
    halved = fits(h / 2.0)

    coeffs_by_power = {}
    lin = [0.0, 0.0]
    disagreement_sq = 0.0
    norm_sq = 0.0
    for c in (0, 1):
        (a2, a4, _a6), (a1, a3, _a5) = primary[c]
        (b2, b4, _), (_b1, b3, _) = halved[c]
        lin[c] = a1
        for j, val, check in ((2, a2, b2), (3, a3, b3), (4, a4, b4)):
            coeffs_by_power.setdefault(j, [0.0, 0.0])[c] = val
            if j <= degree:
                disagreement_sq += (val - check) ** 2
                norm_sq += val * val
    ill = math.sqrt(disagreement_sq) > ILL_CONDITION_REL * max(1.0, math.sqrt(norm_sq))

    mu_est = 1.0 + lin[0] * v.x + lin[1] * v.y
    if abs(mu_est - 1.0) > NONHYPERBOLIC_TOL:
        warnings.warn(
            f"eigenvalue along the ray is {mu_est:.9g}, not within "
            f"{NONHYPERBOLIC_TOL:g} of 1; nonhyperbolic classification does not apply",
            stacklevel=2)
    coeffs = tuple((coeffs_by_power[j][0], coeffs_by_power[j][1])
                   for j in range(2, degree + 1))
    return TaylorRay(center=Point2(*fp), direction=v, coeffs=coeffs,
                     degree=degree, mu_estimate=mu_est, ill_conditioned=ill)


# ---------------------------------------------------------------------------
# Per-cell raster serialization: one gray level, CSV line or label per cell


def cell_raster_to_pgm(r):
    lines = ["P2"]
    for k, v in r.meta.items():
        lines.append(f"# {k}={v}")
    lines.append(f"{r.nx} {r.ny}")
    lines.append("255")
    for j in range(r.ny - 1, -1, -1):  # top row first, image convention
        lines.append(" ".join(str(PGM_GRAY[LABEL_NAMES[c]]) for c in r.labels[j]))
    return "\n".join(lines) + "\n"


def cell_raster_to_csv(r):
    lines = []
    for k, v in r.meta.items():
        lines.append(f"# {k}={v}")
    lines.append("i,j,x,y,label")
    for j in range(r.ny):
        for i in range(r.nx):
            c = r.cell_center(i, j)
            lines.append(f"{i},{j},{c.x:.17g},{c.y:.17g},{LABEL_NAMES[r.labels[j, i]]}")
    return "\n".join(lines) + "\n"


def cell_load_pgm(path):
    """load_pgm without its checks: tokens past nx*ny are ignored."""
    gray_to_label = {v: k for k, v in PGM_GRAY.items()}
    meta = {}
    with open(path) as fh:
        tokens = []
        magic = fh.readline().strip()
        if magic != "P2":
            raise ValueError(f"not a P2 PGM: {magic!r}")
        for line in fh:
            if not _read_meta(line, meta):
                tokens.extend(line.split())
    nx, ny = int(tokens[0]), int(tokens[1])
    vals = np.array(tokens[3:3 + nx * ny], dtype=int).reshape(ny, nx)
    labels = np.empty((ny, nx), dtype=np.uint8)
    for j in range(ny):
        for i in range(nx):
            labels[ny - 1 - j, i] = LABEL_CODES[gray_to_label[int(vals[j, i])]]
    return labels, meta


def cell_load_csv_raster(path):
    """load_csv_raster without its checks: the grid spans the largest i and
    j, and a missing cell reads minus."""
    meta = {}
    cells = {}
    nx = ny = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or _read_meta(line, meta) or line.startswith("i,"):
                continue
            i_s, j_s, _x, _y, label = line.split(",")
            i, j = int(i_s), int(j_s)
            nx = max(nx, i + 1)
            ny = max(ny, j + 1)
            cells[(i, j)] = LABEL_CODES[label]
    labels = np.zeros((ny, nx), dtype=np.uint8)
    for (i, j), c in cells.items():
        labels[j, i] = c
    return labels, meta


def patchy_map():
    """A map whose Jacobian raises for x < 1, returns NaN for y < 1 and
    breaks the competitive sign pattern for x > 3."""
    def jac(x, y):
        if x < 1:
            raise SingularityError("x < 1")
        if y < 1:
            return Matrix2(math.nan, -1.0, -1.0, 1.0)
        return Matrix2(1.0, 0.5 if x > 3 else -1.0, -1.0, 1.0)

    return PlanarMap(name="patchy", step=lambda x, y: (x, y), domain=Rect(0, 5, 0, 5),
                     jac=jac)


def linear_saddle_step(x, y):
    # mu = 2 along (1, -1) and 1/2 along (1, 1), fixed point at the origin
    return 1.25 * x - 0.75 * y, -0.75 * x + 1.25 * y


def wall_map():
    """linear_saddle_step, without a batch step, raising SingularityError
    for x < -0.5."""
    def step(x, y):
        if x < -0.5:
            raise SingularityError("wall")
        return linear_saddle_step(x, y)

    return PlanarMap(name="wall", step=step, domain=Rect(-1, 1, -1, 1))


# ---------------------------------------------------------------------------
# Map-evaluation counting


def counting_map(m, box):
    """A copy of PlanarMap m that adds one to box[0] per step call and the
    number of elements per batch call, to box[1] per jac call and the
    number of elements per batch_jac call, and to box[2] per batch call."""
    step, batch, jac, batch_jac = m.step, m.batch, m.jac, m.batch_jac

    def counted_step(x, y):
        box[0] += 1
        return step(x, y)

    def counted_batch(X, Y):
        box[0] += np.size(X)
        box[2] += 1
        return batch(X, Y)

    def counted_jac(x, y):
        box[1] += 1
        return jac(x, y)

    def counted_batch_jac(X, Y):
        box[1] += np.size(X)
        return batch_jac(X, Y)

    return replace(m, step=counted_step,
                   batch=None if batch is None else counted_batch,
                   jac=None if jac is None else counted_jac,
                   batch_jac=None if batch_jac is None else counted_batch_jac)


# ---------------------------------------------------------------------------
# Orbit and quadrant predicates

MONOTONE_ZERO_TOL = 1e-13  # an orbit difference within this of 0 has no sign
MONOTONE_MIN_TAIL = 5  # differences needed after the last sign flip


def in_quadrant_interior(origin: Point2, p: Point2, k: int, margin: float = 0.0) -> bool:
    """True if p is inside int Q_k(origin) with both inequalities cleared by margin."""
    dx = p[0] - origin[0]
    dy = p[1] - origin[1]
    if k == 1:
        return dx >= margin and dy >= margin if margin > 0 else dx > 0 and dy > 0
    if k == 2:
        return -dx >= margin and dy >= margin if margin > 0 else dx < 0 and dy > 0
    if k == 3:
        return -dx >= margin and -dy >= margin if margin > 0 else dx < 0 and dy < 0
    if k == 4:
        return dx >= margin and -dy >= margin if margin > 0 else dx > 0 and dy < 0
    raise ValueError(f"quadrant index must be 1..4, got {k}")


def converges_to(m, p: Point2, target: Point2,
                 tol: float = 1e-5, max_iter: int = 100_000) -> bool:
    """True when the orbit of p comes within sup-distance tol of target."""
    x, y = p
    tx, ty = target
    for _ in range(max_iter):
        if max(abs(x - tx), abs(y - ty)) <= tol:
            return True
        try:
            x, y = m.step(x, y)
        except SingularityError:
            return False
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
    return max(abs(x - tx), abs(y - ty)) <= tol


def exits_interval(m, p: Point2, interval,
                   max_iter: int = 100_000) -> bool:
    """True when the orbit of p leaves the order interval within max_iter."""
    rect = interval.as_rect()
    x, y = p
    for _ in range(max_iter):
        if not (rect.x_lo <= x <= rect.x_hi and rect.y_lo <= y <= rect.y_hi):
            return True
        try:
            x, y = m.step(x, y)
        except SingularityError:
            return False
        if not (math.isfinite(x) and math.isfinite(y)):
            return True  # blown up, certainly outside
    return False


def eventually_componentwise_monotone(points) -> bool:
    """True if each coordinate's difference signs stabilize after a finite prefix.

    Differences smaller than MONOTONE_ZERO_TOL carry no sign information and
    are compatible with either direction. The last sign flip must come at
    least MONOTONE_MIN_TAIL differences before the end.
    """
    if len(points) < MONOTONE_MIN_TAIL + 2:
        return True
    n = len(points) - 1
    for coord in (0, 1):
        last_flip = -1
        sign = 0
        for k in range(n):
            d = points[k + 1][coord] - points[k][coord]
            if abs(d) <= MONOTONE_ZERO_TOL:
                continue
            s = 1 if d > 0 else -1
            if sign != 0 and s != sign:
                last_flip = k
            sign = s
        if last_flip >= n - MONOTONE_MIN_TAIL:
            return False
    return True
