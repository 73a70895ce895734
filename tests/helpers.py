"""Shared test utilities: direction comparison, a random-expression generator,
the expression tree-walkers that compiled expressions replaced, the
hand-written built-in steps and Jacobians that their expression form
replaced, independent vectorized re-implementations of the built-in
recurrences used as brute-force oracles (they deliberately bypass the
library code paths they are checking), and the scalar column solver the
lockstep one replaced."""

import math
from functools import partial

import numpy as np

from compmap import (Matrix2, Point2, SingularityError, UnboundParameterError,
                     classify_side)
from compmap.curves import PROBES
from compmap.expr import DIV_TOL, BinOp, Const, Neg, Param, Var


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
    bad_f = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    bad_g = bad_f.copy()
    with np.errstate(all="ignore"):
        fv = tree_eval_array(f, x, y, params, bad_f)
        gv = tree_eval_array(g, x, y, params, bad_g)
    if has_power(f) or has_power(g):
        bad_f = bad_g = bad_f | bad_g
    return np.where(bad_f, np.nan, fv), np.where(bad_g, np.nan, gv)


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
# Scalar column bisection: one classify_side call at a time, column by column


def solve_column(m, fp, slope, cx, window, curve_tol, probes, sopts):
    """Locate the curve ordinate in one column; returns (y, flag) or (None, flag)."""
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
    lo = None
    hi = None
    saw_minus = False
    saw_plus = False
    for y in ys:
        v = classify_side(m, Point2(cx, y), fp, sopts)
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
    for _ in range(200):
        if hi - lo <= curve_tol:
            break
        mid = 0.5 * (lo + hi)
        v = classify_side(m, Point2(cx, mid), fp, sopts)
        if v.label == "minus":
            hi = mid
        elif v.label == "plus":
            lo = mid
        elif v.label == "band":
            return mid, ""
        else:
            return 0.5 * (lo + hi), "undecided_probe"
    return 0.5 * (lo + hi), ""


def solve_columns_one_by_one(m, fp, slope, cxs, window, curve_tol, sopts):
    """Drop-in for curves._solve_columns that runs solve_column per column."""
    return [solve_column(m, fp, slope, cx, window, curve_tol, PROBES, sopts)
            for cx in cxs]
