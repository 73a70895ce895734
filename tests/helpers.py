"""Shared test utilities: direction comparison, a random-expression generator,
independent vectorized re-implementations of the built-in recurrences used
as brute-force oracles (they deliberately bypass the library code paths they
are checking), and the scalar column solver the lockstep one replaced."""

import numpy as np

from compmap import Point2, classify_side
from compmap.expr import BinOp, Const, Neg, Param, Var


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


def solve_columns_one_by_one(m, fp, slope, cxs, window, curve_tol, probes, sopts):
    """Drop-in for curves._solve_columns that runs solve_column per column."""
    return [solve_column(m, fp, slope, cx, window, curve_tol, probes, sopts)
            for cx in cxs]
