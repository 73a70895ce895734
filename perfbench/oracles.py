"""Output checks for the benchmark, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not. Basin rasters and the ex1 separatrix are compared with
brute-force numpy orbit oracles below, which re-implement the built-in
recurrences and share no code with the compmap path they check. Other
curves are checked by invariance of vertex images, located by a fresh
column bisection; limits by membership of the known equilibrium continua.
"""

from __future__ import annotations

import numpy as np

from compmap import Point2, basins, curves

MINUS = basins.LABEL_CODES["minus"]
PLUS = basins.LABEL_CODES["plus"]
CENSUS_AGREEMENT = 0.98


# ---------------------------------------------------------------------------
# Vectorized re-implementations of the built-in recurrences


def _step_ex1(p, X, Y):
    return X / (p["a"] + Y), Y / (1.0 + X)


def _step_ex2(p, X, Y):
    return (p["b1"] * X / (1.0 + X + p["c1"] * Y),
            p["b2"] * Y / (1.0 + Y + p["c2"] * X))


def _step_ex3_t2(p, X, Y):
    return 1.0 + X / Y, 1.0 + Y * Y / (X + Y)


def _step_ex4(p, X, Y):
    return p["beta1"] * X / (p["B1"] * X + Y), (p["alpha2"] + p["gamma2"] * Y) / X


def _step_ex5(p, X, Y):
    return (p["b1"] * X / (1.0 + X + p["c1"] * Y) + p["h1"],
            p["b2"] * Y / (1.0 + Y + p["c2"] * X) + p["h2"])


STEPPERS = {"ex1": _step_ex1, "ex2": _step_ex2, "ex3_T2": _step_ex3_t2,
            "ex4": _step_ex4, "ex5": _step_ex5}


def _cell_grid(window, n):
    xs = window.x_lo + (np.arange(n) + 0.5) * window.width() / n
    ys = window.y_lo + (np.arange(n) + 0.5) * window.height() / n
    return np.meshgrid(xs, ys)  # row j is y index, as in BasinRaster.labels


# ---------------------------------------------------------------------------
# Raster oracles: label per cell, -1 where the oracle cannot decide


def _oracle_escape(ctx, n):
    """ex4: orbits either blow up in y (minus) or creep to E (plus)."""
    step = STEPPERS[ctx["system"]]
    p, fp = ctx["params"], ctx["fp"]
    X, Y = _cell_grid(ctx["window"], n)
    labels = -np.ones(X.shape, dtype=np.int8)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            X, Y = step(p, X, Y)
            div = ~np.isfinite(X) | ~np.isfinite(Y) | (Y > 1e3)
            labels[div & (labels < 0)] = MINUS
            X = np.where(div, fp.x, X)
            Y = np.where(div, fp.y, Y)
    near = (np.abs(X - fp.x) < 1e-2) & (np.abs(Y - fp.y) < 1e-2) & (labels < 0)
    labels[near] = PLUS
    return labels


def _oracle_limit(ctx, n):
    """Continuum maps: iterate to the limit, compare it with fp in the SE order."""
    step = STEPPERS[ctx["system"]]
    p, fp, w = ctx["params"], ctx["fp"], ctx["window"]
    X, Y = _cell_grid(w, n)
    with np.errstate(all="ignore"):
        for _ in range(5000):
            Xn, Yn = step(p, X, Y)
            moved = np.nanmax(np.maximum(np.abs(Xn - X), np.abs(Yn - Y)))
            X, Y = Xn, Yn
            if moved < 1e-13:
                break
    margin = 1e-4 * w.diagonal()
    dx, dy = X - fp.x, Y - fp.y
    labels = -np.ones(X.shape, dtype=np.int8)
    labels[(dx < -margin) & (dy > margin)] = MINUS
    labels[(dx > margin) & (dy < -margin)] = PLUS
    return labels


def _oracle_attractors(ctx, n):
    """Label each cell by the equilibrium its orbit ends next to.

    ctx["plus"] is a hyperbolic attractor: an orbit within 1e-9 of it stays
    there, so it is parked instead of iterated to the end.
    """
    step = STEPPERS[ctx["system"]]
    p, plus = ctx["params"], ctx["plus"]
    X, Y = _cell_grid(ctx["window"], n)
    X, Y = X.ravel(), Y.ravel()
    live = np.arange(X.size)
    with np.errstate(all="ignore"):
        for done in range(0, ctx["iters"], 100):
            x, y = X[live], Y[live]
            for _ in range(min(100, ctx["iters"] - done)):
                x, y = step(p, x, y)
            X[live], Y[live] = x, y
            live = live[np.maximum(np.abs(x - plus.x), np.abs(y - plus.y)) >= 1e-9]
    X, Y = X.reshape(n, n), Y.reshape(n, n)
    labels = -np.ones(X.shape, dtype=np.int8)
    for code, q in ((MINUS, ctx["minus"]), (PLUS, ctx["plus"])):
        d = np.maximum(np.abs(X - q.x), np.abs(Y - q.y))
        labels[d < ctx["radius"]] = code
    return labels


RASTER_ORACLES = {"escape": _oracle_escape, "limit": _oracle_limit,
                  "attractors": _oracle_attractors}


class Checker:
    """Checks every output of a pass; a repeated output reuses its verdict.

    The check for an op is the method named after its kind. `peers` are the
    outputs of the same pass, by op name.
    """

    def __init__(self, oracle_cache=None):
        self._oracle_cache = {} if oracle_cache is None else oracle_cache
        self._verdicts = {}

    def fresh(self) -> "Checker":
        """A checker that re-runs every check but reuses the raster oracles."""
        return Checker(self._oracle_cache)

    def failures(self, results) -> list:
        """(op name, reason) for each call that raised or failed its check."""
        peers = {r.op.name: r.out for r in results if r.error is None}
        bad = []
        for r in results:
            reason = r.error
            if reason is None:
                key = (r.op.name, fingerprint(r.out))
                if key not in self._verdicts:
                    self._verdicts[key] = getattr(self, "_" + r.op.kind)(r.op, r.out, peers)
                reason = self._verdicts[key]
            if reason is not None:
                bad.append((r.op.name, reason))
        return bad

    def _raster(self, op, r, _peers):
        ctx, w = op.ctx, op.ctx["window"]
        key = (ctx["oracle"], ctx["system"], w.x_lo, w.x_hi, w.y_lo, w.y_hi, r.nx)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = RASTER_ORACLES[ctx["oracle"]](ctx, r.nx)
        oracle = self._oracle_cache[key]
        decided = np.isin(r.labels, (MINUS, PLUS)) & (oracle >= 0)
        both = int(decided.sum())
        agree = int(((r.labels == oracle) & decided).sum())
        if both < r.labels.size // 2:
            return f"only {both} of {r.labels.size} cells decided by raster and oracle"
        if agree < CENSUS_AGREEMENT * both:
            return f"census agreement {agree / both:.4f} < {CENSUS_AGREEMENT}"
        return None

    def _curve_ex1_scan(self, op, curve, _peers):
        """Criterion-3 oracle: the ex1 curve against a dense orbit scan."""
        bad = _increasing(curve.vertices)
        if bad:
            return bad
        w, a = op.ctx["window"], op.ctx["a"]
        tol = 2.0 * op.ctx["opts"].curve_tol + (w.y_hi - w.y_lo) / 512.0
        cols = np.linspace(w.x_lo, w.x_hi, 64)
        ys = np.linspace(w.y_lo, w.y_hi, 513)
        X = np.repeat(cols[None, :], ys.size, axis=0)
        Y = np.repeat(ys[:, None], cols.size, axis=1)
        for _ in range(400):
            X, Y = _step_ex1({"a": a}, X, Y)
        above = Y > op.ctx["fp"].location.y
        lo, hi = curve.vertices[0].x, curve.vertices[-1].x
        compared = 0
        for c, x_c in enumerate(cols):
            col = above[:, c]
            k = int(np.argmax(col))
            covered = lo - 1e-12 <= x_c <= hi + 1e-12
            if col.all() or not col.any() or k == 0:
                if covered and x_c > lo + 0.2:
                    return f"curve extends into one-sided column x={x_c:.4g}"
                continue
            boundary = 0.5 * (ys[k - 1] + ys[k])
            if not covered:
                if x_c > hi + 0.2 or boundary < w.y_hi - 0.5:
                    return f"tracing stopped before column x={x_c:.4g}"
                continue
            gap = abs(curve.y_at(float(x_c)) - boundary)
            if gap > tol:
                return f"gap {gap:.3g} > {tol:.3g} to the orbit scan at x={x_c:.4g}"
            compared += 1
        if compared < 30:
            return f"only {compared} columns compared with the orbit scan"
        return None

    def _curve_invariance(self, op, curve, _peers):
        """Criterion-4 check: vertex images lie on the curve, by fresh bisection."""
        bad = _increasing(curve.vertices)
        if bad:
            return bad
        m, fp, w, opts = (op.ctx[k] for k in ("map", "fp", "window", "opts"))
        vs = curve.vertices
        for k in np.linspace(1, len(vs) - 2, 20, dtype=int):
            img = Point2(*m.step(vs[k].x, vs[k].y))
            y = curves.locate_ordinate(m, fp, img.x, w, opts)
            if y is None or abs(img.y - y) > 10.0 * opts.curve_tol:
                return f"image of vertex {k} is off the curve (located {y!r})"
        return None

    def _curve_unstable(self, op, curve, _peers):
        vs = curve.vertices
        if any(not (b.x > a.x and b.y < a.y) for a, b in zip(vs, vs[1:])):
            return "unstable curve is not strictly decreasing"
        lo, hi = op.ctx["ends"]
        if vs[0].dist_inf(lo) > 1e-3 or vs[-1].dist_inf(hi) > 1e-3:
            return f"unstable curve ends {vs[0]}, {vs[-1]} miss the attractors"
        m = op.ctx["map"]
        for k in np.linspace(1, len(vs) - 2, 20, dtype=int):
            img = Point2(*m.step(vs[k].x, vs[k].y))
            if vs[0].x <= img.x <= vs[-1].x and abs(img.y - curve.y_at(img.x)) > 1e-6:
                return f"image of vertex {k} is off the unstable curve"
        return None

    def _continuity(self, op, rep, peers):
        """Criterion-7 check: limits on the y-axis, ordered, gaps halve with n."""
        if rep.divergent:
            return f"{rep.divergent} probe orbits did not converge"
        ys = [q.y for q in rep.limits]
        if max(abs(q.x) for q in rep.limits) > 1e-8:
            return "a limit is off the equilibrium line x = 0"
        if any(b < a for a, b in zip(ys, ys[1:])):
            return "limits are not ordered along the segment"
        coarser = peers.get(op.ctx["coarser"])
        if coarser is not None and coarser.max_gap < 1.8 * rep.max_gap:
            return (f"gap ratio {coarser.max_gap / rep.max_gap:.3f} < 1.8 "
                    f"from n={coarser.n} to n={rep.n}")
        return None

    def _limit(self, op, rec, _peers):
        """Criterion-6 check: the limit lies on the continuum of equilibria."""
        if not rec.converged:
            return f"no limit from {rec.start} ({rec.flag})"
        r = op.ctx["residual"](*rec.limit)
        if not abs(r) < 1e-5:
            return f"limit {rec.limit} is off the continuum (residual {r:.3g})"
        return None

    def _cli(self, op, out, _peers):
        rc, stdout, body, _stderr = out
        if rc != 0:
            return f"exit code {rc}"
        ref = op.ctx["reference"]
        if ref is None:
            return "the in-process run of the command failed"
        if (stdout, body) != ref:
            return "output differs from the in-process result"
        return op.ctx["library_check"](stdout, body)


def _increasing(vs) -> str | None:
    if len(vs) < 3:
        return f"only {len(vs)} vertices"
    if any(not (b.x > a.x and b.y > a.y) for a, b in zip(vs, vs[1:])):
        return "curve vertices are not strictly increasing"
    return None


def fingerprint(out) -> bytes:
    """Exact identity of an output, to reuse a check on a repeated output."""
    if isinstance(out, basins.BasinRaster):
        return out.labels.tobytes() + repr(sorted(out.meta.items())).encode()
    return repr(out).encode()
