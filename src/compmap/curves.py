"""Tracing the invariant separatrix and unstable curves of competitive maps.

The separatrix through a fixed point is computed as the decision boundary of
classify_side: along each vertical column of the window the minus/plus
labels are bisected down to curve_tol. This realizes the global boundary
characterization directly instead of continuing the curve locally, which
would accumulate drift along the slow direction.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .errors import (HypothesisError, NoConvergenceError, SingularityError,
                     check_count, check_point, check_tolerance, check_window)
from .expr import _Compiled, _function
from .fixedpoints import (NONHYPERBOLIC_TOL, EigenData, FixedPointRecord,
                          _curve_hypotheses)
from .geometry import Point2, Rect, record_class, sup_norm
from .planarmap import SIDE_MODES, PlanarMap, _images, _order_licensed


# ---------------------------------------------------------------------------
# Side classification

# An orbit with a coordinate beyond ESCAPE_BOUND in magnitude has diverged.
ESCAPE_BOUND = 1e6


@record_class
class SideOptions:
    """Options for classify_side.

    mode 'quadrant_escape' watches for entry into int Q2 / int Q4 relative to
    the fixed point with both inequalities cleared by epsilon_margin; it is
    the right tool for isolated equilibria. mode 'limit_equilibrium' takes
    the limiting equilibrium T* (limit_equilibrium with tol conv_tol) and
    compares it with the fixed point in the southeast order; use it when the
    map has a continuum of equilibria, where quadrant entry never happens.
    """

    mode: str = "quadrant_escape"
    epsilon_margin: float = 1e-9
    max_iter: int = 10_000
    conv_tol: float = 1e-12

    def __post_init__(self):
        if self.mode not in SIDE_MODES:
            raise ValueError(f"mode must be one of {', '.join(SIDE_MODES)}, "
                             f"got {self.mode!r}")
        check_count("max_iter", self.max_iter)
        check_tolerance("epsilon_margin", self.epsilon_margin, zero=True)
        check_tolerance("conv_tol", self.conv_tol)


@record_class
class SideVerdict:
    label: str  # 'minus' | 'plus' | 'band' | 'undecided'
    iterations_used: int
    flag: str = ""  # 'singularity' | 'divergence' | 'escape' | 'max_iter' | ...


def classify_side(m: PlanarMap, p: Point2, fp: Point2,
                  opts: SideOptions = SideOptions()) -> SideVerdict:
    """Decide which side of the separatrix through fp the point p lies on.

    minus is the northwest component (orbit enters int Q2(fp), or its limit
    equilibrium is strictly southeast-less than fp); plus the southeast one.
    p and fp must be finite (errors.check_point).
    """
    check_point("p", p)
    check_point("fp", fp)
    x, y = float(p[0]), float(p[1])
    if opts.mode == "quadrant_escape":
        return _classify_quadrant(m, x, y, 0, fp, opts)[0]
    flag, x, y, n = _limit_orbit(m.step, x, y, 0, opts.conv_tol, opts.max_iter)
    if flag:
        return SideVerdict("undecided", n, flag)
    code = int(_limit_codes(np.array([x]), np.array([y]), fp, opts)[0])
    return SideVerdict(LABEL_NAMES[code], n,
                       "incomparable_limit" if code == _UNDECIDED else "")


def _classify_quadrant(m: PlanarMap, x: float, y: float, n: int, fp: Point2,
                       opts: SideOptions) -> tuple:
    """The quadrant-mode verdict from the orbit point x_n = (x, y), and the
    orbit point it stopped at: (verdict, x_k, y_k), where k is
    verdict.iterations_used for a plus, minus or band verdict.

    Per iterate, in this order: band, minus, plus, beyond ESCAPE_BOUND
    (divergence); then the step, where SingularityError or a non-finite
    image reads singularity and an image outside the domain escape. Runs
    _QUADRANT_LOOP (see _loop)."""
    d = m.domain
    return _loop(m.step, _QUADRANT_LOOP)(m.step, x, y, n, fp[0], fp[1],
                                         opts.epsilon_margin, opts.max_iter,
                                         d.x_lo, d.x_hi, d.y_lo, d.y_hi)


_QUADRANT_LOOP = """\
def quadrant(step, x, y, n, fx, fy, eps, max_iter, x_lo, x_hi, y_lo, y_hi):
    meps = -eps
    big = ESCAPE_BOUND
    mbig = -big
    for n in range(n, max_iter + 1):
        dx = x - fx
        dy = y - fy
        if meps <= dx <= eps and meps <= dy <= eps:
            return SideVerdict("band", n), x, y
        if dx <= meps and dy >= eps:
            return SideVerdict("minus", n), x, y
        if dx >= eps and dy <= meps:
            return SideVerdict("plus", n), x, y
        if x > big or x < mbig or y > big or y < mbig:
            return SideVerdict("undecided", n, "divergence"), x, y
        try:
            x, y = step(x, y)
        except SingularityError:
            return SideVerdict("undecided", n, "singularity"), x, y
        if not (isfinite(x) and isfinite(y)):
            return SideVerdict("undecided", n, "singularity"), x, y
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            return SideVerdict("undecided", n, "escape"), x, y
    return SideVerdict("undecided", max_iter, "max_iter"), x, y
"""


# ---------------------------------------------------------------------------
# The limiting-equilibrium map T*

LIMIT_RESIDUAL_TOL = 1e-6


@record_class
class LimitRecord:
    """T*(start) = T^iterations(start), or limit None with the flag that
    ended the orbit at its iterations-th point."""

    start: Point2
    limit: Optional[Point2]
    iterations: int
    flag: str = ""  # '' | 'singularity' | 'divergence' | 'max_iter'

    @property
    def converged(self) -> bool:
        return self.limit is not None

    @property
    def diverged(self) -> bool:
        return self.flag in ("singularity", "divergence")


def limit_equilibrium(m: PlanarMap, p: Point2, tol: float = 1e-10,
                      max_iter: int = 100_000) -> LimitRecord:
    """The limiting equilibrium T*(p).

    T*(p) is the first orbit point x_k = T^k(p), k < max_iter, whose step
    T(x_k) - x_k is below min(tol, LIMIT_RESIDUAL_TOL) in both coordinates;
    that step certifies x_k. A raise or a non-finite iterate ends the orbit
    as 'singularity', an iterate beyond ESCAPE_BOUND as 'divergence', and k
    reaching max_iter as 'max_iter'; diverged marks the first two. tol must
    be finite and > 0, max_iter an int >= 1 and p finite
    (errors.check_point).
    """
    check_tolerance("tol", tol)
    check_count("max_iter", max_iter)
    check_point("p", p)
    start = Point2(*p)
    flag, x, y, n = _limit_orbit(m.step, float(start.x), float(start.y), 0,
                                 tol, max_iter)
    return LimitRecord(start, None if flag else Point2(x, y), n, flag)


def _limit_orbit(step, x: float, y: float, n: int, tol: float,
                 max_iter: int) -> tuple:
    """T* from the orbit point x_n = (x, y); returns (flag, x_k, y_k, k).

    flag is '' when x_k is the limit, else what ended the orbit at x_k. Per
    iterate, in this order: the step, where SingularityError or a non-finite
    image reads singularity; an image beyond ESCAPE_BOUND, divergence; a
    step below min(tol, LIMIT_RESIDUAL_TOL) in both coordinates, the limit.
    Runs _LIMIT_LOOP (see _loop)."""
    return _loop(step, _LIMIT_LOOP)(step, x, y, n, min(tol, LIMIT_RESIDUAL_TOL),
                                    max_iter)


_LIMIT_LOOP = """\
def limit(step, x, y, n, tol, max_iter):
    mtol = -tol
    big = ESCAPE_BOUND
    mbig = -big
    while n < max_iter:
        try:
            xn, yn = step(x, y)
        except SingularityError:
            return "singularity", x, y, n
        if not (mbig <= xn <= big and mbig <= yn <= big):
            if isfinite(xn) and isfinite(yn):
                return "divergence", x, y, n
            return "singularity", x, y, n
        if mtol < xn - x < tol and mtol < yn - y < tol:
            return "", x, y, n
        x, y = xn, yn
        n += 1
    return "max_iter", x, y, n
"""

# The globals of the orbit loops
_LOOP_NS = {"SideVerdict": SideVerdict, "SingularityError": SingularityError,
            "isfinite": math.isfinite, "ESCAPE_BOUND": ESCAPE_BOUND}
# The loops as they stand, for a step other than an expression map's
_CALLING = {source: _function(source, dict(_LOOP_NS))
            for source in (_QUADRANT_LOOP, _LIMIT_LOOP)}


def _loop(step, source: str):
    """The orbit loop source for step. The step of an expression map (and
    so of every built-in) is written into the loop, compiled once per map
    (expr._Compiled.inlined); the loop calls any other step, so a wrapper
    around step sees every evaluation."""
    compiled = getattr(step, "__self__", None)
    if isinstance(compiled, _Compiled) and step == compiled.scalar:
        return compiled.inlined(source, _LOOP_NS)
    return _CALLING[source]


# A lockstep round costs about as much for one point as for hundreds, and the
# slowest orbits (next to a nonhyperbolic point) run for thousands of
# iterations; the last few active points therefore finish in a scalar loop.
# With the map's statements written in (_loop), an iteration of it takes
# about 0.3-0.4 us on the built-in ex2 and ex5 maps, 30-35 % less than the
# hand-written loop calling step took (2-vCPU shared VM, Python 3.11).
BATCH_HANDOFF = 16


def _finite_sides(dom: Rect) -> tuple:
    """(coordinate, comparison, bound) of each finite side of dom; a finite
    point lies in dom when comparison(point[coordinate], bound) holds for
    all of them."""
    sides = ((0, np.greater_equal, dom.x_lo), (0, np.less_equal, dom.x_hi),
             (1, np.greater_equal, dom.y_lo), (1, np.less_equal, dom.y_hi))
    return tuple(s for s in sides if math.isfinite(s[2]))


def _within(sides, X, Y, mask: np.ndarray) -> np.ndarray:
    """mask, and-ed in place with the _finite_sides tests of (X, Y)."""
    for coord, compare, bound in sides:
        mask &= compare(Y if coord else X, bound)
    return mask


def _limits_lockstep(m: PlanarMap, X: np.ndarray, Y: np.ndarray, tol: float,
                     max_iter: int) -> tuple:
    """_limit_orbit from every (X[k], Y[k]), in lockstep numpy.

    Returns the limit coordinates, NaN where the orbit ended without one,
    a mask of the orbits that ended in a singularity, and each orbit's
    iteration count: the k of _limit_orbit, the index of the orbit point it
    ended at (max_iter where it ran out of iterations). All points step
    together through m.batch, where NaN stands for a singularity; once
    BATCH_HANDOFF or fewer remain (at once without a batch step), each
    finishes in _limit_orbit from where it stands.

    A round is the batch call and twelve ufunc calls into preallocated
    buffers, which leave one "going" mask: max(|x|, |y|) <= ESCAPE_BOUND of
    the images (False for NaN and inf too), less the orbits whose step is
    below tol. Only a round in which an orbit ended writes anything: each
    ended orbit's last point, as its limit, and that max of its image; then
    it compacts the arrays. After the last round the max tells limits (an
    image that was going), singularities (NaN or inf) and divergence apart,
    all at once.
    """
    tol = min(tol, LIMIT_RESIDUAL_TOL)
    LX = np.full(X.shape, math.nan)
    LY = np.full(X.shape, math.nan)
    singular = np.zeros(X.shape, dtype=bool)
    N = np.zeros(X.shape, dtype=int)
    idx = np.arange(X.size)
    n = 0
    if m.batch is not None and X.size > BATCH_HANDOFF:
        # max(|x|, |y|) of the image that ended each orbit; 0 while it goes on
        ENDS = np.zeros(X.size)
        buffers = ([np.empty(X.size) for _ in range(2)]
                   + [np.empty(X.size, dtype=bool) for _ in range(2)])
        a, b, go, conv = buffers  # views sized to the live points
        with np.errstate(all="ignore"):
            while len(idx) > BATCH_HANDOFF and n < max_iter:
                Xn, Yn = m.batch(X, Y)
                np.maximum(np.abs(np.subtract(Xn, X, out=a), out=a),
                           np.abs(np.subtract(Yn, Y, out=b), out=b), out=a)
                np.less(a, tol, out=conv)
                np.maximum(np.abs(Xn, out=a), np.abs(Yn, out=b), out=a)
                np.less_equal(a, ESCAPE_BOUND, out=go)
                conv &= go  # X is the limit
                go ^= conv
                n += 1
                if np.count_nonzero(go) == len(go):
                    X, Y = Xn, Yn
                    continue
                stop = ~go
                k = idx[stop]
                LX[k] = X[stop]
                LY[k] = Y[stop]
                ENDS[k] = a[stop]
                N[k] = n - 1
                idx, X, Y = idx[go], Xn[go], Yn[go]
                a, b, go, conv = (v[:len(idx)] for v in buffers)
        no_limit = ~(ENDS <= ESCAPE_BOUND)
        LX[no_limit] = math.nan
        LY[no_limit] = math.nan
        singular[~(ENDS < math.inf)] = True  # a NaN or infinite image
    N[idx] = n  # max_iter, where the rest ran out of iterations
    if n < max_iter:
        for k, x, y in zip(idx.tolist(), X.tolist(), Y.tolist()):
            flag, x, y, N[k] = _limit_orbit(m.step, x, y, n, tol, max_iter)
            if flag:
                singular[k] = flag == "singularity"
            else:
                LX[k], LY[k] = x, y
    return LX, LY, singular, N


# ---------------------------------------------------------------------------
# Lockstep side classification of many points

LABEL_NAMES = ("minus", "plus", "band", "undecided", "singular")
LABEL_CODES = {name: i for i, name in enumerate(LABEL_NAMES)}
_MINUS, _PLUS, _BAND, _UNDECIDED, _SINGULAR = range(len(LABEL_NAMES))


def label_code(v: SideVerdict) -> int:
    """Code into LABEL_NAMES of a verdict; a singularity flag reads 'singular'."""
    return _SINGULAR if v.flag == "singularity" else LABEL_CODES[v.label]


def classify_batch(m: PlanarMap, xs, ys, fp: Point2,
                   opts: SideOptions = SideOptions()) -> np.ndarray:
    """classify_side for every point (xs[k], ys[k]), in lockstep numpy.

    Returns uint8 codes into LABEL_NAMES, shaped like xs, equal point by point
    to label_code(classify_side(...)): the codes of _sided. xs and ys must
    have one shape and be finite, and so must fp (errors.check_point).
    """
    check_point("fp", fp)
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("xs and ys must be finite")
    return _sided(m, xs.ravel(), ys.ravel(), fp, opts)[0].reshape(xs.shape)


def _exit_rate(e: EigenData) -> Optional[tuple]:
    """(w_x, w_y, mu) at a saddle with eigen data e, where the row w is dual
    to v_mu (w . v_lam = 0, w . v_mu = 1); None unless e is real with
    |lam| < 1 and mu > 1 (NONHYPERBOLIC_TOL clear of 1), and w_x > 0 > w_y,
    as at a strongly competitive saddle (v_lam in int Q1, v_mu in int Q4)."""
    if not (e.real_distinct and e.v_lam is not None and e.v_mu is not None
            and abs(e.lam) < 1.0 < e.mu - NONHYPERBOLIC_TOL):
        return None
    (a, b), (c, d) = e.v_lam, e.v_mu
    det = b * c - a * d
    wx, wy = b / det, -a / det
    return (wx, wy, e.mu) if wx > 0.0 > wy else None


def _sided(m: PlanarMap, X: np.ndarray, Y: np.ndarray, fp: Point2,
           opts: SideOptions, rate: Optional[tuple] = None) -> tuple:
    """(codes, s, N) of the points (X[k], Y[k]), from one lockstep call:
    their codes, the gap s there and each orbit's iteration count; the one
    function that picks the lockstep kernel of opts.mode.

    In limit mode (_limits_lockstep), s = (L_y - f_y) - (L_x - f_x) of the
    limit L = T* against fp = f: < 0 where L reads plus, > 0 where it reads
    minus, NaN without a limit. In quadrant mode, given the exit rate of a
    saddle fp (_exit_rate), s = -<w, x_n - fp> / mu^n at the orbit point
    x_n that decided the verdict, and N holds n: < 0 on plus and > 0 on
    minus (w_x > 0 > w_y); 0 on band (the orbit met fp, so the start lies
    on the curve up to the verdict margin); NaN on undecided and singular.
    Near the saddle's stable manifold, which is the curve, an orbit leaves
    along v_mu, and s is close to a linear function of the start's offset
    from the curve. Without a rate, quadrant mode gives s = N = None."""
    if opts.mode == "limit_equilibrium":
        LX, LY, singular, N = _limits_lockstep(m, X, Y, opts.conv_tol, opts.max_iter)
        codes = _limit_codes(LX, LY, fp, opts)  # NaN limits read undecided
        codes[singular] = _SINGULAR
        return codes, (LY - fp[1]) - (LX - fp[0]), N
    codes, EX, EY, N = _quadrant_batch(m, X, Y, fp, opts, rate is not None)
    if rate is None:
        return codes, None, None
    wx, wy, mu = rate
    with np.errstate(all="ignore"):
        s = -((EX - fp[0]) * wx + (EY - fp[1]) * wy) / mu ** N
    s[codes == _BAND] = 0.0
    s[codes > _BAND] = math.nan  # undecided or singular
    return codes, s, N


# The label of a stopped quadrant-mode image, at 4 not band + 2 not minus + not plus
_STOPPED = np.array([_BAND] * 4 + [_MINUS, _MINUS, _PLUS, _UNDECIDED], dtype=np.uint8)


def _quadrant_batch(m: PlanarMap, X: np.ndarray, Y: np.ndarray, fp: Point2,
                    opts: SideOptions, exits: bool = False) -> tuple:
    """_classify_quadrant from every (X[k], Y[k]), in lockstep numpy; returns
    the label codes and, if exits, the orbit point x_n each orbit stopped at
    and its index n: (codes, EX, EY, N), where x_n decided a plus, minus or
    band verdict; else (codes, None, None, None). Keeping them costs three
    scatters in each round where an orbit stops: on the ex4 128x128
    raster, about a quarter of the call's time.

    All points step together through m.batch; once BATCH_HANDOFF or fewer
    remain (at once without a batch step), each finishes in
    _classify_quadrant from where it stands.

    The starts are labelled first. A round then steps the live points (all
    finite, inside the domain, within ESCAPE_BOUND and undecided) and
    builds, with 16 ufunc calls plus two per finite side of the domain, all
    into preallocated buffers, the masks of the images: ok, max(|x|, |y|)
    <= ESCAPE_BOUND (False for NaN and inf too) inside the domain's finite
    sides; and, with u = x - fx, w = fy - y, hi = max(u, w) and lo =
    min(u, w), not minus (hi > -eps), not plus (lo < eps) and not band
    (max(hi, -lo) > eps). The live points go on where all four hold. Only
    a round in which an image stopped labels it, from those masks, and
    compacts the arrays; the rare image that stopped not ok is told
    singular, escaped or beyond ESCAPE_BOUND on its own. The image of
    round max_iter only tells singular from undecided, as in
    _classify_quadrant.
    """
    out = np.full(X.size, _UNDECIDED, dtype=np.uint8)
    EX, EY, N = ((X.copy(), Y.copy(), np.zeros(X.size, dtype=int)) if exits
                 else (None,) * 3)
    idx = np.arange(X.size)
    n = 0
    if m.batch is not None and X.size > BATCH_HANDOFF:
        with np.errstate(all="ignore"):
            eps = opts.epsilon_margin
            fx, fy = fp
            sides = _finite_sides(m.domain)
            dx = X - fx
            dy = Y - fy
            out[(dx >= eps) & (dy <= -eps)] = _PLUS
            out[(dx <= -eps) & (dy >= eps)] = _MINUS
            out[(np.abs(dx) <= eps) & (np.abs(dy) <= eps)] = _BAND
            idx = ((out == _UNDECIDED) & ~((np.abs(X) > ESCAPE_BOUND)
                                           | (np.abs(Y) > ESCAPE_BOUND))).nonzero()[0]
            X, Y = X[idx], Y[idx]
            buffers = ([np.empty(len(idx)) for _ in range(3)]
                       + [np.empty(len(idx), dtype=bool) for _ in range(5)])
            # views sized to the live points
            a, b, c, ok, not_minus, not_plus, not_band, go = buffers
            while len(idx) and (len(idx) > BATCH_HANDOFF or n == opts.max_iter):
                Xn, Yn = m.batch(X, Y)
                np.maximum(np.abs(Xn, out=a), np.abs(Yn, out=b), out=a)
                if n == opts.max_iter:  # the rest stay undecided
                    out[idx[~(a < math.inf)]] = _SINGULAR
                    idx, X, Y = idx[:0], X[:0], Y[:0]
                    break
                np.less_equal(a, ESCAPE_BOUND, out=ok)
                for coord, compare, bound in sides:
                    ok &= compare(Yn if coord else Xn, bound, out=go)
                np.maximum(np.subtract(Xn, fx, out=a), np.subtract(fy, Yn, out=b),
                           out=c)
                np.minimum(a, b, out=a)
                np.greater(c, -eps, out=not_minus)
                np.less(a, eps, out=not_plus)
                np.greater(np.maximum(c, np.negative(a, out=b), out=b), eps,
                           out=not_band)
                np.logical_and(ok, not_minus, out=go)
                go &= not_plus
                go &= not_band
                n += 1
                if np.count_nonzero(go) == len(go):
                    X, Y = Xn, Yn
                    continue
                # integer indices: each serves several gathers
                stop, keep = (~go).nonzero()[0], go.nonzero()[0]
                key = not_band[stop].view(np.uint8) << 2
                key |= not_minus[stop].view(np.uint8) << 1
                key |= not_plus[stop].view(np.uint8)
                codes = _STOPPED.take(key)
                if np.count_nonzero(ok) < len(ok):  # not finite, out of the domain,
                    odd = (~ok[stop]).nonzero()[0]   # or beyond ESCAPE_BOUND
                    x, y = Xn[stop[odd]], Yn[stop[odd]]
                    finite = np.isfinite(x) & np.isfinite(y)
                    codes[odd[~_within(sides, x, y, finite.copy())]] = _UNDECIDED
                    codes[odd[~finite]] = _SINGULAR
                k = idx[stop]
                out[k] = codes
                if exits:
                    EX[k], EY[k], N[k] = Xn[stop], Yn[stop], n
                idx, X, Y = idx[keep], Xn[keep], Yn[keep]
                a, b, c, ok, not_minus, not_plus, not_band, go = (
                    v[:len(idx)] for v in buffers)
    for k, x, y in zip(idx.tolist(), X.tolist(), Y.tolist()):
        v, x, y = _classify_quadrant(m, x, y, n, fp, opts)
        out[k] = label_code(v)
        if exits:
            EX[k], EY[k], N[k] = x, y, v.iterations_used
    return out, EX, EY, N


def _limit_codes(X, Y, fp, opts):
    """The comparison of limits (X, Y) with fp in the southeast order under
    a slack of ten times the tolerance they are certified at: minus in
    Q2(fp) and plus in Q4(fp), each widened by the slack, else undecided;
    band within max(epsilon_margin, slack) of fp in both coordinates, where
    the two meet, as a limit within the slack cannot be told from fp."""
    dx = X - fp[0]
    dy = Y - fp[1]
    slack = max(1e-12, 10.0 * min(opts.conv_tol, LIMIT_RESIDUAL_TOL))
    codes = np.full(X.shape, _UNDECIDED, dtype=np.uint8)
    codes[(dx <= slack) & (dy >= -slack)] = _MINUS
    codes[(dx >= -slack) & (dy <= slack)] = _PLUS
    band = max(opts.epsilon_margin, slack)
    codes[np.maximum(np.abs(dx), np.abs(dy)) <= band] = _BAND
    return codes


# ---------------------------------------------------------------------------
# Monotone curves


@record_class
class EndpointLabel:
    kind: str  # 'domain_boundary' | 'fixed_point' | 'period_two_pair' | 'truncated'
    at: Point2
    partner: Optional[Point2] = None

    def __str__(self):
        if self.kind == "period_two_pair":
            return (f"period_two_pair(({self.at.x:.9g}, {self.at.y:.9g}) <-> "
                    f"({self.partner.x:.9g}, {self.partner.y:.9g}))")
        return f"{self.kind}(({self.at.x:.9g}, {self.at.y:.9g}))"


@record_class
class MonotoneCurve:
    vertices: tuple
    monotonicity: str  # 'increasing' | 'decreasing'
    endpoint_left: EndpointLabel
    endpoint_right: EndpointLabel
    notes: tuple = ()

    def y_at(self, x: float) -> float:
        """Piecewise-linear interpolation; x must lie within the vertex range."""
        vs = self.vertices
        if not (vs and vs[0].x <= x <= vs[-1].x):
            raise ValueError(f"x={x!r} outside the traced range")
        lo, hi = 0, len(vs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if vs[mid].x <= x:
                lo = mid
            else:
                hi = mid
        a, b = vs[lo], vs[hi]
        if b.x == a.x:
            return a.y
        t = (x - a.x) / (b.x - a.x)
        return a.y + t * (b.y - a.y)


def _points(xs: list, ys: list, keep) -> tuple:
    """The Point2s (xs[k], ys[k]) where keep[k], built without a Point2 call
    per point and from the floats of xs and ys."""
    return tuple(map(tuple.__new__, repeat(Point2), compress(zip(xs, ys), keep)))


def _validated(curve: MonotoneCurve, X: np.ndarray, Y: np.ndarray) -> MonotoneCurve:
    """curve, with vertices (X[k], Y[k]), once it passes validate_curve; the
    vertex loop runs, for its error, only where the arrays are not strictly
    monotone as curve.monotonicity promises."""
    dy = np.diff(Y) if curve.monotonicity == "increasing" else -np.diff(Y)
    if not ((np.diff(X) > 0).all() and (dy > 0).all()):
        validate_curve(curve)
    return curve


def validate_curve(curve: MonotoneCurve) -> None:
    """Assert the strict vertex monotonicity the curve kind promises."""
    vs = curve.vertices
    for a, b in zip(vs, vs[1:]):
        if curve.monotonicity == "increasing":
            if not (b.x > a.x and b.y > a.y):
                raise ValueError(f"increasing curve violated between {a} and {b}")
        else:
            if not (b.x > a.x and b.y < a.y):
                raise ValueError(f"decreasing curve violated between {a} and {b}")


# ---------------------------------------------------------------------------
# Endpoint analysis

ENDPOINT_BOUNDARY_TOL = 1e-6
ENDPOINT_RESIDUAL_TOL = 1e-6


def endpoint_analysis(m: PlanarMap, curve: MonotoneCurve, region: Rect):
    """Label both curve endpoints: boundary, fixed point, period-two, or truncated."""
    if not curve.vertices:
        raise ValueError("cannot analyze an empty curve")
    return (_endpoint_label(m, curve.vertices[0], region),
            _endpoint_label(m, curve.vertices[-1], region))


def _endpoint_label(m: PlanarMap, e: Point2, region: Rect) -> EndpointLabel:
    if region.boundary_dist(e) < ENDPOINT_BOUNDARY_TOL:
        return EndpointLabel("domain_boundary", e)
    try:
        fx, fy = m.step(e.x, e.y)
        r1 = sup_norm(fx - e.x, fy - e.y)
        if r1 < ENDPOINT_RESIDUAL_TOL:
            return EndpointLabel("fixed_point", e)
        gx, gy = m.step(fx, fy)
        r2 = sup_norm(gx - e.x, gy - e.y)
        if r2 < ENDPOINT_RESIDUAL_TOL:
            return EndpointLabel("period_two_pair", e, Point2(fx, fy))
    except SingularityError:
        pass
    return EndpointLabel("truncated", e)


# ---------------------------------------------------------------------------
# Stable curve tracing


@record_class
class CurveOptions:
    """Options for trace_stable_curve.

    columns are spread over the window with geometric refinement toward the
    fixed point. Bisection stops when the bracket is narrower than curve_tol,
    and classifies at the verdict margin max(1e-12, curve_tol/100): a wider
    margin would leave a no-verdict band around the curve far wider than
    curve_tol.
    """

    columns: int = 256
    curve_tol: float = 1e-8
    mode: Optional[str] = None  # None: from map meta ('continuum' -> limit mode)
    max_iter: int = 50_000

    def __post_init__(self):
        if self.mode not in (None,) + SIDE_MODES:
            raise ValueError("mode must be None or one of "
                             f"{', '.join(SIDE_MODES)}, got {self.mode!r}")
        check_count("columns", self.columns)
        check_count("max_iter", self.max_iter)
        check_tolerance("curve_tol", self.curve_tol)


def _resolve_mode(m: PlanarMap, mode: Optional[str] = None) -> str:
    """The given mode, else limit_equilibrium for maps with a continuum of
    equilibria and quadrant_escape otherwise."""
    if mode is not None:
        return mode
    return "limit_equilibrium" if m.meta.get("continuum") else "quadrant_escape"


# The geometric columns of a side sit at offsets from span * THETA_MIN to span.
THETA_MIN = 1e-3


def _geometric_offsets(span: float, n: int) -> list:
    if n <= 0:
        return []
    if n == 1:
        return [span]
    return [span * THETA_MIN ** (1.0 - i / (n - 1)) for i in range(n)]


def _column_positions(window: Rect, fpx: float, columns: int) -> np.ndarray:
    """The column abscissae of a trace, ascending and distinct: fpx if the
    window holds it, and on each side of it half the side's share of
    columns spread uniformly and half geometrically toward it."""
    x0 = min(max(fpx, window.x_lo), window.x_hi)
    xs = [np.array([fpx] if window.x_lo <= fpx <= window.x_hi else [])]
    spans = (x0 - window.x_lo, window.x_hi - x0)
    total = spans[0] + spans[1]
    for side, span in enumerate(spans):
        if span <= 0:
            continue
        n_side = max(2, round(columns * span / total))
        sign = -1.0 if side == 0 else 1.0
        n_uni = n_side // 2
        n_geo = n_side - n_uni
        xs.append(x0 + sign * span * (np.arange(n_uni) + 0.5) / n_uni)
        xs.append(x0 + sign * np.array(_geometric_offsets(span, n_geo)))
    xs = np.sort(np.concatenate(xs))
    return xs[np.diff(xs, prepend=-math.inf) > 0]


# Uniform probe ordinates scanned per column before bisection.
PROBES = 17


def _probe_matrix(fp: Point2, slope: float, cx: np.ndarray, window: Rect,
                  curve_tol: float) -> np.ndarray:
    """The ordinates scanned in each column of cx, one ascending row per
    column, NaN-padded at the end: PROBES uniform ones, plus a
    tangent-predicted pair, where it lies inside the window, in the columns
    near the fixed point."""
    y_lo, y_hi = window.y_lo, window.y_hi
    P = np.full((len(cx), PROBES + 2), math.nan)
    P[:, :PROBES] = y_lo + ((np.arange(PROBES) + 0.5) * (y_hi - y_lo)) / PROBES
    dx = cx - fp[0]
    near = np.abs(dx) <= 0.05 * window.width()
    # near the fixed point, add tangent-predicted probes to tighten the bracket
    yp = fp[1] + slope * dx[near]
    delta = np.maximum(4.0 * np.abs(slope * dx[near]), 16.0 * curve_tol)
    for j, cand in ((PROBES, yp - delta), (PROBES + 1, yp + delta)):
        P[near, j] = np.where((y_lo < cand) & (cand < y_hi), cand, math.nan)
    P[near] = np.sort(P[near], axis=1, kind="stable")
    return P[:, ~np.isnan(P).all(axis=0)]


MAX_BISECTIONS = 200  # bisection levels per column
# Every AUDIT_STRIDE-th column of a guided call also classifies the bisection
# midpoints its certified band implies.
AUDIT_STRIDE = 16
# _locate stops a column once its estimate moves by less than curve_tol *
# LOCATE_STOP, and after LOCATE_ROUNDS rounds at the latest.
LOCATE_STOP = 1.0 / 8.0
LOCATE_ROUNDS = 16
# A certification band of half-width curve_tol widens by WIDEN, at most
# WIDENINGS times.
WIDEN = 16
WIDENINGS = 4


def _locate(m: PlanarMap, fp: Point2, cx: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray, curve_tol: float,
            sopts: SideOptions, rate: Optional[tuple] = None) -> np.ndarray:
    """The root of s (_sided's gap in the mode of sopts) in every column
    cx[k], from the bracket lo[k] < hi[k] where s_lo[k] < 0 < s_hi[k]:
    Anderson-Bjorck regula falsi (BIT 13, 1973), all columns in lockstep,
    one lockstep call (_sided) per round. When the same end moves twice in
    a row, the other end's s is scaled by 1 - s_c / s_moved (s_moved the
    moving end's s before the move), or by 1/2 where that is not positive.
    A column whose s reads NaN gets NaN."""
    a, b, fa, fb = lo.copy(), hi.copy(), s_lo.copy(), s_hi.copy()
    est = a + (b - a) * (fa / (fa - fb))
    last = np.zeros(len(cx), dtype=int)  # the end the last round moved: -1 a, 1 b
    j = np.arange(len(cx))
    for _ in range(LOCATE_ROUNDS):
        if not len(j):
            break
        c = est[j]
        fc = _sided(m, cx[j], c, fp, sopts, rate)[1]
        neg, pos = fc < 0, fc > 0
        ja, jb = j[neg], j[pos]
        for moved, other, k, f, end in ((fa, fb, ja, fc[neg], -1),
                                        (fb, fa, jb, fc[pos], 1)):
            twice = last[k] == end
            scale = 1.0 - f[twice] / moved[k[twice]]
            other[k[twice]] *= np.where(scale > 0.0, scale, 0.5)
        a[ja], fa[ja], last[ja] = c[neg], fc[neg], -1
        b[jb], fb[jb], last[jb] = c[pos], fc[pos], 1
        est[j] = np.where(np.isnan(fc), math.nan,
                          a[j] + (b[j] - a[j]) * (fa[j] / (fa[j] - fb[j])))
        j = j[np.abs(est[j] - c) >= curve_tol * LOCATE_STOP]
    return est


def _solve_columns(m: PlanarMap, fp: Point2, slope: float, cxs, window: Rect,
                   curve_tol: float, sopts: SideOptions, guided: bool = False,
                   rate: Optional[tuple] = None) -> Optional[tuple]:
    """Locate the curve ordinate in every column of cxs, all columns together.

    Returns (y, flags): the ordinates, NaN where a column has none, and a
    list of one flag per column; or None when an audit below disagrees with
    the licence. One lockstep call (_sided) classifies every probe of every
    column and keeps the gap s at each probe: the gap of T* in limit mode,
    and in quadrant mode, given rate (_exit_rate of a saddle fp), the
    exit-rate gap. A point's verdict does not depend on its batch, so each
    row, read in probe order, scans its column as the column on its own
    would (_scan, on the whole verdict matrix): band returns the probe,
    plus sets lo, minus sets hi and ends the scan once lo is set.

    Bisection then halves the brackets still wider than curve_tol, for at
    most MAX_BISECTIONS levels per column. While more than BATCH_HANDOFF
    columns bisect through a batch step, a call settles two levels: it also
    classifies both midpoints the column may visit next, 0.5 * (lo + mid)
    and 0.5 * (mid + hi) where that half is still wider than curve_tol, and
    applies the one the verdict at mid leads to. Every column ends as
    bisecting it on its own would end it.

    guided says the order licence (planarmap._order_licensed) holds, in
    limit mode or in quadrant mode with a rate: verdicts are then plus below
    the curve and minus above it. In a guided call, a plus above a minus in
    any row makes the call return None, and a column whose probes all read
    plus or minus is located, certified and replayed instead. Locate:
    _locate finds the root y^ of s from the probe bracket and the s of its
    probes.
    Certify: y^ - w and y^ + w (w = curve_tol, kept inside the bracket) must
    read plus and minus; if not, w widens by WIDEN, at most WIDENINGS times,
    and then the column bisects as above. Replay: the column bisects as
    above, but a midpoint at or below y^ - w reads plus and one at or above
    y^ + w minus without a verdict, so only the midpoints between are
    classified. The certification rides in the first call that classifies
    one of them; when that call settles two levels and w = curve_tol, it
    classifies every midpoint between that the column's bisection may
    reach, and the column ends in it. A failed certification discards that
    call's verdicts for the column. Under the licence the implied verdicts
    are the real ones, so y and flag come out bit for bit as bisection's.
    Every AUDIT_STRIDE-th column classifies each implied verdict it uses
    too, in the call that applies it; one that differs makes the call
    return None.
    """
    n = len(cxs)
    cx = np.asarray(cxs, dtype=float)
    P = _probe_matrix(fp, slope, cx, window, curve_tol)
    rows, cols = np.nonzero(~np.isnan(P))
    V = np.full(P.shape, _UNDECIDED, dtype=np.uint8)  # verdicts; NaN probes undecided
    S = np.full(P.shape, math.nan)  # s at the probes, in a guided call
    V[rows, cols], s, _ = _sided(m, cx[rows], P[rows, cols], fp, sopts, rate)
    if guided:
        S[rows, cols] = s
    lo, hi, y, ilo, ihi, inverted = _scan(V, P)
    if guided and inverted:
        return None  # a plus above a minus breaks the licence

    saw_plus = ~np.isnan(lo)
    saw_minus = ~np.isnan(hi)
    bisecting = np.isnan(y) & saw_plus & saw_minus & (hi > lo)
    flags = [""] * n
    for j in np.flatnonzero(np.isnan(y) & ~bisecting).tolist():
        if saw_minus[j] and not saw_plus[j]:
            flags[j] = "no_bracket:all_minus"  # curve below the window
        elif saw_plus[j] and not saw_minus[j]:
            flags[j] = "no_bracket:all_plus"  # curve above the window
        else:
            flags[j] = "no_bracket:mixed"

    est = np.full(n, math.nan)  # the gap's estimate of the curve, in guided columns
    if guided and MAX_BISECTIONS > 0:
        sided = ((V <= _PLUS) | np.isnan(P)).all(axis=1)  # plus or minus
        j = np.flatnonzero(sided & bisecting & (hi - lo > curve_tol))
        est[j] = _locate(m, fp, cx[j], lo[j], hi[j], S[j, ilo[j]], S[j, ihi[j]],
                         curve_tol, sopts, rate)
    if not _bisect(m, fp, cx, curve_tol, sopts, lo, hi, y, bisecting, flags, est):
        return None
    rest = np.flatnonzero(bisecting)
    y[rest] = 0.5 * (lo[rest] + hi[rest])
    return y, flags


def _scan(V: np.ndarray, P: np.ndarray) -> tuple:
    """What the probe scan of _solve_columns reads in each row of the
    verdicts V at the ordinates P, as (lo, hi, y, ilo, ihi, inverted): the
    scan reads a row in probe order, where band returns the probe as y,
    plus sets lo and minus hi, and a minus after a plus ends it; ilo and ihi
    are the probe indices of lo and hi. NaN stands for "not set" in lo, hi
    and y, and 0 in ilo and ihi. inverted says that some row reads plus
    above a minus. Whole-matrix operations: a row's scan ends at its first
    band or first minus after a plus (or at its last probe), and lo and hi
    are its last plus and last minus up to there."""
    n, k = V.shape
    plus, minus = V == _PLUS, V == _MINUS
    inverted = bool((np.logical_or.accumulate(minus, axis=1) & plus).any())
    ends = np.ones((n, k + 1), dtype=bool)  # past the last probe too
    np.logical_or(V == _BAND, minus & np.logical_or.accumulate(plus, axis=1),
                  out=ends[:, :k])
    t = ends.argmax(axis=1)
    r, read = np.arange(n), np.arange(k) <= t[:, None]  # the probes the scan reads
    found = []
    for c in (plus & read, minus & read):  # the last one: the first from the end
        last = k - 1 - c[:, ::-1].argmax(axis=1)
        has = c[r, last]
        found += np.where(has, P[r, last], math.nan), np.where(has, last, 0)
    lo, ilo, hi, ihi = found
    t = np.minimum(t, k - 1)
    y = np.where(V[r, t] == _BAND, P[r, t], math.nan)
    return lo, hi, y, ilo, ihi, inverted


def _bisect(m: PlanarMap, fp: Point2, cx: np.ndarray, curve_tol: float,
            sopts: SideOptions, lo: np.ndarray, hi: np.ndarray, y: np.ndarray,
            bisecting: np.ndarray, flags: list, est: np.ndarray) -> bool:
    """_solve_columns' bisection of the brackets (lo, hi) of the columns cx
    marked bisecting, certified and replayed where est holds an estimate;
    updates lo, hi, y, bisecting, flags and est in place.

    Each column has one band (plus_at, minus_at), (-inf, inf) where none
    holds; a pending column's band is on trial in the call that certifies
    it. Each call grows a tree per column. Its segments walk a bracket
    through the midpoints the band implies; the midpoint where a walk stops
    is the segment's node, classified if the column may classify at that
    depth, and its halves are the next depth's segments. A column
    classifies at depth 0 in every call and at depth 1 in a two-level call;
    the halves of a depth-0 node walk only in a two-level call that tries
    the column's first band, where the column classifies at every depth and
    so ends. After the call each column descends its tree by the verdicts
    down to a node that reads neither plus nor minus, or to a segment
    without a node; a failed certification resets the band to (-inf, inf)
    and discards the column's tree. Every AUDIT_STRIDE-th column also
    classifies the midpoints it walks; returns False when one it descends
    through reads other than its band implies."""
    n = len(cx)
    audit = np.arange(n) % AUDIT_STRIDE == 0
    level = np.zeros(n, dtype=int)  # bisection levels done
    widened = np.zeros(n, dtype=int)
    # the band: plus at or below plus_at, minus at or above minus_at
    plus_at, minus_at = np.full(n, -math.inf), np.full(n, math.inf)
    # the segments of a depth: their columns (at depth 0 the columns still
    # bisecting wider than curve_tol), brackets and levels
    while len(c := np.flatnonzero(bisecting & (hi - lo > curve_tol)
                                  & (level < MAX_BISECTIONS))):
        L, H, V = lo[c], hi[c], level[c]
        pend = np.flatnonzero(~np.isnan(est))
        w = curve_tol * float(WIDEN) ** widened[pend]
        plus_at[pend] = np.maximum(est[pend] - w, lo[pend])
        minus_at[pend] = np.minimum(est[pend] + w, hi[pend])
        # per depth: segments (columns, brackets, levels, whether a node ends
        # it), nodes (columns, ordinates, the segment indices of their halves)
        # and the walked midpoints of audited columns (segment, ordinate, code)
        segs, nodes, walked = [], [], [(c[:0], L[:0], np.zeros(0, dtype=np.uint8))]
        count = depth = 0  # the segments of the depths before
        while len(c):
            pa, ma, room = plus_at[c], minus_at[c], MAX_BISECTIONS - V.max()
            if depth:  # only the halves of a served column walk
                pa[~served[c]], ma[~served[c]] = -math.inf, math.inf
            # a walk keeps the band's part inside its bracket, which so stays
            # wider than curve_tol where that part is
            wide = not depth and (np.minimum(ma, H) - np.maximum(pa, L) > curve_tol).all()
            a = np.flatnonzero(audit[c])  # the audited segments, at their levels
            start = V[a]
            steps = []  # the midpoints of each step of the walk
            while True:
                mid = (L + H) * 0.5
                plus, minus = mid <= pa, mid >= ma
                if not wide or len(steps) >= room:  # a bracket or level may end
                    go = H - L > curve_tol
                    if len(steps) >= room:
                        go &= V < MAX_BISECTIONS
                    plus, minus = plus & go, minus & go
                moved = plus | minus
                if not np.count_nonzero(moved):
                    break
                np.copyto(L, mid, where=plus)
                np.copyto(H, mid, where=minus)
                V += moved
                steps.append(mid)
            if steps and len(a):  # a walk moves a segment at its first steps only
                M = np.array(steps)[:, a]
                r = np.arange(len(steps))[:, None] < V[a] - start
                walked.append((count + a[r.nonzero()[1]], M[r],
                               np.where((M <= pa[a])[r], _PLUS, _MINUS)))
            # a walk stops inside the band; a segment that does not walk keeps to it
            go = ((H - L > curve_tol) & (V < MAX_BISECTIONS)
                  & (mid > plus_at[c]) & (mid < minus_at[c]))
            if not depth:  # a two-level call serves the columns that try their first band
                two = m.batch is not None and np.count_nonzero(go) > BATCH_HANDOFF
                served = ~np.isnan(est) & (widened == 0) & two
            node = go & (served[c] | (depth <= two))
            segs.append((c, L, H, V, node))
            k = np.flatnonzero(node)
            count += len(c)
            kid = count + np.arange(len(k))
            nodes.append((c[k], mid[k], kid, kid + len(k)))
            c, V = (np.concatenate((u[k], u[k])) for u in (c, V + 1))
            L, H = np.concatenate((L[k], mid[k])), np.concatenate((mid[k], H[k]))
            depth += 1
        SC, SL, SH, SV, SN = (np.concatenate(part) for part in zip(*segs))
        NC, NY, NLO, NHI = (np.concatenate(part) for part in zip(*nodes))
        WS, WY, WC = (np.concatenate(part) for part in zip(*walked))
        at = np.cumsum([len(NY), len(pend), len(pend)])
        ys = np.concatenate((NY, plus_at[pend], minus_at[pend], WY))
        codes = _sided(m, cx[np.concatenate((NC, pend, pend, SC[WS]))], ys, fp,
                       sopts)[0] if len(ys) else WC
        ok = (codes[at[0]:at[1]] == _PLUS) & (codes[at[1]:at[2]] == _MINUS)
        failed, passed = pend[~ok], pend[ok]
        plus_at[failed], minus_at[failed] = -math.inf, math.inf
        est[passed] = math.nan
        widened[failed] += 1
        est[failed[widened[failed] > WIDENINGS]] = math.nan  # they bisect
        bad = np.bincount(WS[codes[at[-1]:] != WC], minlength=len(SC)) > 0
        nid = np.cumsum(SN) - 1  # the node index of each segment with one
        s = np.flatnonzero(~np.isin(segs[0][0], failed))  # the roots descended
        while len(s):
            if bad[s].any():
                return False  # the audit met a verdict the band does not imply
            j = SC[s]
            lo[j], hi[j], level[j] = SL[s], SH[s], SV[s]
            e = nid[s[SN[s]]]
            j, ce = NC[e], codes[e]
            stop = (ce != _PLUS) & (ce != _MINUS)  # band returns the ordinate,
            y[j[stop]] = NY[e[stop]]                # any other verdict flags it
            bisecting[j[stop]] = False
            for i in j[stop & (ce != _BAND)].tolist():
                flags[i] = "undecided_probe"
            s = np.where(ce == _PLUS, NHI[e], NLO[e])[~stop]
    return True


def _bisect_options(m: PlanarMap, opts: CurveOptions) -> SideOptions:
    """The classify_side options column bisection runs at."""
    return SideOptions(mode=_resolve_mode(m, opts.mode),
                       epsilon_margin=max(1e-12, opts.curve_tol / 100.0),
                       max_iter=opts.max_iter)


def locate_ordinate(m: PlanarMap, fp: FixedPointRecord, x: float, window: Rect,
                    opts: CurveOptions = None):
    """Bisect a single column for the curve ordinate at abscissa x.

    Returns the located y, or None when no minus/plus bracket exists in the
    column. Useful for spot-checking a traced curve at off-grid abscissae.
    Raises ValueError unless window has a finite, positive width and height
    (errors.check_window) and x is finite (errors.check_point).
    """
    check_window("locate_ordinate", window)
    check_point("x", x)
    if opts is None:
        opts = CurveOptions()
    sopts = _bisect_options(m, opts)
    v = fp.eigen.v_lam
    slope = v.y / v.x if v is not None and v.x != 0 else 1.0
    [y] = _solve_columns(m, fp.location, slope, [x], window, opts.curve_tol,
                         sopts)[0].tolist()
    return None if math.isnan(y) else y


def trace_stable_curve(m: PlanarMap, fp: FixedPointRecord, window: Rect,
                       opts: CurveOptions = CurveOptions(),
                       workers: int = 1) -> MonotoneCurve:
    """Trace the increasing invariant curve through fp over a bounded window.

    All columns are solved together (_solve_columns): one lockstep call
    classifies every probe of every column, and one call settles two
    bisection levels while more than BATCH_HANDOFF columns bisect through a
    batch step. Under the order licence (planarmap._order_licensed), which
    is asked for in limit mode and in quadrant mode at a saddle with real
    eigenvalues and mu > 1 (_exit_rate), a gap that changes sign at the
    curve locates it in each bracket (Anderson-Bjorck regula falsi): T* in
    limit mode, the unstable coordinate at exit over mu^n in quadrant mode.
    A verdict on either side of the estimate certifies it, and the
    bisection is replayed, classifying only the midpoints next to the
    estimate; a two-level call that certifies a column's first band
    classifies all of them and finishes the column. A failed audit of the
    probe order or of the replay solves every column again without the gap
    (plain bisection) and adds a note. The column through fp.x is seeded
    from the fixed point itself and the local tangent direction. The
    invariant-curve hypotheses and, where the trace can be guided, the
    licence's Jacobian samples of the window and the domain come from one
    _jacobians call (fixedpoints._curve_hypotheses). workers has no effect;
    it stays only for perfbench's process-pool probe and must be an int >= 1.
    """
    check_count("workers", workers)
    check_window("curve tracing", window)
    sopts = _bisect_options(m, opts)
    rate = _exit_rate(fp.eigen)
    guidable = sopts.mode == "limit_equilibrium" or rate is not None
    # one Jacobian sample set: delta's parts, and the licence's regions
    hyp, reports = _curve_hypotheses(m, fp, window,
                                     (window, m.domain) if guidable else ())
    if not hyp.all_pass:
        raise HypothesisError(
            "invariant-curve hypotheses failed: " + ", ".join(hyp.failed))
    v = fp.eigen.v_lam
    slope = v.y / v.x
    fpl = fp.location
    xs = _column_positions(window, fpl.x, opts.columns)
    cx = xs != fpl.x  # the columns solved; the one through fp is seeded from it
    args = (m, fpl, slope, xs[cx], window, opts.curve_tol, sopts)
    guided = guidable and _order_licensed(m, window, np.count_nonzero(cx) * PROBES,
                                          reports)
    results = _solve_columns(*args, True, rate) if guided else _solve_columns(*args)
    audit_failed = results is None
    if audit_failed:
        results = _solve_columns(*args)
    ys, flags = np.full(len(xs), fpl.y), np.full(len(xs), "", dtype=object)
    ys[cx], flags[cx] = results
    if not window.y_lo <= fpl.y <= window.y_hi:  # no vertex at fp
        xs, ys, flags = xs[cx], ys[cx], flags[cx]
    located = ~np.isnan(ys)
    skipped, flagged = np.count_nonzero(~located), np.count_nonzero(located & (flags != ""))
    # a vertex must rise above every one before it (xs ascend)
    keep = located & (ys > np.fmax.accumulate(np.concatenate(([-math.inf], ys[:-1]))))
    if not keep.any():
        raise NoConvergenceError("no curve vertices could be located in the window")
    dropped = np.count_nonzero(located) - np.count_nonzero(keep)

    notes = [f"{count} {what}" for count, what in (
        (skipped, "columns skipped (no bracket)"),
        (flagged, "columns flagged (bisection probe undecided)"),
        (dropped, "vertices dropped by the monotonicity filter")) if count]
    notes += ["order licence failed its audit (columns bisected without guidance)"
              ] * audit_failed
    kept = _points(xs.tolist(), ys.tolist(), keep.tolist())
    left = _exit_label(m, window, xs, ys, flags, kept[0], side="left")
    right = _exit_label(m, window, xs, ys, flags, kept[-1], side="right")
    return _validated(MonotoneCurve(vertices=kept, monotonicity="increasing",
                                    endpoint_left=left, endpoint_right=right,
                                    notes=tuple(notes)), xs[keep], ys[keep])


def _exit_label(m: PlanarMap, window: Rect, xs: np.ndarray, ys: np.ndarray,
                flags: np.ndarray, end_vertex: Point2, side: str) -> EndpointLabel:
    """Label a traced end: _endpoint_label, or domain_boundary where that
    reads truncated and the curve leaves the window. xs are the columns,
    ascending, ys their ordinates (NaN where none) and flags their flags.

    The curve reaches the window frame when there are no columns beyond the
    end vertex (it runs into a vertical edge at column resolution) or when the
    adjacent column's probes were uniformly one-sided (it crossed the top or
    bottom edge between columns). A mixed adjacent column keeps the residual
    based label.
    """
    label = _endpoint_label(m, end_vertex, window)
    if label.kind != "truncated":
        return label
    k = int(np.searchsorted(xs, end_vertex.x)) + (1 if side == "right" else -1)
    if not 0 <= k < len(xs) or (math.isnan(ys[k]) and flags[k] in (
            "no_bracket:all_minus", "no_bracket:all_plus")):
        return EndpointLabel("domain_boundary", end_vertex)
    return label


# ---------------------------------------------------------------------------
# Unstable curve tracing


# Seeds placed along E^mu by trace_unstable_curve.
UNSTABLE_SEEDS = 64


def trace_unstable_curve(m: PlanarMap, fp: FixedPointRecord,
                         steps: int = 100, seed_radius: float = 1e-4
                         ) -> MonotoneCurve:
    """Grow the decreasing unstable curve by iterating seeds along E^mu.

    Requires mu > 1 with an off-axis, opposite-signed eigenvector.
    UNSTABLE_SEEDS seeds are placed on both sides of the fixed point and
    step together, one planarmap._images call per step, so a map without a
    batch step runs the same loop. A SingularityError ends a seed's orbit.
    A non-finite image or one outside the domain ends it too and truncates
    its end of the curve. Any other exception propagates, the lowest seed's
    when several seeds raise, as a loop over the seeds one by one would
    raise it. A step in which no orbit ends keeps its image arrays as they
    are; only a step in which one ends compacts them. The fixed point, the
    seeds inside the domain and every image kept are sorted by x
    (descending y among equal x) and thinned, in one pass over Python
    floats, to a strictly decreasing polyline: a point less than 1e-6 right
    of the last vertex kept is skipped, and one not below it is dropped
    (and counted in the notes). The monotonicity validate_curve asserts is
    checked on the vertex arrays. steps must be an int >= 1 and seed_radius
    finite and > 0.
    """
    check_count("steps", steps)
    check_tolerance("seed_radius", seed_radius)
    e = fp.eigen
    if not e.real_distinct or e.v_mu is None:
        raise HypothesisError("unstable tracing needs real distinct eigenvalues")
    if not e.mu > 1.0:
        raise HypothesisError(f"mu = {e.mu:.9g} is not > 1")
    v = e.v_mu
    if not (v.x * v.y < 0) or min(abs(v.x), abs(v.y)) <= 1e-9:
        raise HypothesisError(
            "the unstable eigenvector must have nonzero components of opposite"
            " sign (not a coordinate axis)")
    fpl = fp.location
    sides = _finite_sides(m.domain)
    idx = np.arange(UNSTABLE_SEEDS)
    t = -seed_radius + 2.0 * seed_radius * idx / (UNSTABLE_SEEDS - 1)
    X = fpl.x + t * v.x
    Y = fpl.y + t * v.y
    # v.x > 0 by sign convention: t > 0 seeds grow the right (southeast) end
    right_side = t * v.x > 0
    inside = _within(sides, X, Y, np.ones(UNSTABLE_SEEDS, dtype=bool))
    parts = [(idx[inside], X[inside], Y[inside])]  # (seeds, iterates) per round
    truncated = np.zeros(UNSTABLE_SEEDS, dtype=bool)
    errors = {}  # seed -> the exception its step raised
    with np.errstate(all="ignore"):
        for _ in range(steps):
            if not len(idx):
                break
            (X, Y), raised = _images(m, X, Y)
            ok = _within(sides, X, Y, np.isfinite(X) & np.isfinite(Y))
            if raised or np.count_nonzero(ok) < len(ok):  # some orbits end here
                errors.update((int(idx[j]), exc) for j, exc in raised.items()
                              if not isinstance(exc, SingularityError))
                ended = np.isin(np.arange(len(idx)), list(raised))  # no truncation
                truncated[idx[~(ok | ended)]] = True
                idx, X, Y = idx[ok], X[ok], Y[ok]  # a raise leaves NaN: not ok
            parts.append((idx, X, Y))
    if errors:
        raise errors[min(errors)]

    seeds, PX, PY = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(seeds, kind="stable")  # seed by seed, each in orbit order
    PX = np.concatenate(([fpl.x], PX[order]))
    PY = np.concatenate(([fpl.y], PY[order]))
    perm = np.lexsort((-PY, PX))  # stable: by x, then by descending y
    PX, PY = PX[perm], PY[perm]
    xs, ys = PX.tolist(), PY.tolist()
    keep, dropped = bytearray(len(xs)), 0  # a strictly decreasing polyline
    keep[0], last_x, last_y = 1, xs[0], ys[0]
    for i, x, y in zip(range(len(xs)), xs, ys):
        if x - last_x < 1e-6:
            continue
        if y < last_y:
            keep[i], last_x, last_y = 1, x, y
        else:
            dropped += 1
    kept = _points(xs, ys, keep)
    keep = np.frombuffer(keep, dtype=bool)
    notes = (f"{dropped} vertices dropped by the monotonicity filter",) if dropped else ()
    left, right = (EndpointLabel("truncated", e) if (truncated & on_side).any()
                   else _endpoint_label(m, e, m.domain)
                   for e, on_side in ((kept[0], ~right_side), (kept[-1], right_side)))
    return _validated(MonotoneCurve(vertices=kept, monotonicity="decreasing",
                                    endpoint_left=left, endpoint_right=right,
                                    notes=notes), PX[keep], PY[keep])
