"""Which side of the separatrix through a fixed point a point lies on, and
the basin rasters and T* probes built on that.

The paper's increasing curve C through a fixed point fp splits the region
into the invariant basins W- and W+ of fp. classify_side decides a point's
basin (minus or plus) from its orbit, by quadrant entry or by its limiting
equilibrium T* (limit_equilibrium); the scalar orbit loops decide one point
and the lockstep kernels behind _sided many at once. raster labels a grid
of cells, continuity_probe samples T* along a segment, and curves traces C
as the boundary between the verdicts.
"""

from __future__ import annotations

import math
from dataclasses import field
from functools import reduce
from typing import Mapping, Optional

import numpy as np

from .errors import SingularityError, check_count, check_point, check_tolerance, check_window
from .expr import _Compiled, _function
from .geometry import Point2, Rect, record_class
from .planarmap import SIDE_MODES, PlanarMap, _order_licensed


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
                       opts: SideOptions, near: Optional[float] = None) -> tuple:
    """The quadrant-mode verdict from the orbit point x_n = (x, y), and the
    orbit point it stopped at: (verdict, x_k, y_k), where k is
    verdict.iterations_used for a plus, minus or band verdict.

    Per iterate, in this order: band (within near of fp in both
    coordinates; near defaults to opts.epsilon_margin), minus, plus, beyond
    ESCAPE_BOUND (divergence); then the step, where SingularityError or a
    non-finite image reads singularity and an image outside the domain
    escape. Runs _QUADRANT_LOOP (see _loop)."""
    d = m.domain
    eps = opts.epsilon_margin
    return _loop(m.step, _QUADRANT_LOOP)(m.step, x, y, n, fp[0], fp[1], eps,
                                         eps if near is None else near,
                                         opts.max_iter, d.x_lo, d.x_hi,
                                         d.y_lo, d.y_hi)


_QUADRANT_LOOP = """\
def quadrant(step, x, y, n, fx, fy, eps, near, max_iter, x_lo, x_hi, y_lo, y_hi):
    meps = -eps
    mnear = -near
    big = ESCAPE_BOUND
    mbig = -big
    for n in range(n, max_iter + 1):
        dx = x - fx
        dy = y - fy
        if mnear <= dx <= near and mnear <= dy <= near:
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


def _sided(m: PlanarMap, X: np.ndarray, Y: np.ndarray, fp: Point2,
           opts: SideOptions, gap: Optional[tuple] = None,
           linear: Optional[float] = None) -> tuple:
    """(codes, s, N) of the points (X[k], Y[k]), from one lockstep call:
    their codes, the gap s there and each orbit's iteration count, on every
    label the iterations_used of the scalar loop's verdict (classify_side's,
    or with linear given the loop's at that stop); the one function that
    picks the lockstep kernel of opts.mode.

    Given the linear gap (w_x, w_y, mu) of fp (curves._linear_gap), s =
    <w, x_n - fp> / mu^n at the orbit point x_n where each orbit stopped,
    and N holds n: in limit mode the limit T* (_limits_lockstep), NaN
    without one; in quadrant mode the point that decided a plus, minus or
    band verdict, 0 on band (the orbit met fp, so the start lies on the
    curve up to the verdict margin) and NaN on undecided and singular.
    s < 0 on plus and s > 0 on minus: in limit mode since T* lies in Q4(fp)
    or Q2(fp), in quadrant mode since the orbit left through int Q4 or
    int Q2. Near the curve, which is fp's stable set, s is close to a linear
    function of the start's offset from it. Without a gap, s is None, and so
    is N in quadrant mode.

    linear, the curve_tol of curves._locate's calls and given only there,
    stops each orbit once its s reads linear: in quadrant mode at the first
    orbit point within sqrt(curve_tol) of fp in both coordinates, which
    reads band and keeps its s; in limit mode once its step is below
    min(LIMIT_RESIDUAL_TOL, sqrt(curve_tol) / 10). The codes of such a call
    are not classify_side's verdicts."""
    limit = opts.mode == "limit_equilibrium"
    if limit:
        tol = opts.conv_tol if linear is None else math.sqrt(linear) / 10.0
        EX, EY, singular, N = _limits_lockstep(m, X, Y, tol, opts.max_iter)
        codes = _limit_codes(EX, EY, fp, opts)  # NaN limits read undecided
        codes[singular] = _SINGULAR
    else:
        near = None if linear is None else max(opts.epsilon_margin, math.sqrt(linear))
        codes, EX, EY, N = _quadrant_batch(m, X, Y, fp, opts, gap is not None, near)
    if gap is None:
        return codes, None, N
    wx, wy, mu = gap
    with np.errstate(all="ignore"):
        s = ((EX - fp[0]) * wx + (EY - fp[1]) * wy) / mu ** N
    if not limit:
        if linear is None:
            s[codes == _BAND] = 0.0
        s[codes > _BAND] = math.nan  # undecided or singular
    return codes, s, N


# The label of a stopped quadrant-mode image, at 4 not band + 2 not minus + not plus
_STOPPED = np.array([_BAND] * 4 + [_MINUS, _MINUS, _PLUS, _UNDECIDED], dtype=np.uint8)


def _quadrant_batch(m: PlanarMap, X: np.ndarray, Y: np.ndarray, fp: Point2,
                    opts: SideOptions, exits: bool = False,
                    near: Optional[float] = None) -> tuple:
    """_classify_quadrant (with its band half-width near) from every
    (X[k], Y[k]), in lockstep numpy; returns
    the label codes and, if exits, the orbit point x_n each orbit stopped at
    and its index n: (codes, EX, EY, N), where x_n decided a plus, minus or
    band verdict; else (codes, None, None, None). Keeping them costs three
    scatters in each round where an orbit stops: on the ex4 128x128
    raster, about a quarter of the call's time.

    All points step together through m.batch; once BATCH_HANDOFF or fewer
    remain (at once without a batch step), each finishes in
    _classify_quadrant from where it stands.

    The starts are labelled first (_point_codes). A round then steps the
    live points (all finite, inside the domain, within ESCAPE_BOUND and
    undecided) and builds, with 16 ufunc calls plus two per finite side of
    the domain, all into preallocated buffers, the masks of the images: ok,
    max(|x|, |y|) <= ESCAPE_BOUND (False for NaN and inf too) inside the
    domain's finite sides; and, with u = x - fx, w = fy - y, hi = max(u, w)
    and lo = min(u, w), not minus (hi > -eps), not plus (lo < eps) and not
    band (max(hi, -lo) > near). The live points go on where all four hold. Only
    a round in which an image stopped labels it, from those masks, and
    compacts the arrays; the rare image that stopped not ok is told
    singular, escaped or beyond ESCAPE_BOUND on its own, and the first two
    are counted at the orbit point whose step failed, as in
    _classify_quadrant. The rounds stop at iterate max_iter, whose step
    _classify_quadrant takes for the points still live.
    """
    out = np.full(X.size, _UNDECIDED, dtype=np.uint8)
    EX, EY, N = ((X.copy(), Y.copy(), np.zeros(X.size, dtype=int)) if exits
                 else (None,) * 3)
    idx = np.arange(X.size)
    n = 0
    if m.batch is not None and X.size > BATCH_HANDOFF:
        with np.errstate(all="ignore"):
            eps = opts.epsilon_margin
            near = eps if near is None else near
            fx, fy = fp
            sides = _finite_sides(m.domain)
            out = _point_codes(X - fx, Y - fy, eps, near)
            idx = ((out == _UNDECIDED) & ~((np.abs(X) > ESCAPE_BOUND)
                                           | (np.abs(Y) > ESCAPE_BOUND))).nonzero()[0]
            X, Y = X[idx], Y[idx]
            buffers = ([np.empty(len(idx)) for _ in range(3)]
                       + [np.empty(len(idx), dtype=bool) for _ in range(5)])
            # views sized to the live points
            a, b, c, ok, not_minus, not_plus, not_band, go = buffers
            while len(idx) > BATCH_HANDOFF and n < opts.max_iter:
                Xn, Yn = m.batch(X, Y)
                np.maximum(np.abs(Xn, out=a), np.abs(Yn, out=b), out=a)
                np.less_equal(a, ESCAPE_BOUND, out=ok)
                for coord, compare, bound in sides:
                    ok &= compare(Yn if coord else Xn, bound, out=go)
                np.maximum(np.subtract(Xn, fx, out=a), np.subtract(fy, Yn, out=b),
                           out=c)
                np.minimum(a, b, out=a)
                np.greater(c, -eps, out=not_minus)
                np.less(a, eps, out=not_plus)
                np.greater(np.maximum(c, np.negative(a, out=b), out=b), near,
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
                k = idx[stop]
                if exits:
                    EX[k], EY[k], N[k] = Xn[stop], Yn[stop], n
                if np.count_nonzero(ok) < len(ok):  # not finite, out of the domain,
                    odd = (~ok[stop]).nonzero()[0]   # or beyond ESCAPE_BOUND
                    x, y = Xn[stop[odd]], Yn[stop[odd]]
                    finite = np.isfinite(x) & np.isfinite(y)
                    failed = odd[~_within(sides, x, y, finite.copy())]  # the step failed
                    codes[failed] = _UNDECIDED
                    codes[odd[~finite]] = _SINGULAR
                    if exits:  # at the orbit point whose step failed
                        N[k[failed]] = n - 1
                out[k] = codes
                idx, X, Y = idx[keep], Xn[keep], Yn[keep]
                a, b, c, ok, not_minus, not_plus, not_band, go = (
                    v[:len(idx)] for v in buffers)
    for k, x, y in zip(idx.tolist(), X.tolist(), Y.tolist()):
        v, x, y = _classify_quadrant(m, x, y, n, fp, opts, near)
        out[k] = label_code(v)
        if exits:
            EX[k], EY[k], N[k] = x, y, v.iterations_used
    return out, EX, EY, N


def _point_codes(dx, dy, margin, near):
    """The southeast-order verdicts of the offsets (dx, dy) of points from
    fp: minus where dx <= -margin and dy >= margin, plus where dx >= margin
    and dy <= -margin, band where both lie within near of 0, which wins;
    else undecided (so at NaN)."""
    codes = np.full(dx.shape, _UNDECIDED, dtype=np.uint8)
    codes[(dx <= -margin) & (dy >= margin)] = _MINUS
    codes[(dx >= margin) & (dy <= -margin)] = _PLUS
    codes[(np.abs(dx) <= near) & (np.abs(dy) <= near)] = _BAND
    return codes


def _limit_codes(X, Y, fp, opts):
    """The comparison of limits (X, Y) with fp in the southeast order under
    a slack of ten times the tolerance they are certified at: minus in
    Q2(fp) and plus in Q4(fp), each widened by the slack (margin -slack),
    else undecided; band within max(epsilon_margin, slack) of fp in both
    coordinates, where the two meet, as a limit within the slack cannot be
    told from fp."""
    slack = max(1e-12, 10.0 * min(opts.conv_tol, LIMIT_RESIDUAL_TOL))
    return _point_codes(X - fp[0], Y - fp[1], -slack, max(opts.epsilon_margin, slack))


def _resolve_mode(m: PlanarMap, mode: Optional[str] = None) -> str:
    """The given mode, else limit_equilibrium for maps with a continuum of
    equilibria and quadrant_escape otherwise."""
    if mode is not None:
        return mode
    return "limit_equilibrium" if m.meta.get("continuum") else "quadrant_escape"


# ---------------------------------------------------------------------------
# Rasters

# PGM gray levels per label
PGM_GRAY = {"minus": 0, "band": 128, "plus": 255, "undecided": 64, "singular": 32}
# the gray level per label code, and the label code per gray level (0 at
# levels not in PGM_GRAY, which load_pgm rejects before the lookup)
_GRAY = np.array([PGM_GRAY[name] for name in LABEL_NAMES])
_GRAY_CODE = np.zeros(256, dtype=np.uint8)
_GRAY_CODE[_GRAY] = np.arange(len(LABEL_NAMES))


@record_class
class BasinRaster:
    """Labeled grid over a bounded window; labels[j][i] is the cell at (i, j).

    Cell (i, j) has center _cell_centers(window, nx, ny, i, j), the point
    raster classifies; j grows with y. The meta mapping echoes the full
    configuration and round-trips through the PGM/CSV serializations.
    """

    window: Rect
    nx: int
    ny: int
    labels: np.ndarray  # shape (ny, nx), uint8 codes into LABEL_NAMES
    meta: Mapping[str, str] = field(default_factory=dict)

    def cell_center(self, i: int, j: int) -> Point2:
        return Point2(*_cell_centers(self.window, self.nx, self.ny, i, j))

    def label_at(self, i: int, j: int) -> str:
        return LABEL_NAMES[self.labels[j, i]]

    def cell_of(self, p: Point2) -> Optional[tuple]:
        if not self.window.contains(Point2(*p)):
            return None
        i = min(self.nx - 1, int((p[0] - self.window.x_lo) / self.window.width() * self.nx))
        j = min(self.ny - 1, int((p[1] - self.window.y_lo) / self.window.height() * self.ny))
        return i, j

    def census(self) -> dict:
        counts = np.bincount(self.labels.ravel(), minlength=len(LABEL_NAMES))
        return {name: int(counts[LABEL_CODES[name]]) for name in LABEL_NAMES}


def _cell_centers(window: Rect, nx: int, ny: int, i, j) -> tuple:
    """Center coordinates of column i and row j (ints or arrays)."""
    return (window.x_lo + (i + 0.5) * (window.width() / nx),
            window.y_lo + (j + 0.5) * window.height() / ny)


def raster_options(m: PlanarMap, window: Rect) -> SideOptions:
    """Default raster options: limit_equilibrium mode for maps with a
    continuum of equilibria (quadrant_escape otherwise), a verdict margin of
    1e-4 times the window diagonal, and max_iter 5000."""
    return SideOptions(mode=_resolve_mode(m), max_iter=5000,
                       epsilon_margin=1e-4 * window.diagonal())


# Lattice strides of a licensed limit-mode raster: a coarse lattice, then
# every cell the coarse verdicts leave open.
ORDER_STRIDES = (8, 1)
# A lattice verdict implies cells only if its orbit retired within this
# share of max_iter: next to a slower orbit, cells may run out of iterations.
SLOW_SHARE = 0.5
_UNKNOWN = 255  # a cell not yet classified or inferred


def raster(m: PlanarMap, fp: Point2, window: Rect, nx: int, ny: int,
           opts: SideOptions = None, workers: int = 1) -> BasinRaster:
    """Classify every cell center against the separatrix through fp.

    Cells are classified level by level over lattice strides, one lockstep
    call per level (_sided, which also counts each orbit's iterations) over
    the lattice cells that the verdicts so far leave open; the other cells
    are inferred from the southeast
    order. The paper's separatrix is an increasing curve that splits the
    region into two invariant parts, and a competitive map keeps z <=_se p
    in T^n(z) <=_se T^n(p). So the minus cells form a down-set of the order
    (a cell left of or above a minus cell is minus) and the plus cells an
    up-set. A cell implied minus and not plus is filled as minus, and the
    other way round; a cell implied both ways is classified. band,
    undecided and singular cells imply nothing, nor does a verdict whose
    orbit ran for more than SLOW_SHARE of max_iter, and a level whose
    verdicts include undecided or singular cells ends the inference.

    The strides are ORDER_STRIDES in limit_equilibrium mode when the
    sampled licence of planarmap._order_licensed (which curve traces share)
    holds, and (1,) otherwise: one _sided call over every cell.
    Quadrant-mode cells cost about one evaluation each, so there the
    lattice would cost more than it saves. fp must be finite
    (errors.check_point) and nx and ny ints >= 2. workers has no effect; it
    stays only for perfbench's process-pool probe and must be an int >= 1.
    """
    check_window("raster", window)
    check_point("fp", fp)
    check_count("nx", nx, 2)
    check_count("ny", ny, 2)
    check_count("workers", workers)
    if opts is None:
        opts = raster_options(m, window)
    infer = opts.mode == "limit_equilibrium" and _order_licensed(m, window, nx * ny)
    X, Y = np.meshgrid(*_cell_centers(window, nx, ny, np.arange(nx), np.arange(ny)))
    labels = np.full((ny, nx), _UNKNOWN, dtype=np.uint8)
    slow = np.zeros((ny, nx), dtype=bool)  # verdicts past SLOW_SHARE * max_iter
    for s in ORDER_STRIDES if infer else (1,):
        lattice = (slice(None, None, s),) * 2
        known = labels[lattice]  # a view: writes go to labels
        todo = known == _UNKNOWN
        if infer and not todo.all():  # fill what the verdicts so far imply
            implied = _implied(np.where(slow, _UNKNOWN, labels))
            minus, plus = (a[lattice] for a in implied)
            known[todo & minus & ~plus] = _MINUS
            known[todo & plus & ~minus] = _PLUS
            todo &= minus == plus
        if todo.all():  # the whole lattice, in one call on its own shape
            todo = ...
        xs, ys = X[lattice][todo], Y[lattice][todo]
        codes, _, n = _sided(m, xs.ravel(), ys.ravel(), Point2(*fp), opts)
        codes = codes.reshape(xs.shape)
        if infer:
            slow[lattice][todo] = (n > SLOW_SHARE * opts.max_iter).reshape(xs.shape)
        known[todo] = codes
        # an undecided or singular verdict shows an orbit outside the
        # licence's premises (out of iterations, diverged, at a pole): the
        # cells left open are classified, not inferred
        infer = infer and not np.isin(codes, (_UNDECIDED, _SINGULAR)).any()
    meta = {
        "map": m.name,
        "fp": f"{fp[0]!r},{fp[1]!r}",
        "window": f"{window.x_lo!r},{window.x_hi!r},{window.y_lo!r},{window.y_hi!r}",
        "nx": str(nx), "ny": str(ny),
        "mode": opts.mode,
        "epsilon_margin": repr(opts.epsilon_margin),
        "max_iter": str(opts.max_iter),
        "conv_tol": repr(opts.conv_tol),
    }
    for k, val in sorted(m.params.items()):
        meta[f"param.{k}"] = repr(float(val))
    return BasinRaster(window=window, nx=nx, ny=ny, labels=labels, meta=meta)


def _implied(labels: np.ndarray) -> tuple:
    """Masks of the cells the known minus cells imply minus and the known
    plus cells imply plus.

    Per column, the lowest minus row and the highest plus row are the
    frontiers; a suffix minimum and a prefix maximum over the columns turn
    them into the down-set of the minus cells and the up-set of the plus
    cells (row j grows with y, column i with x).
    """
    ny = labels.shape[0]
    rows = np.arange(ny)[:, None]
    is_minus = labels == _MINUS
    is_plus = labels == _PLUS
    low_minus = np.where(is_minus.any(axis=0), is_minus.argmax(axis=0), ny)
    high_plus = np.where(is_plus.any(axis=0),
                         ny - 1 - is_plus[::-1].argmax(axis=0), -1)
    return (rows >= np.minimum.accumulate(low_minus[::-1])[::-1],
            rows <= np.maximum.accumulate(high_plus))


# ---------------------------------------------------------------------------
# Serialization (PGM P2 and long-form CSV). Both are bit-exact functions of
# the raster contents and meta.


def raster_to_pgm(r: BasinRaster) -> str:
    """The raster as a plain PGM (P2): '# key=value' comment lines for meta,
    then 'nx ny', maxval 255 and one line of PGM_GRAY levels per cell row,
    the top row (highest y) first."""
    head = ["P2", *(f"# {k}={v}" for k, v in r.meta.items()), f"{r.nx} {r.ny}", "255"]
    rows = _GRAY.astype(str)[r.labels[::-1]].tolist()  # top row first, image convention
    return "\n".join(head + [" ".join(row) for row in rows]) + "\n"


def raster_to_csv(r: BasinRaster) -> str:
    """The raster as long-form CSV: '# key=value' lines for meta, the header
    'i,j,x,y,label', then one line per cell with its center to 17
    significant digits, row j = 0 (lowest y) first and i fastest."""
    i, j = np.arange(r.nx), np.arange(r.ny)[:, None]
    x, y = _cell_centers(r.window, r.nx, r.ny, i, j)
    cells = reduce(np.char.add, (np.char.mod("%d,", i), np.char.mod("%d,", j),
                                 np.char.mod("%.17g,", x), np.char.mod("%.17g,", y),
                                 np.array(LABEL_NAMES)[r.labels]))
    head = [f"# {k}={v}" for k, v in r.meta.items()] + ["i,j,x,y,label"]
    return "\n".join(head + cells.ravel().tolist()) + "\n"


def save_raster(r: BasinRaster, path: str, fmt: str = "pgm") -> None:
    """Write r to path as fmt, 'pgm' or 'csv'; another fmt raises ValueError
    before the file is opened."""
    if fmt not in ("pgm", "csv"):
        raise ValueError(f"unknown raster format {fmt!r}; expected pgm or csv")
    text = raster_to_pgm(r) if fmt == "pgm" else raster_to_csv(r)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _read_meta(line: str, meta: dict) -> bool:
    """Whether line is a '#' comment; a '# key=value' one goes into meta."""
    if not line.startswith("#"):
        return False
    body = line[1:].strip()
    if "=" in body:
        k, v = body.split("=", 1)
        meta[k.strip()] = v
    return True


def _int64s(values: list, what: str) -> np.ndarray:
    """values (ints or integer strings) as an int64 array; ValueError naming
    the first one that is not an integer, or for one beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a {what} in the raster file lies beyond int64") from None
    except ValueError:
        for v in values:
            try:
                int(v)
            except ValueError:
                raise ValueError(f"{what} {v!r} in the raster file is not an "
                                 f"integer") from None
        raise


def _header_size(key: str, text: str) -> int:
    """The header size text as a positive int; ValueError naming key otherwise."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"header {key}={text.strip()} is not a positive integer")
    return n


def load_pgm(path: str):
    """Read back a raster_to_pgm file; returns (labels, meta), labels of shape
    (ny, nx) with row j = 0 the file's last (lowest y) row.

    Raises ValueError for a file that is not a P2 PGM, one whose header
    ends before nx, ny or maxval, whose nx or ny is not a positive integer,
    whose maxval is not 255 (the one raster_to_pgm writes) or whose pixel
    count is not nx*ny, and for a gray level that is not an integer or not
    in PGM_GRAY.
    """
    meta = {}
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "P2":
            raise ValueError(f"not a P2 PGM: {magic!r}")
        body = " ".join(line for line in fh if not _read_meta(line, meta))
    fields = body.split()
    if len(fields) < 3:
        raise ValueError(f"PGM header ends before its {('nx', 'ny', 'maxval')[len(fields)]}")
    nx, ny, maxval, *grays = fields
    if maxval != "255":
        raise ValueError(f"PGM maxval {maxval} is not 255, the one raster_to_pgm "
                         f"writes")
    nx, ny = _header_size("nx", nx), _header_size("ny", ny)
    grays = _int64s(grays, "gray level")
    if grays.size != nx * ny:
        raise ValueError(f"PGM holds {grays.size} pixels, not nx*ny = {nx}*{ny}")
    unknown = ~np.isin(grays, _GRAY)
    if unknown.any():
        raise ValueError(f"unknown gray level {grays[unknown][0]} in PGM")
    return _GRAY_CODE[grays.reshape(ny, nx)[::-1]], meta


def load_csv_raster(path: str):
    """Read back a raster_to_csv file; returns (labels, meta), labels[j, i]
    the label code of the line 'i,j,x,y,label' (x and y are not read).

    The grid is meta's nx by ny when the file records them, else it spans
    the largest i and j (and cell (0, 0), so a file without cells is
    refused as missing it). Raises ValueError for a header nx or ny that is not
    a positive integer, a line without the five fields, an index that is not
    an integer or lies beyond int64, an unknown label, a cell outside that
    grid, and a grid cell that is missing or repeated; the grid is allocated
    only once the cell lines fill it.
    """
    meta = {}
    cells = []  # i, j and the label code of each cell, one after the other
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or _read_meta(line, meta) or line.startswith("i,"):
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"CSV raster line {n} holds {len(fields)} fields, "
                                 f"not the 5 of i,j,x,y,label: {line!r}")
            i, j, _x, _y, label = fields
            if label not in LABEL_CODES:
                raise ValueError(f"unknown label {label!r} in CSV raster")
            cells += i, j, LABEL_CODES[label]
    i, j, codes = _int64s(cells, "cell index").reshape(-1, 3).T
    nx, ny = (_header_size(k, meta[k]) if k in meta else int(a.max(initial=0) + 1)
              for k, a in (("nx", i), ("ny", j)))
    outside = (i < 0) | (i >= nx) | (j < 0) | (j >= ny)
    if outside.any():
        k = outside.argmax()
        raise ValueError(f"cell ({i[k]}, {j[k]}) lies outside the {nx}x{ny} grid")
    # sorted row by row, the k-th line must hold cell (k % nx, k // nx); a
    # divisor w past the line count gives the same cells and fits in int64
    order = np.lexsort((i, j))
    i, j, codes = i[order], j[order], codes[order]
    k, w = np.arange(len(i)), min(nx, len(i) + 1)
    off = np.flatnonzero((i != k % w) | (j != k // w))
    if len(off) or len(i) < nx * ny:
        k = int(off[0]) if len(off) else len(i)
        if 0 < k < len(i) and (i[k], j[k]) == (i[k - 1], j[k - 1]):
            raise ValueError(f"cell ({i[k]}, {j[k]}) is repeated")
        raise ValueError(f"cell ({k % nx}, {k // nx}) is missing")
    return codes.astype(np.uint8).reshape(ny, nx), meta


# ---------------------------------------------------------------------------
# Continuity probe for the limiting-equilibrium map


@record_class
class ContinuityReport:
    max_gap: float
    argmax: int  # index of the left point of the widest adjacent pair
    n: int
    divergent: int
    limits: tuple  # Point2 or None per sample


def continuity_probe(m: PlanarMap, segment: tuple, n: int,
                     tol: float = 1e-10, max_iter: int = 100_000) -> ContinuityReport:
    """Sample T* along a segment and report the largest adjacent limit gap.

    Shrinking max_gap under refinement of n is numeric evidence that the
    limiting equilibrium varies continuously with the initial condition.
    The samples are iterated together; each limit equals limit_equilibrium's
    at its sample. Both ends of segment must be finite, n an int >= 2, tol
    finite and > 0, and max_iter an int >= 1.
    """
    check_count("n", n, 2)
    check_tolerance("tol", tol)
    check_count("max_iter", max_iter)
    for end in segment:
        check_point("segment end", end)
    a, b = Point2(*segment[0]), Point2(*segment[1])
    t = np.arange(n) / (n - 1)
    LX, LY, _, _ = _limits_lockstep(m, a.x + t * (b.x - a.x), a.y + t * (b.y - a.y),
                                    tol, max_iter)
    limits = [None if math.isnan(x) else Point2(x, y)
              for x, y in zip(LX.tolist(), LY.tolist())]
    max_gap, argmax = 0.0, 0  # the first widest pair of adjacent limits
    for k, p, q in zip(range(n), limits, limits[1:]):
        if p is not None and q is not None and (gap := p.dist2(q)) > max_gap:
            max_gap, argmax = gap, k
    return ContinuityReport(max_gap=max_gap, argmax=argmax, n=n,
                            divergent=limits.count(None), limits=tuple(limits))
