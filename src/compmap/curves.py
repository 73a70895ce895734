"""Tracing the invariant separatrix and unstable curves of competitive maps.

The separatrix through a fixed point is computed as the decision boundary of
basins.classify_side: along each vertical column of the window the
minus/plus labels are bisected down to curve_tol. This realizes the global
boundary characterization directly instead of continuing the curve locally,
which would accumulate drift along the slow direction. The public side
classification names are re-exported here.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .basins import (_BAND, _MINUS, _PLUS, _UNDECIDED, BATCH_HANDOFF, SideOptions,
                     _finite_sides, _resolve_mode, _sided, _within)
from .basins import (LimitRecord, SideVerdict, classify_batch,  # noqa: F401  (re-exported)
                     classify_side, limit_equilibrium)
from .errors import (HypothesisError, NoConvergenceError, SingularityError,
                     check_count, check_point, check_tolerance, check_window)
from .fixedpoints import (NONHYPERBOLIC_TOL, EigenData, FixedPointRecord,
                          _curve_hypotheses)
from .geometry import Point2, Rect, record_class, sup_norm
from .planarmap import SIDE_MODES, PlanarMap, _images, _order_licensed


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
    """curve, with vertices (X[k], Y[k]), once they are strictly monotone as
    curve.monotonicity promises; raises ValueError naming the first pair of
    vertices that is not (a NaN coordinate fails its pairs)."""
    kind = "increasing" if curve.monotonicity == "increasing" else "decreasing"
    rises = Y[1:] > Y[:-1] if kind == "increasing" else Y[1:] < Y[:-1]
    bad = np.flatnonzero(~((X[1:] > X[:-1]) & rises))
    if len(bad):
        a, b = curve.vertices[bad[0]:bad[0] + 2]
        raise ValueError(f"{kind} curve violated between {a} and {b}")
    return curve


def validate_curve(curve: MonotoneCurve) -> None:
    """Assert the strict vertex monotonicity the curve kind promises."""
    _validated(curve, *np.array(curve.vertices, dtype=float).reshape(-1, 2).T)


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


# The geometric columns of a side sit at offsets from span * THETA_MIN to span.
THETA_MIN = 1e-3


def _geometric_offsets(span: float, n: int) -> list:
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


def _linear_gap(e: EigenData) -> Optional[tuple]:
    """The linear gap (w_x, w_y, mu) of a fixed point with eigen data e,
    where the row w is dual to v_mu (w . v_lam = 0, w . v_mu = 1) up to the
    sign that makes w_x < 0 < w_y, so that s = <w, x - fp> reads < 0 below
    the increasing curve C through fp and > 0 above it; None unless e is
    real with |lam| < 1 <= mu + NONHYPERBOLIC_TOL and v_lam in int Q1.

    C leaves fp tangent to v_lam, so near fp a point's side of C is read
    off its coordinate along v_mu, and <w, x_n - fp> / mu^n of its orbit
    stays about constant while the orbit is near fp. That covers a saddle
    (mu > 1), a nonhyperbolic point (mu = 1: ex4's, and every point of a
    continuum of equilibria, where limit mode reads s at T*). A node
    (|lam| < mu < 1) is left out, since no built-in trace has one to check
    the gap against."""
    if not (e.real_distinct and e.v_lam is not None and e.v_mu is not None
            and abs(e.lam) < 1.0 <= e.mu + NONHYPERBOLIC_TOL):
        return None
    (a, b), (c, d) = e.v_lam, e.v_mu
    det = a * d - b * c
    wx, wy = -b / det, a / det
    if wy < 0.0:
        wx, wy = -wx, -wy
    return (wx, wy, e.mu) if wx < 0.0 < wy else None


def _locate(m: PlanarMap, fp: Point2, cx: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray, curve_tol: float,
            sopts: SideOptions, gap: tuple) -> np.ndarray:
    """The root of s (_sided's gap, gap from _linear_gap, in the mode of
    sopts) in every column cx[k], from the bracket lo[k] < hi[k] where
    s_lo[k] < 0 < s_hi[k]: Anderson-Bjorck regula falsi (BIT 13, 1973),
    all columns in lockstep, one lockstep call (_sided) per round. Its
    calls, and only those, stop each orbit once its s reads linear (_sided's
    linear, at curve_tol): the root only centres a certification band,
    which the verdicts of _bisect check. When the same end moves twice in
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
        fc = _sided(m, cx[j], c, fp, sopts, gap, curve_tol)[1]
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
                   curve_tol: float, sopts: SideOptions,
                   gap: Optional[tuple] = None) -> Optional[tuple]:
    """Locate the curve ordinate in every column of cxs, all columns together.

    Returns (y, flags): the ordinates, NaN where a column has none, and a
    string array of one flag per column; or None when an audit below
    disagrees with the licence. One lockstep call (_sided) classifies every
    probe of every column and, given gap (_linear_gap of fp), keeps the gap
    s at each probe. A point's verdict does not depend on its batch, so each
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

    A call is guided when it is given gap, which says that the order
    licence (planarmap._order_licensed) holds: verdicts are then plus below
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
    V[rows, cols], s, _ = _sided(m, cx[rows], P[rows, cols], fp, sopts, gap)
    guided = gap is not None
    if guided:
        S[rows, cols] = s
    lo, hi, y, ilo, ihi, inverted = _scan(V, P)
    if guided and inverted:
        return None  # a plus above a minus breaks the licence

    saw_plus = ~np.isnan(lo)
    saw_minus = ~np.isnan(hi)
    bisecting = np.isnan(y) & saw_plus & saw_minus & (hi > lo)
    # all minus: the curve runs below the window; all plus: above it
    flags = np.select(
        [~np.isnan(y) | bisecting, saw_minus & ~saw_plus, saw_plus & ~saw_minus],
        ["", "no_bracket:all_minus", "no_bracket:all_plus"], "no_bracket:mixed")

    est = np.full(n, math.nan)  # the gap's estimate of the curve, in guided columns
    if guided and MAX_BISECTIONS > 0:
        sided = ((V <= _PLUS) | np.isnan(P)).all(axis=1)  # plus or minus
        j = np.flatnonzero(sided & bisecting & (hi - lo > curve_tol))
        est[j] = _locate(m, fp, cx[j], lo[j], hi[j], S[j, ilo[j]], S[j, ihi[j]],
                         curve_tol, sopts, gap)
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
            bisecting: np.ndarray, flags: np.ndarray, est: np.ndarray) -> bool:
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
            flags[j[stop & (ce != _BAND)]] = "undecided_probe"
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
    batch step. Where fp has a linear gap (_linear_gap: real eigenvalues,
    |lam| < 1 <= mu, at a saddle, at ex4's nonhyperbolic point and on a
    continuum of equilibria, not at a node) the order licence
    (planarmap._order_licensed) is asked for, and under it the gap, which
    changes sign at the curve, locates the curve in each bracket
    (Anderson-Bjorck regula falsi): s = <w, x_n - fp> / mu^n, read at T*
    in limit mode and at the iterate that decided the verdict in quadrant
    mode, and read early in the location calls, once it is linear. A
    verdict on either side of the estimate certifies it, and the
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
    gap = _linear_gap(fp.eigen)
    # one Jacobian sample set: delta's parts, and the licence's regions
    hyp, reports = _curve_hypotheses(m, fp, window,
                                     () if gap is None else (window, m.domain))
    if not hyp.all_pass:
        raise HypothesisError(
            "invariant-curve hypotheses failed: " + ", ".join(hyp.failed))
    v = fp.eigen.v_lam
    slope = v.y / v.x
    fpl = fp.location
    xs = _column_positions(window, fpl.x, opts.columns)
    cx = xs != fpl.x  # the columns solved; the one through fp is seeded from it
    args = (m, fpl, slope, xs[cx], window, opts.curve_tol, sopts)
    if gap is not None and not _order_licensed(m, window, np.count_nonzero(cx) * PROBES,
                                               reports):
        gap = None  # unguided
    results = _solve_columns(*args, gap)
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
