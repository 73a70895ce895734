"""Fixed points, minimal period-two points, and 2x2 eigen-structure."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import (DegenerateRootError, NoConvergenceError, SingularityError,
                     check_point, check_tolerance)
from .geometry import Matrix2, Point2, Rect, record_class
from .planarmap import (_EVAL_ERRORS, PlanarMap, _check_area, _competitive_reports,
                        _images, _jacobians, _sample_grid, jacobian)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MAX_HALVINGS = 20
RESTART_STEPS = 50  # plain map steps a singular Newton matrix restarts after
NONHYPERBOLIC_TOL = 1e-7  # an eigenvalue (or |eigenvalue|) within this of 1 counts as 1
REPEATED_EIG_REL_TOL = 1e-12  # discriminant below this * norm^2 counts as repeated


@record_class
class EigenData:
    """Eigenvalues ordered by absolute value, with unit eigenvectors.

    lam is the smaller-|.| eigenvalue, mu the larger. Eigenvectors are present
    only for real distinct pairs; their sign makes the first nonzero component
    positive. complex_pair marks a conjugate pair (lam/mu then hold the
    common real part).
    """

    lam: float
    mu: float
    v_lam: Optional[Point2]
    v_mu: Optional[Point2]
    real_distinct: bool
    complex_pair: bool = False


def _eigvec(m: Matrix2, kappa: float) -> Point2:
    # rows of (M - kappa I) are orthogonal to the eigenvector; take the
    # better-conditioned of the two candidate solutions
    c1 = Point2(m.a12, kappa - m.a11)
    c2 = Point2(kappa - m.a22, m.a21)
    v = c1 if c1.norm() >= c2.norm() else c2
    if v.norm() == 0.0:
        # kappa I == M on both rows: any direction works
        v = Point2(1.0, 0.0)
    v = v.unit()
    lead = v.x if abs(v.x) > 1e-15 else v.y
    if lead < 0:
        v = Point2(-v.x, -v.y)
    return Point2(v.x + 0.0, v.y + 0.0)  # normalize -0.0


def eigen2x2(m: Matrix2) -> EigenData:
    """Closed-form eigen decomposition of a 2x2 matrix."""
    tr = m.trace()
    det = m.det()
    disc = tr * tr - 4.0 * det
    scale = m.norm_inf()
    if abs(disc) < REPEATED_EIG_REL_TOL * max(1.0, scale * scale):
        half = 0.5 * tr
        return EigenData(half, half, None, None, real_distinct=False)
    if disc < 0.0:
        half = 0.5 * tr
        return EigenData(half, half, None, None, real_distinct=False,
                         complex_pair=True)
    root = math.sqrt(disc)
    # subtraction-safe quadratic roots: compute the larger-|.| root directly,
    # the other from the product of roots
    big = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
    small = det / big  # big == 0 only when disc == 0, handled above
    lam, mu = (small, big) if abs(small) <= abs(big) else (big, small)
    return EigenData(lam, mu, _eigvec(m, lam), _eigvec(m, mu), real_distinct=True)


@record_class
class FixedPointRecord:
    location: Point2
    kind: str  # 'fixed' | 'period_two'
    partner: Optional[Point2]
    eigen: EigenData
    classification: str
    residual: float


# Why a lockstep Newton search gave up on a start (_Newton.code; 0: converged)
_EVAL, _SINGULAR, _OVERFLOW, _STALLED, _MAX_ITER = 1, 2, 3, 4, 5


@record_class
class _Newton:
    """The outcome of _solve per start i: the root (x[i], y[i]) and its
    sup-norm residual res[i] where code[i] is 0, else the point and residual
    at which the search gave up, and why."""

    x: np.ndarray
    y: np.ndarray
    res: np.ndarray
    code: np.ndarray
    raised: dict  # start -> what evaluating the map raised there (code _EVAL)

    def root(self, i: int) -> Point2:
        return Point2(float(self.x[i]), float(self.y[i]))

    def error(self, i: int) -> Optional[Exception]:
        """The exception the scalar search from start i raises, or None."""
        code = int(self.code[i])
        x, y, res = float(self.x[i]), float(self.y[i]), float(self.res[i])
        if code == 0:
            return None
        if code == _EVAL:
            return self.raised[i]
        return NoConvergenceError({
            _SINGULAR: f"singular Newton matrix at ({x:.6g}, {y:.6g})",
            _OVERFLOW: f"Newton matrix overflows at ({x:.6g}, {y:.6g})",
            _STALLED: f"Newton stalled at ({x:.6g}, {y:.6g}), residual {res:.3g}",
            _MAX_ITER: f"no convergence after {NEWTON_MAX_ITER} Newton "
                       f"iterations (residual {res:.3g})"}[code])


def _residuals(m: PlanarMap, X, Y, k: int, TX, TY) -> tuple:
    """T^k(X, Y) - (TX, TY), NaN where evaluating it raises, and per start
    what it raises (the first raise along the orbit)."""
    raised = {}
    for _ in range(k):
        (X, Y), r = _images(m, X, Y)
        raised = {**r, **raised}
    RX, RY = X - TX, Y - TY
    RX[list(raised)] = RY[list(raised)] = math.nan
    return RX, RY, raised


def _dts(m: PlanarMap, X, Y, k: int) -> tuple:
    """DT^k(X, Y) by the chain rule along the orbit, as entry arrays (a11,
    a12, a21, a22), and per start what it raises (the first raise along the
    orbit)."""
    j, raised = _jacobians(m, X, Y)
    for _ in range(k - 1):
        (X, Y), ri = _images(m, X, Y)
        a, rj = _jacobians(m, X, Y)
        raised = {**rj, **ri, **raised}
        j = (a[0] * j[0] + a[1] * j[2], a[0] * j[1] + a[1] * j[3],
             a[2] * j[0] + a[3] * j[2], a[2] * j[1] + a[3] * j[3])
    return j, raised


def _solve(m: PlanarMap, X, Y, k: int = 1, target: Optional[tuple] = None,
           tol: float = NEWTON_TOL, fallback: bool = False) -> _Newton:
    """Damped Newton on T^k(p) - target = 0 (target None: p), k in {1, 2},
    from every start (X[i], Y[i]) in lockstep; target, if given, is a pair
    of arrays of per-start targets.

    Each step is halved until the sup-norm residual decreases; a candidate
    at which the map raises a map error (_EVAL_ERRORS) is no decrease. With
    fallback, a start whose Newton matrix is singular restarts from its
    RESTART_STEPS-th plain iterate, unless the orbit meets a SingularityError
    or a non-finite point, or stays put, on the way (the start then ends as
    singular). Every start follows the arithmetic of a scalar search from it,
    so roots and residuals are those of one, and anything else the map raises
    ends the start's search; each Newton iteration, each halving round and
    each step of the restart is one batch call over the starts still in it.
    """
    X = np.array(X, dtype=float)
    Y = np.array(Y, dtype=float)
    TX, TY = (X, Y) if target is None else (np.asarray(target[0], dtype=float),
                                            np.asarray(target[1], dtype=float))
    code = np.zeros(X.shape, dtype=np.int8)
    with np.errstate(all="ignore"):
        FX, FY, raised = _residuals(m, X, Y, k, TX, TY)
        code[list(raised)] = _EVAL
        res = np.maximum(np.abs(FX), np.abs(FY))
        for _ in range(NEWTON_MAX_ITER):
            idx = np.flatnonzero((code == 0) & ~(res < tol))
            if idx.size == 0:
                break
            (a11, a12, a21, a22), r = _dts(m, X[idx], Y[idx], k)
            for n, e in r.items():
                code[idx[n]], raised[int(idx[n])] = _EVAL, e
            if target is None:
                a11, a22 = a11 - 1.0, a22 - 1.0
            det = a11 * a22 - a12 * a21
            # Matrix2.norm_inf: max(row 1, row 2) keeps row 1 unless row 2 is
            # larger, and max(1.0, nan) is 1.0
            r1 = np.abs(a11) + np.abs(a12)
            r2 = np.abs(a21) + np.abs(a22)
            scale = np.fmax(1.0, np.where(r2 > r1, r2, r1))
            square = scale * scale
            overflow = np.isinf(square)
            singular = np.abs(det) < 1e-14 * square
            code[idx[overflow & (code[idx] == 0)]] = _OVERFLOW
            s = idx[singular & (code[idx] == 0)]
            code[s] = _SINGULAR
            if fallback and s.size:
                qx, qy = X[s], Y[s]
                for _ in range(RESTART_STEPS):
                    if not s.size:
                        break
                    (qx, qy), r = _images(m, qx, qy)
                    for n, e in r.items():
                        if not isinstance(e, SingularityError):
                            code[s[n]], raised[int(s[n])] = _EVAL, e
                    on = np.isfinite(qx) & np.isfinite(qy)  # a raise reads NaN
                    s, qx, qy = s[on], qx[on], qy[on]
                on = np.maximum(np.abs(qx - X[s]), np.abs(qy - Y[s])) > 0
                s, qx, qy = s[on], qx[on], qy[on]
                gx, gy, r = _residuals(
                    m, qx, qy, k, *((qx, qy) if target is None else (TX[s], TY[s])))
                for n, e in r.items():
                    code[s[n]], raised[int(s[n])] = _EVAL, e
                on = code[s] == _SINGULAR  # no raise on the way to the residual
                s, gx, gy = s[on], gx[on], gy[on]
                X[s], Y[s], FX[s], FY[s] = qx[on], qy[on], gx, gy
                res[s], code[s] = np.maximum(np.abs(gx), np.abs(gy)), 0
            go = ~singular & (code[idx] == 0)
            idx, det = idx[go], det[go]
            a11, a12, a21, a22 = a11[go], a12[go], a21[go], a22[go]
            dx = (-FX[idx] * a22 + FY[idx] * a12) / det
            dy = (-FY[idx] * a11 + FX[idx] * a21) / det
            for _h in range(MAX_HALVINGS + 1):
                if idx.size == 0:
                    break
                cx, cy = X[idx] + dx, Y[idx] + dy
                gx, gy, r = _residuals(
                    m, cx, cy, k, *((cx, cy) if target is None else (TX[idx], TY[idx])))
                for n, e in r.items():
                    if not isinstance(e, _EVAL_ERRORS):
                        code[idx[n]], raised[int(idx[n])] = _EVAL, e
                cres = np.maximum(np.abs(gx), np.abs(gy))
                take = np.isfinite(cres) & (cres < res[idx])
                t = idx[take]
                X[t], Y[t], FX[t], FY[t], res[t] = (cx[take], cy[take], gx[take],
                                                    gy[take], cres[take])
                left = ~take & (code[idx] == 0)
                idx, dx, dy = idx[left], dx[left] * 0.5, dy[left] * 0.5
            code[idx] = _STALLED
    code[(code == 0) & ~(res < tol)] = _MAX_ITER
    return _Newton(X, Y, res, code, raised)


def _record(root: Point2, kind: str, partner: Optional[Point2], dt: Matrix2,
            residual: float) -> FixedPointRecord:
    """The record of a root of T^k(p) - target, given DT^k(root) as dt.

    The classification is attractor, repeller, saddle, nonhyperbolic (an
    eigenvalue modulus within NONHYPERBOLIC_TOL of 1) or complex. A complex
    pair is nonhyperbolic when its modulus sqrt|det dt| is 1.
    """
    eig = eigen2x2(dt)
    if eig.complex_pair:
        rho = math.sqrt(abs(dt.det()))
        cls = "nonhyperbolic" if abs(rho - 1.0) <= NONHYPERBOLIC_TOL else "complex"
    elif (abs(abs(eig.lam) - 1.0) <= NONHYPERBOLIC_TOL
          or abs(abs(eig.mu) - 1.0) <= NONHYPERBOLIC_TOL):
        cls = "nonhyperbolic"
    elif abs(eig.mu) < 1.0:
        cls = "attractor"
    elif abs(eig.lam) > 1.0:
        cls = "repeller"
    else:
        cls = "saddle"
    return FixedPointRecord(location=root, kind=kind, partner=partner, eigen=eig,
                            classification=cls, residual=residual)


def _records(m: PlanarMap, sol: _Newton, idx, k: int = 1) -> list:
    """Per start i of idx, the record of the root sol found from it on T^k - id
    (k in {1, 2}), or the exception its search or its record raises.

    A fixed root's record takes DT there, a period-two root's its image
    (refusing a plain fixed point as degenerate) and DT^2, each from one
    batch call over the converged starts of idx.
    """
    idx = np.asarray(idx, dtype=int)
    ok = idx[sol.code[idx] == 0]
    X, Y = sol.x[ok], sol.y[ok]
    (IX, IY), ri = _images(m, X, Y) if k == 2 else ((X, Y), {})
    j, rj = _dts(m, X, Y, k)
    out = {}
    for n, i in enumerate(ok.tolist()):
        root, img = sol.root(i), Point2(float(IX[n]), float(IY[n]))
        if n in ri:
            out[i] = ri[n]
        elif k == 2 and root.dist_inf(img) < 10.0 * NEWTON_TOL:
            out[i] = DegenerateRootError(
                f"degenerate: fixed point at ({root.x:.6g}, {root.y:.6g}),"
                " not a minimal period-two point")
        elif n in rj:
            out[i] = rj[n]
        else:
            out[i] = _record(root, "period_two" if k == 2 else "fixed",
                             img if k == 2 else None,
                             Matrix2(*(float(a[n]) for a in j)), float(sol.res[i]))
    return [out[i] if i in out else sol.error(i) for i in idx.tolist()]


def _only(out: list) -> FixedPointRecord:
    """The record of a one-start search, raising what it raised instead."""
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def find_fixed_point(m: PlanarMap, guess: Point2,
                     tol: float = NEWTON_TOL) -> FixedPointRecord:
    """Damped Newton on T(p) - p; eigen data and classification at the root.

    A singular Newton matrix restarts the search from the RESTART_STEPS-th
    plain iterate before the search is abandoned. guess must be finite, and
    tol finite and > 0.
    """
    check_point("guess", guess)
    return _only(_find_fixed_points(m, [float(guess[0])], [float(guess[1])], tol))


def _find_fixed_points(m: PlanarMap, X, Y, tol: float = NEWTON_TOL) -> list:
    """find_fixed_point from every start (X[i], Y[i]), in one lockstep
    search: per start its record, or the exception find_fixed_point raises."""
    check_tolerance("tol", tol)
    return _records(m, _solve(m, X, Y, tol=tol, fallback=True), range(len(X)))


def find_period_two(m: PlanarMap, guess: Point2) -> FixedPointRecord:
    """Newton on T^2(p) - p, rejecting roots that are plain fixed points.

    Eigen data and classification come from DT^2 at the root. guess must be
    finite.
    """
    check_point("guess", guess)
    sol = _solve(m, [float(guess[0])], [float(guess[1])], k=2)
    return _only(_records(m, sol, [0], k=2))


# ---------------------------------------------------------------------------
# Invariant-curve hypothesis checking


@record_class
class InvariantCurveHypotheses:
    """Verdicts for the invariant-curve existence hypotheses at a fixed point.

    delta is the part of the region interior to the first/third quadrants
    relative to the fixed point; the strong-competitivity verdict is a sampled
    certificate over delta.
    """

    delta_nonempty: bool
    eigen_ok: bool
    eigenvector_off_axis: bool
    strongly_competitive: bool
    samples: int
    failed: tuple

    @property
    def all_pass(self) -> bool:
        return (self.delta_nonempty and self.eigen_ok
                and self.eigenvector_off_axis and self.strongly_competitive)

    def __str__(self):
        if self.all_pass:
            return f"all hypotheses hold ({self.samples} competitivity samples)"
        return "failed: " + ", ".join(self.failed)


AXIS_TOL = 1e-9
# An unbounded part of delta is clamped to the box of this half-width
# around the fixed point.
DELTA_CLAMP = 25.0


def _delta_parts(region: Rect, x0: float, y0: float) -> list:
    """delta, the parts of region in Q1 and Q3 at (x0, y0), as (rect, k) pairs
    with k in (1, 3); an unbounded part is clamped to DELTA_CLAMP, and one
    with no area left inside the clamp is dropped."""
    # a quadrant part narrower than eps is a numerical sliver (e.g. a Newton
    # root at x = 1e-17 instead of an exact axis point), not an open set
    eps = 1e-9 * max(1.0, abs(x0), abs(y0))
    cx = min(max(x0, region.x_lo), region.x_hi)
    cy = min(max(y0, region.y_lo), region.y_hi)
    clamp = Rect(x0 - DELTA_CLAMP, x0 + DELTA_CLAMP, y0 - DELTA_CLAMP, y0 + DELTA_CLAMP)

    parts = []
    q1 = Rect(cx, region.x_hi, cy, region.y_hi)
    q3 = Rect(region.x_lo, cx, region.y_lo, cy)
    for q, k, ok in ((q1, 1, q1.x_hi > x0 + eps and q1.y_hi > y0 + eps),
                     (q3, 3, q3.x_lo < x0 - eps and q3.y_lo < y0 - eps)):
        if ok and not q.is_bounded():
            ok = q.x_lo < clamp.x_hi and clamp.x_lo < q.x_hi \
                and q.y_lo < clamp.y_hi and clamp.y_lo < q.y_hi
            q = q.clamped(clamp) if ok else q
        if ok:
            parts.append((q, k))
    return parts


def check_invariant_curve_hypotheses(m: PlanarMap, fp: FixedPointRecord,
                                     region: Rect) -> InvariantCurveHypotheses:
    """Check the hypotheses under which the separatrix through fp exists.

    (a) region meets int(Q1 u Q3) at fp; (b) real eigenvalues with
    0 < |lam| < mu and |lam| < 1; (c) the lam-eigenvector is off-axis;
    (d) strong competitivity sampled on the Q1/Q3 parts of the region
    (check_competitive on each part, all parts in one _jacobians call).
    region must have a positive width and height.
    """
    return _curve_hypotheses(m, fp, region)[0]


def _curve_hypotheses(m: PlanarMap, fp: FixedPointRecord, region: Rect,
                      extra=()) -> tuple:
    """check_invariant_curve_hypotheses, and the planarmap._competitive_reports
    generator it read the parts of delta from. The generator's next reports
    are those of the regions of extra, whose sample grids join the parts'
    in one _jacobians call (a curve trace samples its order licence there)."""
    if fp.kind != "fixed":
        raise ValueError("the invariant-curve hypotheses apply to fixed points only")
    _check_area("check_invariant_curve_hypotheses", region)
    x0, y0 = fp.location
    failed = []

    parts = _delta_parts(region, x0, y0)
    delta_nonempty = bool(parts)
    if not delta_nonempty:
        failed.append("delta_nonempty")

    e = fp.eigen
    eigen_ok = (e.real_distinct and not e.complex_pair
                and abs(e.lam) > 0.0 and abs(e.lam) < e.mu and abs(e.lam) < 1.0)
    if not eigen_ok:
        failed.append("eigen_ok")

    off_axis = (eigen_ok and e.v_lam is not None
                and min(abs(e.v_lam.x), abs(e.v_lam.y)) > AXIS_TOL)
    if not off_axis:
        failed.append("eigenvector_off_axis")

    n = 0
    strong = True
    # grid samples sit at cell centers, so they are interior to the quadrant
    # part automatically
    reports = _competitive_reports(m, [part for part, _k in parts] + list(extra))
    for _ in parts:
        rep = next(reports)
        n += rep.samples
        strong = strong and rep.strongly
    if not (strong and n > 0):
        failed.append("strongly_competitive")
        strong = False
    return InvariantCurveHypotheses(delta_nonempty=delta_nonempty, eigen_ok=eigen_ok,
                                    eigenvector_off_axis=off_axis,
                                    strongly_competitive=strong, samples=n,
                                    failed=tuple(failed)), reports


# ---------------------------------------------------------------------------
# Boundary-endpoint sufficient conditions


@record_class
class BoundaryEndpointReport:
    """Sampled verdicts for the boundary-endpoint sufficient conditions.

    Each verdict means "no counterexample found among the Newton starts", not
    a proof. Witnesses carry any interior fixed points, minimal period-two
    points, or extra preimages of the fixed point found in the Q1/Q3 sector.
    """

    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    det_at_fp: float
    starts: int
    fixed_witnesses: tuple
    period_two_witnesses: tuple
    preimage_witnesses: tuple


# Newton starts per side of the grid laid over each part of delta.
BOUNDARY_GRID = 8


def check_boundary_endpoint_conditions(m: PlanarMap, fp: FixedPointRecord,
                                       region: Rect) -> BoundaryEndpointReport:
    """Search the Q1/Q3 sector for objects that would obstruct boundary endpoints.

    From every start, Newton looks for a fixed point (T - id), a minimal
    period-two point (T^2 - id) and a preimage of fp (T - fp); a root in
    delta other than fp becomes a witness.
    """
    return _boundary_reports(m, [fp], region)[0]


# What a search from one start may raise without ending the check (as a
# search that finds nothing).
_NO_ROOT = (NoConvergenceError, SingularityError, OverflowError)


def _boundary_reports(m: PlanarMap, fps, region: Rect) -> list:
    """check_boundary_endpoint_conditions at each fixed point of fps, with
    the starts of all of them in one lockstep search per kind of root."""
    if any(fp.kind != "fixed" for fp in fps):
        raise ValueError("boundary-endpoint conditions apply to fixed points")
    grids, owner, q1, q3 = [], [], [], []
    for i, fp in enumerate(fps):
        parts = _delta_parts(region, fp.location.x, fp.location.y)
        for r, _k in parts:
            grids.append(_sample_grid(r, BOUNDARY_GRID ** 2))
            owner.append(np.full(len(grids[-1][0]), i))
        q1.append(any(k == 1 for _, k in parts))
        q3.append(any(k == 3 for _, k in parts))
    X = np.concatenate([g[0] for g in grids] + [np.empty(0)])
    Y = np.concatenate([g[1] for g in grids] + [np.empty(0)])
    owner = np.concatenate(owner + [np.empty(0, dtype=int)])
    FX = np.array([fp.location.x for fp in fps], dtype=float)[owner]
    FY = np.array([fp.location.y for fp in fps], dtype=float)[owner]
    q1 = np.array(q1, dtype=bool)[owner]
    q3 = np.array(q3, dtype=bool)[owner]

    # (search, whether fp itself is excluded, k of the records a witness
    # needs, 0 for none)
    searches = ((_solve(m, X, Y, fallback=True), True, 1),
                (_solve(m, X, Y, k=2), False, 2),
                (_solve(m, X, Y, target=(FX, FY)), True, 0))
    # anything else a search raises ends the check: the first, in start order
    fatal = [(s, n, e) for n, (sol, _, _) in enumerate(searches)
             for s, e in sol.raised.items() if not isinstance(e, _NO_ROOT)]
    if fatal:
        raise min(fatal, key=lambda t: t[:2])[2]
    bags = [([], [], []) for _ in fps]
    for n, (sol, off_fp, k) in enumerate(searches):
        dx, dy = sol.x - FX, sol.y - FY
        near = (sol.code == 0) \
            & (region.x_lo <= sol.x) & (sol.x <= region.x_hi) \
            & (region.y_lo <= sol.y) & (sol.y <= region.y_hi) \
            & ((q1 & (dx >= 1e-9) & (dy >= 1e-9)) | (q3 & (-dx >= 1e-9) & (-dy >= 1e-9)))
        if off_fp:
            near &= np.maximum(np.abs(dx), np.abs(dy)) > 1e-6
        near = np.flatnonzero(near)
        records = _records(m, sol, near, k) if k else [None] * near.size
        for s, rec in zip(near.tolist(), records):
            bag, r = bags[owner[s]][n], sol.root(s)
            if any(r.dist_inf(q) < 1e-6 for q in bag) or isinstance(rec, _NO_ROOT):
                continue
            if isinstance(rec, Exception):
                raise rec
            bag.append(r)

    reports = []
    for fp, (fixed_w, p2_w, pre_w) in zip(fps, bags):
        det = jacobian(m, fp.location).det()
        reports.append(BoundaryEndpointReport(
            condition_i=not fixed_w and not p2_w,
            condition_ii=not fixed_w and det > 0 and not pre_w,
            condition_iii=not p2_w and det < 0 and not pre_w,
            det_at_fp=det,
            starts=int(np.count_nonzero(owner == len(reports))),
            fixed_witnesses=tuple(fixed_w),
            period_two_witnesses=tuple(p2_w),
            preimage_witnesses=tuple(pre_w)))
    return reports
