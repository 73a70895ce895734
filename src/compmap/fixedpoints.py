"""Fixed points, minimal period-two points, and 2x2 eigen-structure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateRootError, NoConvergenceError, SingularityError
from .expr import _pow_array
from .geometry import Matrix2, Point2, Rect, sup_norm
from .planarmap import (_EVAL_ERRORS, PlanarMap, _images, _jacobians, _sample_grid,
                        check_competitive, jacobian)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MAX_HALVINGS = 20
NONHYPERBOLIC_TOL = 1e-7  # an eigenvalue (or |eigenvalue|) within this of 1 counts as 1
REPEATED_EIG_REL_TOL = 1e-12  # discriminant below this * norm^2 counts as repeated


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FixedPointRecord:
    location: Point2
    kind: str  # 'fixed' | 'period_two'
    partner: Optional[Point2]
    eigen: EigenData
    classification: str
    residual: float


def _residual(m: PlanarMap, p: Point2, k: int, target: Optional[Point2]) -> Point2:
    """T^k(p) - target, with target None meaning p."""
    x, y = p
    for _ in range(k):
        x, y = m.step(x, y)
    t = p if target is None else target
    return Point2(x - t.x, y - t.y)


def _dt(m: PlanarMap, p: Point2, k: int) -> Matrix2:
    """DT^k(p), by the chain rule along the orbit of p."""
    j = jacobian(m, p)
    for _ in range(k - 1):
        p = Point2(*m.step(p.x, p.y))
        a = jacobian(m, p)
        j = Matrix2(a.a11 * j.a11 + a.a12 * j.a21, a.a11 * j.a12 + a.a12 * j.a22,
                    a.a21 * j.a11 + a.a22 * j.a21, a.a21 * j.a12 + a.a22 * j.a22)
    return j


def _iterate_ahead(m: PlanarMap, p: Point2) -> Optional[Point2]:
    """The 50th iterate of p, or None if the orbit breaks down or stays put."""
    x, y = p
    for _ in range(50):
        try:
            x, y = m.step(x, y)
        except SingularityError:
            return None
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
    q = Point2(x, y)
    return q if q.dist_inf(p) > 0 else None


# Why a lockstep Newton search gave up on a start (_Newton.code; 0: converged)
_EVAL, _SINGULAR, _OVERFLOW, _STALLED, _MAX_ITER = 1, 2, 3, 4, 5


@dataclass(frozen=True)
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
    """_residual on arrays, NaN where it raises, and per start what it
    raises (the first raise along the orbit)."""
    raised = {}
    for _ in range(k):
        (X, Y), r = _images(m, X, Y)
        raised = {**r, **raised}
    RX, RY = X - TX, Y - TY
    RX[list(raised)] = RY[list(raised)] = math.nan
    return RX, RY, raised


def _dts(m: PlanarMap, X, Y, k: int) -> tuple:
    """_dt on arrays, as entry arrays (a11, a12, a21, a22), and per start
    what it raises (the first raise along the orbit)."""
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
    fallback, a singular Newton matrix restarts from _iterate_ahead before
    the search is abandoned. Every start follows the arithmetic of a scalar
    search from it, so roots and residuals are those of one, and anything
    else the map raises ends the start's search; each Newton iteration and
    each halving round is one batch call over the starts still in it.
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
            overflow = np.zeros(idx.shape, dtype=bool)
            square = _pow_array(scale, 2.0, overflow)  # the bits of scale ** 2
            singular = np.abs(det) < 1e-14 * square
            code[idx[overflow & (code[idx] == 0)]] = _OVERFLOW
            for i in idx[singular & (code[idx] == 0)].tolist():
                p = Point2(float(X[i]), float(Y[i]))
                aim = None if target is None else Point2(float(TX[i]), float(TY[i]))
                try:
                    q = _iterate_ahead(m, p) if fallback else None
                    f = None if q is None else _residual(m, q, k, aim)
                except Exception as e:
                    code[i], raised[i] = _EVAL, e
                    continue
                if f is None:
                    code[i] = _SINGULAR
                else:
                    X[i], Y[i], FX[i], FY[i] = q.x, q.y, f.x, f.y
                    res[i] = sup_norm(f.x, f.y)
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


def find_fixed_point(m: PlanarMap, guess: Point2,
                     tol: float = NEWTON_TOL) -> FixedPointRecord:
    """Damped Newton on T(p) - p; eigen data and classification at the root.

    A singular Newton matrix triggers a fallback of 50 plain map iterations
    before the search is abandoned. tol must be finite and > 0.
    """
    out = _find_fixed_points(m, [float(guess[0])], [float(guess[1])], tol)[0]
    if isinstance(out, Exception):
        raise out
    return out


def _find_fixed_points(m: PlanarMap, X, Y, tol: float = NEWTON_TOL) -> list:
    """find_fixed_point from every start (X[i], Y[i]), in one lockstep
    search: per start its record, or the exception find_fixed_point raises."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    sol = _solve(m, X, Y, tol=tol, fallback=True)
    out = []
    for i in range(len(sol.code)):
        err = sol.error(i)
        if err is None:
            root = sol.root(i)
            try:
                err = _record(root, "fixed", None, jacobian(m, root), float(sol.res[i]))
            except Exception as e:
                err = e
        out.append(err)
    return out


def _partner(m: PlanarMap, root: Point2) -> Point2:
    """T(root) for a root of T^2 - id; raises DegenerateRootError where root
    is a plain fixed point."""
    img = Point2(*m.step(root.x, root.y))
    if root.dist_inf(img) < 10.0 * NEWTON_TOL:
        raise DegenerateRootError(
            f"degenerate: fixed point at ({root.x:.6g}, {root.y:.6g}),"
            " not a minimal period-two point")
    return img


def find_period_two(m: PlanarMap, guess: Point2) -> FixedPointRecord:
    """Newton on T^2(p) - p, rejecting roots that are plain fixed points.

    Eigen data and classification come from DT^2 at the root.
    """
    sol = _solve(m, [float(guess[0])], [float(guess[1])], k=2)
    err = sol.error(0)
    if err is not None:
        raise err
    root = sol.root(0)
    img = _partner(m, root)
    return _record(root, "period_two", img, _dt(m, root, 2), float(sol.res[0]))


# ---------------------------------------------------------------------------
# Invariant-curve hypothesis checking


@dataclass(frozen=True)
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
    with k in (1, 3); an unbounded part is clamped to DELTA_CLAMP."""
    # a quadrant part narrower than eps is a numerical sliver (e.g. a Newton
    # root at x = 1e-17 instead of an exact axis point), not an open set
    eps = 1e-9 * max(1.0, abs(x0), abs(y0))
    cx = min(max(x0, region.x_lo), region.x_hi)
    cy = min(max(y0, region.y_lo), region.y_hi)

    def clamp(q: Rect) -> Rect:
        if q.is_bounded():
            return q
        return q.clamped(Rect(x0 - DELTA_CLAMP, x0 + DELTA_CLAMP,
                              y0 - DELTA_CLAMP, y0 + DELTA_CLAMP))

    parts = []
    q1 = Rect(cx, region.x_hi, cy, region.y_hi)
    if q1.x_hi > x0 + eps and q1.y_hi > y0 + eps:
        parts.append((clamp(q1), 1))
    q3 = Rect(region.x_lo, cx, region.y_lo, cy)
    if q3.x_lo < x0 - eps and q3.y_lo < y0 - eps:
        parts.append((clamp(q3), 3))
    return parts


def check_invariant_curve_hypotheses(m: PlanarMap, fp: FixedPointRecord,
                                     region: Rect) -> InvariantCurveHypotheses:
    """Check the hypotheses under which the separatrix through fp exists.

    (a) region meets int(Q1 u Q3) at fp; (b) real eigenvalues with
    0 < |lam| < mu and |lam| < 1; (c) the lam-eigenvector is off-axis;
    (d) strong competitivity sampled on the Q1/Q3 parts of the region.
    """
    if fp.kind != "fixed":
        raise ValueError("the invariant-curve hypotheses apply to fixed points only")
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
    for part, _k in parts:
        # grid samples sit at cell centers, so they are interior to the
        # quadrant part automatically
        rep = check_competitive(m, part)
        n += rep.samples
        strong = strong and rep.strongly
    if not (strong and n > 0):
        failed.append("strongly_competitive")
        strong = False
    return InvariantCurveHypotheses(delta_nonempty=delta_nonempty, eigen_ok=eigen_ok,
                          eigenvector_off_axis=off_axis,
                          strongly_competitive=strong, samples=n,
                          failed=tuple(failed))


# ---------------------------------------------------------------------------
# Boundary-endpoint sufficient conditions


@dataclass(frozen=True)
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

    def fixed_ok(r):
        jacobian(m, r)

    def period_two_ok(r):
        _partner(m, r)
        _dt(m, r, 2)

    # (search, whether fp itself is excluded, what must evaluate at a witness)
    searches = ((_solve(m, X, Y, fallback=True), True, fixed_ok),
                (_solve(m, X, Y, k=2), False, period_two_ok),
                (_solve(m, X, Y, target=(FX, FY)), True, None))
    # anything else a search raises ends the check: the first, in start order
    fatal = [(s, n, e) for n, (sol, _, _) in enumerate(searches)
             for s, e in sol.raised.items() if not isinstance(e, _NO_ROOT)]
    if fatal:
        raise min(fatal, key=lambda t: t[:2])[2]
    bags = [([], [], []) for _ in fps]
    for n, (sol, off_fp, evaluates) in enumerate(searches):
        dx, dy = sol.x - FX, sol.y - FY
        near = (sol.code == 0) \
            & (region.x_lo <= sol.x) & (sol.x <= region.x_hi) \
            & (region.y_lo <= sol.y) & (sol.y <= region.y_hi) \
            & ((q1 & (dx >= 1e-9) & (dy >= 1e-9)) | (q3 & (-dx >= 1e-9) & (-dy >= 1e-9)))
        if off_fp:
            near &= np.maximum(np.abs(dx), np.abs(dy)) > 1e-6
        for s in np.flatnonzero(near).tolist():
            bag, r = bags[owner[s]][n], sol.root(s)
            if any(r.dist_inf(q) < 1e-6 for q in bag):
                continue
            try:
                if evaluates is not None:
                    evaluates(r)
            except _NO_ROOT:
                continue
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
