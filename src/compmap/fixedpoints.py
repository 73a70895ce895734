"""Fixed points, minimal period-two points, and 2x2 eigen-structure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (DegenerateRootError, NoConvergenceError, SingularityError,
                     DomainError)
from .geometry import Matrix2, Point2, Rect, in_quadrant_interior, sup_norm
from .planarmap import PlanarMap, _sample_grid, check_competitive, jacobian

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


def _solve(m: PlanarMap, guess: Point2, k: int = 1,
           target: Optional[Point2] = None, tol: float = NEWTON_TOL,
           fallback: bool = False) -> tuple:
    """Damped Newton on T^k(p) - target = 0 (target None: p), k in {1, 2}.

    Each step is halved until the sup-norm residual decreases. With
    fallback, a singular Newton matrix restarts from _iterate_ahead before
    the search is abandoned. Returns the root and its sup-norm residual.
    """
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
            except (SingularityError, DomainError, OverflowError, ZeroDivisionError):
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    root, res = _solve(m, guess, tol=tol, fallback=True)
    return _record(root, "fixed", None, jacobian(m, root), res)


def find_period_two(m: PlanarMap, guess: Point2) -> FixedPointRecord:
    """Newton on T^2(p) - p, rejecting roots that are plain fixed points.

    Eigen data and classification come from DT^2 at the root.
    """
    root, res = _solve(m, guess, k=2)
    img = Point2(*m.step(root.x, root.y))
    if root.dist_inf(img) < 10.0 * NEWTON_TOL:
        raise DegenerateRootError(
            f"degenerate: fixed point at ({root.x:.6g}, {root.y:.6g}),"
            " not a minimal period-two point")
    return _record(root, "period_two", img, _dt(m, root, 2), res)


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

    @property
    def any_holds(self) -> bool:
        return self.condition_i or self.condition_ii or self.condition_iii


# Newton starts per side of the grid laid over each part of delta.
BOUNDARY_GRID = 8


def check_boundary_endpoint_conditions(m: PlanarMap, fp: FixedPointRecord,
                                       region: Rect) -> BoundaryEndpointReport:
    """Search the Q1/Q3 sector for objects that would obstruct boundary endpoints.

    From every start, Newton looks for a fixed point (T - id), a minimal
    period-two point (T^2 - id) and a preimage of fp (T - fp); a root in
    delta other than fp becomes a witness.
    """
    if fp.kind != "fixed":
        raise ValueError("boundary-endpoint conditions apply to fixed points")
    fp_pt = fp.location
    parts = _delta_parts(region, fp_pt.x, fp_pt.y)
    starts = [s for r, _k in parts for s in _sample_grid(r, BOUNDARY_GRID ** 2)]
    fixed_w, p2_w, pre_w = [], [], []
    # (witnesses, whether fp itself is excluded, search)
    searches = ((fixed_w, True, lambda s: find_fixed_point(m, s).location),
                (p2_w, False, lambda s: find_period_two(m, s).location),
                (pre_w, True, lambda s: _solve(m, s, target=fp_pt)[0]))
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
        det_at_fp=det,
        starts=len(starts),
        fixed_witnesses=tuple(fixed_w),
        period_two_witnesses=tuple(p2_w),
        preimage_witnesses=tuple(pre_w))
