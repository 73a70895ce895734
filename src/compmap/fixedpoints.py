"""Fixed points, minimal period-two points, and 2x2 eigen-structure."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (DegenerateRootError, NoConvergenceError, SingularityError,
                     DomainError)
from .geometry import Matrix2, Point2, Rect
from .planarmap import PlanarMap, check_competitive, jacobian

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
MAX_HALVINGS = 20
NONHYPERBOLIC_TOL = 1e-7  # |eigenvalue| within this of 1 is labeled nonhyperbolic
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


def classify_eigen(e: EigenData) -> str:
    """Map eigen-structure to {attractor, repeller, saddle, nonhyperbolic, complex}."""
    if e.complex_pair:
        return "complex"
    if abs(abs(e.lam) - 1.0) <= NONHYPERBOLIC_TOL or abs(abs(e.mu) - 1.0) <= NONHYPERBOLIC_TOL:
        return "nonhyperbolic"
    if abs(e.mu) < 1.0:
        return "attractor"
    if abs(e.lam) > 1.0:
        return "repeller"
    return "saddle"


@dataclass(frozen=True)
class FixedPointRecord:
    location: Point2
    kind: str  # 'fixed' | 'period_two'
    partner: Optional[Point2]
    eigen: EigenData
    classification: str
    residual: float


def _damped_newton(F: Callable[[Point2], Point2],
                   J: Callable[[Point2], Matrix2],
                   guess: Point2,
                   tol: float,
                   max_iter: int,
                   on_singular: Optional[Callable[[Point2], Optional[Point2]]] = None
                   ) -> Point2:
    """Newton iteration with step halving until the residual decreases.

    on_singular, when given, may rescue a singular linear system by returning
    a replacement iterate (or None to give up).
    """
    p = Point2(float(guess[0]), float(guess[1]))
    fp = F(p)
    res = max(abs(fp.x), abs(fp.y))
    for _ in range(max_iter):
        if res < tol:
            return p
        j = J(p)
        det = j.det()
        try:
            singular = abs(det) < 1e-14 * max(1.0, j.norm_inf()) ** 2
        except OverflowError:
            raise NoConvergenceError(
                f"Newton matrix overflows at ({p.x:.6g}, {p.y:.6g})") from None
        if singular:
            if on_singular is not None:
                q = on_singular(p)
                if q is not None:
                    p = q
                    fp = F(p)
                    res = max(abs(fp.x), abs(fp.y))
                    continue
            raise NoConvergenceError(
                f"singular Newton matrix at ({p.x:.6g}, {p.y:.6g})")
        dx = (-fp.x * j.a22 + fp.y * j.a12) / det
        dy = (-fp.y * j.a11 + fp.x * j.a21) / det
        accepted = False
        for _h in range(MAX_HALVINGS + 1):
            cand = Point2(p.x + dx, p.y + dy)
            try:
                fc = F(cand)
                cres = max(abs(fc.x), abs(fc.y))
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
        return p
    raise NoConvergenceError(
        f"no convergence after {max_iter} Newton iterations (residual {res:.3g})")


def find_fixed_point(m: PlanarMap, guess: Point2,
                     tol: float = NEWTON_TOL) -> FixedPointRecord:
    """Damped Newton on T(p) - p; eigen data and classification at the root.

    A singular Newton matrix triggers a fallback of 50 plain map iterations
    before the search is abandoned.
    """
    def F(p: Point2) -> Point2:
        fx, fy = m.step(p.x, p.y)
        return Point2(fx - p.x, fy - p.y)

    def J(p: Point2) -> Matrix2:
        j = jacobian(m, p)
        return Matrix2(j.a11 - 1.0, j.a12, j.a21, j.a22 - 1.0)

    def fallback(p: Point2) -> Optional[Point2]:
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

    root = _damped_newton(F, J, guess, tol, NEWTON_MAX_ITER, on_singular=fallback)
    res = F(root)
    eig = eigen2x2(jacobian(m, root))
    return FixedPointRecord(location=root, kind="fixed", partner=None,
                            eigen=eig, classification=_classify(m, root, eig),
                            residual=max(abs(res.x), abs(res.y)))


def _classify(m: PlanarMap, p: Point2, eig: EigenData) -> str:
    if eig.complex_pair:
        det = jacobian(m, p).det()
        rho = math.sqrt(abs(det))
        if abs(rho - 1.0) <= NONHYPERBOLIC_TOL:
            return "nonhyperbolic"
        return "complex"
    if not eig.real_distinct:
        a = abs(eig.lam)
        if abs(a - 1.0) <= NONHYPERBOLIC_TOL:
            return "nonhyperbolic"
        return "attractor" if a < 1.0 else "repeller"
    return classify_eigen(eig)


def _second_iterate_pieces(m: PlanarMap):
    def step2(x: float, y: float):
        u, v = m.step(x, y)
        return m.step(u, v)

    def jac2(p: Point2) -> Matrix2:
        j1 = jacobian(m, p)
        u, v = m.step(p.x, p.y)
        j2 = jacobian(m, Point2(u, v))
        return Matrix2(j2.a11 * j1.a11 + j2.a12 * j1.a21,
                       j2.a11 * j1.a12 + j2.a12 * j1.a22,
                       j2.a21 * j1.a11 + j2.a22 * j1.a21,
                       j2.a21 * j1.a12 + j2.a22 * j1.a22)

    return step2, jac2


def find_period_two(m: PlanarMap, guess: Point2) -> FixedPointRecord:
    """Newton on T^2(p) - p, rejecting roots that are plain fixed points."""
    step2, jac2 = _second_iterate_pieces(m)

    def F(p: Point2) -> Point2:
        fx, fy = step2(p.x, p.y)
        return Point2(fx - p.x, fy - p.y)

    def J(p: Point2) -> Matrix2:
        j = jac2(p)
        return Matrix2(j.a11 - 1.0, j.a12, j.a21, j.a22 - 1.0)

    root = _damped_newton(F, J, guess, NEWTON_TOL, NEWTON_MAX_ITER)
    img = Point2(*m.step(root.x, root.y))
    if root.dist_inf(img) < 10.0 * NEWTON_TOL:
        raise DegenerateRootError(
            f"degenerate: fixed point at ({root.x:.6g}, {root.y:.6g}),"
            " not a minimal period-two point")
    res = F(root)
    eig = eigen2x2(jac2(root))
    return FixedPointRecord(location=root, kind="period_two", partner=img,
                            eigen=eig, classification=_classify(m, root, eig),
                            residual=max(abs(res.x), abs(res.y)))


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
