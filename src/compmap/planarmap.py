"""Planar map abstraction: evaluation, Jacobians, orbits, monotonicity checks.

A PlanarMap is a pair (f, g) on a rectangular domain. The step callable takes
raw floats (x, y) and returns (f(x,y), g(x,y)); it raises SingularityError
when a denominator vanishes within tolerance. The optional batch callable is
the same map on numpy arrays: it returns a pair of arrays of the input shape,
bit-identical to step elementwise, with NaN (in at least one component)
wherever step would raise. Maps are immutable and safe to share across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularityError
from .geometry import (DEFAULT_SAMPLING_WINDOW, Matrix2, Point2, Rect,
                       in_quadrant_interior)

SINGULAR_TOL = 1e-12
FD_STEP = 1e-6


@dataclass(frozen=True)
class PlanarMap:
    name: str
    step: Callable[[float, float], tuple]
    domain: Rect
    jac: Optional[Callable[[float, float], Matrix2]] = None
    params: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)
    batch: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def __call__(self, x: float, y: float) -> tuple:
        return self.step(x, y)


def evaluate(m: PlanarMap, p: Point2) -> Point2:
    """Apply the map at p; raises DomainError outside the domain rectangle."""
    if not m.domain.contains(Point2(*p)):
        raise DomainError(f"{tuple(p)} outside domain of {m.name}")
    fx, fy = m.step(p[0], p[1])
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise SingularityError(f"{m.name} produced a non-finite value at {tuple(p)}")
    return Point2(fx, fy)


def fd_jacobian(m: PlanarMap, p: Point2, h: float = FD_STEP) -> Matrix2:
    """Central finite-difference Jacobian with per-coordinate scaled steps."""
    x, y = p
    hx = h * max(1.0, abs(x))
    hy = h * max(1.0, abs(y))
    fxp = m.step(x + hx, y)
    fxm = m.step(x - hx, y)
    fyp = m.step(x, y + hy)
    fym = m.step(x, y - hy)
    return Matrix2((fxp[0] - fxm[0]) / (2 * hx), (fyp[0] - fym[0]) / (2 * hy),
                   (fxp[1] - fxm[1]) / (2 * hx), (fyp[1] - fym[1]) / (2 * hy))


def jacobian(m: PlanarMap, p: Point2, h: float = FD_STEP) -> Matrix2:
    """Exact Jacobian when the map carries one, else central differences."""
    if m.jac is not None:
        return m.jac(p[0], p[1])
    return fd_jacobian(m, p, h)


# ---------------------------------------------------------------------------
# Orbits


@dataclass(frozen=True)
class Orbit:
    points: tuple
    terminated_by: str  # 'max_iter' | 'escape' | 'convergence' | 'singularity' | 'quadrant'


def orbit(m: PlanarMap, p: Point2, max_iter: int,
          conv_tol: float = 1e-12,
          quadrant: tuple | None = None,
          quadrant_margin: float = 0.0) -> Orbit:
    """Iterate from p until a stopping rule fires.

    Rules, checked in order each step: singularity during evaluation,
    escape from the domain rectangle, entry into int Q_k(origin) when
    quadrant=(origin, k) is given, convergence (sup-norm step < conv_tol),
    and the max_iter cap.
    """
    if not m.domain.contains(Point2(*p)):
        raise DomainError(f"{tuple(p)} outside domain of {m.name}")
    pts = [Point2(p[0], p[1])]
    x, y = float(p[0]), float(p[1])
    dom = m.domain
    step = m.step
    for _ in range(max_iter):
        try:
            xn, yn = step(x, y)
        except SingularityError:
            return Orbit(tuple(pts), "singularity")
        if not (math.isfinite(xn) and math.isfinite(yn)):
            return Orbit(tuple(pts), "singularity")
        pts.append(Point2(xn, yn))
        if not (dom.x_lo <= xn <= dom.x_hi and dom.y_lo <= yn <= dom.y_hi):
            return Orbit(tuple(pts), "escape")
        if quadrant is not None:
            origin, k = quadrant
            if in_quadrant_interior(origin, Point2(xn, yn), k, quadrant_margin):
                return Orbit(tuple(pts), "quadrant")
        if max(abs(xn - x), abs(yn - y)) < conv_tol:
            return Orbit(tuple(pts), "convergence")
        x, y = xn, yn
    return Orbit(tuple(pts), "max_iter")


def eventually_componentwise_monotone(points: Sequence[Point2],
                                      zero_tol: float = 1e-13,
                                      min_tail: int = 5) -> bool:
    """True if each coordinate's difference signs stabilize after a finite prefix.

    Differences smaller than zero_tol carry no sign information and are
    compatible with either direction.
    """
    if len(points) < min_tail + 2:
        return True
    n = len(points) - 1
    for coord in (0, 1):
        last_flip = -1
        sign = 0
        for k in range(n):
            d = points[k + 1][coord] - points[k][coord]
            if abs(d) <= zero_tol:
                continue
            s = 1 if d > 0 else -1
            if sign != 0 and s != sign:
                last_flip = k
            sign = s
        if last_flip >= n - min_tail:
            return False
    return True


# ---------------------------------------------------------------------------
# Competitiveness / orientation checks


def _sample_grid(region: Rect, samples: int,
                 window: Rect = DEFAULT_SAMPLING_WINDOW) -> list:
    """Quasi-uniform interior grid over region (clamped to window if unbounded)."""
    r = region if region.is_bounded() else region.clamped(window)
    if r.x_lo > r.x_hi or r.y_lo > r.y_hi:
        return []
    k = max(1, math.isqrt(max(1, samples)))
    pts = []
    for i in range(k):
        x = r.x_lo + (i + 0.5) * r.width() / k
        for j in range(k):
            y = r.y_lo + (j + 0.5) * r.height() / k
            pts.append(Point2(x, y))
    return pts


@dataclass(frozen=True)
class CompetitivityReport:
    competitive: bool
    strongly: bool
    samples: int
    failures: int  # evaluation failures, not sign violations
    witness: Optional[tuple] = None  # (point, jacobian) of first violation

    def __str__(self):
        kind = ("strongly competitive" if self.strongly
                else "competitive" if self.competitive else "not competitive")
        s = (f"{kind} at {self.samples} sampled points"
             f" (certificate over samples only)")
        if self.witness is not None:
            p, j = self.witness
            s += f"; first violation at ({p.x:.6g}, {p.y:.6g})"
        if self.failures:
            s += f"; {self.failures} evaluation failures"
        return s


def check_competitive(m: PlanarMap, region: Rect, samples: int = 100,
                      tol: float = 1e-9,
                      window: Rect = DEFAULT_SAMPLING_WINDOW) -> CompetitivityReport:
    """Sample the Jacobian sign pattern (+, -; -, +) over a grid.

    competitive allows zeros on the off-diagonal; strongly requires all four
    strict. This is a sampled certificate, not a symbolic proof.
    """
    pts = _sample_grid(region, samples, window)
    competitive = True
    strongly = True
    failures = 0
    witness = None
    n_ok = 0
    for p in pts:
        try:
            j = jacobian(m, p)
        except (SingularityError, DomainError, OverflowError, ZeroDivisionError):
            failures += 1
            continue
        n_ok += 1
        ok_weak = (j.a11 >= -tol and j.a12 <= tol and j.a21 <= tol and j.a22 >= -tol)
        ok_strong = (j.a11 > tol and j.a12 < -tol and j.a21 < -tol and j.a22 > tol)
        if not ok_weak and competitive:
            competitive = False
            if witness is None:
                witness = (p, j)
        if not ok_strong and strongly:
            strongly = False
            if witness is None and not ok_weak:
                witness = (p, j)
    if not competitive:
        strongly = False
    return CompetitivityReport(competitive=competitive, strongly=strongly,
                               samples=n_ok, failures=failures, witness=witness)


@dataclass(frozen=True)
class OConditionReport:
    verdict: str  # 'O_plus' | 'O_minus' | 'inconclusive'
    det_min: float
    det_max: float
    samples: int
    injectivity_pairs: int
    collisions: int
    note: str = ""


def check_O_condition(m: PlanarMap, region: Rect, samples: int = 100,
                      det_tol: float = 1e-12,
                      pairs: int = 10_000,
                      collision_tol: float = 1e-9,
                      seed: int = 0,
                      window: Rect = DEFAULT_SAMPLING_WINDOW) -> OConditionReport:
    """Orientation check: sampled determinant signs plus an injectivity probe.

    O_plus when every sampled det > det_tol and no random pair of distinct
    points maps to (nearly) the same image; O_minus for uniformly negative
    determinants; inconclusive on mixed signs or a probe collision.
    """
    pts = _sample_grid(region, samples, window)
    dets = []
    for p in pts:
        try:
            dets.append(jacobian(m, p).det())
        except (SingularityError, DomainError, OverflowError, ZeroDivisionError):
            continue
    if not dets:
        return OConditionReport("inconclusive", math.nan, math.nan, 0, 0, 0,
                                "no evaluable sample points")
    det_min, det_max = min(dets), max(dets)
    if det_min > det_tol:
        candidate = "O_plus"
    elif det_max < -det_tol:
        candidate = "O_minus"
    else:
        return OConditionReport("inconclusive", det_min, det_max, len(dets), 0, 0,
                                "mixed or vanishing determinant signs")

    r = region if region.is_bounded() else region.clamped(window)
    rng = np.random.default_rng(seed)
    ax = rng.uniform(r.x_lo, r.x_hi, pairs)
    ay = rng.uniform(r.y_lo, r.y_hi, pairs)
    bx = rng.uniform(r.x_lo, r.x_hi, pairs)
    by = rng.uniform(r.y_lo, r.y_hi, pairs)
    collisions = 0
    tested = 0
    for k in range(pairs):
        if max(abs(ax[k] - bx[k]), abs(ay[k] - by[k])) < 1e-7:
            continue
        try:
            pa = m.step(float(ax[k]), float(ay[k]))
            pb = m.step(float(bx[k]), float(by[k]))
        except (SingularityError, DomainError, OverflowError, ZeroDivisionError):
            continue
        tested += 1
        if max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1])) < collision_tol:
            collisions += 1
    if collisions:
        return OConditionReport("inconclusive", det_min, det_max, len(dets),
                                tested, collisions, "injectivity probe collision")
    return OConditionReport(candidate, det_min, det_max, len(dets), tested, 0)
