"""Planar map abstraction: evaluation, Jacobians, orbits, competitivity checks.

A PlanarMap is a pair (f, g) on a rectangular domain. The step callable takes
raw floats (x, y) and returns (f(x,y), g(x,y)); it raises SingularityError
when a denominator vanishes within tolerance (expr.DIV_TOL for the built-in
and expression maps). The optional batch callable is the same map on numpy
arrays: it returns a pair of arrays of the input shape, bit-identical to step
elementwise, with NaN (in at least one component) wherever step would raise.
The optional batch_jac is jac on arrays in the same way: the four entries
(a11, a12, a21, a22) as arrays, NaN in at least one of them wherever jac
would raise. Callers of batch and batch_jac enter np.errstate. Maps are
immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, SingularityError
from .geometry import DEFAULT_SAMPLING_WINDOW, Matrix2, Point2, Rect

FD_STEP = 1e-6
GRID_SAMPLES = 100  # Jacobian samples of the competitivity and orientation checks
COMPETITIVE_TOL = 1e-9  # a Jacobian entry within this of 0 has no sign
DET_TOL = 1e-12  # a determinant within this of 0 has no sign
COLLISION_TOL = 1e-9  # images closer than this (sup norm) collide
_EVAL_ERRORS = (SingularityError, DomainError, OverflowError, ZeroDivisionError)


@dataclass(frozen=True)
class PlanarMap:
    name: str
    step: Callable[[float, float], tuple]
    domain: Rect
    jac: Optional[Callable[[float, float], Matrix2]] = None
    params: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)
    batch: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None
    batch_jac: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

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


def fd_jacobian(m: PlanarMap, p: Point2) -> Matrix2:
    """Central finite-difference Jacobian with per-coordinate scaled steps."""
    x, y = p
    hx = FD_STEP * max(1.0, abs(x))
    hy = FD_STEP * max(1.0, abs(y))
    fxp = m.step(x + hx, y)
    fxm = m.step(x - hx, y)
    fyp = m.step(x, y + hy)
    fym = m.step(x, y - hy)
    return Matrix2((fxp[0] - fxm[0]) / (2 * hx), (fyp[0] - fym[0]) / (2 * hy),
                   (fxp[1] - fxm[1]) / (2 * hx), (fyp[1] - fym[1]) / (2 * hy))


def jacobian(m: PlanarMap, p: Point2) -> Matrix2:
    """Exact Jacobian when the map carries one, else central differences."""
    if m.jac is not None:
        return m.jac(p[0], p[1])
    return fd_jacobian(m, p)


# ---------------------------------------------------------------------------
# Orbits


@dataclass(frozen=True)
class Orbit:
    points: tuple
    terminated_by: str  # 'max_iter' | 'escape' | 'convergence' | 'singularity'


def orbit(m: PlanarMap, p: Point2, max_iter: int,
          conv_tol: float = 1e-12) -> Orbit:
    """Iterate from p until a stopping rule fires.

    Rules, checked in order each step: singularity during evaluation,
    escape from the domain rectangle, convergence (sup-norm step < conv_tol)
    and the max_iter cap. max_iter must be at least 1, and conv_tol finite
    and non-negative (0 turns the convergence rule off).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 <= conv_tol < math.inf:
        raise ValueError(f"conv_tol must be finite and >= 0, got {conv_tol}")
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
        if max(abs(xn - x), abs(yn - y)) < conv_tol:
            return Orbit(tuple(pts), "convergence")
        x, y = xn, yn
    return Orbit(tuple(pts), "max_iter")


# ---------------------------------------------------------------------------
# Competitiveness / orientation checks


def _sample_grid(region: Rect, samples: int) -> tuple:
    """Quasi-uniform interior grid over region (clamped to
    DEFAULT_SAMPLING_WINDOW if unbounded), as arrays X, Y of the cell
    centres, x-major."""
    r = region if region.is_bounded() else region.clamped(DEFAULT_SAMPLING_WINDOW)
    k = max(1, math.isqrt(max(1, samples)))
    xs = r.x_lo + (np.arange(k) + 0.5) * r.width() / k
    ys = r.y_lo + (np.arange(k) + 0.5) * r.height() / k
    return np.repeat(xs, k), np.tile(ys, k)


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


def check_competitive(m: PlanarMap, region: Rect,
                      samples: int = GRID_SAMPLES) -> CompetitivityReport:
    """Sample the Jacobian sign pattern (+, -; -, +) over a grid.

    competitive allows zeros on the off-diagonal; strongly requires all four
    strict, each by more than COMPETITIVE_TOL. This is a sampled certificate,
    not a symbolic proof.
    """
    tol = COMPETITIVE_TOL
    X, Y = _sample_grid(region, samples)
    J, ok = _sampled_jacobians(m, X, Y)
    a11, a12, a21, a22 = J[:, ok]
    weak = (a11 >= -tol) & (a12 <= tol) & (a21 <= tol) & (a22 >= -tol)
    strong = (a11 > tol) & (a12 < -tol) & (a21 < -tol) & (a22 > tol)
    competitive = bool(weak.all())
    witness = None
    if not competitive:  # the first sample, in grid order, off the weak pattern
        i = int(np.flatnonzero(ok)[np.argmin(weak)])
        witness = (Point2(float(X[i]), float(Y[i])), Matrix2(*J[:, i].tolist()))
    return CompetitivityReport(competitive=competitive,
                               strongly=competitive and bool(strong.all()),
                               samples=int(np.count_nonzero(ok)),
                               failures=int(np.count_nonzero(~ok)), witness=witness)


def _sampled_jacobians(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """The Jacobian entries of m at the samples, as rows of a 4 x n array,
    and where jacobian evaluates; a NaN entry may come from a raising
    jacobian or from one that returns it, and the scalar jacobian tells
    which."""
    with np.errstate(all="ignore"):
        J = np.array(_jacobians(m, X, Y), dtype=float)
    ok = np.ones(len(X), dtype=bool)
    for k in np.flatnonzero(np.isnan(J).any(axis=0)).tolist():
        try:
            J[:, k] = jacobian(m, Point2(float(X[k]), float(Y[k])))
        except _EVAL_ERRORS:
            ok[k] = False
    return J, ok


@dataclass(frozen=True)
class OConditionReport:
    verdict: str  # 'O_plus' | 'O_minus' | 'inconclusive'
    det_min: float
    det_max: float
    samples: int
    injectivity_pairs: int
    collisions: int
    note: str = ""


def _images(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """m on arrays: its batch step, or step per point with NaN where it raises."""
    if m.batch is not None:
        return m.batch(X, Y)
    out = np.full((2, len(X)), math.nan)
    for k, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
        try:
            out[:, k] = m.step(x, y)
        except _EVAL_ERRORS:
            pass
    return out[0], out[1]


def _jacobians(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """The Jacobian entries (a11, a12, a21, a22) of m on arrays: its
    batch_jac, or jacobian per point with NaN where it raises."""
    if m.batch_jac is not None:
        return m.batch_jac(X, Y)
    out = np.full((4, len(X)), math.nan)
    for k, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
        try:
            out[:, k] = jacobian(m, Point2(x, y))
        except _EVAL_ERRORS:
            pass
    return tuple(out)


def check_O_condition(m: PlanarMap, region: Rect, pairs: int = 10_000,
                      seed: int = 0) -> OConditionReport:
    """Orientation check: sampled determinant signs plus an injectivity probe.

    O_plus when every sampled det > DET_TOL and no random pair of distinct
    points maps to images within COLLISION_TOL; O_minus for uniformly
    negative determinants; inconclusive on mixed signs or a probe collision.
    The probe maps all pairs with two batch calls; pairs with a non-finite
    image are re-run through step, so the counts equal a per-pair step loop's.
    """
    J, ok = _sampled_jacobians(m, *_sample_grid(region, GRID_SAMPLES))
    a11, a12, a21, a22 = J[:, ok]
    with np.errstate(all="ignore"):
        dets = (a11 * a22 - a12 * a21).tolist()
    if not dets:
        return OConditionReport("inconclusive", math.nan, math.nan, 0, 0, 0,
                                "no evaluable sample points")
    det_min, det_max = min(dets), max(dets)
    if det_min > DET_TOL:
        candidate = "O_plus"
    elif det_max < -DET_TOL:
        candidate = "O_minus"
    else:
        return OConditionReport("inconclusive", det_min, det_max, len(dets), 0, 0,
                                "mixed or vanishing determinant signs")

    r = region if region.is_bounded() else region.clamped(DEFAULT_SAMPLING_WINDOW)
    rng = np.random.default_rng(seed)
    ax = rng.uniform(r.x_lo, r.x_hi, pairs)
    ay = rng.uniform(r.y_lo, r.y_hi, pairs)
    bx = rng.uniform(r.x_lo, r.x_hi, pairs)
    by = rng.uniform(r.y_lo, r.y_hi, pairs)
    with np.errstate(all="ignore"):
        pa = _images(m, ax, ay)
        pb = _images(m, bx, by)
        distinct = np.maximum(np.abs(ax - bx), np.abs(ay - by)) >= 1e-7
        finite = np.isfinite(pa[0]) & np.isfinite(pa[1]) & np.isfinite(pb[0]) \
            & np.isfinite(pb[1])
        near = np.maximum(np.abs(pa[0] - pb[0]), np.abs(pa[1] - pb[1])) < COLLISION_TOL
    tested = int(np.count_nonzero(distinct & finite))
    collisions = int(np.count_nonzero(distinct & finite & near))
    # a non-finite image may come from a raising step or from a step that
    # returns it; the scalar step tells which
    for k in np.flatnonzero(distinct & ~finite).tolist():
        try:
            qa = m.step(float(ax[k]), float(ay[k]))
            qb = m.step(float(bx[k]), float(by[k]))
        except _EVAL_ERRORS:
            continue
        tested += 1
        if max(abs(qa[0] - qb[0]), abs(qa[1] - qb[1])) < COLLISION_TOL:
            collisions += 1
    if collisions:
        return OConditionReport("inconclusive", det_min, det_max, len(dets),
                                tested, collisions, "injectivity probe collision")
    return OConditionReport(candidate, det_min, det_max, len(dets), tested, 0)
