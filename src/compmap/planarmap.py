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

One rule tells a raising map from a NaN it returns: at each point where
batch or batch_jac gives a NaN, _images and _jacobians ask the scalar step
or jacobian once and report what it raised. No other code asks again; each
caller decides what a raise means to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, SingularityError, check_count, check_tolerance
from .geometry import DEFAULT_SAMPLING_WINDOW, Matrix2, Point2, Rect

FD_STEP = 1e-6
GRID_SAMPLES = 100  # Jacobian samples of the competitivity and orientation checks
COMPETITIVE_TOL = 1e-9  # a Jacobian entry within this of 0 has no sign
DET_TOL = 1e-12  # a determinant within this of 0 has no sign
COLLISION_TOL = 1e-9  # images closer than this (sup norm) collide
_EVAL_ERRORS = (SingularityError, DomainError, OverflowError, ZeroDivisionError)
# The modes of side classification (curves.SideOptions), here so that the
# command line can offer them without loading curves
SIDE_MODES = ("quadrant_escape", "limit_equilibrium")


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
# Maps on arrays


def _ask(batch, scalar, n: int, X: np.ndarray, Y: np.ndarray) -> tuple:
    """(values, raised) on 1-d arrays: values is batch(X, Y), n arrays, and
    where one of them has a NaN (at every point when batch is None)
    scalar(x, y) is asked once; raised maps the index of each point at
    which it raised to what it raised, and the point's values are then NaN.
    Batch output without a NaN comes back as it is."""
    raised = {}
    out = batch(X, Y) if batch is not None else np.full((n, len(X)), math.nan)
    nan = np.isnan(out[0])
    for v in out[1:]:
        nan |= np.isnan(v)
    points = np.flatnonzero(nan).tolist()
    if not points:
        return tuple(out), raised
    out = np.array(out, dtype=float)
    for k in points:
        try:
            v = scalar(float(X[k]), float(Y[k]))
        except Exception as e:
            raised[k], v = e, math.nan
        out[:, k] = v
    return tuple(out), raised


def _images(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """m on arrays, as ((fX, fY), raised); see _ask."""
    return _ask(m.batch, m.step, 2, X, Y)


def _jacobians(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """The Jacobian entries of m on arrays, as ((a11, a12, a21, a22),
    raised); see _ask."""
    return _ask(m.batch_jac, lambda x, y: jacobian(m, Point2(x, y)), 4, X, Y)


def _failed(raised: dict, n: int) -> np.ndarray:
    """Where of n points the map failed, given what _images or _jacobians
    reports it raised: a map error (_EVAL_ERRORS) is a failed point, and
    any other exception propagates, the lowest point's first."""
    failed = np.zeros(n, dtype=bool)
    for k in sorted(raised):
        if not isinstance(raised[k], _EVAL_ERRORS):
            raise raised[k]
        failed[k] = True
    return failed


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
    and the max_iter cap. max_iter must be an int >= 1, and conv_tol finite
    and non-negative (0 turns the convergence rule off).
    """
    check_count("max_iter", max_iter)
    check_tolerance("conv_tol", conv_tol, zero=True)
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


def _sampled_region(region: Rect) -> Rect:
    """region if bounded, else a box to sample it by, axis by axis: the
    axis's part of DEFAULT_SAMPLING_WINDOW where the two meet, else its own
    interval if bounded, else one as wide as the window from its finite end."""
    if region.is_bounded():
        return region
    w = DEFAULT_SAMPLING_WINDOW
    box = []
    for lo, hi, w_lo, w_hi in ((region.x_lo, region.x_hi, w.x_lo, w.x_hi),
                               (region.y_lo, region.y_hi, w.y_lo, w.y_hi)):
        a, b = max(lo, w_lo), min(hi, w_hi)
        if a > b:  # the axis misses the window
            a = lo if math.isfinite(lo) else hi - (w_hi - w_lo)
            b = hi if math.isfinite(hi) else a + (w_hi - w_lo)
        box += (a, b)
    return Rect(*box)


def _sample_grid(region: Rect, samples: int) -> tuple:
    """Quasi-uniform interior grid over _sampled_region(region), as arrays
    X, Y of the cell centres, x-major."""
    r = _sampled_region(region)
    k = max(1, math.isqrt(samples))
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
    not a symbolic proof. samples must be an int >= 1.
    """
    check_count("samples", samples)
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


def _order_licensed(m: PlanarMap, window: Rect, points: int) -> bool:
    """The sampled licence for reading verdicts from the southeast order (in
    rasters and in curve traces): check_competitive passes (weak sign
    pattern) on the window and on m's domain, and the images of
    min(GRID_SAMPLES, points) sample points of the window are finite and lie
    in the domain (a call that classifies few points cannot repay more
    images than it has points)."""
    if not (check_competitive(m, window).competitive
            and check_competitive(m, m.domain).competitive):
        return False
    d = m.domain
    with np.errstate(all="ignore"):
        (X, Y), raised = _images(m, *_sample_grid(window, min(GRID_SAMPLES, points)))
    _failed(raised, len(X))  # a map error leaves NaN, which fails the licence
    return bool(np.all((d.x_lo <= X) & (X <= d.x_hi) & (d.y_lo <= Y) & (Y <= d.y_hi)))


def _sampled_jacobians(m: PlanarMap, X: np.ndarray, Y: np.ndarray) -> tuple:
    """The Jacobian entries of m at the samples, as rows of a 4 x n array,
    and where jacobian evaluates (see _failed)."""
    with np.errstate(all="ignore"):
        J, raised = _jacobians(m, X, Y)
    return np.array(J, dtype=float), ~_failed(raised, len(X))


@dataclass(frozen=True)
class OConditionReport:
    verdict: str  # 'O_plus' | 'O_minus' | 'inconclusive'
    det_min: float
    det_max: float
    samples: int
    injectivity_pairs: int
    collisions: int
    note: str = ""


def check_O_condition(m: PlanarMap, region: Rect, pairs: int = 10_000,
                      seed: int = 0) -> OConditionReport:
    """Orientation check: sampled determinant signs plus an injectivity probe.

    O_plus when every sampled det > DET_TOL and no random pair of distinct
    points maps to images within COLLISION_TOL; O_minus for uniformly
    negative determinants; inconclusive on mixed signs or a probe collision.
    The probe maps all pairs with two _images calls and drops the pairs
    with a failed image (see _failed), so the counts equal a per-pair step
    loop's. pairs must be an int >= 1, and seed an int >= 0.
    """
    check_count("pairs", pairs)
    check_count("seed", seed, 0)
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

    r = _sampled_region(region)
    rng = np.random.default_rng(seed)
    ax = rng.uniform(r.x_lo, r.x_hi, pairs)
    ay = rng.uniform(r.y_lo, r.y_hi, pairs)
    bx = rng.uniform(r.x_lo, r.x_hi, pairs)
    by = rng.uniform(r.y_lo, r.y_hi, pairs)
    with np.errstate(all="ignore"):
        (pax, pay), raised_a = _images(m, ax, ay)
        (pbx, pby), raised_b = _images(m, bx, by)
        dx, dy = np.abs(pax - pbx), np.abs(pay - pby)
        near = np.where(dy > dx, dy, dx) < COLLISION_TOL  # Python's max(dx, dy) on NaN
    kept = (np.maximum(np.abs(ax - bx), np.abs(ay - by)) >= 1e-7) \
        & ~_failed(raised_a, pairs) & ~_failed(raised_b, pairs)
    tested = int(np.count_nonzero(kept))
    collisions = int(np.count_nonzero(kept & near))
    if collisions:
        return OConditionReport("inconclusive", det_min, det_max, len(dets),
                                tested, collisions, "injectivity probe collision")
    return OConditionReport(candidate, det_min, det_max, len(dets), tested, 0)
