"""Points, rectangles, 2x2 matrices, and the southeast partial order.

The southeast order is the one competitive planar maps preserve:
(x1, y1) <=_se (x2, y2)  iff  x1 <= x2 and y1 >= y2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class Point2(NamedTuple):
    x: float
    y: float

    def dist_inf(self, other: "Point2") -> float:
        return sup_norm(self.x - other.x, self.y - other.y)

    def dist2(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def unit(self) -> "Point2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Point2(self.x / n, self.y / n)


def sup_norm(dx: float, dy: float) -> float:
    """max(|dx|, |dy|), NaN when either is NaN.

    The builtin max drops a NaN in second place (max(0, nan) is 0), so a
    residual (0, nan) would otherwise read as small.
    """
    if math.isnan(dx) or math.isnan(dy):
        return math.nan
    return max(abs(dx), abs(dy))


class Matrix2(NamedTuple):
    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22

    def mul(self, v: Point2) -> Point2:
        return Point2(self.a11 * v.x + self.a12 * v.y,
                      self.a21 * v.x + self.a22 * v.y)

    def norm_inf(self) -> float:
        return max(abs(self.a11) + abs(self.a12), abs(self.a21) + abs(self.a22))


@dataclass(frozen=True)
class Rect:
    """Cartesian product of two intervals; +-inf allowed at outer ends."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if math.isnan(self.x_lo) or math.isnan(self.x_hi) \
                or math.isnan(self.y_lo) or math.isnan(self.y_hi):
            raise ValueError("rectangle bounds must not be NaN")
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"empty rectangle: {self}")

    def contains(self, p: Point2) -> bool:
        return self.x_lo <= p.x <= self.x_hi and self.y_lo <= p.y <= self.y_hi

    def is_bounded(self) -> bool:
        """Finite sides, and a width and height that do not overflow."""
        return all(math.isfinite(v) for v in (self.x_lo, self.x_hi, self.y_lo,
                                              self.y_hi, self.width(), self.height()))

    def width(self) -> float:
        return self.x_hi - self.x_lo

    def height(self) -> float:
        return self.y_hi - self.y_lo

    def diagonal(self) -> float:
        return math.hypot(self.width(), self.height())

    def clamped(self, window: "Rect") -> "Rect":
        """Intersection with a bounded window; used to sample unbounded domains."""
        r = Rect(max(self.x_lo, window.x_lo), min(self.x_hi, window.x_hi),
                 max(self.y_lo, window.y_lo), min(self.y_hi, window.y_hi))
        return r

    def boundary_dist(self, p: Point2) -> float:
        """Distance from p to the nearest finite side (inf if all sides are infinite)."""
        d = math.inf
        for side in (p.x - self.x_lo, self.x_hi - p.x, p.y - self.y_lo, self.y_hi - p.y):
            if math.isfinite(side):
                d = min(d, abs(side))
        return d


def le_se(p: Point2, q: Point2) -> bool:
    """Southeast order: p <=_se q iff p.x <= q.x and p.y >= q.y."""
    return p[0] <= q[0] and p[1] >= q[1]


def order_interval(a: Point2, b: Point2) -> Rect:
    """The order interval [[a, b]] for a <=_se b, as a rectangle."""
    if not le_se(a, b):
        raise ValueError("order_interval requires a <=_se b")
    return Rect(a[0], b[0], b[1], a[1])


DEFAULT_SAMPLING_WINDOW = Rect(0.0, 50.0, 0.0, 50.0)
