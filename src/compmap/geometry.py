"""Points, rectangles, 2x2 matrices, and the southeast partial order.

The southeast order is the one competitive planar maps preserve:
(x1, y1) <=_se (x2, y2)  iff  x1 <= x2 and y1 >= y2.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
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


def record_class(cls):
    """Make cls a frozen dataclass without generating code for it.

    @dataclass(frozen=True) compiles six methods per class with exec, which
    costs 0.6-0.8 ms a class; a CLI process imports 25 records, so it paid
    for that on every start. record_class installs shared functions over
    the fields with the frozen dataclass's behaviour: __init__ (positional
    or keyword arguments, default and default_factory, then __post_init__),
    the dataclass __repr__, __eq__ and __hash__ over the field tuple, and a
    __setattr__ and __delattr__ that raise FrozenInstanceError. A method the
    class body defines is kept. dataclass(init=False, repr=False, eq=False)
    then records the fields, so fields, replace and is_dataclass work.

    The functions go in before dataclass() runs, whose __doc__ for a class
    without a docstring would otherwise compile tokenize's regex (through
    inspect.signature of object.__init__). __init__ writes each field with
    object.__setattr__: touching self.__dict__ would make the instance's
    dict and slow every later attribute read on it.
    """
    setattr_ = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if kwargs or len(args) < n:
            for name in names[len(args):]:
                if name in kwargs:
                    value = kwargs.pop(name)
                elif name in defaults:
                    value = defaults[name]
                elif name in factories:
                    value = factories[name]()
                else:
                    raise TypeError(f"{cls.__qualname__}() missing required "
                                    f"argument: {name!r}")
                setattr_(self, name, value)
            for name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument "
                                f"{name!r}" if name in names else
                                f"{cls.__qualname__}() got an unexpected keyword "
                                f"argument {name!r}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in shown) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if fn.__name__ not in cls.__dict__:
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
    dataclass(init=False, repr=False, eq=False)(cls)
    # the closures above read these names, bound once dataclass() has
    # collected the fields
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    n = len(names)
    defaults = {f.name: f.default for f in fs if f.default is not MISSING}
    factories = {f.name: f.default_factory for f in fs if f.default_factory is not MISSING}
    post_init = hasattr(cls, "__post_init__")
    shown = tuple(f.name for f in fs if f.repr)
    compared = _tuple_getter(tuple(f.name for f in fs if f.compare))
    hashed = _tuple_getter(tuple(f.name for f in fs
                                 if (f.compare if f.hash is None else f.hash)))
    return cls


def _tuple_getter(names: tuple):
    """obj -> the tuple of its attributes `names` (attrgetter would give a
    bare value for one name)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


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


@record_class
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
