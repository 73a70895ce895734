import math

import pytest
from hypothesis import given, strategies as st

from compmap import Point2, Rect, le_se, order_interval
from compmap.geometry import sup_norm

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.tuples(finite, finite).map(lambda t: Point2(*t))


def test_se_order_examples():
    assert le_se(Point2(0, 1), Point2(1, 0))
    assert le_se(Point2(0.3, -2.0), Point2(0.3, -2.0))
    assert not le_se(Point2(1, 0), Point2(0, 1))


def test_sup_norm_propagates_nan():
    assert sup_norm(-3.0, 2.0) == 3.0
    assert math.isnan(sup_norm(0.0, math.nan))
    assert math.isnan(sup_norm(math.nan, 0.0))
    assert math.isnan(Point2(0.0, math.nan).dist_inf(Point2(0.0, 0.0)))


@pytest.mark.parametrize("le", [le_se])
@given(p=points, q=points, r=points)
def test_partial_order_laws(le, p, q, r):
    assert le(p, p)
    if le(p, q) and le(q, p):
        assert p == q
    if le(p, q) and le(q, r):
        assert le(p, r)


def test_order_interval():
    r = order_interval(Point2(0, 3), Point2(2, 1))
    assert (r.x_lo, r.x_hi, r.y_lo, r.y_hi) == (0, 2, 1, 3)
    with pytest.raises(ValueError):
        order_interval(Point2(2, 1), Point2(0, 3))


def test_rect_validation_and_predicates():
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Rect(math.nan, 1, 0, 1)
    r = Rect(0, math.inf, 0, math.inf)
    assert not r.is_bounded()
    assert r.contains(Point2(3, 4))
    assert not r.contains(Point2(-1, 0))
    clamped = r.clamped(Rect(0, 50, 0, 50))
    assert clamped.is_bounded() and clamped.x_hi == 50

    w = Rect(0, 5, 0, 6)
    assert w.diagonal() == pytest.approx(math.hypot(5, 6))
    assert w.boundary_dist(Point2(1, 3)) == 1


@pytest.mark.parametrize("r", [Rect(-1e308, 1e308, 0, 4), Rect(0, 4, -1e308, 1e308)])
def test_rect_whose_width_or_height_overflows_is_unbounded(r):
    assert math.isinf(r.width()) or math.isinf(r.height())
    assert not r.is_bounded()
    assert r.clamped(Rect(0, 50, 0, 50)).is_bounded()


def test_point_helpers():
    assert Point2(3, 4).norm() == 5
    u = Point2(3, 4).unit()
    assert u.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Point2(0, 0).unit()
