import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (DegenerateRootError, Matrix2, NoConvergenceError, Point2,
                     Rect, check_boundary_endpoint_conditions,
                     check_invariant_curve_hypotheses, eigen2x2,
                     find_fixed_point, find_period_two, jacobian, make_example)
from compmap.fixedpoints import DELTA_CLAMP
from compmap.planarmap import PlanarMap

from helpers import direction_close


def test_eigen2x2_diagonal():
    e = eigen2x2(Matrix2(2, 0, 0, 3))
    assert (e.lam, e.mu) == (2.0, 3.0)
    assert e.v_lam == Point2(1.0, 0.0)
    assert e.v_mu == Point2(0.0, 1.0)


def test_eigen2x2_ex1_closed_form(ex1):
    e = eigen2x2(jacobian(ex1.map, Point2(0.0, 1.0)))
    assert e.lam == pytest.approx(1 / 3, rel=1e-12)
    assert e.mu == pytest.approx(1.0, rel=1e-12)
    assert direction_close(e.v_lam, Point2(2.0, 3.0), 1e-12)


def test_eigen2x2_complex_and_repeated():
    e = eigen2x2(Matrix2(0, -1, 1, 0))
    assert not e.real_distinct and e.complex_pair
    assert e.v_lam is None and e.v_mu is None

    e = eigen2x2(Matrix2(2, 0, 0, 2))
    assert not e.real_distinct and not e.complex_pair
    assert e.lam == e.mu == 2.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_find_fixed_point_rejects_invalid_tolerance(ex1, tol):
    with pytest.raises(ValueError, match="tol"):
        find_fixed_point(ex1.map, Point2(1e-9, 1.0), tol=tol)


entries = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=120, deadline=None)
@given(a=entries, b=entries, c=entries, d=entries)
def test_eigen_residual(a, b, c, d):
    m = Matrix2(a, b, c, d)
    e = eigen2x2(m)
    if not e.real_distinct:
        return
    for val, vec in ((e.lam, e.v_lam), (e.mu, e.v_mu)):
        r = m.mul(vec)
        assert max(abs(r.x - val * vec.x), abs(r.y - val * vec.y)) < 1e-8


def test_find_fixed_point_ex3(ex3_t):
    rec = find_fixed_point(ex3_t.map, Point2(1.8, 2.2))
    assert rec.location == pytest.approx((2.0, 2.0), abs=1e-9)
    assert rec.kind == "fixed" and rec.partner is None
    assert rec.residual < 1e-10


def test_find_fixed_point_ex2_lands_on_segment(ex2):
    rec = find_fixed_point(ex2.map, Point2(0.4, 1.1))
    x, y = rec.location
    assert abs(2 * x + y - 2) < 1e-8  # the equilibrium segment, t eliminated
    fx, fy = ex2.map.step(x, y)
    assert max(abs(fx - x), abs(fy - y)) < 1e-10


def test_find_fixed_point_perturbed_identity():
    m = PlanarMap(name="toy", step=lambda x, y: (0.5 * x + y * y, 0.3 * y + x * x),
                  domain=Rect(-1, 1, -1, 1))
    rec = find_fixed_point(m, Point2(0.2, 0.1))
    assert rec.location == pytest.approx((0.0, 0.0), abs=1e-10)
    assert rec.classification == "attractor"


def test_find_period_two_ex3(ex3_t):
    rec = find_period_two(ex3_t.map, Point2(3.1, 1.4))
    x, y = rec.location
    assert abs(x + y - x * y) < 1e-9  # the period-two hyperbola
    assert rec.location == pytest.approx((3.0, 1.5), abs=0.3)
    assert rec.partner == pytest.approx(ex3_t.map.step(x, y))
    gx, gy = ex3_t.map.step(*rec.partner)
    assert max(abs(gx - x), abs(gy - y)) < 1e-9
    assert rec.kind == "period_two"


def test_find_period_two_rejects_fixed_point(ex3_t):
    with pytest.raises(DegenerateRootError):
        find_period_two(ex3_t.map, Point2(2.05, 2.05))


def test_ex1_has_no_period_two(ex1):
    for guess in (Point2(1, 1), Point2(0.5, 2.0), Point2(2.0, 0.3)):
        with pytest.raises(NoConvergenceError):
            # DegenerateRootError subclasses NoConvergenceError
            find_period_two(ex1.map, guess)


@pytest.mark.parametrize("eid,box", [
    ("ex1", (0.3, 4.0)), ("ex2", (0.3, 3.0)), ("ex5", (0.3, 3.0)),
])
def test_perron_structure_at_interior_points(eid, box):
    # strongly competitive Jacobians: mu > 0, v_mu mixed signs, v_lam same signs
    m = make_example(eid).map
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = Point2(rng.uniform(*box), rng.uniform(*box))
        e = eigen2x2(jacobian(m, p))
        assert e.real_distinct
        assert e.mu > 0
        assert abs(e.lam) < e.mu
        assert e.v_mu.x * e.v_mu.y < 0
        assert e.v_lam.x * e.v_lam.y > 0


def test_ex2_segment_eigenvalues(ex2):
    b1, b2 = ex2.params["b1"], ex2.params["b2"]
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = ex2.continuum.point(t)
        e = eigen2x2(jacobian(ex2.map, p))
        want = (1 - t) / b1 + t / b2
        assert abs(e.lam - want) < 1e-8
        assert abs(e.mu - 1.0) < 1e-8


def test_curve_hypotheses_pass_at_interior_axis_point(ex1):
    rec = find_fixed_point(ex1.map, Point2(1e-12, 1.0))
    rep = check_invariant_curve_hypotheses(ex1.map, rec, Rect(0, 5, 0, 6))
    assert rep.all_pass, rep.failed


def test_curve_hypotheses_clamp_an_unbounded_region(ex1):
    # the Q1 part of the quadrant region is unbounded: it is checked on the
    # box DELTA_CLAMP wide from the fixed point, as the bounded region is
    rec = find_fixed_point(ex1.map, Point2(1e-12, 1.0))
    x0, y0 = rec.location
    rep = check_invariant_curve_hypotheses(ex1.map, rec, Rect(0, math.inf, 0, math.inf))
    assert rep.all_pass, rep.failed
    assert rep == check_invariant_curve_hypotheses(
        ex1.map, rec, Rect(0, x0 + DELTA_CLAMP, 0, y0 + DELTA_CLAMP))


def test_curve_hypotheses_drop_a_part_beyond_the_clamp(ex1):
    # the region is unbounded and has area, but none of it lies within
    # DELTA_CLAMP of the fixed point: delta is empty, nothing is sampled
    rec = find_fixed_point(ex1.map, Point2(1e-12, 1.0))
    x0, y0 = rec.location
    far = x0 + DELTA_CLAMP + 5
    for region in (Rect(far, math.inf, 0, math.inf), Rect(-math.inf, -far, -math.inf, 0)):
        rep = check_invariant_curve_hypotheses(ex1.map, rec, region)
        assert not rep.delta_nonempty and not rep.strongly_competitive and rep.samples == 0
        assert check_boundary_endpoint_conditions(ex1.map, rec, region).starts == 0


def test_curve_hypotheses_refuse_a_region_without_area(ex1):
    rec = find_fixed_point(ex1.map, Point2(1e-12, 1.0))
    for region in (Rect(0, 5, 3, 3), Rect(0, 0, 0, 6), Rect(0, 5, math.inf, math.inf)):
        with pytest.raises(ValueError, match="positive width and height"):
            check_invariant_curve_hypotheses(ex1.map, rec, region)


def test_curve_hypotheses_fail_at_origin(ex1):
    rec = find_fixed_point(ex1.map, Point2(1e-12, 1e-12))
    rep = check_invariant_curve_hypotheses(ex1.map, rec, Rect(0, 5, 0, 6))
    assert not rep.all_pass
    assert "eigenvector_off_axis" in rep.failed


def test_curve_hypotheses_fail_for_complex_pair():
    rot = PlanarMap(name="spiral", step=lambda x, y: (0.5 * x - 0.5 * y,
                                                      0.5 * x + 0.5 * y),
                    domain=Rect(-2, 2, -2, 2))
    rec = find_fixed_point(rot, Point2(0.3, 0.2))
    rep = check_invariant_curve_hypotheses(rot, rec, Rect(-1, 1, -1, 1))
    assert not rep.eigen_ok and not rep.all_pass


def test_record_residual_invariant(ex1, ex3_t):
    # re-evaluate the defining equation at every returned root
    cases = [(ex1.map, find_fixed_point(ex1.map, Point2(0.2, 0.7))),
             (ex3_t.map, find_fixed_point(ex3_t.map, Point2(1.9, 2.1))),
             (ex3_t.map, find_period_two(ex3_t.map, Point2(4.2, 1.3)))]
    for m, rec in cases:
        x, y = rec.location
        fx, fy = m.step(x, y)
        if rec.kind == "period_two":
            fx, fy = m.step(fx, fy)
        assert max(abs(fx - x), abs(fy - y)) < 1e-10
        assert rec.residual < 1e-10


def _rotation(r, degrees):
    c = r * math.cos(math.radians(degrees))
    s = r * math.sin(math.radians(degrees))
    return Matrix2(c, -s, s, c)


def test_period_two_classified_from_second_iterate():
    # T swaps p = (1, 0) and q = (-1, 0), affine near each: DT(p) = 0.5 R(60),
    # DT(q) = 2 R(30), so DT^2(p) = R(90) with eigenvalues +-i, |lambda| = 1,
    # while det DT(p) alone would give modulus 0.5
    A, B = _rotation(0.5, 60.0), _rotation(2.0, 30.0)

    def step(x, y):
        if x > 0:
            u = A.mul(Point2(x - 1.0, y))
            return -1.0 + u.x, u.y
        u = B.mul(Point2(x + 1.0, y))
        return 1.0 + u.x, u.y

    m = PlanarMap(name="swap", step=step, domain=Rect(-3, 3, -3, 3),
                  jac=lambda x, y: A if x > 0 else B)
    rec = find_period_two(m, Point2(1.05, 0.03))
    assert rec.location == pytest.approx((1.0, 0.0), abs=1e-12)
    assert rec.partner == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert rec.eigen.complex_pair
    assert rec.classification == "nonhyperbolic"
