import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from compmap import (DomainError, Matrix2, Point2, Rect, SingularityError,
                     check_competitive, check_O_condition, eigen2x2, evaluate,
                     fd_jacobian, jacobian, expr_map, make_example, orbit)
from compmap.planarmap import PlanarMap

from helpers import eventually_componentwise_monotone


def _ident():
    return PlanarMap(name="identity", step=lambda x, y: (x, y),
                     domain=Rect(-10, 10, -10, 10))


def test_evaluate_examples(ex1, ex3_t):
    assert evaluate(ex1.map, Point2(1, 1)) == pytest.approx((1 / 3, 0.5))
    assert evaluate(ex3_t.map, Point2(2, 2)) == (2.0, 2.0)
    fx = ex1.fixtures[1].point
    assert evaluate(ex1.map, fx) == pytest.approx(tuple(fx), abs=1e-15)


def test_evaluate_errors(ex1, ex3_t):
    with pytest.raises(DomainError):
        evaluate(ex1.map, Point2(-1.0, 0.5))
    with pytest.raises(SingularityError):
        ex3_t.map.step(1.0, 0.0)  # y = 0 pole


def test_jacobian_examples(ex1, ex3_t2):
    assert jacobian(ex3_t2.map, Point2(3, 1.5)).det() == pytest.approx(1 / 4.5)
    j = fd_jacobian(_ident(), Point2(0.3, -0.7))
    assert np.allclose(j, Matrix2(1, 0, 0, 1), atol=1e-9)
    e = eigen2x2(jacobian(ex1.map, Point2(0.0, 1.0)))
    assert sorted((e.lam, e.mu)) == pytest.approx([1 / 3, 1.0])


@pytest.mark.parametrize("eid,box", [
    ("ex1", Rect(0.2, 5.0, 0.2, 5.0)),
    ("ex2", Rect(0.2, 5.0, 0.2, 5.0)),
    ("ex3_T", Rect(1.0, 6.0, 1.2, 6.0)),
    ("ex3_T2", Rect(1.0, 6.0, 1.2, 6.0)),
    ("ex4", Rect(0.5, 6.0, 0.2, 4.0)),
    ("ex5", Rect(0.2, 5.0, 0.2, 5.0)),
])
def test_exact_vs_fd_jacobian(eid, box):
    # 50 random interior points per system, 1e-6 relative agreement
    m = make_example(eid).map
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = Point2(rng.uniform(box.x_lo, box.x_hi), rng.uniform(box.y_lo, box.y_hi))
        exact = np.array(jacobian(m, p))
        fd = np.array(fd_jacobian(m, p))
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - fd).max() <= 1e-6 * scale


def test_orbit_fixed_point_start(ex1):
    orb = orbit(ex1.map, Point2(0.0, 1.0), max_iter=50)
    assert orb.terminated_by == "convergence"
    assert all(p == orb.points[0] for p in orb.points)


def test_orbit_converges_to_axis_equilibrium(ex1):
    orb = orbit(ex1.map, Point2(1, 1), max_iter=10_000, conv_tol=1e-12)
    assert orb.terminated_by == "convergence"
    last = orb.points[-1]
    assert last.x < 1e-9 and last.y >= 0.0


def test_orbit_unbounded_second_coordinate(ex4):
    # inflow-free side of the separatrix: y exceeds any bound (checked at 1e3)
    orb = orbit(ex4.map, Point2(1.0, 2.0), max_iter=500)
    assert max(p.y for p in orb.points) > 1e3


def test_orbit_consecutive_points_are_images(ex1):
    orb = orbit(ex1.map, Point2(1.0, 0.5), max_iter=20, conv_tol=0.0)
    for p, q in zip(orb.points, orb.points[1:]):
        assert ex1.map.step(p.x, p.y) == tuple(q)


@pytest.mark.parametrize("max_iter, conv_tol", [
    (0, 1e-12), (-3, 1e-12), (10, math.nan), (10, -1.0), (10, math.inf)])
def test_orbit_rejects_invalid_length_and_tolerance(ex1, max_iter, conv_tol):
    with pytest.raises(ValueError):
        orbit(ex1.map, Point2(1.0, 0.5), max_iter=max_iter, conv_tol=conv_tol)


def test_check_competitive(ex1):
    rep = check_competitive(ex1.map, Rect(0, 5, 0, 5), samples=100)
    assert rep.competitive and rep.strongly

    rep = check_competitive(_ident(), Rect(-1, 1, -1, 1))
    assert rep.competitive and not rep.strongly

    shear = PlanarMap(name="shear", step=lambda x, y: (x + y, y),
                      domain=Rect(-10, 10, -10, 10))
    rep = check_competitive(shear, Rect(0, 1, 0, 1))
    assert not rep.competitive
    assert rep.witness is not None


def test_check_competitive_clamps_a_window_whose_width_overflows(ex4):
    # the window counts as unbounded, so the sampling window clamps it
    rep = check_competitive(ex4.map, Rect(-1e308, 1e308, 0, 4))
    assert rep == check_competitive(ex4.map, Rect(0, 50, 0, 4))
    assert rep.witness is None or math.isfinite(rep.witness[0].x)


def test_strongly_competitive_preserves_se_order(ex1, ex2):
    # images of comparable distinct points stay comparable and differ in
    # both coordinates
    rng = np.random.default_rng(29)
    for sys_ in (ex1, ex2):
        assert check_competitive(sys_.map, Rect(0.05, 4, 0.05, 4)).strongly
        for _ in range(40):
            px, qx = np.sort(rng.uniform(0.05, 4.0, 2))
            qy, py = np.sort(rng.uniform(0.05, 4.0, 2))
            if px == qx or py == qy:
                continue
            p, q = Point2(px, py), Point2(qx, qy)  # p strictly se-below q
            fp = Point2(*sys_.map.step(*p))
            fq = Point2(*sys_.map.step(*q))
            assert fp.x < fq.x and fp.y > fq.y


def test_check_O_condition(ex1, ex3_t2):
    assert check_O_condition(ex1.map, Rect(0, 5, 0, 5)).verdict == "O_plus"
    assert check_O_condition(ex3_t2.map, Rect(0.5, 10, 0.5, 10)).verdict == "O_plus"
    swap = PlanarMap(name="swap", step=lambda x, y: (y, x), domain=Rect(0, 1, 0, 1))
    assert check_O_condition(swap, Rect(0, 1, 0, 1)).verdict == "O_minus"


def test_O_condition_steps_plain_floats():
    # x^50 overflows on this window; numpy scalars would warn about it
    m = expr_map("*".join(["x"] * 50), "y/2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_O_condition(m, Rect(0.0, 1e8, 0.0, 10.0))


def test_O_condition_inconclusive_on_collision():
    collapse = PlanarMap(name="collapse", step=lambda x, y: (x, 0.5),
                         domain=Rect(0, 1, 0, 1))
    rep = check_O_condition(collapse, Rect(0, 1, 0, 1))
    assert rep.verdict == "inconclusive"


def test_O_condition_inconclusive_on_injectivity_collision():
    # the identity, except that a strip between the Jacobian samples
    # (x = 0.05, 0.15, ...) collapses to one point
    def step(x, y):
        return (0.1, 0.5) if 0.06 < x < 0.14 else (x, y)

    m = PlanarMap(name="strip", step=step, domain=Rect(0, 1, 0, 1))
    rep = check_O_condition(m, Rect(0, 1, 0, 1))
    assert rep.det_min > 0
    assert rep.verdict == "inconclusive"
    assert rep.note == "injectivity probe collision" and rep.collisions > 0


@pytest.mark.parametrize("dsl", [False, True])
def test_O_probe_is_two_batch_calls(ex1, dsl):
    m = expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0}) if dsl else ex1.map
    calls = {"step": 0, "batch": 0}

    def step(x, y):
        calls["step"] += 1
        return m.step(x, y)

    def batch(X, Y):
        calls["batch"] += 1
        return m.batch(X, Y)

    region = Rect(0, 5, 0, 5)
    rep = check_O_condition(replace(m, step=step, batch=batch), region)
    assert calls == {"step": 0, "batch": 2}
    assert rep.verdict == "O_plus" and rep.injectivity_pairs > 9900
    assert rep == check_O_condition(replace(m, batch=None), region)


@pytest.mark.parametrize("with_batch", [False, True])
def test_O_probe_counts_pairs_like_the_scalar_loop(with_batch):
    # raises in one corner, returns NaN without raising along the left edge
    def step(x, y):
        if x > 0.8 and y > 0.8:
            raise SingularityError("corner")
        return (math.nan if x < 0.1 else 0.5 * x + 0.1 * y), 0.1 * x + 0.5 * y

    def batch(X, Y):
        corner = (X > 0.8) & (Y > 0.8)
        fx = np.where(X < 0.1, np.nan, 0.5 * X + 0.1 * Y)
        return np.where(corner, np.nan, fx), np.where(corner, np.nan, 0.1 * X + 0.5 * Y)

    m = PlanarMap(name="holes", step=step, domain=Rect(0, 1, 0, 1),
                  jac=lambda x, y: Matrix2(0.5, 0.1, 0.1, 0.5),
                  batch=batch if with_batch else None)
    rep = check_O_condition(m, Rect(0, 1, 0, 1), pairs=4000, seed=3)
    rng = np.random.default_rng(3)
    ax, ay, bx, by = (rng.uniform(0.0, 1.0, 4000) for _ in range(4))
    corner = lambda x, y: (x > 0.8) & (y > 0.8)
    want = ~corner(ax, ay) & ~corner(bx, by) \
        & (np.maximum(np.abs(ax - bx), np.abs(ay - by)) >= 1e-7)
    assert rep.verdict == "O_plus"
    assert rep.injectivity_pairs == int(want.sum()) < 4000
    assert np.count_nonzero(want & ((ax < 0.1) | (bx < 0.1))) > 100


def test_O_plus_orbits_eventually_monotone(ex1):
    # orientation-preserving competitive maps drive componentwise monotone tails
    assert check_O_condition(ex1.map, Rect(0, 5, 0, 5)).verdict == "O_plus"
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = Point2(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0))
        orb = orbit(ex1.map, p, max_iter=500, conv_tol=0.0)
        assert eventually_componentwise_monotone(orb.points)


def test_eventually_monotone_detects_oscillation():
    pts = [Point2(float(k % 2), 0.0) for k in range(40)]
    assert not eventually_componentwise_monotone(pts)
    pts = [Point2(math.exp(-k), 0.0) for k in range(40)]
    assert eventually_componentwise_monotone(pts)
