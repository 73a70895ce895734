import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (EXAMPLE_IDS, ConstraintError, Ex5Curves, Point2,
                     SingularityError, eigen2x2, ex5_critical_curves,
                     ex5_equilibria, find_fixed_point, jacobian, le_se,
                     make_example, sweep_continuum)
from helpers import direction_close, hand_written, nan_guard, square_guard


def test_unknown_ids_and_params():
    with pytest.raises(ConstraintError):
        make_example("nope")
    with pytest.raises(ConstraintError):
        make_example("ex1", {"alpha": 1.0})


def test_constraint_violations():
    with pytest.raises(ConstraintError, match="a > 1"):
        make_example("ex1", {"a": 0.5})
    with pytest.raises(ConstraintError, match="c1"):
        make_example("ex2", {"c1": 0.75})
    with pytest.raises(ConstraintError, match="sqrt"):
        make_example("ex4", {"beta1": 4.0})
    with pytest.raises(ConstraintError):
        make_example("ex5", {"h1": -0.1})


@pytest.mark.parametrize("eid, name", [("ex1", "a"), ("ex5", "h1"), ("ex4", "B1")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(eid, name, value):
    with pytest.raises(ConstraintError, match=f"0 < {name} < inf"):
        make_example(eid, {name: value})


# ---------------------------------------------------------------------------
# The expression form of the built-ins against the hand-written oracle


def _outcome(fn, *args):
    """Hex floats of fn(*args), or the type of the error it raises."""
    try:
        return tuple(float(v).hex() for v in fn(*args))
    except SingularityError as exc:
        return type(exc).__name__


def _hex(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel()]


coord = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, -2.0, 2.0, 0.5, 1e-7, -1e-7, 1e-13,
                     -1e-13, 5e-324]))


@pytest.mark.parametrize("eid", EXAMPLE_IDS)
@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=30),
       mirror=st.booleans())
def test_builtin_maps_match_hand_written_oracle(eid, pts, mirror):
    m = make_example(eid).map
    step, jac = hand_written(eid, m.params)
    if mirror:  # y = -x zeroes denominators such as B1*x + y and x + y
        pts = pts + [(x, -x) for x, _ in pts]
    for x, y in pts:
        assert _outcome(m.step, x, y) == _outcome(step, x, y), (x, y)
        # every Jacobian entry divides by a denominator d or by d*d, and a
        # compiled division raises where its divisor is below DIV_TOL: the
        # compiled Jacobian raises where d*d is (|d| below about 1e-6), the
        # hand-written one only where |d| < DIV_TOL
        assert _outcome(m.jac, x, y) == \
            _outcome(lambda x, y: jac(x, y, _guard=square_guard), x, y), (x, y)
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    with np.errstate(all="ignore"):
        got = m.batch(X, Y)
        want = step(X, Y, _guard=nan_guard)
    for u, v in zip(got, want):
        assert _hex(u) == _hex(np.broadcast_to(v, X.shape))


def test_ex2_fixture_values(ex2):
    # mid-segment equilibrium and its transversal eigenvalue
    fx = ex2.fixtures[2]
    assert fx.point == pytest.approx((0.5, 1.0))
    assert fx.eigenvalues[0] == pytest.approx(5 / 12)
    assert fx.eigenvalues[1] == 1.0


def test_ex4_fixture_values(ex4):
    fx = ex4.fixtures[0]
    assert fx.point == pytest.approx((2.0, 1.0))
    assert fx.eigenvalues[0] == pytest.approx(-1 / 6)
    assert fx.eigenvalues[1] == 1.0
    assert direction_close(fx.eigenvectors[1], Point2(-1.0, 1.0), 1e-12)
    assert ex4.taylor_pair == pytest.approx((0.0, 0.25))


def test_all_fixture_points_are_equilibria():
    for eid in ("ex1", "ex2", "ex3_T", "ex3_T2", "ex4"):
        sys_ = make_example(eid)
        for fx in sys_.fixtures:
            x, y = fx.point
            fx_x, fx_y = sys_.map.step(x, y)
            assert max(abs(fx_x - x), abs(fx_y - y)) < 1e-10, (eid, fx.point)


def test_fixture_eigen_data_matches_jacobian():
    for eid in ("ex1", "ex2", "ex3_T", "ex3_T2", "ex4"):
        sys_ = make_example(eid)
        for fx in sys_.fixtures:
            e = eigen2x2(jacobian(sys_.map, fx.point))
            lam_f, mu_f = fx.eigenvalues
            assert abs(e.lam - lam_f) <= 1e-8 * max(1.0, abs(lam_f)), (eid, fx)
            assert abs(e.mu - mu_f) <= 1e-8 * max(1.0, abs(mu_f)), (eid, fx)
            v_lam_f, v_mu_f = fx.eigenvectors
            if v_lam_f is not None:
                assert direction_close(e.v_lam, v_lam_f, 1e-8), (eid, fx)
            if v_mu_f is not None:
                assert direction_close(e.v_mu, v_mu_f, 1e-8), (eid, fx)


def test_ex3_second_iterate_matches_composition(ex3_t, ex3_t2):
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, y = rng.uniform(0.3, 6.0, 2)
        u, v = ex3_t.map.step(x, y)
        once_more = ex3_t.map.step(u, v)
        closed = ex3_t2.map.step(x, y)
        assert max(abs(once_more[0] - closed[0]),
                   abs(once_more[1] - closed[1])) < 1e-12


def test_ex4_oscillatory_eigenvalue_range():
    # lambda_2 in (-1, 0) for every admissible parameter draw
    rng = np.random.default_rng(13)
    for _ in range(25):
        B1 = rng.uniform(0.2, 3.0)
        g2 = rng.uniform(0.2, 3.0)
        b1 = B1 * g2 + rng.uniform(0.1, 4.0)  # ensures beta1 > B1*gamma2
        a2 = (b1 - B1 * g2) ** 2 / (4.0 * B1)
        sys_ = make_example("ex4", {"B1": B1, "gamma2": g2, "alpha2": a2,
                                    "beta1": b1})
        lam2 = sys_.fixtures[0].eigenvalues[0]
        assert -1.0 < lam2 < 0.0
        e = eigen2x2(jacobian(sys_.map, sys_.fixtures[0].point))
        assert e.lam == pytest.approx(lam2, rel=1e-9)
        assert e.mu == pytest.approx(1.0, abs=1e-9)


def test_ex1_determinant_positive_sampled(ex1):
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = Point2(rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0))
        assert jacobian(ex1.map, p).det() > 0


def test_sweep_continuum_values(ex1, ex2, ex3_t2):
    recs = sweep_continuum(ex2, 5)
    assert [r.location for r in recs] == [
        pytest.approx(tuple(ex2.continuum.point(t)))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)]

    recs = sweep_continuum(ex1, 3)  # ybar in {0, 1, 2}
    lams = [r.eigen.lam for r in recs]
    assert lams == pytest.approx([1 / 2, 1 / 3, 1 / 4])

    recs = sweep_continuum(ex3_t2, 3)  # xbar in {3, 4, 5}
    for r, xb in zip(recs, (3.0, 4.0, 5.0)):
        assert r.location.y == pytest.approx(xb / (xb - 1.0))


def test_sweep_requires_continuum(ex4):
    with pytest.raises(ValueError):
        sweep_continuum(ex4, 3)


def test_ex5_critical_curve_residuals():
    cur = ex5_critical_curves({"h1": 0.03})
    for x in (0.1, 0.5, 1.0, 2.0):
        y1 = cur.y1(x)
        y2 = cur.y2(x)
        assert abs(cur.residual_c1(x, y1)) < 1e-10
        assert abs(cur.residual_c2(x, y2)) < 1e-10


def test_ex5_curve_intersections_are_equilibria(ex5_three):
    eqs = ex5_equilibria(ex5_three.params)
    assert len(eqs) == 3
    for p in eqs:
        fx, fy = ex5_three.map.step(p.x, p.y)
        assert max(abs(fx - p.x), abs(fy - p.y)) < 1e-9


def test_ex5_three_equilibria_se_ordered(ex5_three):
    eqs = ex5_equilibria(ex5_three.params)
    assert le_se(eqs[0], eqs[1]) and le_se(eqs[1], eqs[2])
    # outer points attract, the middle one is a saddle
    kinds = [find_fixed_point(ex5_three.map, p).classification for p in eqs]
    assert kinds == ["attractor", "saddle", "attractor"]


def test_ex5_two_equilibria_instance(ex5_two):
    m = ex5_two.system.map
    for p in (ex5_two.nonhyperbolic, ex5_two.attractor):
        fx, fy = m.step(p.x, p.y)
        assert max(abs(fx - p.x), abs(fy - p.y)) < 1e-10
    e = eigen2x2(jacobian(m, ex5_two.nonhyperbolic))
    assert abs(e.mu - 1.0) <= 1e-7
    assert 0.0 < e.lam < 1.0
    rec = find_fixed_point(m, ex5_two.attractor)
    assert rec.classification == "attractor"
    assert le_se(ex5_two.nonhyperbolic, ex5_two.attractor)

    cur = ex5_critical_curves(ex5_two.system.params)
    # tangential crossing at the merged point, transversal at the attractor
    assert abs(cur.slope_gap(ex5_two.tangency_x)) < 1e-3
    assert abs(cur.slope_gap(ex5_two.attractor.x)) > 1e-2


def test_ex5_curves_reduce_to_lines_without_inflow():
    # with h1 = h2 = 0 the first critical curve collapses to the straight
    # line of the inflow-free competition model
    cur = ex5_critical_curves({"b1": 2.0, "b2": 3.0, "c1": 0.5, "c2": 2.0,
                               "h1": 0.0, "h2": 0.0})
    b1, c1 = 2.0, 0.5
    for x in (0.2, 0.5, 0.9):
        y_line = (b1 - 1.0 - x) / c1
        assert abs(cur.residual_c1(x, y_line)) < 1e-12
        assert cur.y1(x) == pytest.approx(y_line, rel=1e-12)


def _same_floats(a, b):
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def test_ex5_curves_on_arrays_match_floats():
    cur = ex5_critical_curves()
    xs = np.append(np.linspace(cur.h1 * (1.0 + 1e-9) + 1e-12, 30.0, 2001), cur.h1)
    for f in (cur.y1, cur.y2, cur.gap):
        one_by_one = [f(x) for x in xs.tolist()]
        assert all(type(v) is float for v in one_by_one)
        assert _same_floats(f(xs).tolist(), one_by_one)
    assert math.isnan(cur.y1(cur.h1)) and math.isnan(cur.gap(cur.h1))
    # b2 < 0 leaves residual_c2 without a real root near x = -0.67
    odd = Ex5Curves(b1=2.0, b2=-1.0, c1=3.0, c2=3.0, h1=0.03, h2=0.01)
    assert math.isnan(odd.y2(-0.67)) and np.isnan(odd.y2(np.array([-0.67])))[0]


def test_ex5_equilibria_are_pinned_python_floats(ex5_two):
    # the merged point reaches raster meta through repr, so its type and
    # every bit are part of the output
    got = (ex5_two.h1, ex5_two.tangency_x, *ex5_two.nonhyperbolic,
           *ex5_two.attractor)
    assert all(type(v) is float for v in got)
    assert got == (0.04691816709483519, 0.1592269195057127, 0.1592269195057127,
                   0.558764732279821, 1.0366330975384046, 0.019392793095048155)
    eqs = ex5_equilibria()
    assert all(type(v) is float for p in eqs for v in p)
    assert eqs == [Point2(0.06951868601942504, 0.8162501392090162),
                   Point2(0.23540061993701655, 0.3522371495843135),
                   Point2(1.0021093513735613, 0.019870699979225193)]
