"""The lockstep Newton search against the scalar one it replaced
(helpers.scalar_solve): roots and residuals bit for bit, failures of the same
class with the same message, and boundary-endpoint reports equal to the
scalar check's."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (DEFAULT_PARAMS, EXAMPLE_IDS, DomainError, Matrix2, NoConvergenceError,
                     PlanarMap, Point2, Rect, SingularityError,
                     check_boundary_endpoint_conditions,
                     check_competitive, check_invariant_curve_hypotheses,
                     check_O_condition, ex5_equilibria, expr_map, find_fixed_point,
                     find_period_two, jacobian, make_example)
from compmap import cli
from compmap.fixedpoints import (_EVAL, _OVERFLOW, _SINGULAR, _STALLED, _boundary_reports,
                                 _curve_hypotheses, _delta_parts, _find_fixed_points,
                                 _residuals, _solve)
from compmap.planarmap import _competitive_reports, _order_licensed

from helpers import (patchy_map, scalar_boundary_report, scalar_check_competitive,
                     scalar_period_two, scalar_solve)

DSL = {"ex1": ("x/(a+y)", "y/(1+x)"),
       "ex4": ("beta1*x/(B1*x+y)", "(alpha2+gamma2*y)/x"),
       "ex5": ("b1*x/(1+x+c1*y)+h1", "b2*y/(1+y+c2*x)+h2")}
GUESSES = {"ex1": Point2(1e-9, 1.0), "ex2": Point2(0.4, 1.1), "ex3_T": Point2(2.0, 2.0),
           "ex3_T2": Point2(3.0, 1.5), "ex4": Point2(2.0, 1.0)}


def _maps():
    """name -> (map, a fixed point of it)."""
    out = {}
    for eid in EXAMPLE_IDS:
        m = make_example(eid).map
        guess = GUESSES.get(eid) or ex5_equilibria(make_example(eid).params)[1]
        out[eid] = (m, find_fixed_point(m, guess).location)
    for eid, (f, g) in DSL.items():
        m = expr_map(f, g, dict(DEFAULT_PARAMS[eid]),
                     domain=Rect(0.0, math.inf, 0.0, math.inf))
        out[f"{eid}_dsl"] = (m, out[eid][1])
    return out


MAPS = _maps()


def _assert_matches_scalar(m, starts, k=1, target=None, tol=1e-10, fallback=False):
    """_solve from all starts at once equals scalar_solve from each; returns
    the lockstep result."""
    X = [float(s[0]) for s in starts]
    Y = [float(s[1]) for s in starts]
    tgt = None if target is None else (np.full(len(X), target[0]),
                                       np.full(len(X), target[1]))
    sol = _solve(m, X, Y, k=k, target=tgt, tol=tol, fallback=fallback)
    for i, s in enumerate(starts):
        try:
            root, res = scalar_solve(m, s, k, target, tol, fallback)
        except Exception as e:
            err = sol.error(i)
            assert type(err) is type(e), (s, err, e)
            assert str(err) == str(e)
            continue
        assert sol.error(i) is None, (s, sol.error(i))
        got = sol.root(i)
        assert (got.x.hex(), got.y.hex()) == (root.x.hex(), root.y.hex()), s
        assert float(sol.res[i]).hex() == res.hex(), s
    return sol


coords = st.one_of(st.floats(-0.5, 6.0, allow_nan=False),
                   st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 1.0, 2.0, -1.0, 3.0]))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(MAPS)), k=st.sampled_from([1, 2]),
       to_fp=st.booleans(), fallback=st.booleans(),
       starts=st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_lockstep_newton_matches_scalar(name, k, to_fp, fallback, starts):
    m, fp = MAPS[name]
    _assert_matches_scalar(m, starts, k, fp if to_fp else None, fallback=fallback)


def _raising_region_map(batch):
    """T(x, y) = (x^2, y/2), whose step raises for x > 1.5; from x = 0.6 the
    first Newton step lands at x = 1.8, so the first halving round raises."""
    calls = {"raised": 0}

    def step(x, y):
        if x > 1.5:
            calls["raised"] += 1
            raise SingularityError("x > 1.5")
        return x * x, y / 2

    def batch_step(X, Y):
        return np.where(X > 1.5, np.nan, X * X), Y / 2

    m = PlanarMap(name="raising", step=step, domain=Rect(-5, 5, -5, 5),
                  jac=lambda x, y: Matrix2(2 * x, 0.0, 0.0, 0.5),
                  batch=batch_step if batch else None)
    return m, calls


@pytest.mark.parametrize("batch", [False, True])
def test_step_raising_in_a_halving(batch):
    m, calls = _raising_region_map(batch)
    sol = _assert_matches_scalar(m, [(0.6, 0.2)])
    assert sol.error(0) is None and calls["raised"] > 0


@pytest.mark.parametrize("band", [False, True])
def test_non_map_error_in_a_halving_ends_the_search(band):
    # T(x, y) = (x^2, y/2) from (0.6, 0.2): the batch residual of the first
    # candidate, x = 1.8, is NaN, and only the step tells that it raises a
    # ValueError there, which is no map error. With band every later
    # candidate (0.6 < x <= 1.5) raises a map error, which would stall the
    # search
    def step(x, y):
        if x > 1.5:
            raise ValueError("x > 1.5")
        if band and x > 0.6:
            raise SingularityError("0.6 < x <= 1.5")
        return x * x, y / 2

    def batch(X, Y):
        return np.where(X > (0.6 if band else 1.5), np.nan, X * X), Y / 2

    m = PlanarMap(name="raising", step=step, batch=batch, domain=Rect(-5, 5, -5, 5),
                  jac=lambda x, y: Matrix2(2 * x, 0.0, 0.0, 0.5))
    _assert_matches_scalar(m, [(0.6, 0.2)])
    with pytest.raises(ValueError):
        find_fixed_point(m, Point2(0.6, 0.2))


def test_a_raise_the_next_batch_step_hides_leaves_a_nan_residual():
    # T clips at 3 (as t < 3 ? t : 3, so NaN maps to 3) and raises for
    # 1.5 < x < 2.5: T^2 of the raising start (2, 0.5) is finite in batch
    def step(x, y):
        if 1.5 < x < 2.5:
            raise SingularityError("1.5 < x < 2.5")
        return (x if x < 3 else 3.0), (y if y < 3 else 3.0)

    def batch(X, Y):
        band = (1.5 < X) & (X < 2.5)
        return np.where(band, np.nan, np.where(X < 3, X, 3.0)), np.where(Y < 3, Y, 3.0)

    m = PlanarMap(name="clip", step=step, batch=batch, domain=Rect(-5, 5, -5, 5))
    X, Y = np.array([2.0, 0.5]), np.array([0.5, 0.5])
    with np.errstate(all="ignore"):
        RX, RY, raised = _residuals(m, X, Y, 2, X, Y)
    assert list(raised) == [0] and isinstance(raised[0], SingularityError)
    assert np.isnan(RX[0]) and np.isnan(RY[0]) and (RX[1], RY[1]) == (0.0, 0.0)


def test_step_raising_at_the_start():
    m = expr_map("x/(y-1)", "y/2")
    sol = _assert_matches_scalar(m, [(0.3, 1.0), (0.3, 0.5)])
    assert sol.code[0] == _EVAL
    with pytest.raises(SingularityError):
        find_fixed_point(m, Point2(0.3, 1.0))
    with pytest.raises(SingularityError):
        find_period_two(m, Point2(0.3, 1.0))


@pytest.mark.parametrize("batch_jac", [False, True])
def test_raising_jacobian(batch_jac):
    def jac(x, y):
        if x < 0.5:
            raise SingularityError("x < 0.5")
        return Matrix2(2 * x, 0.0, 0.0, 0.5)

    def batch_jac_fn(X, Y):
        a11 = np.where(X < 0.5, np.nan, 2 * X)
        return a11, np.zeros_like(X), np.zeros_like(X), np.full_like(X, 0.5)

    m = PlanarMap(name="rj", step=lambda x, y: (x * x, y / 2), domain=Rect(-5, 5, -5, 5),
                  jac=jac, batch_jac=batch_jac_fn if batch_jac else None)
    sol = _assert_matches_scalar(m, [(0.3, 0.2), (0.9, 0.2)], k=2)
    assert sol.code[0] == _EVAL and sol.error(1) is None
    with pytest.raises(SingularityError):
        find_fixed_point(m, Point2(0.3, 0.2))


def test_period_two_candidate_whose_first_image_raises():
    # T(x, y) = (y, y/2 + 1) raises for |x - 2| < 1e-3. Its batch step puts
    # NaN only in the first component there, and T(nan, v) does not read the
    # NaN, so the batch T^2 is finite where the scalar one raises: the full
    # Newton step from the origin lands on the root (2, 2) of T^2 - id
    def step(x, y):
        if abs(x - 2.0) < 1e-3:
            raise SingularityError("|x - 2| < 1e-3")
        return y, 0.5 * y + 1.0

    def batch(X, Y):
        return np.where(np.abs(X - 2.0) < 1e-3, np.nan, Y), 0.5 * Y + 1.0

    m = PlanarMap(name="band", step=step, batch=batch, domain=Rect(-9, 9, -9, 9),
                  jac=lambda x, y: Matrix2(0.0, 1.0, 0.0, 0.5))
    sol = _assert_matches_scalar(m, [(0.0, 0.0), (2.0, 5.0)], k=2)
    assert sol.code[1] == _EVAL
    assert sol.error(0) is None or sol.x[0] != 2.0


def test_nan_returning_step_is_no_evaluation_failure():
    m = PlanarMap(name="nan", step=lambda x, y: (math.nan, y / 2),
                  domain=Rect(-5, 5, -5, 5), jac=lambda x, y: Matrix2(0.5, 0.0, 0.0, 0.5))
    sol = _assert_matches_scalar(m, [(0.3, 0.2)])
    assert sol.code[0] == _STALLED
    with pytest.raises(NoConvergenceError):
        find_fixed_point(m, Point2(0.3, 0.2))


def test_a_step_that_does_not_lower_the_residual_is_not_taken():
    # the x residual is 0.5 on [0, 3), so from x = 1 every halved step ties
    # with the current residual and the search stalls
    m = PlanarMap(name="plateau", domain=Rect(-9, 9, -9, 9),
                  step=lambda x, y: (x + (0.5 if x < 3 else 3.5 - x), y / 2),
                  jac=lambda x, y: Matrix2(0.0, 0.0, 0.0, 0.5))
    assert _assert_matches_scalar(m, [(1.0, 0.0)]).code[0] == _STALLED


def test_overflowing_newton_matrix():
    # 320 x^319 > 1.4e154 for x > 3, so the squared row norm overflows; the
    # step itself overflows (math.pow raises) for x > 9.2
    m = expr_map("x^320", "y/2")
    sol = _assert_matches_scalar(m, [(5.0, 1.0), (9.5, 1.0), (0.5, 1.0)])
    assert list(sol.code[:2]) == [_OVERFLOW, _EVAL] and sol.error(2) is None
    with pytest.raises(NoConvergenceError, match="overflows"):
        find_fixed_point(m, Point2(5.0, 1.0))


def test_singular_matrix_with_and_without_fallback():
    # DT - I = diag(0, -1/2) everywhere; 50 iterates ahead the residual is small
    m = expr_map("x", "y/2")
    assert _assert_matches_scalar(m, [(0.3, 0.2)]).code[0] == _SINGULAR
    assert _assert_matches_scalar(m, [(0.3, 0.2)], fallback=True).error(0) is None
    # here the orbit ahead meets the pole of 1/y
    m = expr_map("x + 1/y", "y/2")
    assert _assert_matches_scalar(m, [(0.3, 0.2)], fallback=True).code[0] == _SINGULAR


def _raise(e):
    raise e


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("step, code", [
    (lambda x, y: (x, 1.0 - y), _SINGULAR),  # 50 steps ahead the orbit is back
    (lambda x, y: (x, y * 1e10), _SINGULAR),  # the orbit overflows to inf
    (lambda x, y: (x, y / 2) if y >= 1e-3 else 1 / 0, _EVAL),
    (lambda x, y: (x, y / 2) if y >= 1e-3 else _raise(DomainError("y < 1e-3")), _EVAL),
    (lambda x, y: (x, y / 2) if y >= 1e-3 else _raise(SingularityError("y < 1e-3")),
     _SINGULAR)], ids=["stays", "overflows", "zero-division", "domain", "singularity"])
def test_restart_ends_where_the_scalar_one_does(step, code, batch):
    # DT - I = diag(0, *) is singular everywhere; from y = 0.2 the eighth step
    # of the restart is the first from y < 1e-3
    def batch_step(X, Y):
        out = np.array([step(x, y) if y >= 1e-3 else (np.nan, np.nan)
                        for x, y in zip(X.tolist(), Y.tolist())]).reshape(-1, 2)
        return out[:, 0], out[:, 1]

    m = PlanarMap(name="restart", step=step, domain=Rect(-5, 5, -5, 5),
                  jac=lambda x, y: Matrix2(1.0, 0.0, 0.0, 0.5),
                  batch=batch_step if batch else None)
    sol = _assert_matches_scalar(m, [(0.3, 0.2), (0.1, 0.4)], fallback=True)
    assert list(sol.code) == [code, code]


def _scalar_calls(m, run):
    """What run returns on a copy of m, and the (step, jac) calls it makes
    there; batch and batch_jac calls are not counted."""
    box = [0, 0]

    def step(x, y):
        box[0] += 1
        return m.step(x, y)

    def jac(x, y):
        box[1] += 1
        return m.jac(x, y)

    return run(replace(m, step=step, jac=jac)), tuple(box)


def test_restart_steps_in_batch():
    # the restart of test_singular_matrix_with_and_without_fallback, whose
    # 50 steps and one residual were 51 step calls
    m = expr_map("x", "y/2")
    rec, calls = _scalar_calls(m, lambda c: find_fixed_point(c, Point2(0.3, 0.2)))
    assert calls[0] == 0
    assert rec.location == (0.3, 1.7763568394002506e-16)
    assert rec.classification == "nonhyperbolic"


def test_period_two_record_takes_image_and_dt2_in_batch():
    m = make_example("ex3_T").map
    rec, calls = _scalar_calls(m, lambda c: find_period_two(c, Point2(1.5, 4.0)))
    assert calls == (0, 0)
    assert rec == scalar_period_two(m, Point2(1.5, 4.0))


def test_fixed_point_records_take_one_batch_jac_call():
    # the first start is a root already: Newton asks DT at the other two only,
    # and the records of all three come from one more call
    ex5 = make_example("ex5")
    m = ex5.map
    eq = ex5_equilibria(ex5.params)
    X, Y = [eq[0].x, eq[1].x * 1.05, eq[2].x * 1.05], [eq[0].y, eq[1].y * 0.95, eq[2].y * 0.95]
    sizes = []

    def batch_jac(X, Y):
        sizes.append(X.size)
        return m.batch_jac(X, Y)

    out, calls = _scalar_calls(m, lambda c: _find_fixed_points(
        replace(c, batch_jac=batch_jac), X, Y))
    assert calls == (0, 0) and sizes == [2, 2, 2, 3]
    assert out == [find_fixed_point(m, Point2(x, y)) for x, y in zip(X, Y)]


def _logistic_maps():
    f, g = "3.2*x*(1-x)", "3.2*y*(1-y)"
    dsl = expr_map(f, g, domain=Rect(-1, 2, -1, 2))
    plain = PlanarMap(name="logistic", domain=Rect(-1, 2, -1, 2),
                      step=lambda x, y: (3.2 * x * (1 - x), 3.2 * y * (1 - y)))
    return dsl, plain


@pytest.mark.parametrize("which", [0, 1])
def test_witnesses_of_every_kind_match_the_scalar_check(which):
    # the logistic product map at the origin: in Q1 it has the fixed point
    # (0.6875, 0.6875), period-two points built from the 2-cycle of the
    # logistic map, and (1, 1) as an extra preimage of the origin
    m = _logistic_maps()[which]
    region = Rect(0, 1, 0, 1)
    fp = find_fixed_point(m, Point2(0.0, 0.0))
    rep = check_boundary_endpoint_conditions(m, fp, region)
    assert rep == scalar_boundary_report(m, fp, region)
    assert rep.fixed_witnesses and rep.period_two_witnesses and rep.preimage_witnesses
    assert not (rep.condition_i or rep.condition_ii or rep.condition_iii)


def test_boundary_reports_of_several_fixed_points_at_once():
    m = PlanarMap(name="squares", step=lambda x, y: (x * x, y * y),
                  domain=Rect(-2, 2, -2, 2))
    region = Rect(-1.4, 1.4, -1.4, 1.4)
    fps = [find_fixed_point(m, g) for g in (Point2(1e-3, 1e-3), Point2(0.9, 1.1),
                                            Point2(0.01, 0.9))]
    assert _boundary_reports(m, fps, region) == \
        [scalar_boundary_report(m, fp, region) for fp in fps]
    assert _boundary_reports(m, [], region) == []


def test_roots_within_1e_6_of_the_fixed_point_are_not_witnesses():
    # T - id = 1e4 (x^2, y^2) has a double root at the origin, so Newton
    # from Q1 and Q3 stops about 1e-7 away from it: inside the sector, but
    # the fixed point itself
    m = expr_map("x + 10000*x*x", "y + 10000*y*y")
    fp = find_fixed_point(m, Point2(0.0, 0.0))
    region = Rect(-1, 1, -1, 1)
    rep = check_boundary_endpoint_conditions(m, fp, region)
    assert rep == scalar_boundary_report(m, fp, region)
    assert not rep.fixed_witnesses
    assert [w.dist_inf(Point2(-1e-4, -1e-4)) < 1e-8 for w in rep.preimage_witnesses] \
        == [True]


ANALYZE = [["--example", eid] for eid in EXAMPLE_IDS] + [
    ["--f", "x/(a+y)", "--g", "y/(1+x)", "--param", "a=2"]]


@pytest.mark.parametrize("argv", ANALYZE, ids=lambda a: a[1])
def test_boundary_reports_at_every_analyze_fixed_point(argv):
    cfg = cli._fold_args("analyze", cli._build_parser().parse_args(["analyze"] + argv))
    m, sys_ = cli._build_map(cfg)
    window = cli._cfg_window(cfg)
    roots = cli._resolve_fixed_points(cfg, m, sys_, window, 1e-10)
    assert roots
    assert _boundary_reports(m, roots, window) == \
        [scalar_boundary_report(m, r, window) for r in roots]


@pytest.mark.parametrize("name", sorted(MAPS) + ["patchy"])
def test_check_competitive_matches_the_scalar_loop(name):
    m = patchy_map() if name == "patchy" else MAPS[name][0]
    for region in (Rect(0, 5, 0, 5), Rect(0.01, 2, 0.01, 3), Rect(2, 50, 0, 1)):
        rep = check_competitive(m, region)
        assert repr(rep) == repr(scalar_check_competitive(m, region))  # NaN != NaN
        if rep.witness is not None:
            p, j = rep.witness
            assert all(type(v) is float for v in (*p, *j))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MAPS) + ["patchy"]),
       boxes=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.05, 3.0),
                                st.floats(0.0, 4.0), st.floats(0.05, 3.0)),
                      min_size=1, max_size=4))
def test_one_jacobian_call_gives_each_regions_report(name, boxes):
    # a trace samples the parts of delta, then its licence's window and
    # domain, in one _jacobians call; each region's report is the one the
    # loop over that region's samples gives, and the hypotheses are those
    # of the per-part checks
    m = patchy_map() if name == "patchy" else MAPS[name][0]
    regions = [Rect(x, x + w, y, y + h) for x, w, y, h in boxes] + [m.domain]
    assert [repr(r) for r in _competitive_reports(m, regions)] == \
        [repr(scalar_check_competitive(m, r)) for r in regions]  # NaN != NaN
    if name == "patchy":
        return
    rec, window = find_fixed_point(m, MAPS[name][1]), regions[0]
    hyp, reports = _curve_hypotheses(m, rec, window, (window, m.domain))
    parts = [scalar_check_competitive(m, part)
             for part, _k in _delta_parts(window, *rec.location)]
    assert hyp.samples == sum(r.samples for r in parts)
    assert hyp.strongly_competitive == (bool(parts) and hyp.samples > 0
                                        and all(r.strongly for r in parts))
    assert hyp == check_invariant_curve_hypotheses(m, rec, window)
    assert [repr(r) for r in reports] == \
        [repr(scalar_check_competitive(m, r)) for r in (window, m.domain)]


def test_licence_takes_no_domain_report_after_a_failed_window():
    # the window breaks the weak pattern, so the licence fails there, as the
    # separate checks did, before the domain's report raises its ValueError
    def jac(x, y):
        if x > 6:
            raise ValueError(f"x = {x!r}")
        return Matrix2(1.0, 0.5 if x < 1 else -1.0, -1.0, 1.0)

    m = PlanarMap(name="lazy", step=lambda x, y: (x, y), domain=Rect(0, 10, 0, 10),
                  jac=jac)
    assert not _order_licensed(m, Rect(0, 2, 0, 2), 100)
    with pytest.raises(ValueError):
        check_competitive(m, m.domain)


@pytest.mark.parametrize("batch", [False, True])
def test_sampled_checks_let_a_non_map_error_propagate(batch):
    # a ValueError for x > 4, from jac (the lowest grid sample's, as the
    # scalar loop raises it) and from step in the injectivity probe
    def jac(x, y):
        if x > 4:
            raise ValueError(f"x = {x!r}")
        return Matrix2(1.0, -1.0, -1.0, 1.0)

    def step(x, y):
        if x > 4:
            raise ValueError(f"x = {x!r}")
        return x, y

    def nan_above_4(X, *entries):
        return tuple(np.where(X > 4, np.nan, e) for e in entries)

    m = PlanarMap(name="bad", step=step, domain=Rect(0, 5, 0, 5), jac=jac,
                  batch=(lambda X, Y: nan_above_4(X, X, Y)) if batch else None,
                  batch_jac=(lambda X, Y: nan_above_4(X, 1.0, -1.0, -1.0, 1.0))
                  if batch else None)
    with pytest.raises(ValueError) as want:
        scalar_check_competitive(m, Rect(0, 5, 0, 5))
    with pytest.raises(ValueError) as got:
        check_competitive(m, Rect(0, 5, 0, 5))
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        check_O_condition(replace(m, jac=lambda x, y: Matrix2(1.0, 0.0, 0.0, 1.0),
                                  batch_jac=None), Rect(0, 5, 0, 5))


def test_o_condition_counts_only_evaluable_samples():
    rep = check_O_condition(patchy_map(), Rect(0, 5, 0, 5))
    # 20 of the 100 grid columns have x < 1 and raise; y < 1 gives a NaN
    # determinant, which the Python min keeps in first place
    assert rep.samples == 80
    assert rep.verdict == "inconclusive"
    m = patchy_map()
    dets = []
    for x, y in ((0.25 + 0.5 * i, 0.25 + 0.5 * j) for i in range(10) for j in range(10)):
        try:
            dets.append(jacobian(m, Point2(x, y)).det())
        except SingularityError:
            pass
    assert (repr(rep.det_min), repr(rep.det_max)) == (repr(min(dets)), repr(max(dets)))
