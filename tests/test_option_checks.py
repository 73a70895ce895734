"""Every public entry point that takes a count or a tolerance rejects an
invalid one with ValueError before it evaluates the map: a count must be an
int (not a bool) and at least its least value, a tolerance a finite real
(not a bool), > 0 or >= 0. So do the entry points that take a point they
classify, iterate, search from or expand along, when a coordinate is not
finite (classify_side, classify_batch, limit_equilibrium, the Newton guesses
and the Taylor ray's fp and v included), and classify_batch when its
coordinate arrays differ in shape."""

import math
from dataclasses import replace

import pytest

from compmap import (CurveOptions, Point2, Rect, SideOptions, check_competitive,
                     check_O_condition, classify_side, continuity_probe,
                     ex5_equilibria, find_fixed_point, find_order_interval,
                     find_period_two, first_nonzero_index, limit_equilibrium, make_example, orbit, raster,
                     sweep_continuum, taylor_along_eigenvector,
                     trace_stable_curve, trace_unstable_curve)

from compmap.basins import classify_batch
from compmap.curves import locate_ordinate
from helpers import counting_map

BAD = (math.nan, math.inf, 2.5, True, 0, -1)
# the values of BAD each kind of option rejects: a count (at least 1 or 2),
# a count >= 0, a tolerance > 0, a tolerance >= 0
REJECTED = {"count": BAD, "count0": tuple(v for v in BAD if v != 0),
            "tol": tuple(v for v in BAD if v != 2.5),
            "tol0": tuple(v for v in BAD if v not in (2.5, 0))}

EX2, EX4, EX5 = make_example("ex2"), make_example("ex4"), make_example("ex5")
SADDLE = find_fixed_point(EX5.map, ex5_equilibria(EX5.params)[1])
W5 = Rect(0.0, 1.5, 0.0, 1.5)
P, FP = Point2(0.3, 0.5), SADDLE.location


def _side(c, **kw):
    return classify_side(c, P, FP, SideOptions(**kw))


def _curve(c, **kw):
    return trace_stable_curve(c, SADDLE, W5, CurveOptions(**{"columns": 8, **kw}))


def _probe(c, **kw):
    return continuity_probe(c, (Point2(0.1, 0.1), Point2(1.0, 1.0)),
                            **{"n": 4, **kw})


def _raster(c, **kw):
    return raster(c, FP, W5, **{"nx": 4, "ny": 4, **kw})


def _taylor(c, **kw):
    return taylor_along_eigenvector(c, Point2(2.0, 1.0), Point2(-1.0, 1.0), **kw)


def _sweep(c, **kw):
    return sweep_continuum(replace(EX2, map=c), **{"n": 3, **kw})


def _case(name, call, key, kind, m=EX5.map):
    return pytest.param(call, key, kind, m, id=f"{name}-{key}")


# (entry point, keyword, kind, the map it evaluates)
CASES = [
    _case("SideOptions", _side, "max_iter", "count"),
    _case("SideOptions", _side, "epsilon_margin", "tol0"),
    _case("SideOptions", _side, "conv_tol", "tol"),
    _case("CurveOptions", _curve, "columns", "count"),
    _case("CurveOptions", _curve, "max_iter", "count"),
    _case("CurveOptions", _curve, "curve_tol", "tol"),
    _case("limit_equilibrium", lambda c, **kw: limit_equilibrium(c, P, **kw),
          "tol", "tol"),
    _case("limit_equilibrium", lambda c, **kw: limit_equilibrium(c, P, **kw),
          "max_iter", "count"),
    _case("continuity_probe", _probe, "n", "count"),
    _case("continuity_probe", _probe, "tol", "tol"),
    _case("continuity_probe", _probe, "max_iter", "count"),
    _case("raster", _raster, "nx", "count"),
    _case("raster", _raster, "ny", "count"),
    _case("raster", _raster, "workers", "count"),
    _case("trace_stable_curve", lambda c, **kw: trace_stable_curve(
        c, SADDLE, W5, CurveOptions(columns=8), **kw), "workers", "count"),
    _case("trace_unstable_curve", lambda c, **kw: trace_unstable_curve(c, SADDLE, **kw),
          "steps", "count"),
    _case("trace_unstable_curve", lambda c, **kw: trace_unstable_curve(c, SADDLE, **kw),
          "seed_radius", "tol"),
    _case("orbit", lambda c, **kw: orbit(c, P, **{"max_iter": 10, **kw}),
          "max_iter", "count"),
    _case("orbit", lambda c, **kw: orbit(c, P, 10, **kw), "conv_tol", "tol0"),
    _case("find_fixed_point", lambda c, **kw: find_fixed_point(c, P, **kw),
          "tol", "tol"),
    _case("taylor_along_eigenvector", _taylor, "degree", "count", EX4.map),
    _case("taylor_along_eigenvector", _taylor, "h", "tol", EX4.map),
    _case("check_competitive", lambda c, **kw: check_competitive(c, W5, **kw),
          "samples", "count"),
    _case("check_O_condition", lambda c, **kw: check_O_condition(c, W5, **kw),
          "pairs", "count"),
    _case("check_O_condition", lambda c, **kw: check_O_condition(c, W5, **kw),
          "seed", "count0"),
    _case("sweep_continuum", _sweep, "n", "count", EX2.map),
]


@pytest.mark.parametrize("call, key, kind, m", CASES)
def test_invalid_counts_and_tolerances_raise_before_any_evaluation(call, key, kind, m):
    for value in REJECTED[kind]:
        box = [0, 0, 0]
        with pytest.raises(ValueError, match=key):
            call(counting_map(m, box), **{key: value})
        assert box == [0, 0, 0], (key, value)


@pytest.mark.parametrize("call, key, kind, m", CASES)
def test_each_case_evaluates_the_counted_map(call, key, kind, m):
    # without the keyword the call runs, on the counted map: the zero counts
    # above are not for want of a counted path
    box = [0, 0, 0]
    call(counting_map(m, box))
    assert box[0] + box[1] > 0


def test_first_nonzero_index_rejects_invalid_tolerances(ex4):
    ray = taylor_along_eigenvector(ex4.map, Point2(2.0, 1.0), Point2(-1.0, 1.0))
    for value in REJECTED["tol0"]:
        with pytest.raises(ValueError, match="tol"):
            first_nonzero_index(ray, tol=value)
    assert first_nonzero_index(ray, tol=0) == first_nonzero_index(ray, tol=0.0)


EX1, EX3_T = make_example("ex1"), make_example("ex3_T")
EX1_FP = find_fixed_point(EX1.map, Point2(1e-9, 1.0))


# (entry point, the argument the message names, a call with one coordinate
# v, the map it evaluates)
POINTS = [
    pytest.param(lambda c, v: orbit(c, Point2(v, 1.0), 10), "p", EX1.map, id="orbit-p"),
    pytest.param(lambda c, v: raster(c, Point2(v, 1.0), Rect(0, 6, 0, 4), 8, 8),
                 "fp", EX4.map, id="raster-fp"),
    pytest.param(lambda c, v: continuity_probe(c, ((v, 0.1), (0.1, 4.0)), 8),
                 "segment end", EX1.map, id="continuity_probe-start"),
    pytest.param(lambda c, v: continuity_probe(c, ((0.1, 0.1), (0.1, v)), 8),
                 "segment end", EX1.map, id="continuity_probe-end"),
    pytest.param(lambda c, v: locate_ordinate(c, EX1_FP, v, Rect(0, 5, 0, 6)),
                 "x", EX1.map, id="locate_ordinate-x"),
    pytest.param(lambda c, v: find_fixed_point(c, (v, 1.0)),
                 "guess", EX4.map, id="find_fixed_point-guess"),
    pytest.param(lambda c, v: find_period_two(c, (1.0 + v, 4.0)),
                 "guess", EX3_T.map, id="find_period_two-guess"),
    pytest.param(lambda c, v: taylor_along_eigenvector(c, (4.0 * v, 1.0), (-1.0, 1.0)),
                 "fp", EX4.map, id="taylor_along_eigenvector-fp"),
    pytest.param(lambda c, v: taylor_along_eigenvector(c, (2.0, 1.0), (-2.0 * v, 1.0)),
                 "v", EX4.map, id="taylor_along_eigenvector-v"),
    pytest.param(lambda c, v: find_order_interval(c, (4.0 * v, 1.0), (-1.0, 1.0),
                                                  "even_se_negative"),
                 "fp", EX4.map, id="find_order_interval-fp"),
    pytest.param(lambda c, v: find_order_interval(c, (2.0, 1.0), (-2.0 * v, 1.0),
                                                  "even_se_negative"),
                 "v", EX4.map, id="find_order_interval-v"),
]


@pytest.mark.parametrize("call, name, m", POINTS)
def test_non_finite_points_raise_before_any_evaluation(call, name, m):
    # unchecked, a non-finite coordinate gives a plausible answer: an orbit
    # from (inf, 1) ended by a singularity, every raster cell band, a probe
    # with max_gap 0 over divergent samples, a column without a bracket, an
    # all-NaN Taylor ray; or a misleading error: an orbit start outside the
    # domain, Newton stalled at a NaN guess, a ray direction refused as
    # one-signed
    for value in (math.nan, math.inf, -math.inf):
        box = [0, 0, 0]
        with pytest.raises(ValueError, match=name):
            call(counting_map(m, box), value)
        assert box == [0, 0, 0], (name, value)
    box = [0, 0, 0]
    call(counting_map(m, box), 0.5)
    assert box[0] > 0


CLASSIFIERS = [
    pytest.param(lambda c, v: classify_side(c, Point2(v, 1.0), Point2(2.0, 1.0)),
                 "p", id="classify_side-p"),
    pytest.param(lambda c, v: classify_side(c, Point2(1.0, 1.0), Point2(v, 1.0)),
                 "fp", id="classify_side-fp"),
    pytest.param(lambda c, v: classify_batch(c, [1.0], [1.0], Point2(v, 1.0)),
                 "fp", id="classify_batch-fp"),
    pytest.param(lambda c, v: classify_batch(c, [2.5] * 40, [0.5] * 39 + [v],
                                             Point2(2.0, 1.0)),
                 "xs and ys", id="classify_batch-ys"),
    pytest.param(lambda c, v: classify_batch(c, [[v, 2.5]], [[0.5, 0.5]],
                                             Point2(2.0, 1.0)),
                 "xs and ys", id="classify_batch-xs"),
    pytest.param(lambda c, v: limit_equilibrium(c, Point2(v, 1.0)), "p",
                 id="limit_equilibrium-p"),
]


@pytest.mark.parametrize("call, name", CLASSIFIERS)
def test_classifiers_refuse_non_finite_points(call, name):
    # unchecked, classify_side(ex4, (1, 1), (nan, 1)) reads undecided after
    # 11 iterations and limit_equilibrium(ex1, (nan, 1)) a singularity record
    for m in (EX4.map, EX1.map):
        for value in (math.nan, math.inf, -math.inf):
            box = [0, 0, 0]
            with pytest.raises(ValueError, match=name):
                call(counting_map(m, box), value)
            assert box == [0, 0, 0], (name, value)
        box = [0, 0, 0]
        call(counting_map(m, box), 1.5)
        assert box[0] > 0


@pytest.mark.parametrize("n, k", [(2, 1), (40, 3)])
def test_classify_batch_refuses_coordinates_of_two_shapes(n, k):
    # unchecked, 2 and 1 points give two codes, the second for a point never
    # classified, and 40 and 3 raise numpy's broadcast error mid-call
    box = [0, 0, 0]
    with pytest.raises(ValueError, match=rf"\({n},\) and \({k},\)"):
        classify_batch(counting_map(EX4.map, box), [2.5] * n, [0.5] * k,
                       Point2(2.0, 1.0))
    assert box == [0, 0, 0]
