"""Pinned map-evaluation counts (step calls plus batch elements, and for
the boundary check also jac calls plus batch_jac elements) of small fixed
inputs, and for the curve traces the number of batch calls too. A change
that makes compmap do more or less work on them changes a pin here, and
says why in CHANGES.md."""

from dataclasses import replace

from compmap import (CurveOptions, Point2, Rect, check_boundary_endpoint_conditions,
                     check_competitive, continuity_probe, ex5_equilibria,
                     find_fixed_point, make_example, raster, trace_stable_curve,
                     trace_unstable_curve)
from compmap import curves

from helpers import counting_map, patchy_map, wall_map


def _evaluations(m, run, jacobians=False):
    box = [0, 0, 0]
    run(counting_map(m, box))
    return tuple(box[:2]) if jacobians else box[0]


def _evaluations_and_batch_calls(m, run):
    box = [0, 0, 0]
    run(counting_map(m, box))
    return box[0], box[2]


def test_ex1_trace_64_columns():
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == 54_225


def test_ex1_trace_64_columns_batch_calls():
    # one batch call per lockstep round of each classify_batch call, plus the
    # order licence's image batch: about five probe calls (the licensed binary
    # probe scan), then bisection calls that settle two levels each
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations_and_batch_calls(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == (54_225, 461)


def test_ex5_trace_64_columns_quadrant_mode():
    # the saddle's separatrix in quadrant mode, under the same binary probe scan
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _evaluations_and_batch_calls(sys.map, lambda c: trace_stable_curve(
        c, saddle, Rect(0.0, 1.5, 0.0, 1.5), CurveOptions(columns=64))) == (19_866, 168)


def _ex1_columns(m, n, licensed=False):
    fp = find_fixed_point(make_example("ex1").map, Point2(1e-9, 1.0))
    slope = fp.eigen.v_lam.y / fp.eigen.v_lam.x
    sopts = curves._bisect_options(m, CurveOptions())
    return curves._solve_columns(m, fp.location, slope,
                                 [0.05 + 0.07 * i for i in range(n)],
                                 Rect(0.0, 5.0, 0.0, 6.0), 1e-8, sopts, licensed)


def test_ex1_columns_without_batch_bisect_one_level():
    # the scalar loops pay per evaluation, so no midpoint is classified ahead:
    # the count of the columns solved one at a time
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64)) == 54_426


def test_ex1_licensed_columns_without_batch_audit_one_probe_a_round():
    # without a batch step the audited columns scan one probe a round beside
    # the binary searches instead of classifying all their probes at once
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64, licensed=True)) == 35_095


def test_ex1_16_columns_bisect_one_level():
    # BATCH_HANDOFF or fewer columns finish in the scalar loops too
    assert _evaluations(make_example("ex1").map,
                        lambda c: _ex1_columns(c, 16)) == 13_903


def test_ex5_unstable_trace():
    # 64 seeds step together: one batch call per step, 100 steps, plus the
    # three scalar steps of the endpoint analysis
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _evaluations_and_batch_calls(sys.map, lambda c: trace_unstable_curve(
        c, saddle)) == (6_403, 100)


def test_unstable_trace_without_batch_where_seeds_fail():
    # a map without batch step is asked once per seed and step, a raising
    # seed included: 32 seeds end at the wall, each asked once there
    m = wall_map()
    rec = find_fixed_point(m, Point2(0.1, 0.05))
    assert _evaluations(m, lambda c: trace_unstable_curve(c, rec, steps=40)) == 1_007


def test_competitivity_check_without_batch_jac():
    # one jacobian call per sample, the 20 raising and 16 NaN ones included
    assert _evaluations(patchy_map(), lambda c: check_competitive(
        c, Rect(0, 5, 0, 5)), jacobians=True) == (0, 100)


def test_ex2_raster_32():
    assert _evaluations(make_example("ex2").map, lambda c: raster(
        c, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0), 32, 32)) == 13_044


def test_ex3_t2_raster_32():
    assert _evaluations(make_example("ex3_T2").map, lambda c: raster(
        c, Point2(4.0, 4.0 / 3.0), Rect(0.5, 8.0, 0.5, 8.0), 32, 32)) == 7_860


def test_ex4_raster_32_quadrant_mode():
    # quadrant mode classifies every cell, as before rasters inferred labels
    assert _evaluations(make_example("ex4").map, lambda c: raster(
        c, Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0), 32, 32)) == 808


def test_ex1_continuity_probe_64():
    assert _evaluations(make_example("ex1").map, lambda c: continuity_probe(
        c, (Point2(0.1, 0.1), Point2(0.1, 4.0)), 64, tol=1e-12)) == 1_425


def test_ex3_t_boundary_check():
    # 24 of the steps are scalar: halving candidates whose batch residual is
    # NaN, where only the step can tell a raise from a NaN
    m = make_example("ex3_T").map
    fp = find_fixed_point(m, Point2(2.0, 2.0))
    assert fp.location == (2.0, 2.0)
    assert _evaluations(m, lambda c: check_boundary_endpoint_conditions(
        c, fp, Rect(0.0, 5.0, 0.0, 5.0)), jacobians=True) == (1_497, 781)
