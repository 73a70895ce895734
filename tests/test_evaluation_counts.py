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


def _lockstep_calls(monkeypatch, kernel, run):
    """The number of calls run makes to curves.<kernel>, the lockstep kernel
    of a mode (_limits_lockstep or _quadrant_batch)."""
    calls = [0]
    kernel_fn = getattr(curves, kernel)

    def spy(*args):
        calls[0] += 1
        return kernel_fn(*args)

    monkeypatch.setattr(curves, kernel, spy)
    run()
    return calls[0]


def test_ex1_trace_64_columns():
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == 41_878


def test_ex1_trace_64_columns_batch_calls():
    # one batch call per lockstep round of each lockstep call, plus the order
    # licence's image batch: one probe call over every probe of every column,
    # three calls of T*-guided location, then the calls that certify and
    # replay the bisection, settling two levels each
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations_and_batch_calls(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == (41_878, 173)


def test_ex1_trace_lockstep_calls(monkeypatch):
    # every lockstep call of limit mode (classify_batch, and T* in _locate) is
    # one _limits_lockstep call: 1 probe call, 3 location calls and 2 calls
    # that certify and replay
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _lockstep_calls(monkeypatch, "_limits_lockstep", lambda: trace_stable_curve(
        m, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions())) == 6


def test_ex3_t2_trace_lockstep_calls(monkeypatch):
    # 1 probe call, 5 location calls and 2 calls that certify and replay
    m = make_example("ex3_T2").map
    fp = find_fixed_point(m, Point2(3.0, 1.5))
    assert _lockstep_calls(monkeypatch, "_limits_lockstep", lambda: trace_stable_curve(
        m, fp, Rect(0.5, 8.0, 0.5, 8.0), CurveOptions())) == 8


def test_ex5_trace_64_columns_quadrant_mode():
    # the saddle's separatrix in quadrant mode: one probe call, location by
    # the exit-rate gap, then the replayed bisection
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _evaluations_and_batch_calls(sys.map, lambda c: trace_stable_curve(
        c, saddle, Rect(0.0, 1.5, 0.0, 1.5), CurveOptions(columns=64))) == (9_357, 107)


def test_ex5_trace_quadrant_mode_guided_calls(monkeypatch):
    # 256 columns: 1 probe call, 5 location calls and 2 calls that certify
    # and replay; the order licence samples 200 Jacobians next to the
    # hypotheses' 200
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    box = [0, 0, 0]
    assert _lockstep_calls(monkeypatch, "_quadrant_batch", lambda: trace_stable_curve(
        counting_map(sys.map, box), saddle, Rect(0.0, 1.5, 0.0, 1.5),
        CurveOptions())) == 8
    assert box == [37_576, 400, 121]


def test_ex4_trace_quadrant_mode_is_not_guided(monkeypatch):
    # ex4's fixed point is nonhyperbolic (mu = 1): no exit-rate gap and no
    # licence, so the trace bisects every column, as before guided quadrant
    # traces: 1 probe call and 13 bisection calls
    m = make_example("ex4").map
    fp = find_fixed_point(m, Point2(2.0, 1.0))
    assert curves._exit_rate(fp.eigen) is None
    box = [0, 0, 0]
    assert _lockstep_calls(monkeypatch, "_quadrant_batch", lambda: trace_stable_curve(
        counting_map(m, box), fp, Rect(0.0, 6.0, 0.0, 4.0),
        CurveOptions(columns=64))) == 14
    assert box == [13_720, 200, 105]


def _ex1_columns(m, n, licensed=False):
    fp = find_fixed_point(make_example("ex1").map, Point2(1e-9, 1.0))
    slope = fp.eigen.v_lam.y / fp.eigen.v_lam.x
    sopts = curves._bisect_options(m, CurveOptions())
    return curves._solve_columns(m, fp.location, slope,
                                 [0.05 + 0.07 * i for i in range(n)],
                                 Rect(0.0, 5.0, 0.0, 6.0), 1e-8, sopts, licensed)


def test_ex1_columns_without_batch_bisect_one_level():
    # the scalar loops pay per evaluation, so no midpoint is classified ahead;
    # every probe is classified, past the bracket too
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64)) == 59_893


def test_ex1_licensed_columns_without_batch_classify_every_probe():
    # without a batch step too, every probe of every column is classified;
    # T*-guided location then replays the bisections
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64, licensed=True)) == 43_406


def test_ex1_16_columns_bisect_one_level():
    # BATCH_HANDOFF or fewer columns finish in the scalar loops too
    assert _evaluations(make_example("ex1").map,
                        lambda c: _ex1_columns(c, 16)) == 17_343


def test_ex5_unstable_trace():
    # 64 seeds step together: one batch call per step, 100 steps, plus the
    # three scalar steps of the endpoint analysis
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _evaluations_and_batch_calls(sys.map, lambda c: trace_unstable_curve(
        c, saddle)) == (6_403, 100)


def test_unstable_trace_without_batch_where_seeds_fail():
    # a map without batch step is asked once per seed and step, a raising
    # seed included: 32 seeds end at the wall, each asked once there; a
    # truncated end is labelled without asking the map
    m = wall_map()
    rec = find_fixed_point(m, Point2(0.1, 0.05))
    assert _evaluations(m, lambda c: trace_unstable_curve(c, rec, steps=40)) == 1_005


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
