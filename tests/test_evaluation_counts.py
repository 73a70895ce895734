"""Pinned map-evaluation counts (step calls plus batch elements, and for
the boundary check also jac calls plus batch_jac elements) of small fixed
inputs, and for the curve traces the number of batch calls too. A change
that makes compmap do more or less work on them changes a pin here, and
says why in CHANGES.md."""

from dataclasses import replace
from sys import _getframe

import pytest

from compmap import (CurveOptions, Point2, Rect, check_boundary_endpoint_conditions,
                     check_competitive, continuity_probe, ex5_equilibria,
                     find_fixed_point, make_example, raster, trace_stable_curve,
                     trace_unstable_curve)
from compmap import basins, curves

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
    """The number of calls run makes to basins.<kernel>, the lockstep kernel
    of a mode (_limits_lockstep or _quadrant_batch)."""
    calls = [0]
    kernel_fn = getattr(basins, kernel)

    def spy(*args):
        calls[0] += 1
        return kernel_fn(*args)

    monkeypatch.setattr(basins, kernel, spy)
    run()
    return calls[0]


def test_ex1_trace_64_columns():
    # the certifying call classifies each band's bisection subtree, both
    # halves below every midpoint inside the band where bisection visits one,
    # next to the curve where orbits run longest; the location calls stop
    # each orbit once its gap reads linear
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == 41_195


def test_ex1_trace_64_columns_batch_calls():
    # one batch call per lockstep round of each lockstep call, plus the order
    # licence's image batch: one probe call over every probe of every column,
    # three location calls, which stop each orbit once the step of T* is
    # below 1e-6, then one call that certifies every band and classifies the
    # bisection subtree inside it
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations_and_batch_calls(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == (41_195, 111)


def test_ex1_trace_lockstep_calls(monkeypatch):
    # every lockstep call of limit mode (classify_batch, and T* in _locate) is
    # one _limits_lockstep call: 1 probe call, 3 location calls and 1 call
    # that certifies every band and classifies its bisection subtree
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _lockstep_calls(monkeypatch, "_limits_lockstep", lambda: trace_stable_curve(
        m, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions())) == 5


def test_ex3_t2_trace_lockstep_calls(monkeypatch):
    # 1 probe call, 5 location calls and 1 call that certifies and finishes
    # every column
    m = make_example("ex3_T2").map
    fp = find_fixed_point(m, Point2(3.0, 1.5))
    assert _lockstep_calls(monkeypatch, "_limits_lockstep", lambda: trace_stable_curve(
        m, fp, Rect(0.5, 8.0, 0.5, 8.0), CurveOptions())) == 7


def test_ex5_trace_64_columns_quadrant_mode():
    # the saddle's separatrix in quadrant mode: one probe call, location by
    # the linear gap, whose orbits stop within sqrt(curve_tol) of the
    # saddle, then one call that certifies every band and classifies the
    # bisection subtree inside it
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _evaluations_and_batch_calls(sys.map, lambda c: trace_stable_curve(
        c, saddle, Rect(0.0, 1.5, 0.0, 1.5), CurveOptions(columns=64))) == (8_616, 61)


def test_ex5_trace_quadrant_mode_guided_calls(monkeypatch):
    # 256 columns: 1 probe call, 5 location calls and 1 call that certifies
    # and finishes every column; the order licence samples 200 Jacobians next
    # to the hypotheses' 200
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    box = [0, 0, 0]
    assert _lockstep_calls(monkeypatch, "_quadrant_batch", lambda: trace_stable_curve(
        counting_map(sys.map, box), saddle, Rect(0.0, 1.5, 0.0, 1.5),
        CurveOptions())) == 7
    assert box == [35_330, 400, 68]


def test_ex4_trace_quadrant_mode_guided_calls(monkeypatch):
    # ex4's fixed point is nonhyperbolic (mu = 1 - 1e-16), and its linear
    # gap guides the trace as at a saddle: 1 probe call, 4 location calls
    # and 1 call that certifies and finishes every column; the order licence
    # samples 200 Jacobians next to the hypotheses' 200 (unguided, the trace
    # made 1 probe call and 13 bisection calls: 13,720 evaluations in 105
    # batch calls)
    m = make_example("ex4").map
    fp = find_fixed_point(m, Point2(2.0, 1.0))
    assert curves._linear_gap(fp.eigen) is not None
    box = [0, 0, 0]
    assert _lockstep_calls(monkeypatch, "_quadrant_batch", lambda: trace_stable_curve(
        counting_map(m, box), fp, Rect(0.0, 6.0, 0.0, 4.0),
        CurveOptions(columns=64))) == 6
    assert box == [5_280, 400, 37]


def _trace_fixed_point(eid):
    """The map of example eid, the fixed point its benchmark trace runs at
    and that trace's window."""
    sys = make_example(eid)
    if eid == "ex5":
        return (sys.map, find_fixed_point(sys.map, ex5_equilibria(sys.params)[1]),
                Rect(0.0, 1.5, 0.0, 1.5))
    guess, window = {"ex1": (Point2(1e-9, 1.0), Rect(0.0, 5.0, 0.0, 6.0)),
                     "ex3_T2": (Point2(3.0, 1.5), Rect(0.5, 8.0, 0.5, 8.0))}[eid]
    return sys.map, find_fixed_point(sys.map, guess), window


@pytest.mark.parametrize("eid, longest", [("ex1", 13), ("ex3_T2", 10), ("ex5", 15)])
def test_location_orbits_stop_once_their_gap_is_linear(monkeypatch, eid, longest):
    # 256 columns: the location calls stop each orbit once its gap reads
    # linear, so none runs on to a verdict or a limit converged to 1e-12 (the
    # longest ran 25 iterations on ex1, 20 on ex3_T2 and 31 at the ex5 saddle)
    m, fp, window = _trace_fixed_point(eid)
    runs = []
    sided = curves._sided

    def spy(*args, **kwargs):
        codes, s, n = sided(*args, **kwargs)
        if _getframe(1).f_code.co_name == "_locate":
            runs.append(int(n.max()))
        return codes, s, n

    monkeypatch.setattr(curves, "_sided", spy)
    trace_stable_curve(m, fp, window, CurveOptions())
    assert runs and max(runs) <= longest


def _ex1_columns(m, n, licensed=False):
    fp = find_fixed_point(make_example("ex1").map, Point2(1e-9, 1.0))
    slope = fp.eigen.v_lam.y / fp.eigen.v_lam.x
    sopts = curves._bisect_options(m, CurveOptions())
    return curves._solve_columns(m, fp.location, slope,
                                 [0.05 + 0.07 * i for i in range(n)],
                                 Rect(0.0, 5.0, 0.0, 6.0), 1e-8, sopts,
                                 curves._linear_gap(fp.eigen) if licensed else None)


def test_ex1_columns_without_batch_bisect_one_level():
    # the scalar loops pay per evaluation, so no midpoint is classified ahead;
    # every probe is classified, past the bracket too
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64)) == 59_893


def test_ex1_licensed_columns_without_batch_classify_every_probe():
    # without a batch step too, every probe of every column is classified;
    # T*-guided location, its orbits stopped once their step is below 1e-6,
    # then replays the bisections
    m = replace(make_example("ex1").map, batch=None)
    assert _evaluations(m, lambda c: _ex1_columns(c, 64, licensed=True)) == 41_956


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


def _jacobian_batches(m, run):
    """The number of points of each batch_jac call run makes on a copy of m."""
    sizes = []

    def batch_jac(X, Y):
        sizes.append(X.size)
        return m.batch_jac(X, Y)

    run(replace(m, batch_jac=batch_jac))
    return sizes


def test_guided_traces_sample_jacobians_in_one_call():
    # the parts of delta (one at ex1's fixed point on the axis, two at the ex5
    # saddle) and the order licence's window and domain, 100 samples each
    ex1 = make_example("ex1").map
    fp = find_fixed_point(ex1, Point2(1e-9, 1.0))
    assert _jacobian_batches(ex1, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == [300]
    sys = make_example("ex5")
    saddle = find_fixed_point(sys.map, ex5_equilibria(sys.params)[1])
    assert _jacobian_batches(sys.map, lambda c: trace_stable_curve(
        c, saddle, Rect(0.0, 1.5, 0.0, 1.5), CurveOptions(columns=64))) == [400]


def test_unguided_trace_samples_delta_only():
    # no linear gap, so no order licence, at the ex5 node (|lam| < mu < 1):
    # its two parts of delta
    sys = make_example("ex5")
    node = find_fixed_point(sys.map, ex5_equilibria(sys.params)[0])
    assert curves._linear_gap(node.eigen) is None
    assert _jacobian_batches(sys.map, lambda c: trace_stable_curve(
        c, node, Rect(0.0, 1.5, 0.0, 1.5), CurveOptions(columns=64))) == [200]


def test_raster_licence_samples_in_one_call():
    # the window and the domain
    assert _jacobian_batches(make_example("ex2").map, lambda c: raster(
        c, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0), 32, 32)) == [200]


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
