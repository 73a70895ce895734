"""Pinned map-evaluation counts (step calls plus batch elements, and for
the boundary check also jac calls plus batch_jac elements) of small fixed
inputs. A change that makes compmap do more or less work on them changes a
pin here, and says why in CHANGES.md."""

from compmap import (CurveOptions, Point2, Rect, check_boundary_endpoint_conditions,
                     continuity_probe, find_fixed_point, make_example, raster,
                     trace_stable_curve)

from helpers import counting_map


def _evaluations(m, run, jacobians=False):
    box = [0, 0]
    run(counting_map(m, box))
    return tuple(box) if jacobians else box[0]


def test_ex1_trace_64_columns():
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0))
    assert _evaluations(m, lambda c: trace_stable_curve(
        c, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions(columns=64))) == 52_165


def test_ex2_raster_32():
    assert _evaluations(make_example("ex2").map, lambda c: raster(
        c, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0), 32, 32)) == 33_378


def test_ex1_continuity_probe_64():
    assert _evaluations(make_example("ex1").map, lambda c: continuity_probe(
        c, (Point2(0.1, 0.1), Point2(0.1, 4.0)), 64, tol=1e-12)) == 1_425


def test_ex3_t_boundary_check():
    m = make_example("ex3_T").map
    fp = find_fixed_point(m, Point2(2.0, 2.0))
    assert fp.location == (2.0, 2.0)
    assert _evaluations(m, lambda c: check_boundary_endpoint_conditions(
        c, fp, Rect(0.0, 5.0, 0.0, 5.0)), jacobians=True) == (1_473, 781)
