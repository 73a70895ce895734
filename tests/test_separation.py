"""C separates the raster: a traced invariant curve and a basin raster of the
same map, fixed point and window agree on the side of every cell clear of
the curve.

By the paper's theorem the increasing invariant curve C through the fixed
point splits the region into invariant parts, W- above C and W+ below it, so
a minus cell lies above C and a plus cell below it. The trace locates C by
bisection on verdicts along columns, the raster classifies cell centres and
infers cells from the southeast order, so neither method can pass this check
by agreeing with its own audit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (CurveOptions, Point2, Rect, ex5_equilibria, find_fixed_point,
                     make_example, raster, trace_stable_curve)
from compmap import curves
from compmap.basins import LABEL_CODES, raster_options

SLACK = 1e-6

# example id, fixed-point guess, window
CASES = {
    "ex1": ("ex1", Point2(1e-9, 1.0), Rect(0.0, 5.0, 0.0, 6.0)),
    "ex3_T2": ("ex3_T2", Point2(3.0, 1.5), Rect(0.5, 8.0, 0.5, 8.0)),
    "ex5_saddle": ("ex5", ex5_equilibria(make_example("ex5").params)[1],
                   Rect(0.0, 1.5, 0.0, 1.5)),
    "ex4": ("ex4", Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0)),
}


@pytest.fixture(scope="module")
def fixed_points():
    maps = {name: make_example(eid).map for name, (eid, _guess, _w) in CASES.items()}
    return {name: (m, find_fixed_point(m, CASES[name][1])) for name, m in maps.items()}


def test_every_case_has_a_linear_gap(fixed_points):
    # so every trace below is guided where the order licence holds, the one
    # at ex4's nonhyperbolic fixed point too
    assert all(curves._linear_gap(rec.eigen) is not None
               for _m, rec in fixed_points.values())


def sides(curve, r):
    """(cells compared, cells on the wrong side of curve) over raster r.

    A cell is clear of the curve when its x-extent lies inside the curve's
    vertex range and its centre is farther from the curve's interpolated
    ordinate than the curve's rise over that extent plus SLACK. A minus
    cell clear of the curve is on the wrong side below it, a plus cell
    above it."""
    xs = np.array([v.x for v in curve.vertices])
    ys = np.array([v.y for v in curve.vertices])
    w = r.window
    edges = w.x_lo + np.arange(r.nx + 1) * (w.width() / r.nx)
    cx, cy = (edges[:-1] + edges[1:]) / 2, w.y_lo + (np.arange(r.ny) + 0.5) * (w.height() / r.ny)
    inside = (xs[0] <= edges[:-1]) & (edges[1:] <= xs[-1])
    rise = np.interp(edges[1:], xs, ys) - np.interp(edges[:-1], xs, ys)
    above = cy[:, None] - np.interp(cx, xs, ys)[None, :]
    clear = inside & (np.abs(above) > rise + SLACK)
    minus, plus = r.labels == LABEL_CODES["minus"], r.labels == LABEL_CODES["plus"]
    wrong = (minus & (above < 0)) | (plus & (above > 0))
    return int((clear & (minus | plus)).sum()), int((clear & wrong).sum())


@pytest.mark.parametrize("name, compared", [("ex1", 8631), ("ex3_T2", 15033),
                                            ("ex5_saddle", 11157), ("ex4", 13204)])
def test_curve_separates_the_raster(fixed_points, name, compared):
    # 256-column traces and 128 x 128 rasters at default options
    m, rec = fixed_points[name]
    w = CASES[name][2]
    curve = trace_stable_curve(m, rec, w)
    assert sides(curve, raster(m, rec.location, w, 128, 128)) == (compared, 0)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CASES)),
       stretch=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
       curve_tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
       max_iter=st.sampled_from([60, 500, 5000]), batch=st.booleans(),
       columns=st.integers(8, 64), cells=st.integers(8, 32))
def test_curve_separates_drawn_rasters(fixed_points, name, stretch, curve_tol,
                                       max_iter, batch, columns, cells):
    # a short max_iter leaves cells undecided and columns skipped or flagged;
    # only minus and plus cells clear of the curve are compared
    m, rec = fixed_points[name]
    w = CASES[name][2]
    w = Rect(w.x_lo, w.x_hi * (1.0 + stretch[0]), w.y_lo, w.y_hi * (1.0 + stretch[1]))
    if not batch:
        m = replace(m, batch=None)
    curve = trace_stable_curve(m, rec, w, CurveOptions(columns=columns,
                                                       curve_tol=curve_tol,
                                                       max_iter=max_iter))
    opts = replace(raster_options(m, w), max_iter=max_iter)
    assert sides(curve, raster(m, rec.location, w, cells, cells, opts))[1] == 0
