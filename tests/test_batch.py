"""The lockstep batch path against the scalar path it replaces.

Batch steps, classify_batch, raster, continuity_probe and the lockstep
column bisection of trace_stable_curve must reproduce the scalar results
exactly: the same floats bit for bit, the same labels, the same limits, the
same curves. Also pins the demo raster and curve bytes and keeps scipy out
of `import compmap`.
"""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (DEFAULT_PARAMS, EXAMPLE_IDS, CurveOptions, DomainError,
                     Point2, Rect, SideOptions, SingularityError,
                     continuity_probe, ex5_equilibria, expr_map,
                     find_fixed_point, make_example, raster,
                     raster_to_csv, raster_to_pgm, trace_stable_curve,
                     trace_unstable_curve)
from compmap import curves, planarmap
from compmap.basins import raster_options
from compmap.curves import (BATCH_HANDOFF, LABEL_CODES, classify_batch,
                            label_code, locate_ordinate)
from compmap.planarmap import PlanarMap
import helpers
from helpers import (column_pairs, column_probes, limit_orbit, linear_saddle_step,
                     scalar_classify_side, scalar_limit_equilibrium,
                     scalar_trace_unstable_curve, solve_columns_one_by_one,
                     solved_one_by_one, spy_bisection, wall_map)

QUADRANT = Rect(0.0, math.inf, 0.0, math.inf)

DSL_MAPS = {
    "power": ("x^2 - y/(1+x)", "(x*y)^2.5 + x^200"),
    "constant_g": ("x/(a+y)", "1"),
    "constant_f": ("-3", "y^3/(x-a)"),
    "zero_power": ("(x/y)^0 + x", "y^0.5"),
}


def _dsl(name):
    f, g = DSL_MAPS[name]
    return expr_map(f, g, {"a": 2.0}, name=name)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return float(a).hex() == float(b).hex()


coord = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, -2.0, 2.0, 1e-13, -1e-13, 5e-324]))


# ---------------------------------------------------------------------------
# (a) batch step == scalar step


@pytest.mark.parametrize("name", list(EXAMPLE_IDS) + sorted(DSL_MAPS))
@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=30),
       mirror=st.booleans())
def test_batch_step_matches_scalar_step(name, pts, mirror):
    m = make_example(name).map if name in EXAMPLE_IDS else _dsl(name)
    if mirror:  # y = -x zeroes denominators such as B1*x + y and x + y
        pts = pts + [(x, -x) for x, _ in pts]
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    BX, BY = m.batch(X, Y)
    assert BX.shape == BY.shape == X.shape
    for k, (x, y) in enumerate(pts):
        try:
            fx, fy = m.step(x, y)
        except SingularityError:
            assert math.isnan(BX[k]) or math.isnan(BY[k]), (x, y)
            continue
        assert _same_float(fx, BX[k]) and _same_float(fy, BY[k]), (x, y)


def test_constant_component_broadcasts():
    X = np.linspace(0.5, 2.0, 6).reshape(2, 3)
    fx, gy = _dsl("constant_g").batch(X, X + 1.0)
    assert fx.shape == gy.shape == (2, 3)
    assert np.all(gy == 1.0)
    fx, _ = _dsl("constant_f").batch(X + 3.0, X)  # clear of the pole x = a
    assert fx.shape == (2, 3) and np.all(fx == -3.0)


@settings(max_examples=80, deadline=None)
@given(c=st.one_of(st.sampled_from([0.0, -0.0, 1.5]), st.floats(-10.0, 10.0)),
       g=st.sampled_from(["(x-c)^0.5", "x*(x-c)^-0.5", "y"]), data=st.data())
def test_array_evaluators_report_what_the_scalar_map_raises(c, g, data):
    # _images and _jacobians on a map with poles, with and without its batch
    # callables: the same value bits, and the same exception types at the
    # same points
    m = expr_map("x/(y-c)", g, {"c": c})
    bare = replace(m, batch=None, batch_jac=None)
    at = st.one_of(st.floats(allow_nan=False), st.sampled_from(
        [0.0, -0.0, c, c + 1e-13, c - 1e-13, math.inf, -math.inf]))
    pts = data.draw(st.lists(st.tuples(at, at), min_size=1, max_size=12))
    X, Y = (np.array(v, dtype=float) for v in zip(*pts))
    for evaluate in (planarmap._images, planarmap._jacobians):
        with np.errstate(all="ignore"):
            got, got_raised = evaluate(m, X, Y)
            want, want_raised = evaluate(bare, X, Y)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert ({k: type(e) for k, e in got_raised.items()}
                == {k: type(e) for k, e in want_raised.items()})


# ---------------------------------------------------------------------------
# (b) classify_batch == classify_side per point, on the plain loops of helpers


@pytest.fixture(scope="module")
def side_cases(ex5_two):
    ex4 = make_example("ex4").map
    ex5 = make_example("ex5").map
    saddle = find_fixed_point(ex5, Point2(0.2354, 0.3522)).location
    dsl4 = expr_map("beta1*x/(B1*x+y)", "(alpha2+gamma2*y)/x",
                    make_example("ex4").params, domain=QUADRANT)
    return {
        "ex4": (ex4, Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0)),
        "ex4_dsl": (dsl4, Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0)),
        "ex4_scalar_only": (replace(ex4, batch=None), Point2(2.0, 1.0),
                            Rect(0.0, 6.0, 0.0, 4.0)),
        "ex2": (make_example("ex2").map, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0)),
        "ex3_T2": (make_example("ex3_T2").map, Point2(4.0, 4.0 / 3.0),
                   Rect(0.5, 8.0, 0.5, 8.0)),
        "ex5": (ex5, saddle, Rect(0.0, 1.5, 0.0, 1.5)),
        "ex5_two": (ex5_two.system.map, ex5_two.nonhyperbolic,
                    Rect(0.0, 1.6, 0.0, 1.2)),
    }


unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@pytest.mark.parametrize("case", ["ex4", "ex4_dsl", "ex4_scalar_only", "ex2",
                                  "ex3_T2", "ex5", "ex5_two"])
@pytest.mark.parametrize("mode", ["quadrant_escape", "limit_equilibrium"])
@settings(max_examples=25, deadline=None)
@given(uv=st.lists(st.tuples(unit, unit), max_size=60),
       max_iter=st.one_of(st.integers(1, 40), st.just(5000)),
       conv_tol=st.sampled_from([1e-12, 1e-8]),
       handoff=st.sampled_from([0, 16, 10**9]))
def test_classify_batch_matches_classify_side(side_cases, case, mode, uv,
                                              max_iter, conv_tol, handoff):
    m, fp, w = side_cases[case]
    xs = np.array([w.x_lo + u * w.width() for u, _ in uv])
    ys = np.array([w.y_lo + v * w.height() for _, v in uv])
    opts = replace(raster_options(m, w), mode=mode, max_iter=max_iter,
                   conv_tol=conv_tol)
    saved = curves.BATCH_HANDOFF
    curves.BATCH_HANDOFF = handoff
    try:
        got = classify_batch(m, xs, ys, fp, opts)
    finally:
        curves.BATCH_HANDOFF = saved
    want = [label_code(scalar_classify_side(m, Point2(x, y), fp, opts))
            for x, y in zip(xs.tolist(), ys.tolist())]
    assert got.tolist() == want


def test_handoff_keeps_the_remaining_budget():
    # 40 points decide at once, so the slow one is handed off after round 1
    # and must have one iteration fewer left than it needs
    m = make_example("ex4").map
    fp = Point2(2.0, 1.0)
    slow = Point2(4.581, 2.963)
    opts = SideOptions(epsilon_margin=1e-4 * Rect(0.0, 6.0, 0.0, 4.0).diagonal(),
                       max_iter=5000)
    need = scalar_classify_side(m, slow, fp, opts).iterations_used
    assert need >= 2
    opts = replace(opts, max_iter=need - 1)
    xs = [0.5] * 40 + [slow.x]
    ys = [3.5] * 40 + [slow.y]
    want = [label_code(scalar_classify_side(m, Point2(x, y), fp, opts))
            for x, y in zip(xs, ys)]
    assert want[-1] == LABEL_CODES["undecided"]
    assert classify_batch(m, xs, ys, fp, opts).tolist() == want


def test_band_wins_ties_with_minus_and_plus():
    # corners of the band square are also on the edge of int Q2 / int Q4
    m = make_example("ex4").map
    xs = [1.5] * 20 + [2.5] * 20
    ys = [1.5] * 20 + [0.5] * 20
    got = classify_batch(m, xs, ys, Point2(2.0, 1.0), SideOptions(epsilon_margin=0.5))
    assert got.tolist() == [LABEL_CODES["band"]] * 40


# Maps whose orbits end in every way a lockstep round can retire them: a
# pole (guarded division), x^320 overflowing math.pow, passing
# ESCAPE_BOUND, leaving the domain, a first step below tol (starts on a
# fixed point), or running out of max_iter.
RETIRING_MAPS = {
    "pole": ("x/(a - y)", "y/(a - x)", None),
    "power": ("a*x + x^320", "a*y - x/(1 + y)", None),
    "saddle": ("a*x", "y/a", None),
    "box": ("a*x - y", "a*y - x", Rect(-4.0, 4.0, -4.0, 3.0)),
}
retiring_coord = st.one_of(st.floats(-12.0, 12.0),
                           st.sampled_from([0.0, 1.0, -1.0, 10.0, 0.5]))


def _retiring_map(name, a):
    f, g, domain = RETIRING_MAPS[name]
    return expr_map(f, g, {"a": a}, domain=domain, name=name)


@pytest.mark.parametrize("name", sorted(RETIRING_MAPS))
@pytest.mark.parametrize("mode", ["quadrant_escape", "limit_equilibrium"])
@settings(max_examples=30, deadline=None)
@given(a=st.sampled_from([0.5, 1.5, 2.0, 3.0, 40.0]),
       pts=st.lists(st.tuples(retiring_coord, retiring_coord),
                    min_size=BATCH_HANDOFF + 1, max_size=60),
       fp=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (-2.0, 3.0)]),
       eps=st.sampled_from([0.0, 1e-9, 0.25]),
       max_iter=st.one_of(st.integers(1, 40), st.just(5000)),
       conv_tol=st.sampled_from([1e-12, 1e-3]))
def test_lockstep_retirements_match_the_scalar_loops(name, mode, a, pts, fp, eps,
                                                     max_iter, conv_tol):
    m = _retiring_map(name, a)
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    opts = SideOptions(mode=mode, epsilon_margin=eps, max_iter=max_iter,
                       conv_tol=conv_tol)
    want = [label_code(scalar_classify_side(m, Point2(x, y), Point2(*fp), opts))
            for x, y in pts]
    assert classify_batch(m, X, Y, Point2(*fp), opts).tolist() == want
    LX, LY, singular, N = curves._limits_lockstep(m, X, Y, conv_tol, max_iter)
    for k, (x, y) in enumerate(pts):
        flag, lx, ly, n = limit_orbit(m.step, x, y, 0, conv_tol, max_iter)
        if flag:
            assert math.isnan(LX[k]) and math.isnan(LY[k])
        else:
            assert float(LX[k]).hex() == lx.hex() and float(LY[k]).hex() == ly.hex()
        assert bool(singular[k]) == (flag == "singularity")
        assert N[k] == n


def test_lockstep_retirements_cover_every_flag():
    # the drawn inputs above can end orbits in every way: one fixed input
    # per map shows each flag arising with more than BATCH_HANDOFF points
    flags = set()
    grid = [(x, y) for x in (-9.0, -1.0, 0.0, 0.5, 1.0, 2.5, 9.5, 11.0)
            for y in (-3.0, 0.0, 0.5, 1.0, 2.0)]
    for name in sorted(RETIRING_MAPS):
        m = _retiring_map(name, 1.5)
        X = np.array([p[0] for p in grid])
        Y = np.array([p[1] for p in grid])
        for mode in ("quadrant_escape", "limit_equilibrium"):
            opts = SideOptions(mode=mode, epsilon_margin=1e-9, max_iter=25)
            verdicts = [scalar_classify_side(m, Point2(*p), Point2(0.0, 0.0), opts)
                        for p in grid]
            assert (classify_batch(m, X, Y, Point2(0.0, 0.0), opts).tolist()
                    == [label_code(v) for v in verdicts])
            flags |= {v.flag or v.label for v in verdicts}
        first = [limit_orbit(m.step, x, y, 0, 1e-12, 25) for x, y in grid]
        flags |= {"first_round" for f in first if not f[0] and f[3] == 0}
    assert flags >= {"singularity", "divergence", "escape", "max_iter",
                     "first_round", "minus", "plus"}


@pytest.mark.parametrize("f, g, domain, start, fp, eps, max_iter, label", [
    # orbits reach a verdict exactly on its boundary (or a pole on the
    # last step), and the next image would leave the domain: a round late
    # or early reads undecided
    ("x + 1", "y", Rect(-10, 0, -10, 10), (-3, -1), (0, 0), 0.0, 50, "plus"),
    ("x", "y + 1", Rect(-10, 10, -10, 0), (-1, -3), (0, 0), 0.0, 50, "minus"),
    ("x + 0.25", "y", Rect(-10, -0.25, -10, 10), (-1, 0), (0, 0), 0.25, 50, "band"),
    ("x + 1", "y/(x - 3)", None, (0, 1), (10, 10), 1e-9, 2, "undecided"),
    ("x + 1", "y/(x - 3)", None, (0, 1), (10, 10), 1e-9, 3, "singular"),
    ("x + 1", "y/(x - 3)", None, (0, 1), (10, 10), 1e-9, 4, "singular"),
    # x = ESCAPE_BOUND goes on; its image beyond the bound is decided first
    ("x + 1", "y", None, (1e6 - 2, -1), (1e6 + 0.5, 0), 1e-9, 50, "plus"),
])
def test_quadrant_lockstep_retires_on_exact_boundaries(f, g, domain, start, fp, eps,
                                                       max_iter, label):
    m = expr_map(f, g, {}, domain=domain)
    opts = SideOptions(epsilon_margin=eps, max_iter=max_iter)
    n = BATCH_HANDOFF + 4
    assert label_code(scalar_classify_side(m, Point2(*start), Point2(*fp), opts)) \
        == LABEL_CODES[label]
    got = classify_batch(m, [start[0]] * n, [start[1]] * n, Point2(*fp), opts)
    assert got.tolist() == [LABEL_CODES[label]] * n


def test_limit_lockstep_step_equal_to_tol_goes_on():
    # from x = 0 the first steps are exactly 1e-6 = tol, not below it; the
    # step from the rounded 3e-6 is the first below
    m = expr_map("x + 0.000001", "y", {})
    X = np.zeros(BATCH_HANDOFF + 4)
    Y = np.arange(BATCH_HANDOFF + 4, dtype=float)
    LX, LY, singular, N = curves._limits_lockstep(m, X, Y, 1e-6, 30)
    flag, x, _y, n = limit_orbit(m.step, 0.0, 0.0, 0, 1e-6, 30)
    assert (flag, n) == ("", 3)
    assert LX.tolist() == [x] * len(X) and LY.tolist() == Y.tolist()
    assert N.tolist() == [n] * len(X)
    assert not singular.any()


@pytest.mark.parametrize("f, flags", [
    # an orbit that converges at |x| = ESCAPE_BOUND has its limit there
    ("x", ["", "", "divergence", ""]),
    # an image on the bound goes on; the next one, beyond it, has diverged
    ("x + 1", ["divergence", "divergence", "divergence", "max_iter"]),
])
def test_limit_lockstep_on_the_escape_bound(f, flags):
    m = expr_map(f, "0.5*y", {})
    edge = curves.ESCAPE_BOUND
    xs = [edge, edge - 1, math.nextafter(edge, math.inf), 1.0] * 5
    LX, LY, singular, N = curves._limits_lockstep(m, np.array(xs),
                                                  np.full(len(xs), 1e-9), 1e-6, 50)
    for k, x in enumerate(xs):
        flag, lx, ly, n = limit_orbit(m.step, x, 1e-9, 0, 1e-6, 50)
        assert (flag, N[k]) == (flags[k % 4], n)
        assert (math.isnan(LX[k]) if flag else (LX[k], LY[k]) == (lx, ly))
    assert not singular.any()


@settings(max_examples=40, deadline=None)
@given(fp=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       slope=st.floats(-20.0, 20.0), curve_tol=st.sampled_from([1e-8, 1e-3, 0.5]),
       window=st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 10.0),
                        st.floats(-5.0, 5.0), st.floats(0.01, 10.0)),
       us=st.lists(st.floats(-0.1, 1.1), max_size=40))
def test_probe_matrix_matches_the_per_column_lists(fp, slope, curve_tol, window,
                                                   us):
    x_lo, w, y_lo, h = window
    win = Rect(x_lo, x_lo + w, y_lo, y_lo + h)
    cxs = [fp[0] + 0.06 * w * (2.0 * u - 1.0) if k % 2 else x_lo + u * w
           for k, u in enumerate(us)]
    P = curves._probe_matrix(Point2(*fp), slope, np.array(cxs, dtype=float), win,
                             curve_tol)
    cols = [column_probes(Point2(*fp), slope, cx, win, curve_tol) for cx in cxs]
    assert P.shape == (len(cxs), max(map(len, cols), default=0))
    for row, col in zip(P.tolist(), cols):
        assert [v.hex() for v in row[:len(col)]] == [v.hex() for v in col]
        assert all(math.isnan(v) for v in row[len(col):])


@settings(max_examples=200, deadline=None)
@given(x_lo=st.floats(-5.0, 5.0), width=st.floats(1e-6, 10.0),
       at=st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1.0])),
       columns=st.integers(1, 1000))
def test_column_positions_match_the_sorted_set(x_lo, width, at, columns):
    # the array form keeps every abscissa's bits, Python's ** powers included
    w = Rect(x_lo, x_lo + width, 0.0, 1.0)
    fpx = w.x_lo + at * width
    got = curves._column_positions(w, fpx, columns).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in helpers.column_positions(
        w, fpx, columns)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40), probes=st.integers(1, 19))
def test_probe_scan_matches_the_row_loop(data, rows, probes):
    # drawn verdicts of all five codes over ascending ordinates, each row
    # NaN-padded (and undecided) past its own probe count as _probe_matrix
    # pads it: the whole-matrix scan reads what the loop over probe indices
    # read, field by field, and finds a plus above a minus where it did
    code = st.integers(0, len(curves.LABEL_NAMES) - 1)
    V = np.array(data.draw(st.lists(st.lists(code, min_size=probes, max_size=probes),
                                    min_size=rows, max_size=rows)), dtype=np.uint8)
    counts = np.array(data.draw(st.lists(st.integers(1, probes), min_size=rows,
                                         max_size=rows)))
    P = np.arange(rows * probes, dtype=float).reshape(rows, probes) / probes
    pad = np.arange(probes) >= counts[:, None]
    P[pad], V[pad] = math.nan, curves._UNDECIDED
    got, want = curves._scan(V, P), helpers.scan_rows(V, P)
    for g, w in zip(got[:5], want[:5]):
        assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w, equal_nan=True)
    assert got[5] is want[5]


# ---------------------------------------------------------------------------
# (c) raster == a scalar_classify_side loop over the cell centers


def _scalar_raster_labels(m, fp, window, nx, ny, opts):
    labels = np.empty((ny, nx), dtype=np.uint8)
    dx = window.width() / nx
    for j in range(ny):
        y = window.y_lo + (j + 0.5) * window.height() / ny
        for i in range(nx):
            x = window.x_lo + (i + 0.5) * dx
            labels[j, i] = label_code(scalar_classify_side(m, Point2(x, y), fp, opts))
    return labels


@pytest.mark.parametrize("case", ["ex4", "ex4_dsl", "ex5", "ex5_two", "ex2", "ex3_T2"])
def test_raster_matches_scalar_loop(side_cases, case):
    m, fp, w = side_cases[case]
    r = raster(m, fp, w, 128, 128)
    want = _scalar_raster_labels(m, fp, w, 128, 128, raster_options(m, w))
    assert np.array_equal(r.labels, want)


# ---------------------------------------------------------------------------
# (d) continuity_probe limits == scalar_limit_equilibrium per sample


PROBE_MAPS = {
    "ex1": (lambda: make_example("ex1").map, Rect(0.0, 5.0, 0.0, 5.0)),
    "ex2": (lambda: make_example("ex2").map, Rect(0.0, 2.0, 0.0, 2.0)),
    "ex3_T": (lambda: make_example("ex3_T").map, Rect(0.2, 5.0, 0.2, 5.0)),
    "ex3_T2": (lambda: make_example("ex3_T2").map, Rect(0.2, 5.0, 0.2, 5.0)),
    "ex4": (lambda: make_example("ex4").map, Rect(0.0, 6.0, 0.0, 4.0)),
    "ex1_dsl": (lambda: expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0}),
                Rect(0.0, 5.0, 0.0, 5.0)),
}


@pytest.mark.parametrize("name", sorted(PROBE_MAPS))
@settings(max_examples=20, deadline=None)
@given(ends=st.tuples(unit, unit, unit, unit), n=st.integers(2, 40),
       tol=st.sampled_from([1e-10, 1e-12]),
       max_iter=st.sampled_from([1, 2, 7, 300, 5000]))
def test_continuity_probe_matches_limit_equilibrium(name, ends, n, tol, max_iter):
    build, w = PROBE_MAPS[name]
    m = build()
    a = Point2(w.x_lo + ends[0] * w.width(), w.y_lo + ends[1] * w.height())
    b = Point2(w.x_lo + ends[2] * w.width(), w.y_lo + ends[3] * w.height())
    rep = continuity_probe(m, (a, b), n, tol=tol, max_iter=max_iter)
    want = []
    for k in range(n):
        t = k / (n - 1)
        p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        want.append(scalar_limit_equilibrium(m, p, tol=tol, max_iter=max_iter).limit)
    assert list(rep.limits) == want
    assert rep.divergent == sum(q is None for q in want)


@pytest.mark.parametrize("name, seg", [
    ("ex1", ((0.2, 4.8), (4.8, 0.2))),
    ("ex3_T", ((0.5, 0.5), (4.0, 3.0))),  # period-two orbits: no sample converges
])
@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("max_iter", [3, 34, 5000])
def test_continuity_probe_hands_off_to_the_scalar_loop(name, seg, n, max_iter):
    m = make_example(name).map
    steps = []

    def step(x, y):
        steps.append((x, y))
        return m.step(x, y)

    counted = replace(m, step=step)
    rep = continuity_probe(counted, seg, n, max_iter=max_iter)
    a, b = Point2(*seg[0]), Point2(*seg[1])
    want = []
    for k in range(n):
        t = k / (n - 1)
        p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        want.append(scalar_limit_equilibrium(m, p, max_iter=max_iter).limit)
    assert list(rep.limits) == want
    if n <= curves.BATCH_HANDOFF:  # every sample finishes in the scalar loop
        assert len(steps) >= n
    elif name == "ex1" and max_iter >= 34:  # the slowest samples do
        assert steps
    if name == "ex3_T":
        assert rep.divergent == n


# ---------------------------------------------------------------------------
# (e) the demo raster keeps its committed bytes


def test_demo_raster_bytes_pinned():
    # the raster demos/02_basin_raster.py writes to demos/out/ex4_basins.*
    r = raster(make_example("ex4").map, Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0),
               96, 96)
    pgm = hashlib.sha256(raster_to_pgm(r).encode()).hexdigest()
    csv = hashlib.sha256(raster_to_csv(r).encode()).hexdigest()
    assert pgm == "93ea3ad0826c6d3c95e22e156b2d487cefb5f39c5573ad8bc1b9be91df167b49"
    assert csv == "b68a0e7f49ce1fb9086ac6f51f003a7864599e4905d194031e102338f1bf6205"


# ---------------------------------------------------------------------------
# (f) lockstep column bisection == the scalar column solver, column by column


def _oracle(fn, *args):
    """fn(*args) with trace_stable_curve's columns solved one by one."""
    saved = curves._solve_columns
    curves._solve_columns = solved_one_by_one
    try:
        return fn(*args)
    finally:
        curves._solve_columns = saved


def _dsl_example(eid, f, g):
    return expr_map(f, g, dict(DEFAULT_PARAMS[eid]), domain=QUADRANT,
                    name=f"{eid}-dsl")


@pytest.fixture(scope="module")
def trace_cases():
    ex1 = make_example("ex1").map
    ex3 = make_example("ex3_T2").map
    ex5 = make_example("ex5").map
    dsl1 = _dsl_example("ex1", "x/(a+y)", "y/(1+x)")
    dsl5 = _dsl_example("ex5", "b1*x/(1+x+c1*y)+h1", "b2*y/(1+y+c2*x)+h2")
    saddle = ex5_equilibria(make_example("ex5").params)[1]
    w1 = Rect(0.0, 5.0, 0.0, 6.0)
    w5 = Rect(0.0, 1.5, 0.0, 1.5)
    return {
        "ex1": (ex1, find_fixed_point(ex1, Point2(1e-9, 1.0)), w1, CurveOptions()),
        "ex1_limit": (ex1, find_fixed_point(ex1, Point2(1e-9, 1.0)), w1,
                      CurveOptions(mode="limit_equilibrium")),
        "ex3_T2": (ex3, find_fixed_point(ex3, Point2(3.0, 1.5)),
                   Rect(0.5, 8.0, 0.5, 8.0), CurveOptions()),
        "ex5_saddle": (ex5, find_fixed_point(ex5, saddle), w5, CurveOptions()),
        "ex5_dsl": (dsl5, find_fixed_point(dsl5, saddle), w5, CurveOptions()),
        "ex1_dsl": (dsl1, find_fixed_point(dsl1, Point2(1e-9, 1.0)), w1,
                    CurveOptions(mode="limit_equilibrium")),
    }


@pytest.mark.parametrize("case", ["ex1_limit", "ex3_T2", "ex5_saddle",
                                  "ex5_dsl", "ex1_dsl"])
def test_trace_matches_column_by_column(trace_cases, case):
    m, fp, w, opts = trace_cases[case]
    got = trace_stable_curve(m, fp, w, opts)
    want = _oracle(trace_stable_curve, m, fp, w, opts)
    assert got.vertices == want.vertices
    assert got.notes == want.notes
    assert got.endpoint_left == want.endpoint_left
    assert got.endpoint_right == want.endpoint_right


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(["ex1_limit", "ex5_saddle"]),
       stretch=st.tuples(st.floats(0.0, 0.01), st.floats(0.0, 0.01)),
       columns=st.integers(8, 64), at=st.floats(0.0, 1.0),
       max_iter=st.sampled_from([3, 30, CurveOptions().max_iter]))
def test_trace_matches_column_by_column_on_drawn_windows(trace_cases, case,
                                                         stretch, columns, at,
                                                         max_iter):
    # a short max_iter leaves probes undecided: flagged and mixed columns
    m, fp, w, opts = trace_cases[case]
    w = Rect(w.x_lo, w.x_hi * (1.0 + stretch[0]), w.y_lo, w.y_hi * (1.0 + stretch[1]))
    opts = replace(opts, columns=columns, max_iter=max_iter)
    got = trace_stable_curve(m, fp, w, opts)
    want = _oracle(trace_stable_curve, m, fp, w, opts)
    assert (got.vertices, got.notes) == (want.vertices, want.notes)
    assert (got.endpoint_left, got.endpoint_right) == (want.endpoint_left,
                                                       want.endpoint_right)
    x = w.x_lo + at * w.width()
    assert locate_ordinate(m, fp, x, w, opts) == _oracle(locate_ordinate, m, fp,
                                                         x, w, opts)


def _odd_columns_step(x, y):
    # fp = (0, 0), columns at x < 0: every start steps once, then sits in
    # int Q2 (minus) or int Q4 (plus) or hits a singularity
    minus, plus = (-1.0, 1.0), (1.0, -1.0)
    if x < -0.75:  # minus below plus: no bracket
        return minus if y < -0.5 else plus
    if -0.6 <= y < -0.59:
        raise SingularityError("thin singular band inside the bracket")
    return plus if y < -0.6 else minus


def test_lockstep_columns_match_on_odd_verdicts():
    m = PlanarMap(name="odd", step=_odd_columns_step, domain=Rect(-2, 2, -2, 2))
    fp = Point2(0.0, 0.0)
    w = Rect(-1.0, 0.0, -1.0, 0.0)
    cxs = [-0.95, -0.9, -0.8, -0.7, -0.6, -0.55]
    sopts = SideOptions(epsilon_margin=1e-12, max_iter=10)
    got = column_pairs(curves._solve_columns(m, fp, 1.0, cxs, w, 1e-8, sopts))
    want = solve_columns_one_by_one(m, fp, 1.0, cxs, w, 1e-8, sopts)
    assert got == want
    assert {flag for _, flag in got} == {"no_bracket:mixed", "undecided_probe"}


def _thin_band_map(band_y, raising):
    # fp = (0, 0), columns at x < 0: every start steps once, to int Q2 (minus)
    # above y = -0.6 and to int Q4 (plus) below; in the columns x < -0.8 the
    # starts within 1e-4 of band_y step onto fp (band) or raise (undecided)
    def step(x, y):
        if x < -0.8 and abs(y - band_y) < 1e-4:
            if raising:
                raise SingularityError("thin singular band")
            return 0.0, 0.0
        return (-1.0, 1.0) if y > -0.6 else (1.0, -1.0)

    def batch(X, Y):
        hit = (X < -0.8) & (np.abs(Y - band_y) < 1e-4)
        side = np.where(Y > -0.6, -1.0, 1.0)
        at = math.nan if raising else 0.0
        return np.where(hit, at, side), np.where(hit, at, -side)

    return PlanarMap(name="thin-band", step=step, domain=Rect(-2, 2, -2, 2),
                     batch=batch)


# The probes bracket the curve in [-0.6176, -0.5588]: bisection classifies the
# midpoint -0.5882 (minus) and with it the next midpoints -0.6029 and -0.5735,
# of which the serial loop visits -0.6029.
@pytest.mark.parametrize("band_y", [-0.5882, -0.6029], ids=["mid", "child"])
@pytest.mark.parametrize("raising", [False, True], ids=["band", "undecided"])
def test_two_level_bisection_stops_where_the_serial_loop_stops(band_y, raising,
                                                               monkeypatch):
    m = _thin_band_map(band_y, raising)
    fp = Point2(0.0, 0.0)
    w = Rect(-1.0, 0.0, -1.0, 0.0)
    cxs = [-0.95 + 0.025 * i for i in range(32)]
    sopts = SideOptions(epsilon_margin=1e-12, max_iter=10)
    sizes = []

    spy_bisection(monkeypatch, lambda xs, ys: sizes.append(len(xs)))
    got = column_pairs(curves._solve_columns(m, fp, 1.0, cxs, w, 1e-8, sopts))
    assert got == solve_columns_one_by_one(m, fp, 1.0, cxs, w, 1e-8, sopts)
    assert 3 * len(cxs) in sizes  # a call classified both next midpoints
    hit = [got[i] for i, x in enumerate(cxs) if x < -0.8]
    assert len(hit) == 6
    for y, flag in hit:
        assert abs(y - band_y) < 1e-4
        assert flag == ("undecided_probe" if raising else "")
    assert all(abs(y + 0.6) <= 1e-8 and flag == "" for y, flag in got[6:])


def _fallback_step(x, y):
    # fp = (0, 0), columns at x < 0: every start steps once, to int Q2 (minus)
    # above the curve and to int Q4 (plus) below; in the columns x < -0.8 the
    # curve is y = -0.1, probe 14 (y = -0.1471) raises and probe 16
    # (y = -0.0294) steps onto fp (band)
    if x < -0.8 and abs(y + 0.1471) < 1e-4:
        raise SingularityError("singular probe")
    if x < -0.8 and abs(y + 0.0294) < 1e-4:
        return 0.0, 0.0
    return (-1.0, 1.0) if y > (-0.1 if x < -0.8 else -0.6) else (1.0, -1.0)


def test_licensed_scan_stops_before_a_band_probe_past_its_minus():
    # in the columns x < -0.8 the scan reads the singular probe 14 and stops
    # at the minus at probe 15, short of the band at probe 16 (bisection
    # meets probe 14 again, as the midpoint of probes 13 and 15)
    m = PlanarMap(name="fallback", step=_fallback_step, domain=Rect(-2, 2, -2, 2))
    fp = Point2(0.0, 0.0)
    w = Rect(-1.0, 0.0, -1.0, 0.0)
    cxs = [-0.95 + 0.025 * i for i in range(32)]
    sopts = SideOptions(epsilon_margin=1e-12, max_iter=10)
    got = column_pairs(curves._solve_columns(m, fp, 1.0, cxs, w, 1e-8, sopts))
    assert got == solve_columns_one_by_one(m, fp, 1.0, cxs, w, 1e-8, sopts)


@pytest.mark.parametrize("levels", [1, 5])
def test_odd_bisection_levels_match_column_by_column(trace_cases, levels,
                                                     monkeypatch):
    # MAX_BISECTIONS counts levels: an odd count ends on a one-level call
    monkeypatch.setattr(curves, "MAX_BISECTIONS", levels)
    m, fp, w, opts = trace_cases["ex1_limit"]
    opts = replace(opts, columns=64)
    got = trace_stable_curve(m, fp, w, opts)
    want = _oracle(trace_stable_curve, m, fp, w, opts)
    assert (got.vertices, got.notes) == (want.vertices, want.notes)


def test_probe_phase_is_one_lockstep_call(trace_cases, monkeypatch):
    # without bisection levels only the probe phase runs: one _limits_lockstep
    # call over every probe of every column
    m, rec, w, opts = trace_cases["ex1_limit"]
    fp = rec.location
    slope = rec.eigen.v_lam.y / rec.eigen.v_lam.x
    cxs = [x for x in curves._column_positions(w, fp.x, opts.columns) if x != fp.x]
    sopts = curves._bisect_options(m, opts)
    calls = []
    limits_lockstep = curves._limits_lockstep

    def spy(m, X, *rest):
        calls.append(len(X))
        return limits_lockstep(m, X, *rest)

    monkeypatch.setattr(curves, "_limits_lockstep", spy)
    monkeypatch.setattr(curves, "MAX_BISECTIONS", 0)
    assert curves._solve_columns(m, fp, slope, cxs, w, opts.curve_tol, sopts,
                                 True) is not None
    probes = sum(len(column_probes(fp, slope, x, w, opts.curve_tol)) for x in cxs)
    assert calls == [probes]


def test_licensed_scan_returns_a_band_probe(trace_cases):
    # the window puts the saddle on uniform probe 13 of its own column (probe
    # index 14, after the tangent probe below it), which reads band
    m, rec, _w, _opts = trace_cases["ex5_saddle"]
    fp = rec.location
    w = Rect(0.0, 1.5, fp.y - 13.5 * 0.34 / 17, fp.y + 3.5 * 0.34 / 17)
    slope = rec.eigen.v_lam.y / rec.eigen.v_lam.x
    cxs = [fp.x - 0.01, fp.x, fp.x + 0.01]
    sopts = SideOptions(epsilon_margin=1e-6)
    got = column_pairs(curves._solve_columns(m, fp, slope, cxs, w, 1e-8, sopts, True,
                                             curves._exit_rate(rec.eigen)))
    assert got == solve_columns_one_by_one(m, fp, slope, cxs, w, 1e-8, sopts)
    assert got[1][1] == "" and abs(got[1][0] - fp.y) <= 1e-6


AUDIT_NOTE = "order licence failed its audit (columns bisected without guidance)"


def _odd_minus_traces(trace_cases, monkeypatch, column):
    """The ex1 limit-mode trace over 32 columns whose column-th column reads
    minus at its second uniform probe, below the plus probes under the
    curve; and the same trace without the licence."""
    m, fp, w, opts = trace_cases["ex1_limit"]
    opts = replace(opts, columns=32)
    x0 = [x for x in curves._column_positions(w, fp.location.x, opts.columns)
          if x != fp.location.x][column]
    y1 = w.y_lo + 1.5 * w.height() / curves.PROBES

    sided = curves._sided

    def odd_column(m, xs, ys, fp, sopts, rate=None):  # every verdict comes from here
        codes, *rest = sided(m, xs, ys, fp, sopts, rate)
        codes[(xs == x0) & (np.abs(ys - y1) < 0.1)] = LABEL_CODES["minus"]
        return (codes, *rest)

    monkeypatch.setattr(curves, "_sided", odd_column)
    got = trace_stable_curve(m, fp, w, opts)
    monkeypatch.setattr(curves, "_order_licensed", lambda *args: False)
    return got, trace_stable_curve(m, fp, w, opts)


def test_order_audit_disagreement_bisects_every_column_without_t_star(trace_cases,
                                                                     monkeypatch):
    # the first column, which the replay audits too, reads a plus above its
    # odd minus: every column is solved again without T*
    got, want = _odd_minus_traces(trace_cases, monkeypatch, 0)
    assert got.notes == want.notes + (AUDIT_NOTE,)
    assert replace(got, notes=want.notes) == want


def test_order_audit_reads_every_probe_of_every_column(trace_cases, monkeypatch):
    # the second column lies off the AUDIT_STRIDE grid, and its odd minus
    # lies below its bracket, where no binary search over the probe indices
    # would read it
    assert 1 % curves.AUDIT_STRIDE != 0
    got, want = _odd_minus_traces(trace_cases, monkeypatch, 1)
    assert got.notes == want.notes + (AUDIT_NOTE,)
    assert replace(got, notes=want.notes) == want


def test_unlicensed_saddle_trace_keeps_no_exit_points(trace_cases, monkeypatch):
    # a saddle trace without the licence is not guided, so no lockstep call
    # keeps the exit points that only the exit-rate gap reads
    m, fp, w, opts = trace_cases["ex5_saddle"]
    want = trace_stable_curve(m, fp, w, opts)
    exits = []
    quadrant_batch = curves._quadrant_batch

    def spy(m, X, Y, fp, opts, keep=False):
        exits.append(keep)
        return quadrant_batch(m, X, Y, fp, opts, keep)

    monkeypatch.setattr(curves, "_quadrant_batch", spy)
    monkeypatch.setattr(curves, "_order_licensed", lambda *args: False)
    got = trace_stable_curve(m, fp, w, opts)
    assert exits and not any(exits)
    assert got.vertices == want.vertices


# ---------------------------------------------------------------------------
# (f2) guided location: Anderson-Bjorck on T* or on the exit-rate gap,
# certified, the bisection replayed


def _columns_setup(trace_cases, case, columns, stretch=(0.0, 0.0), curve_tol=1e-8):
    m, rec, w, opts = trace_cases[case]
    w = Rect(w.x_lo, w.x_hi * (1.0 + stretch[0]), w.y_lo, w.y_hi * (1.0 + stretch[1]))
    fp = rec.location
    slope = rec.eigen.v_lam.y / rec.eigen.v_lam.x
    cxs = [x for x in curves._column_positions(w, fp.x, columns) if x != fp.x]
    return m, fp, slope, cxs, w, curves._bisect_options(m, replace(opts, curve_tol=curve_tol))


def _solved(m, fp, slope, cxs, w, curve_tol, sopts, licensed, rate=None):
    """_solve_columns as trace_stable_curve calls it: if licensed, under the
    licence when it holds, and without it when an audit fails."""
    licensed = licensed and planarmap._order_licensed(m, w, len(cxs) * curves.PROBES)
    got = curves._solve_columns(m, fp, slope, cxs, w, curve_tol, sopts, licensed, rate)
    if got is None:
        got = curves._solve_columns(m, fp, slope, cxs, w, curve_tol, sopts)
    return column_pairs(got)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["ex1_limit", "ex1_dsl", "ex3_T2", "ex5_saddle"]),
       stretch=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
       columns=st.integers(4, 48), start=st.integers(0, 3),
       stride=st.integers(1, 3), batch=st.booleans(), licensed=st.booleans(),
       max_iter=st.sampled_from([60, CurveOptions().max_iter]),
       curve_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
def test_guided_columns_match_column_by_column(trace_cases, case, stretch,
                                               columns, start, stride, batch,
                                               licensed, max_iter, curve_tol):
    # the one-call probe phase in limit mode and in quadrant mode
    # (ex5_saddle), both guided when licensed, quadrant mode by the saddle's
    # exit-rate gap; a short max_iter leaves T* undefined near the curve:
    # those columns bisect; at curve_tol 1e-12 the first band of a located
    # limit-mode column fails its certification and widens; a two-level call
    # that certifies a first band finishes its column
    m, fp, slope, cxs, w, sopts = _columns_setup(trace_cases, case, columns, stretch,
                                                 curve_tol)
    rate = curves._exit_rate(trace_cases[case][1].eigen)
    cxs = cxs[start::stride]
    sopts = replace(sopts, max_iter=max_iter)
    if not batch:
        m = replace(m, batch=None)
    assert _solved(m, fp, slope, cxs, w, curve_tol, sopts, licensed,
                   rate) == solve_columns_one_by_one(m, fp, slope, cxs, w, curve_tol, sopts)


@pytest.mark.parametrize("max_iter", [3, CurveOptions().max_iter])
def test_exit_rate_gap_is_negative_exactly_on_plus(trace_cases, max_iter):
    # at the ex5 saddle: s < 0 exactly on plus, s > 0 exactly on minus, 0 on
    # band and NaN on undecided (max_iter 3 leaves some orbits undecided);
    # starts 1e-6 off the curve exit after dozens of iterations
    m, rec, w, opts = trace_cases["ex5_saddle"]
    fp = rec.location
    rate = curves._exit_rate(rec.eigen)
    assert rate is not None
    sopts = replace(curves._bisect_options(m, opts), max_iter=max_iter)
    rng = np.random.default_rng(5)
    near = trace_stable_curve(m, rec, w, opts).vertices[::8]
    X = np.concatenate((rng.uniform(w.x_lo, w.x_hi, 400), [v.x for v in near] * 2,
                        [fp.x]))
    Y = np.concatenate((rng.uniform(w.y_lo, w.y_hi, 400),
                        [v.y - 1e-6 for v in near], [v.y + 1e-6 for v in near],
                        [fp.y]))
    codes, s, _ = curves._sided(m, X, Y, fp, sopts, rate)
    assert codes.tolist() == classify_batch(m, X, Y, fp, sopts).tolist()
    plus, minus = codes == LABEL_CODES["plus"], codes == LABEL_CODES["minus"]
    band = codes == LABEL_CODES["band"]
    assert plus.any() and minus.any() and band.any()
    assert np.array_equal(s < 0, plus) and np.array_equal(s > 0, minus)
    assert np.array_equal(s == 0, band)
    assert np.array_equal(np.isnan(s), ~(plus | minus | band))
    assert np.isnan(s).any() == (max_iter == 3)


@pytest.mark.parametrize("fails", [1, curves.WIDENINGS + 1])
def test_failed_certification_widens_then_bisects(trace_cases, fails,
                                                  monkeypatch):
    # every estimate sits 2 * WIDEN**(fails - 1) * curve_tol above the located
    # curve: the first `fails` bands fail their certification and widen; past
    # WIDENINGS widenings the column bisects without a band
    m, fp, slope, cxs, w, sopts = _columns_setup(trace_cases, "ex1_limit", 32)
    tol = 1e-8
    off = 2.0 * curves.WIDEN ** (fails - 1) * tol
    locate, estimates = curves._locate, []

    def off_locate(*args):
        est = locate(*args) + off
        estimates.extend(zip(args[2].tolist(), est.tolist()))
        return est

    asked = set()

    monkeypatch.setattr(curves, "_locate", off_locate)
    spy_bisection(monkeypatch, lambda xs, ys: asked.update(zip(xs.tolist(), ys.tolist())))
    got = column_pairs(curves._solve_columns(m, fp, slope, cxs, w, tol, sopts, True))
    assert got == solve_columns_one_by_one(m, fp, slope, cxs, w, tol, sopts)
    assert len(estimates) > len(cxs) // 2
    for x, e in estimates:
        bands = [(x, e - tol * float(curves.WIDEN) ** k) in asked
                 for k in range(curves.WIDENINGS + 2)]
        assert bands == [k <= min(fails, curves.WIDENINGS)
                         for k in range(curves.WIDENINGS + 2)]


@pytest.mark.parametrize("case", ["ex1_limit", "ex3_T2", "ex5_saddle"])
def test_guided_bisection_is_one_call_with_its_audit(trace_cases, case, monkeypatch):
    # the benchmark-shaped traces certify every column's first band in the
    # call that classifies the band's bisection subtree, so _bisect makes one
    # _sided call; in it an audited column classifies every midpoint
    # its bisection visits, the ones its band implies too, while the other
    # columns leave implied midpoints unclassified
    m, rec, w, opts = trace_cases[case]
    fp = rec.location
    slope = rec.eigen.v_lam.y / rec.eigen.v_lam.x
    cxs = [x for x in curves._column_positions(w, fp.x, opts.columns) if x != fp.x]
    sopts = curves._bisect_options(m, opts)
    asked = []

    spy_bisection(monkeypatch, lambda xs, ys: asked.append(set(zip(xs.tolist(),
                                                                  ys.tolist()))))
    got = column_pairs(curves._solve_columns(m, fp, slope, cxs, w, opts.curve_tol,
                                             sopts, True, curves._exit_rate(rec.eigen)))
    assert len(asked) == 1  # one bisection call
    visited = []  # the ordinates a column's scalar bisection classifies

    def record(m, p, *rest):
        visited.append(p.y)
        return scalar_classify_side(m, p, *rest)

    monkeypatch.setattr(helpers, "scalar_classify_side", record)

    def unasked(i):
        """The midpoints of column i, past its probes, that _bisect did not
        classify."""
        visited.clear()
        want = helpers.solve_column(m, fp, slope, cxs[i], w, opts.curve_tol,
                                    curves.PROBES, sopts)
        assert got[i] == want
        probes = set(column_probes(fp, slope, cxs[i], w, opts.curve_tol))
        return [y for y in visited if y not in probes and (cxs[i], y) not in asked[0]]

    assert all(unasked(i) == [] for i in range(0, len(cxs), curves.AUDIT_STRIDE))
    assert any(unasked(i) for i in range(1, len(cxs), curves.AUDIT_STRIDE))


def test_replay_audit_disagreement_bisects_every_column(trace_cases):
    # the first bisection midpoint of an audited column lies far below its
    # curve, so the replay walks it as plus; a map that is singular at exactly
    # that point makes the audit's verdict there disagree
    m, fp, slope, cxs, w, sopts = _columns_setup(trace_cases, "ex1_limit", 64)
    want = solve_columns_one_by_one(m, fp, slope, cxs, w, 1e-8, sopts)

    def first_midpoint(i):
        probes = column_probes(fp, slope, cxs[i], w, 1e-8)
        y0 = want[i][0]
        return 0.5 * (max(p for p in probes if p < y0) + min(p for p in probes if p > y0))

    x0, y1 = next((cxs[i], first_midpoint(i))
                  for i in range(0, len(cxs), curves.AUDIT_STRIDE)
                  if want[i][0] is not None and want[i][1] == ""
                  and abs(first_midpoint(i) - want[i][0]) > 1e-3)

    def step(x, y):
        if (x, y) == (x0, y1):
            raise SingularityError("one singular point")
        return m.step(x, y)

    def batch(X, Y):
        X1, Y1 = m.batch(X, Y)
        hit = (X == x0) & (Y == y1)
        return np.where(hit, math.nan, X1), np.where(hit, math.nan, Y1)

    odd = replace(m, step=step, batch=batch)
    assert curves._solve_columns(odd, fp, slope, cxs, w, 1e-8, sopts, True) is None
    rec = find_fixed_point(odd, Point2(1e-9, 1.0))
    opts = CurveOptions(columns=64, mode="limit_equilibrium")
    got = trace_stable_curve(odd, rec, w, opts)
    want = _oracle(trace_stable_curve, odd, rec, w, opts)
    assert got.notes == want.notes + (AUDIT_NOTE,)
    assert "1 columns flagged (bisection probe undecided)" in got.notes
    assert replace(got, notes=want.notes) == want


# sha256 of repr(curve) of the benchmark-shaped traces (perfbench's trace
# workload at its unmoved windows); the built-in and DSL forms agree bit for bit
TRACE_REPR_SHA256 = {
    "ex1_limit": "1cd10cba9cfb84b8369d1d9b2786232c4d1dde4495473eccdf34e1106259983d",
    "ex3_T2": "f51bc1b7f5c4576d927d98f5de9794b3f88e4b2a143dac351f8c6e68a5f6bffa",
    "ex1": "1cd10cba9cfb84b8369d1d9b2786232c4d1dde4495473eccdf34e1106259983d",
    "ex5_saddle": "5e6108cd0c8d2e8a425044366965f99382b96a720f140bcb05c39b7ea67765aa",
    "ex5_dsl": "5e6108cd0c8d2e8a425044366965f99382b96a720f140bcb05c39b7ea67765aa",
    "ex1_dsl": "1cd10cba9cfb84b8369d1d9b2786232c4d1dde4495473eccdf34e1106259983d",
}


@pytest.mark.parametrize("case", sorted(TRACE_REPR_SHA256))
def test_benchmark_shaped_traces_pinned(trace_cases, case):
    m, fp, w, opts = trace_cases[case]
    curve = trace_stable_curve(m, fp, w, opts)
    assert hashlib.sha256(repr(curve).encode()).hexdigest() == TRACE_REPR_SHA256[case]


def test_benchmark_shaped_unstable_trace_pinned(trace_cases):
    m, fp, _w, _opts = trace_cases["ex5_saddle"]
    curve = trace_unstable_curve(m, fp)
    assert len(curve.vertices) == 4585
    assert (hashlib.sha256(repr(curve).encode()).hexdigest()
            == "3a38ffd7734f3261045dcc08b4afc94b7cea6632741b39a9588a3b9aa5613dff")


def test_demo_curve_bytes_pinned():
    # the curve demos/01_separatrix_tracing.py writes to demos/out/ex1_separatrix.csv
    m = make_example("ex1", {"a": 2.0}).map
    curve = trace_stable_curve(m, find_fixed_point(m, Point2(1e-9, 1.0)),
                               Rect(0.0, 5.0, 0.0, 6.0))
    text = "x,y\n" + "".join(f"{v.x:.17g},{v.y:.17g}\n" for v in curve.vertices)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4fafa279a104f91b73af5139b04bf09d360dc7cd97f9809fb0db638e24002103"


# ---------------------------------------------------------------------------
# (g) the lockstep unstable-curve trace == the seed-by-seed loop


def _same_curve(got, want):
    assert got.vertices == want.vertices
    assert [repr(v) for v in got.vertices] == [repr(v) for v in want.vertices]
    assert got.notes == want.notes
    assert (got.endpoint_left, got.endpoint_right) == (want.endpoint_left,
                                                       want.endpoint_right)


@pytest.mark.parametrize("steps", [1, 100, 200])
def test_unstable_trace_matches_seed_by_seed(ex5_three, steps):
    saddle = find_fixed_point(ex5_three.map, ex5_equilibria(ex5_three.params)[1])
    _same_curve(trace_unstable_curve(ex5_three.map, saddle, steps=steps),
                scalar_trace_unstable_curve(ex5_three.map, saddle, steps=steps))


def _fence_batch(X, Y):
    FX, FY = linear_saddle_step(X, Y)
    return np.where(X > 0.5, math.nan, FX), FY


@pytest.mark.parametrize("m", [
    PlanarMap(name="saddle", step=linear_saddle_step, domain=Rect(-1, 1, -1, 1)),
    wall_map(),
    # a pole past x = -0.5: (x + 0.5)^0.5 raises there
    expr_map("1.25*x - 0.75*y + 0*(x + 0.5)^0.5", "-0.75*x + 1.25*y", {},
             domain=Rect(-1, 1, -1, 1), name="dsl-wall"),
], ids=lambda m: m.name)
@pytest.mark.parametrize("steps", [3, 40])
def test_unstable_trace_matches_seed_by_seed_where_orbits_stop(m, steps):
    rec = find_fixed_point(m, Point2(0.1, 0.05))
    got = trace_unstable_curve(m, rec, steps=steps)
    _same_curve(got, scalar_trace_unstable_curve(m, rec, steps=steps))
    if steps == 40:
        assert got.endpoint_left.kind == got.endpoint_right.kind == "truncated"


def _singular_fence_step(x, y):
    if x > 0.5:
        raise SingularityError(f"fence at x = {x!r}")
    return linear_saddle_step(x, y)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["ex5", "wall", "fence"]), steps=st.integers(1, 300),
       seed_radius=st.floats(1e-6, 1e-2))
def test_drawn_unstable_traces_match_seed_by_seed(trace_cases, case, steps,
                                                  seed_radius):
    # ex5's orbits all go on, so every step appends its images as they are;
    # at the wall (no batch step) and at the fence (NaN from the batch step,
    # a SingularityError from the step) seeds end by a raise, and the others
    # leave the domain and truncate their ends
    if case == "ex5":
        m, rec, _w, _opts = trace_cases["ex5_saddle"]
    else:
        m = wall_map() if case == "wall" else PlanarMap(
            name="fence", step=_singular_fence_step, domain=Rect(-1, 1, -1, 1),
            batch=_fence_batch)
        rec = find_fixed_point(m, Point2(0.1, 0.05))
    _same_curve(trace_unstable_curve(m, rec, steps=steps, seed_radius=seed_radius),
                scalar_trace_unstable_curve(m, rec, steps=steps,
                                            seed_radius=seed_radius))


@pytest.mark.parametrize("error, batch", [
    (DomainError, None), (DomainError, _fence_batch),
    (ValueError, None)])  # a ValueError is no map error
def test_unstable_trace_raises_the_lowest_seeds_exception(error, batch):
    # right-hand seeds farther out reach the fence in fewer steps, but the
    # seed-by-seed loop meets the innermost right-hand seed's raise first
    def step(x, y):
        if x > 0.5:
            raise error(f"fence at x = {x!r}")
        return linear_saddle_step(x, y)

    m = PlanarMap(name="fence", step=step, domain=Rect(-1, 1, -1, 1), batch=batch)
    rec = find_fixed_point(m, Point2(0.1, 0.05))
    with pytest.raises(error) as want:
        scalar_trace_unstable_curve(m, rec, steps=40)
    with pytest.raises(error) as got:
        trace_unstable_curve(m, rec, steps=40)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, compmap; "
            "[getattr(compmap, name) for name in compmap.__all__]; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_side_options_reject_invalid_values():
    for bad in ({"max_iter": 0}, {"max_iter": -1},
                {"epsilon_margin": math.nan}, {"epsilon_margin": -1e-3},
                {"epsilon_margin": math.inf}, {"conv_tol": math.nan},
                {"conv_tol": 0.0}, {"mode": "bogus"}, {"mode": None}):
        with pytest.raises(ValueError):
            SideOptions(**bad)
