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

from compmap import (DEFAULT_PARAMS, EXAMPLE_IDS, CurveOptions, Point2, Rect,
                     SideOptions, SingularityError, continuity_probe,
                     ex5_equilibria, expr_map, find_fixed_point,
                     limit_equilibrium, make_example, raster, raster_to_csv,
                     raster_to_pgm, trace_stable_curve)
from compmap import curves
from compmap.basins import raster_options
from compmap.curves import (LABEL_CODES, classify_batch, classify_side,
                            label_code, locate_ordinate)
from compmap.planarmap import PlanarMap
from helpers import solve_columns_one_by_one

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


# ---------------------------------------------------------------------------
# (b) classify_batch == classify_side per point


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
    want = [label_code(classify_side(m, Point2(x, y), fp, opts))
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
    need = classify_side(m, slow, fp, opts).iterations_used
    assert need >= 2
    opts = replace(opts, max_iter=need - 1)
    xs = [0.5] * 40 + [slow.x]
    ys = [3.5] * 40 + [slow.y]
    want = [label_code(classify_side(m, Point2(x, y), fp, opts))
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


# ---------------------------------------------------------------------------
# (c) raster == a classify_side loop over the cell centers


def _scalar_raster_labels(m, fp, window, nx, ny, opts):
    labels = np.empty((ny, nx), dtype=np.uint8)
    dx = window.width() / nx
    for j in range(ny):
        y = window.y_lo + (j + 0.5) * window.height() / ny
        for i in range(nx):
            x = window.x_lo + (i + 0.5) * dx
            labels[j, i] = label_code(classify_side(m, Point2(x, y), fp, opts))
    return labels


@pytest.mark.parametrize("case", ["ex4", "ex5_two", "ex2", "ex3_T2"])
def test_raster_matches_scalar_loop(side_cases, case):
    m, fp, w = side_cases[case]
    r = raster(m, fp, w, 128, 128)
    want = _scalar_raster_labels(m, fp, w, 128, 128, raster_options(m, w))
    assert np.array_equal(r.labels, want)


# ---------------------------------------------------------------------------
# (d) continuity_probe limits == limit_equilibrium per sample


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
        want.append(limit_equilibrium(m, p, tol=tol, max_iter=max_iter).limit)
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
        want.append(limit_equilibrium(m, p, max_iter=max_iter).limit)
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
    curves._solve_columns = solve_columns_one_by_one
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
    got = curves._solve_columns(m, fp, 1.0, cxs, w, 1e-8, sopts)
    want = solve_columns_one_by_one(m, fp, 1.0, cxs, w, 1e-8, sopts)
    assert got == want
    assert {flag for _, flag in got} == {"no_bracket:mixed", "undecided_probe"}


def test_demo_curve_bytes_pinned():
    # the curve demos/01_separatrix_tracing.py writes to demos/out/ex1_separatrix.csv
    m = make_example("ex1", {"a": 2.0}).map
    curve = trace_stable_curve(m, find_fixed_point(m, Point2(1e-9, 1.0)),
                               Rect(0.0, 5.0, 0.0, 6.0))
    text = "x,y\n" + "".join(f"{v.x:.17g},{v.y:.17g}\n" for v in curve.vertices)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4fafa279a104f91b73af5139b04bf09d360dc7cd97f9809fb0db638e24002103"


# ---------------------------------------------------------------------------


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, compmap; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_side_options_reject_invalid_values():
    for bad in ({"max_iter": 0}, {"max_iter": -1},
                {"epsilon_margin": math.nan}, {"epsilon_margin": -1e-3},
                {"epsilon_margin": math.inf}, {"conv_tol": math.nan},
                {"conv_tol": 0.0}):
        with pytest.raises(ValueError):
            SideOptions(**bad)
