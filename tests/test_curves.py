import hashlib
import math

import numpy as np
import pytest

from compmap import (CurveOptions, EndpointLabel, HypothesisError,
                     MonotoneCurve, Point2, Rect, SideOptions, SingularityError,
                     check_boundary_endpoint_conditions, classify_side,
                     endpoint_analysis, find_fixed_point, find_period_two,
                     le_se, make_example, trace_stable_curve,
                     trace_unstable_curve, validate_curve)
from compmap.curves import locate_ordinate
from compmap.fixedpoints import FixedPointRecord, eigen2x2
from compmap.planarmap import PlanarMap, jacobian

from helpers import converges_to


def _limit_opts(margin=1e-6):
    return SideOptions(mode="limit_equilibrium", epsilon_margin=margin,
                       max_iter=20_000, conv_tol=1e-12)


def test_classify_side_limit_mode(ex1):
    fp = Point2(0.0, 1.0)
    assert classify_side(ex1.map, Point2(0.1, 2.5), fp, _limit_opts()).label == "minus"
    assert classify_side(ex1.map, Point2(0.1, 0.2), fp, _limit_opts()).label == "plus"
    assert classify_side(ex1.map, fp, fp, _limit_opts()).label == "band"


def test_classify_side_quadrant_mode(ex4):
    E = Point2(2.0, 1.0)
    opts = SideOptions(epsilon_margin=1e-4, max_iter=20_000)
    assert classify_side(ex4.map, Point2(1.8, 1.2), E, opts).label == "minus"
    assert classify_side(ex4.map, Point2(3.0, 0.5), E, opts).label == "plus"
    assert classify_side(ex4.map, E, E, opts).label == "band"


def test_classify_side_singularity_flag(ex4):
    opts = SideOptions(epsilon_margin=1e-4, max_iter=100)
    v = classify_side(ex4.map, Point2(0.0, 0.5), Point2(2, 1), opts)
    assert v.label == "undecided" and v.flag == "singularity"


def _pole(x, y):
    raise SingularityError("pole")


_PLANE = Rect(-math.inf, math.inf, -math.inf, math.inf)


@pytest.mark.parametrize("mode,step,domain,flag", [
    ("quadrant_escape", lambda x, y: (x, y + 1.0), Rect(-5, 5, -5, 5), "escape"),
    ("quadrant_escape", lambda x, y: (x, 10.0 * y), _PLANE, "divergence"),
    ("quadrant_escape", lambda x, y: (x, math.nan), _PLANE, "singularity"),
    ("limit_equilibrium", lambda x, y: (x, 10.0 * y), _PLANE, "divergence"),
    ("limit_equilibrium", lambda x, y: (x, math.nan), _PLANE, "singularity"),
    ("limit_equilibrium", _pole, _PLANE, "singularity"),
])
def test_classify_side_undecided_flags(mode, step, domain, flag):
    # the orbit of (0, 1) stays on the vertical through fp = (0, 0), so no
    # quadrant entry or limit decides it before the flag fires
    m = PlanarMap(name="toy", step=step, domain=domain)
    v = classify_side(m, Point2(0.0, 1.0), Point2(0.0, 0.0),
                      SideOptions(mode=mode, max_iter=100))
    assert (v.label, v.flag) == ("undecided", flag)


def test_curve_options_reject_invalid_values():
    for bad in ({"columns": 0}, {"columns": -3}, {"max_iter": 0},
                {"curve_tol": math.nan}, {"curve_tol": 0.0},
                {"curve_tol": -1e-8}, {"mode": "bogus"}):
        with pytest.raises(ValueError):
            CurveOptions(**bad)


def test_trace_rejects_zero_workers(ex1, ex1_fp):
    with pytest.raises(ValueError):
        trace_stable_curve(ex1.map, ex1_fp, Rect(0, 5, 0, 6), workers=0)


def test_trace_requires_bounded_window(ex1, ex1_fp):
    with pytest.raises(ValueError):
        trace_stable_curve(ex1.map, ex1_fp, Rect(0, math.inf, 0, 6))


def test_trace_refuses_a_window_whose_width_overflows(ex1, ex1_fp):
    with pytest.raises(ValueError, match="needs a bounded window"):
        trace_stable_curve(ex1.map, ex1_fp, Rect(-1e308, 1e308, 0, 4))


def test_trace_rejects_failed_hypotheses(ex1):
    origin = find_fixed_point(ex1.map, Point2(1e-12, 1e-12))
    with pytest.raises(HypothesisError):
        trace_stable_curve(ex1.map, origin, Rect(0, 5, 0, 6))


def test_ex1_curve_shape(ex1_curve, ex1_fp):
    validate_curve(ex1_curve)  # strict vertex monotonicity
    assert ex1_curve.monotonicity == "increasing"
    first = ex1_curve.vertices[0]
    assert first == pytest.approx(tuple(ex1_fp.location), abs=1e-9)
    assert ex1_curve.endpoint_left.kind == "domain_boundary"
    assert ex1_curve.endpoint_right.kind == "domain_boundary"


def test_ex1_curve_tangency(ex1_curve, ex1_fp):
    vs = ex1_curve.vertices[:5]
    xs = np.array([v.x for v in vs])
    ys = np.array([v.y for v in vs])
    slope = np.polyfit(xs, ys, 1)[0]
    v = ex1_fp.eigen.v_lam
    assert slope == pytest.approx(v.y / v.x, rel=0.05)


def test_ex1_curve_separation(ex1, ex1_curve, ex1_fp):
    # bracket sides: minus just above the curve, plus just below
    opts = _limit_opts(margin=1e-9)
    idx = np.linspace(1, len(ex1_curve.vertices) - 1, 8, dtype=int)
    for k in idx:
        v = ex1_curve.vertices[k]
        above = classify_side(ex1.map, Point2(v.x, v.y + 1e-5), ex1_fp.location, opts)
        below = classify_side(ex1.map, Point2(v.x, v.y - 1e-5), ex1_fp.location, opts)
        assert above.label == "minus"
        assert below.label == "plus"


def test_ex1_curve_invariance_and_convergence(ex1, ex1_curve, ex1_fp):
    verts = ex1_curve.vertices
    window = Rect(0, 5, 0, 6)
    idx = np.linspace(1, len(verts) - 1, 10, dtype=int)
    for k in idx:
        v = verts[k]
        img = Point2(*ex1.map.step(v.x, v.y))
        y_curve = locate_ordinate(ex1.map, ex1_fp, img.x, window)
        assert y_curve is not None
        assert abs(img.y - y_curve) <= 10 * 1e-8
    for k in np.linspace(1, len(verts) - 1, 5, dtype=int):
        assert converges_to(ex1.map, verts[k], ex1_fp.location, tol=1e-5,
                            max_iter=100_000)


def test_ex3_t2_curve(ex3_t2, ex3_t2_curve, ex3_t2_fp):
    validate_curve(ex3_t2_curve)
    # the traced separatrix passes through the seeded equilibrium
    assert ex3_t2_curve.y_at(3.0) == pytest.approx(1.5, abs=1e-9)
    xs = [v.x for v in ex3_t2_curve.vertices]
    assert xs[0] < 3.0 < xs[-1]


# sha256 of the vertices (repr) and endpoint labels of limit-mode traces at
# small curve_tol, taken before limits within the slack of fp read band
SMALL_TOL_TRACES = {
    ("ex1", 1e-10): "4378f4e7dbe7d7e05e2a531b72d9f6a5b695a8ab0457dcd9425039de3c427726",
    ("ex1", 1e-12): "67fe6d9c9bf60f357696dce4acc64ad550f55d6cedaa1dd5ef9d09775989bd00",
    ("ex3_T2", 1e-10): "863cad8c3a4f05a6b22873f18fe8ebb8c0851029f3811ccfcdc1a4688ca15015",
    ("ex3_T2", 1e-12): "dd6cbf48ec75bc61a95da9c92b7bff6a67bf888195bbb38057a0606b25e1e4a0",
}


@pytest.mark.parametrize("eid, tol", list(SMALL_TOL_TRACES))
def test_small_tolerance_limit_traces_flag_no_columns(eid, tol):
    # the verdict margin max(1e-12, tol / 100) lies below the limits' slack
    # (1e-11): a limit within the slack of fp in both coordinates reads band,
    # not incomparable_limit, so no bisection probe reads undecided
    m = make_example(eid).map
    guess, w = {"ex1": ((1e-9, 1.0), Rect(0.0, 5.0, 0.0, 6.0)),
                "ex3_T2": ((3.0, 1.5), Rect(0.5, 8.0, 0.5, 8.0))}[eid]
    curve = trace_stable_curve(m, find_fixed_point(m, Point2(*guess)), w,
                               CurveOptions(curve_tol=tol))
    assert not any("columns flagged" in note for note in curve.notes)
    text = "".join(f"{v.x!r},{v.y!r}\n" for v in curve.vertices)
    text += f"{curve.endpoint_left}\n{curve.endpoint_right}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_TOL_TRACES[eid, tol]


@pytest.mark.parametrize("x", [math.nan, 0.4, 8.1])
def test_y_at_rejects_x_outside_the_traced_range(ex3_t2_curve, x):
    with pytest.raises(ValueError, match="outside the traced range"):
        ex3_t2_curve.y_at(x)


def test_trace_unstable_ex5(ex5_three):
    from compmap import ex5_equilibria
    eqs = ex5_equilibria(ex5_three.params)
    assert len(eqs) == 3
    saddle = find_fixed_point(ex5_three.map, eqs[1])
    assert saddle.eigen.mu > 1
    wu = trace_unstable_curve(ex5_three.map, saddle, steps=200)
    validate_curve(wu)
    assert wu.monotonicity == "decreasing"
    assert wu.endpoint_left.kind == "fixed_point"
    assert wu.endpoint_right.kind == "fixed_point"
    assert wu.endpoint_left.at == pytest.approx(tuple(eqs[0]), abs=1e-4)
    assert wu.endpoint_right.at == pytest.approx(tuple(eqs[2]), abs=1e-4)
    # vertices of a decreasing curve are pairwise southeast-comparable
    vs = wu.vertices
    step = max(1, len(vs) // 20)
    sample = vs[::step]
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            assert le_se(sample[i], sample[j])


@pytest.mark.parametrize("wall", [False, True])
def test_trace_unstable_truncates_where_orbits_stop(wall):
    # a linear saddle at the origin with mu = 2 along (1, -1): orbits leave
    # the domain on both sides, or on the left stop at a pole past x = -0.5
    def step(x, y):
        if wall and x < -0.5:
            raise SingularityError("wall")
        return 1.25 * x - 0.75 * y, -0.75 * x + 1.25 * y

    m = PlanarMap(name="saddle", step=step, domain=Rect(-1, 1, -1, 1))
    rec = find_fixed_point(m, Point2(0.1, 0.05))
    assert rec.eigen.mu == pytest.approx(2.0)
    wu = trace_unstable_curve(m, rec, steps=40)
    validate_curve(wu)
    assert all(m.domain.contains(v) for v in wu.vertices)
    assert wu.endpoint_left.kind == wu.endpoint_right.kind == "truncated"
    assert -1.0 <= wu.vertices[0].x < -0.5 and 0.5 < wu.vertices[-1].x <= 1.0


def test_trace_unstable_rejects_axis_eigenvector():
    m = PlanarMap(name="axes", step=lambda x, y: (0.5 * x, 2.0 * y),
                  domain=Rect(-10, 10, -10, 10))
    rec = find_fixed_point(m, Point2(0.1, 0.1))
    with pytest.raises(HypothesisError):
        trace_unstable_curve(m, rec)


def test_trace_unstable_rejects_contracting(ex1, ex1_fp):
    with pytest.raises(HypothesisError):
        trace_unstable_curve(ex1.map, ex1_fp)


@pytest.mark.parametrize("kw", [
    {"steps": 0}, {"steps": -1}, {"seed_radius": math.nan},
    {"seed_radius": math.inf}, {"seed_radius": 0.0}, {"seed_radius": -1e-4}])
def test_trace_unstable_rejects_invalid_steps_and_seed_radius(ex5_three, kw):
    saddle = find_fixed_point(ex5_three.map, Point2(0.235, 0.352))
    assert saddle.eigen.mu > 1
    with pytest.raises(ValueError):
        trace_unstable_curve(ex5_three.map, saddle, **kw)


def test_endpoint_analysis_labels(ex3_t):
    region = Rect(0, 10, 0, 10)
    # right end on the unique fixed point
    c = MonotoneCurve(vertices=(Point2(1.5, 1.5), Point2(2.0, 2.0)),
                      monotonicity="increasing",
                      endpoint_left=EndpointLabel("truncated", Point2(1.5, 1.5)),
                      endpoint_right=EndpointLabel("truncated", Point2(2.0, 2.0)))
    left, right = endpoint_analysis(ex3_t.map, c, region)
    assert right.kind == "fixed_point"
    assert left.kind == "truncated"

    # an end on the period-two hyperbola of the first-iterate map
    c2 = MonotoneCurve(vertices=(Point2(2.5, 1.2), Point2(3.0, 1.5)),
                       monotonicity="increasing",
                       endpoint_left=EndpointLabel("truncated", Point2(2.5, 1.2)),
                       endpoint_right=EndpointLabel("truncated", Point2(3.0, 1.5)))
    _, right = endpoint_analysis(ex3_t.map, c2, region)
    assert right.kind == "period_two_pair"
    assert right.partner == pytest.approx((1.5, 3.0))

    # an end within 1e-6 of the region frame
    c3 = MonotoneCurve(vertices=(Point2(1e-8, 0.5), Point2(1.0, 1.2)),
                       monotonicity="increasing",
                       endpoint_left=EndpointLabel("truncated", Point2(1e-8, 0.5)),
                       endpoint_right=EndpointLabel("truncated", Point2(1.0, 1.2)))
    left, _ = endpoint_analysis(ex3_t.map, c3, region)
    assert left.kind == "domain_boundary"


def test_endpoint_analysis_nan_image_is_truncated():
    m = PlanarMap(name="nan-y", step=lambda x, y: (x, math.nan), domain=_PLANE)
    c = MonotoneCurve(vertices=(Point2(1.0, 1.0), Point2(2.0, 2.0)),
                      monotonicity="increasing",
                      endpoint_left=EndpointLabel("truncated", Point2(1.0, 1.0)),
                      endpoint_right=EndpointLabel("truncated", Point2(2.0, 2.0)))
    left, right = endpoint_analysis(m, c, Rect(0, 10, 0, 10))
    assert (left.kind, right.kind) == ("truncated", "truncated")


def test_validate_curve_rejects_bad_vertices():
    bad = MonotoneCurve(vertices=(Point2(0, 0), Point2(1, 0)),
                        monotonicity="increasing",
                        endpoint_left=EndpointLabel("truncated", Point2(0, 0)),
                        endpoint_right=EndpointLabel("truncated", Point2(1, 0)))
    with pytest.raises(ValueError):
        validate_curve(bad)


def test_boundary_endpoint_conditions_ex1(ex1, ex1_fp):
    rep = check_boundary_endpoint_conditions(ex1.map, ex1_fp, Rect(0, 5, 0, 6))
    assert rep.condition_i
    assert rep.condition_ii
    assert not rep.fixed_witnesses and not rep.period_two_witnesses


def test_boundary_endpoint_det_positive_branch(ex3_t2, ex3_t2_fp):
    rep = check_boundary_endpoint_conditions(ex3_t2.map, ex3_t2_fp, Rect(0.5, 8, 0.5, 8))
    assert rep.det_at_fp > 0
    assert rep.condition_ii


def test_boundary_endpoint_detects_interior_fixed_point():
    m = PlanarMap(name="squares", step=lambda x, y: (x * x, y * y),
                  domain=Rect(0, 2, 0, 2))
    rec = find_fixed_point(m, Point2(1e-3, 1e-3))
    rep = check_boundary_endpoint_conditions(m, rec, Rect(0, 1.4, 0, 1.4))
    assert not rep.condition_i
    assert any(w.dist_inf(Point2(1, 1)) < 1e-6 for w in rep.fixed_witnesses)
