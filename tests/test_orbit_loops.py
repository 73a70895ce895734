"""The scalar orbit loops of curves against the plain loops of helpers.

curves._classify_quadrant and curves._limit_orbit run one loop text each,
compiled with an expression map's statements written in, or as it stands
calling any other step. Both must give what the plain loops give, on maps
whose steps raise (poles, '^' that math.pow rejects, unbound parameters),
from starts at the poles, at ±0, ±inf, NaN and beyond ESCAPE_BOUND; the
public classify_side and limit_equilibrium refuse the non-finite starts.
"""

import gc
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from compmap import Point2, Rect, SideOptions, classify_side, expr_map, limit_equilibrium
from compmap import curves
from compmap.expr import _planar_map, differentiate, parse

from helpers import (classify_quadrant, counting_map, limit_orbit, scalar_classify_side,
                     scalar_limit_equilibrium)

# Components; c is a pole (or where a '^' fails), u a parameter left unbound
PIECES = ("x", "y", "3", "-0.5", "a*x - y", "x/(y - c)", "y/(c - x)",
          "(x - c)^0.5", "x^-1", "a*x + x^320", "x*y/(1 + x^2)",
          "(x/y)^0 + x", "u*x + y", "0.5*x + 0.25*y", "a*y/(1 + x + c*y)")
DOMAINS = (None, Rect(0.0, math.inf, 0.0, math.inf), Rect(-4.0, 4.0, -3.0, 5.0))


def _map(f, g, a, c, domain):
    """The map (f, g) with a and c bound and u not, as the built-ins are made."""
    f, g = parse(f), parse(g)
    partials = [differentiate(e, v) for e in (f, g) for v in ("x", "y")]
    domain = domain or Rect(-math.inf, math.inf, -math.inf, math.inf)
    values = {"a": a, "c": c}
    return _planar_map("drawn", f, g, partials, values, domain, values, {})


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _bits(v):
    """A LimitRecord, a _limit_orbit tuple or a _classify_quadrant tuple
    with every float as hex."""
    if isinstance(v, type):
        return v
    if isinstance(v, curves.LimitRecord):
        return (tuple(map(float.hex, v.start)),
                v.limit and tuple(map(float.hex, v.limit)), v.iterations, v.flag)
    if len(v) == 3:
        verdict, x, y = v
        return verdict, float(x).hex(), float(y).hex()
    flag, x, y, n = v
    return flag, float(x).hex(), float(y).hex(), n


def _inlined(m):
    return all(curves._loop(m.step, s) is not curves._CALLING[s]
               for s in (curves._QUADRANT_LOOP, curves._LIMIT_LOOP))


def _assert_paths_agree(m, start, n, fp, opts):
    """The loops on m (inlined), on its counting copy (calling step) and the
    plain loops of helpers give the same verdicts, limits and raises."""
    x, y = start
    counted = counting_map(m, [0, 0, 0])
    assert _inlined(m) and not _inlined(counted)
    for mm in (m, counted):
        assert _bits(_outcome(lambda: curves._classify_quadrant(mm, x, y, n, fp, opts))) \
            == _bits(_outcome(lambda: classify_quadrant(m, x, y, n, fp, opts)))
        assert _bits(_outcome(lambda: curves._limit_orbit(
            mm.step, x, y, n, opts.conv_tol, opts.max_iter))) == _bits(_outcome(
                lambda: limit_orbit(m.step, x, y, n, opts.conv_tol, opts.max_iter)))
        # the public entries refuse a non-finite start before any evaluation
        finite = all(map(math.isfinite, start))
        assert _bits(_outcome(lambda: limit_equilibrium(
            mm, start, opts.conv_tol, opts.max_iter))) == (_bits(_outcome(
                lambda: scalar_limit_equilibrium(m, start, opts.conv_tol, opts.max_iter)))
                if finite else ValueError)
        for mode in curves.SIDE_MODES:
            o = SideOptions(mode, opts.epsilon_margin, opts.max_iter, opts.conv_tol)
            assert _outcome(lambda: classify_side(mm, start, fp, o)) \
                == (_outcome(lambda: scalar_classify_side(m, start, fp, o)) if finite
                    else ValueError)


def _starts(c):
    special = st.sampled_from([0.0, -0.0, c, math.nextafter(c, 9.0), 1.0, -1.0,
                               math.inf, -math.inf, math.nan, 2e6, -2e6,
                               curves.ESCAPE_BOUND, 5e-324])
    coord = st.one_of(special, st.floats(-5.0, 5.0))
    return st.tuples(coord, coord)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), f=st.sampled_from(PIECES), g=st.sampled_from(PIECES),
       a=st.sampled_from([0.5, 1.5, 2.0]), c=st.sampled_from([0.0, 1.0, -2.0, 0.5]),
       domain=st.sampled_from(DOMAINS), n=st.sampled_from([0, 0, 1, 3]),
       fp=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (-2.0, 3.0)]),
       eps=st.sampled_from([0.0, 1e-9, 0.25]),
       max_iter=st.one_of(st.integers(1, 6), st.just(300)),
       conv_tol=st.sampled_from([1e-12, 1e-3]))
def test_inlined_and_calling_loops_match_the_plain_loops(data, f, g, a, c, domain, n,
                                                         fp, eps, max_iter, conv_tol):
    m = _map(f, g, a, c, domain)
    start = Point2(*data.draw(_starts(c)))
    opts = SideOptions(epsilon_margin=eps, max_iter=max_iter, conv_tol=conv_tol)
    _assert_paths_agree(m, start, n, Point2(*fp), opts)


@pytest.mark.parametrize("f, g", [("x + 0.000001", "y"), ("x - 0.000001", "y"),
                                  ("x", "y + 0.000001"), ("x", "y - 0.000001")])
def test_a_step_of_exactly_the_tolerance_goes_on(f, g):
    # from 0 the first steps are exactly LIMIT_RESIDUAL_TOL, not below it
    m = expr_map(f, g, {})
    opts = SideOptions("limit_equilibrium", 0.0, 30, 1e-3)
    _assert_paths_agree(m, Point2(0.0, 0.0), 0, Point2(0.0, 0.0), opts)
    assert limit_orbit(m.step, 0.0, 0.0, 0, 1e-3, 30)[3] > 0


def test_a_pickled_map_compiles_its_own_loops():
    m = expr_map("x/(a + y)", "y/(1 + x)", {"a": 2.0})
    opts = SideOptions(epsilon_margin=1e-9, max_iter=500)
    start, fp = Point2(0.3, 2.5), Point2(0.0, 1.0)
    want = classify_side(m, start, fp, opts)
    assert len(m.step.__self__._loops) == 1
    copy = pickle.loads(pickle.dumps(m))
    assert copy.step.__self__._loops == {}
    assert classify_side(copy, start, fp, opts) == want
    _assert_paths_agree(copy, start, 0, fp, opts)


def test_maps_built_and_dropped_in_turn_keep_their_own_loops():
    # a map built after another is dropped may take over its memory and id;
    # its loops must still be its own
    opts = SideOptions(epsilon_margin=1e-9, max_iter=200, conv_tol=1e-9)
    start, fp = Point2(0.5, 0.5), Point2(0.0, 0.0)
    for k in range(20):
        m = expr_map(f"{k % 4 + 0.5}*x", f"y/{k % 3 + 2}", {})
        _assert_paths_agree(m, start, 0, fp, opts)
        del m
        gc.collect()
