import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compmap import (HypothesisError, Point2, Rect, SingularityError, TaylorRay,
                     classify_hyperbolic_ray, classify_nonhyperbolic, expr_map,
                     find_order_interval, first_nonzero_index, is_subsolution,
                     is_supersolution, le_se, make_example,
                     taylor_along_eigenvector)
from compmap.planarmap import PlanarMap

from helpers import converges_to, dict_taylor_along_eigenvector, exits_interval

EX4 = make_example("ex4")
# (map, fixed point, direction): ex4 and its expression form along the centre
# eigenvector, and every fixture eigenvector of ex1, ex2 and ex3_T2
RAYS = ([(EX4.map, Point2(2.0, 1.0), EX4.center_eigenvector),
         (expr_map("beta1*x/(B1*x+y)", "(alpha2+gamma2*y)/x", EX4.params,
                   domain=EX4.map.domain), Point2(2.0, 1.0), EX4.center_eigenvector)]
        + [(ex.map, f.point, v) for ex in map(make_example, ("ex1", "ex2", "ex3_T2"))
           for f in ex.fixtures for v in f.eigenvectors if v is not None])


def test_fixed_points_are_both_sub_and_super(ex1, ex4):
    assert is_subsolution(ex1.map, Point2(0.0, 1.0))
    assert is_supersolution(ex1.map, Point2(0.0, 1.0))
    assert is_subsolution(ex4.map, Point2(2.0, 1.0))
    assert is_supersolution(ex4.map, Point2(2.0, 1.0))


def test_northeast_moving_point_is_neither():
    m = PlanarMap(name="shift", step=lambda x, y: (x + 1.0, y + 1.0),
                  domain=Rect(-10, 10, -10, 10))
    assert not is_subsolution(m, Point2(0, 0))
    assert not is_supersolution(m, Point2(0, 0))


def test_both_iff_exactly_fixed(ex1):
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = Point2(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0))
        both = is_subsolution(ex1.map, p) and is_supersolution(ex1.map, p)
        assert both == (ex1.map.step(p.x, p.y) == tuple(p))
    # and on an actual equilibrium the equivalence is an equality
    assert ex1.map.step(0.0, 2.0) == (0.0, 2.0)


def test_ex4_q2_subsolution_near_center_ray(ex4):
    # points just above the center ray, slightly inside Q2(E)
    E = Point2(2.0, 1.0)
    found = 0
    for t in (1e-2, 1e-3):
        p = Point2(E.x - t, E.y + t + t * t / 2.0)
        assert p.x < E.x and p.y > E.y  # strictly inside Q2(E)
        if is_subsolution(ex4.map, p):
            found += 1
    assert found == 2


def test_taylor_ex4_coefficients(ex4):
    ray = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1))
    c2, d2 = ray.coeffs[0]
    assert abs(c2) <= 1e-8
    assert d2 == pytest.approx(0.25, abs=1e-6)
    assert d2 == pytest.approx(ex4.taylor_pair[1], abs=1e-6)
    # the first component is affine along the ray: every c_j vanishes
    assert all(abs(cj) <= 1e-8 for cj, _ in ray.coeffs)
    assert abs(ray.mu_estimate - 1.0) <= 1e-7
    assert not ray.ill_conditioned


def test_taylor_linear_map_all_zero():
    m = PlanarMap(name="affine", step=lambda x, y: (0.25 + 0.5 * x + 0.25 * y, y),
                  domain=Rect(-10, 10, -10, 10))
    with pytest.warns(UserWarning):
        ray = taylor_along_eigenvector(m, Point2(1.0, 1.0), Point2(-1, 1))
    assert all(max(abs(c), abs(d)) <= 1e-8 for c, d in ray.coeffs)
    assert first_nonzero_index(ray) is None


def test_taylor_requires_fixed_point(ex4):
    with pytest.raises(ValueError):
        taylor_along_eigenvector(ex4.map, Point2(2.5, 1.0), Point2(-1, 1))


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_taylor_rejects_a_step_that_is_not_finite_and_positive(ex4, h):
    with pytest.raises(ValueError, match="step h must be finite and > 0"):
        taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1), h=h)


def test_taylor_extrapolation_stability(ex4):
    # halving the base step must not move the reported coefficients much
    a = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1), h=0.1)
    b = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1), h=0.05)
    va = np.array(a.coeffs).ravel()
    vb = np.array(b.coeffs).ravel()
    assert np.linalg.norm(va - vb) < 1e-4 * max(1.0, np.linalg.norm(va))


def _outcome(fit, m, fp, v, degree, h):
    """The fit's ray or (exception type, message), with its warning messages."""
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ray = fit(m, fp, v, degree=degree, h=h)
        except Exception as exc:
            ray = (type(exc), str(exc))
    return ray, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(ray=st.sampled_from(range(len(RAYS))), degree=st.integers(2, 4),
       h=st.one_of(st.floats(1e-3, 0.5), st.sampled_from([1e-300, 5.0])))
def test_taylor_fit_matches_the_step_keyed_oracle(ray, degree, h):
    args = RAYS[ray] + (degree, h)
    got, got_warned = _outcome(taylor_along_eigenvector, *args)
    want, want_warned = _outcome(dict_taylor_along_eigenvector, *args)
    assert got_warned == want_warned
    if isinstance(want, tuple):
        assert got == want
        return
    assert [float(x).hex() for c in got.coeffs for x in c] == \
        [float(x).hex() for c in want.coeffs for x in c]
    assert float(got.mu_estimate).hex() == float(want.mu_estimate).hex()
    assert (got.center, got.direction, got.degree) == \
        (want.center, want.direction, want.degree)
    if np.all(np.isfinite(got.coeffs)):
        assert got.ill_conditioned == want.ill_conditioned
    else:
        assert got.ill_conditioned


def test_taylor_nan_fit_is_ill_conditioned(ex4):
    # h^6 underflows to 0 at h = 1e-300, so every coefficient is 0/0 or x/0
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ray = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1), h=1e-300)
    assert np.isnan(ray.coeffs).any()
    assert ray.ill_conditioned


def test_taylor_ray_that_rounds_to_the_fixed_point_is_ill_conditioned(ex4):
    # at h = 1e-60 every sample fp + t v rounds to fp: the fit sees no curvature
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ray = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1), h=1e-60)
    assert np.all(np.array(ray.coeffs) == 0.0)
    assert ray.ill_conditioned


def test_taylor_step_whose_powers_overflow_raises_value_error():
    # h^6 overflows at h = 1e60, although every sample is finite
    m = expr_map("x + 0.1*(x-y)*(x-y)", "y")
    with pytest.raises(ValueError, match=r"step h=1e\+60 overflows the ray fit"):
        taylor_along_eigenvector(m, Point2(0, 0), Point2(1, -1), h=1e60)


def test_first_nonzero_index_cases(ex4):
    ray = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1))
    assert first_nonzero_index(ray, tol=1e-8) == 2

    synthetic = TaylorRay(center=Point2(0, 0), direction=Point2(-1, 1).unit(),
                          coeffs=((0.0, 0.0), (1e-3, -1e-3), (0.0, 0.0)),
                          degree=4, mu_estimate=1.0)
    assert first_nonzero_index(synthetic) == 3


def test_classify_hyperbolic_ray():
    v = classify_hyperbolic_ray(2.0, Point2(1, -1))
    assert v.case_id == "hyperbolic_expanding"
    v = classify_hyperbolic_ray(0.5, Point2(-1, 1))
    assert v.case_id == "hyperbolic_contracting"
    with pytest.raises(HypothesisError):
        classify_hyperbolic_ray(1.0, Point2(1, -1))
    with pytest.raises(HypothesisError):
        classify_hyperbolic_ray(2.0, Point2(1, 1))
    # the modulus decides, as in fixed-point records: -1 is a flip, not a contraction
    with pytest.raises(HypothesisError):
        classify_hyperbolic_ray(-1.0, Point2(1, -1))
    v = classify_hyperbolic_ray(-2.0, Point2(1, -1))
    assert (v.case_id, v.detail) == ("hyperbolic_expanding", "|mu| = 2 > 1")
    v = classify_hyperbolic_ray(-0.5, Point2(1, -1))
    assert (v.case_id, v.detail) == ("hyperbolic_contracting", "|mu| = 0.5 < 1")


def _ray(coeffs):
    return TaylorRay(center=Point2(0, 0), direction=Point2(-1, 1).unit(),
                     coeffs=tuple(coeffs), degree=len(coeffs) + 1,
                     mu_estimate=1.0)


def test_classify_nonhyperbolic_cases(ex4):
    ray = taylor_along_eigenvector(ex4.map, Point2(2, 1), Point2(-1, 1))
    v = classify_nonhyperbolic(ray)
    assert v.case_id == "even_se_negative" and v.ell == 2 and v.detail == "c"

    v = classify_nonhyperbolic(_ray([(0.0, 0.0), (-1.0, 1.0), (0.3, -0.2)]))
    assert v.case_id == "odd_se_negative" and v.ell == 3 and v.detail == "a"

    v = classify_nonhyperbolic(_ray([(0.0, 0.0), (1.0, -1.0), (0.0, 0.0)]))
    assert v.case_id == "odd_se_positive" and v.ell == 3

    v = classify_nonhyperbolic(_ray([(0.2, 0.0), (0.1, 0.0), (0.05, 0.0)]))
    assert v.case_id == "even_se_positive" and v.detail == "b"

    # same-sign pair with neither component affine: no decidable pattern
    v = classify_nonhyperbolic(_ray([(1e-3, 1e-3), (1e-3, 1e-3), (0.0, 0.0)]))
    assert v.case_id == "unclassified"

    v = classify_nonhyperbolic(_ray([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]))
    assert v.case_id == "unclassified" and v.ell is None


def test_find_order_interval_ex4(ex4):
    E = Point2(2.0, 1.0)
    iv = find_order_interval(ex4.map, E, Point2(-1, 1), "even_se_negative")
    # both corners must be subsolutions sitting on the ray
    assert is_subsolution(ex4.map, iv.q2_corner)
    assert is_subsolution(ex4.map, iv.q4_corner)
    assert le_se(iv.q2_corner, E) and le_se(E, iv.q4_corner)
    r = iv.as_rect()
    assert r.contains(E)


def test_find_order_interval_orients_skips_and_refuses(ex4):
    E = Point2(2.0, 1.0)
    wide = find_order_interval(ex4.map, E, Point2(-1, 1), "even_se_negative")
    # a direction pointing into Q4 is flipped to point into Q2
    assert find_order_interval(ex4.map, E, Point2(1, -1), "even_se_negative") == wide
    # offset 1e-1 leaves the domain, or meets a singularity: 1e-2 is used
    narrow = replace(ex4.map, domain=Rect(1.95, 2.05, 0.95, 1.05))

    def step(x, y):
        if abs(x - 2.0) > 0.05:
            raise SingularityError("far from E")
        return ex4.map.step(x, y)

    for m in (narrow, replace(ex4.map, step=step)):
        iv = find_order_interval(m, E, Point2(-1, 1), "even_se_negative")
        assert iv.q2_corner.x == pytest.approx(2.0 - 1e-2 / math.sqrt(2.0), abs=1e-15)
        assert iv.q4_corner.x == pytest.approx(2.0 + 1e-2 / math.sqrt(2.0), abs=1e-15)
    # both ends of ex4's ray are subsolutions: no supersolution end exists
    with pytest.raises(HypothesisError, match="no supersolution"):
        find_order_interval(ex4.map, E, Point2(-1, 1), "even_se_positive")


def test_verdict_dynamics_smoke(ex4):
    # light version of the full dynamic check: Q4 side converges, Q2 side escapes
    E = Point2(2.0, 1.0)
    iv = find_order_interval(ex4.map, E, Point2(-1, 1), "even_se_negative")
    w = 1e-5 / math.sqrt(2.0)
    rng = np.random.default_rng(23)
    for _ in range(5):
        u, v = rng.uniform(0.1, 0.9, 2)
        p = Point2(E.x + u * w, E.y - v * w)
        assert converges_to(ex4.map, p, E, tol=1e-5, max_iter=100_000)
    for _ in range(5):
        u, v = rng.uniform(0.1, 0.9, 2)
        p = Point2(E.x + (iv.q2_corner.x - E.x) * u,
                   E.y + (iv.q2_corner.y - E.y) * v)
        assert exits_interval(ex4.map, p, iv, max_iter=100_000)
