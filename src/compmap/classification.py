"""Local dynamics at a fixed point along an off-diagonal eigenvector.

The hyperbolic verdict needs only the eigenvalue; the nonhyperbolic one
(eigenvalue 1) is decided by the parity and southeast-sign of the first
nonzero Taylor coefficient pair of t -> T(fp + t v) beyond the linear term.
Case ids:

    hyperbolic_expanding    orbits leave the order interval from int(Q2 u Q4)
    hyperbolic_contracting  T^n(x) -> fp on the whole order interval
    odd_se_negative         escape from int(Q2 u Q4)
    odd_se_positive         T^n(x) -> fp on the whole order interval
    even_se_negative        T^n(x) -> fp on the Q4 side, escape from int Q2
    even_se_positive        T^n(x) -> fp on the Q2 side, escape from int Q4
    unclassified            none of the decidable coefficient patterns holds
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .errors import (HypothesisError, SingularityError, check_count, check_point,
                     check_tolerance)
from .fixedpoints import NONHYPERBOLIC_TOL
from .geometry import Point2, Rect, order_interval, record_class, sup_norm
from .planarmap import PlanarMap

COEFF_TOL = 1e-8
ILL_CONDITION_REL = 1e-4
ORDER_OFFSETS = (1e-1, 1e-2, 1e-3)  # ray offsets find_order_interval tries, in order

CASE_CONCLUSIONS = {
    "hyperbolic_expanding": "orbits starting in int(Q2 u Q4) inside the order "
                            "interval eventually leave it",
    "hyperbolic_contracting": "orbits converge to the fixed point on the whole "
                              "order interval",
    "odd_se_negative": "orbits starting in int(Q2 u Q4) inside the order "
                       "interval eventually leave it",
    "odd_se_positive": "orbits converge to the fixed point on the whole order "
                       "interval",
    "even_se_negative": "orbits converge to the fixed point on the Q4 side and "
                        "leave the order interval from int Q2",
    "even_se_positive": "orbits converge to the fixed point on the Q2 side and "
                        "leave the order interval from int Q4",
    "unclassified": "no verdict",
}


def is_subsolution(m: PlanarMap, p: Point2) -> bool:
    """T(p) <=_se p, exact comparison on computed values."""
    fx, fy = m.step(p[0], p[1])
    return fx <= p[0] and fy >= p[1]


def is_supersolution(m: PlanarMap, p: Point2) -> bool:
    """p <=_se T(p), exact comparison on computed values."""
    fx, fy = m.step(p[0], p[1])
    return p[0] <= fx and p[1] >= fy


@record_class
class TaylorRay:
    """Coefficient pairs (c_j, d_j), j = 2..degree, of T(fp + t v) - fp - t v.

    direction is unit-normalized; mu_estimate is 1 + the measured linear term
    along the ray (the eigenvalue if v is an eigenvector). ill_conditioned is
    set when the two Richardson levels disagree beyond tolerance.
    """

    center: Point2
    direction: Point2
    coeffs: tuple
    degree: int
    mu_estimate: float
    ill_conditioned: bool = False


def _fit(rows: np.ndarray, base: float, powers: tuple) -> np.ndarray:
    """Solve sum_k a_k t^p_k = rows[i] at t = base/2^i, i = 0..2, one column
    (component) at a time; row k of the result is the coefficient of
    t^powers[k].

    The system is solved in the scaled variable s = t/base so the Vandermonde
    stays well conditioned; coefficients are unscaled afterwards.
    """
    A = np.array([[s ** p for p in powers] for s in (1.0, 0.5, 0.25)])
    scale = [base ** p for p in powers]
    return np.array([np.linalg.solve(A, col) / scale for col in rows.T]).T


def taylor_along_eigenvector(m: PlanarMap, fp: Point2, v: Point2,
                             degree: int = 4, h: float = 0.1) -> TaylorRay:
    """Extract ray coefficients by Richardson-extrapolated central differences.

    phi(t) = T(fp + t v) - fp - t v is sampled by scalar steps at t = h, -h,
    h/2, -h/2, h/4, -h/4, h/8, -h/8, in that order, so when several samples
    raise, the error raised is the first one's. Even and odd parts are
    fitted separately so the (near-zero) linear term never pollutes the
    quadratic one, and the estimator is repeated at base step h/2 to flag
    ill-conditioning (a fit that is not finite, or one with a sample point
    that rounds to fp, is flagged too). h is the largest ray offset; much
    below 0.05 the degree-4 coefficient drowns in rounding noise (error ~
    eps/h^4), and an h whose powers overflow raises ValueError. fp and v
    must be finite, and |T(fp) - fp| < 1e-10; warns when the measured eigenvalue along v is not
    within NONHYPERBOLIC_TOL of 1.
    """
    check_count("degree", degree, 2, 4)
    check_tolerance("step h", h)
    check_point("fp", fp)
    check_point("v", v)
    fx, fy = m.step(fp[0], fp[1])
    if not sup_norm(fx - fp[0], fy - fp[1]) <= 1e-10:
        raise ValueError(f"({fp[0]:.6g}, {fp[1]:.6g}) is not a fixed point to "
                         "residual 1e-10")
    v = Point2(*v).unit()
    x0, y0 = fp
    t = h / np.array([1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 8.0, -8.0])
    pts = [(x0 + s * v.x, y0 + s * v.y) for s in t.tolist()]
    phi = np.array([m.step(x, y) for x, y in pts]) - (x0, y0) - np.outer(t, v)
    plus, minus = phi[0::2], phi[1::2]  # a row per step h/2^k, a column per component
    even, odd = 0.5 * (plus + minus), 0.5 * (plus - minus)
    try:
        (lin, a3, _), (a2, a4, _) = _fit(odd[:3], h, (1, 3, 5)), _fit(even[:3], h, (2, 4, 6))
        (_, b3, _), (b2, b4, _) = (_fit(odd[1:], h / 2.0, (1, 3, 5)),
                                   _fit(even[1:], h / 2.0, (2, 4, 6)))
    except OverflowError:
        raise ValueError(f"step h={h!r} overflows the ray fit") from None
    coeffs = np.array([a2, a3, a4])[:degree - 1]
    disagreement = np.linalg.norm(coeffs - np.array([b2, b3, b4])[:degree - 1])
    # a sample that rounds to fp itself carries no curvature
    ill = ((x0, y0) in pts
           or not (disagreement <= ILL_CONDITION_REL * max(1.0, np.linalg.norm(coeffs))))

    mu_est = 1.0 + lin[0] * v.x + lin[1] * v.y
    if abs(mu_est - 1.0) > NONHYPERBOLIC_TOL:
        warnings.warn(
            f"eigenvalue along the ray is {mu_est:.9g}, not within "
            f"{NONHYPERBOLIC_TOL:g} of 1; nonhyperbolic classification does not apply",
            stacklevel=2)
    return TaylorRay(center=Point2(*fp), direction=v, coeffs=tuple(map(tuple, coeffs)),
                     degree=degree, mu_estimate=mu_est, ill_conditioned=ill)


def first_nonzero_index(ray: TaylorRay, tol: float = COEFF_TOL) -> Optional[int]:
    """Smallest j with max(|c_j|, |d_j|) > tol, or None when all are below tol."""
    check_tolerance("tol", tol, zero=True)
    for j, (c, d) in zip(range(2, ray.degree + 1), ray.coeffs):
        if max(abs(c), abs(d)) > tol:
            return j
    return None


@record_class
class LocalVerdict:
    ell: Optional[int]
    case_id: str
    detail: str

    @property
    def conclusion(self) -> str:
        return CASE_CONCLUSIONS[self.case_id]


def classify_hyperbolic_ray(mu: float, v: Point2) -> LocalVerdict:
    """Hyperbolic local dynamics along an eigenvector with v1*v2 < 0: the
    ray expands iff |mu| > 1, the modulus rule fixed-point records use."""
    if not (v[0] * v[1] < 0):
        raise HypothesisError("eigenvector components must have opposite signs")
    if abs(abs(mu) - 1.0) <= NONHYPERBOLIC_TOL:
        raise HypothesisError(f"eigenvalue modulus within {NONHYPERBOLIC_TOL:g} of 1: "
                              "not hyperbolic")
    size = f"mu = {mu:.9g}" if mu >= 0 else f"|mu| = {-mu:.9g}"
    if abs(mu) > 1.0:
        return LocalVerdict(None, "hyperbolic_expanding", f"{size} > 1")
    return LocalVerdict(None, "hyperbolic_contracting", f"{size} < 1")


def classify_nonhyperbolic(ray: TaylorRay) -> LocalVerdict:
    """Parity-and-sign verdict from the first nonzero coefficient pair.

    Decidable patterns: (a) c_l * d_l < 0, (b) c_l nonzero with the second
    component affine along the ray, (c) d_l nonzero with the first component
    affine. A coefficient is nonzero above COEFF_TOL, and affineness is
    certified by all coefficients of that component staying below it.
    Anything else is 'unclassified'.
    """
    tol = COEFF_TOL
    ell = first_nonzero_index(ray, tol)
    if ell is None:
        return LocalVerdict(None, "unclassified",
                            f"all coefficients below tol={tol:g}")
    c, d = ray.coeffs[ell - 2]
    comp1_affine = all(abs(cj) <= tol for cj, _ in ray.coeffs)
    comp2_affine = all(abs(dj) <= tol for _, dj in ray.coeffs)
    if c * d < 0 and abs(c) > tol and abs(d) > tol:
        detail = "a"
    elif abs(c) > tol and comp2_affine:
        detail = "b"
    elif abs(d) > tol and comp1_affine:
        detail = "c"
    else:
        return LocalVerdict(ell, "unclassified",
                            "conditions (a)/(b)/(c) all fail")
    cs = 0.0 if abs(c) <= tol else c
    ds = 0.0 if abs(d) <= tol else d
    se_negative = cs <= 0.0 and ds >= 0.0  # (c_l, d_l) <=_se (0, 0)
    parity = "odd" if ell % 2 else "even"
    side = "negative" if se_negative else "positive"
    return LocalVerdict(ell, f"{parity}_se_{side}", detail)


# ---------------------------------------------------------------------------
# Concrete order intervals and orbit checks


@record_class
class OrderInterval:
    """[[q2_corner, q4_corner]] around a fixed point, corners on the ray fp + t v."""

    q2_corner: Point2
    q4_corner: Point2

    def as_rect(self) -> Rect:
        return order_interval(self.q2_corner, self.q4_corner)

    def contains(self, p: Point2) -> bool:
        return self.as_rect().contains(Point2(*p))


# required (Q2-side, Q4-side) end behavior per case
_END_KIND = {
    "hyperbolic_expanding": ("sub", "super"),
    "hyperbolic_contracting": ("super", "sub"),
    "odd_se_negative": ("sub", "super"),
    "odd_se_positive": ("super", "sub"),
    "even_se_negative": ("sub", "sub"),
    "even_se_positive": ("super", "super"),
}


def find_order_interval(m: PlanarMap, fp: Point2, v: Point2,
                        case_id: str) -> OrderInterval:
    """Realize the order interval of a local verdict by scanning ray offsets.

    The corners fp + t v must satisfy the sub/supersolution inequality the
    verdict requires at each end; the largest workable |t| from ORDER_OFFSETS
    is kept. fp and v must be finite.
    """
    check_point("fp", fp)
    check_point("v", v)
    if case_id not in _END_KIND:
        raise ValueError(f"no order interval for case {case_id!r}")
    v = Point2(*v).unit()
    if not (v.x * v.y < 0):
        raise HypothesisError("ray direction must have opposite-signed components")
    if v.x > 0:  # orient so +t moves into Q2
        v = Point2(-v.x, -v.y)
    want_q2, want_q4 = _END_KIND[case_id]
    corners = []
    for want, sign in ((want_q2, +1.0), (want_q4, -1.0)):
        found = None
        for t in ORDER_OFFSETS:
            p = Point2(fp[0] + sign * t * v.x, fp[1] + sign * t * v.y)
            if not m.domain.contains(p):
                continue
            try:
                ok = is_subsolution(m, p) if want == "sub" else is_supersolution(m, p)
            except SingularityError:
                continue
            if ok:
                found = p
                break
        if found is None:
            raise HypothesisError(
                f"no {want}solution found on the ray at offsets {ORDER_OFFSETS}")
        corners.append(found)
    return OrderInterval(q2_corner=corners[0], q4_corner=corners[1])

