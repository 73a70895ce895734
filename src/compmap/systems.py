"""Built-in planar systems with closed-form fixture data.

Each system id maps to a rational competitive map on the closed positive
quadrant, written as expression strings (_EXPRESSIONS) and compiled as
expr_map compiles its maps, with closed-form Jacobian partials. Fixtures
record equilibrium locations, eigenvalues, and eigenvectors in closed form;
continua describe one-parameter families of equilibria where they exist.

    ex1     x' = x/(a+y),            y' = y/(1+x)          (a > 1)
    ex2     x' = b1 x/(1+x+c1 y),    y' = b2 y/(1+y+c2 x)  (nonhyperbolic line)
    ex3_T   x' = y,                  y' = 1 + x/y
    ex3_T2  second iterate of ex3_T (strongly competitive on (0, inf)^2)
    ex4     x' = b1 x/(B1 x+y),      y' = (a2+g2 y)/x      (b1-B1 g2 = 2 sqrt(B1 a2))
    ex5     ex2 plus constant inflows h1, h2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConstraintError
from .expr import ExprJacobian, ExprPair, parse
from .fixedpoints import _record
from .geometry import Point2, Rect, sup_norm
from .planarmap import FD_STEP, PlanarMap, jacobian

_POS_QUADRANT = Rect(0.0, math.inf, 0.0, math.inf)

EXAMPLE_IDS = ("ex1", "ex2", "ex3_T", "ex3_T2", "ex4", "ex5")

DESCRIPTIONS = {
    "ex1": "continuum of nonhyperbolic equilibria along the y-axis; params: a (>1)",
    "ex2": "Leslie-Gower competition, nonhyperbolic segment of equilibria; "
           "params: b1, b2 (>1), c1, c2 with c1(b2-1)=b1-1 and c2(b1-1)=b2-1",
    "ex3_T": "second-order rational recurrence as a first-order map; no params",
    "ex3_T2": "second iterate of ex3_T; period-two continuum on x+y=xy; no params",
    "ex4": "isolated nonhyperbolic equilibrium of oscillatory type; params: "
           "B1, gamma2, alpha2, beta1 with beta1-B1*gamma2=2*sqrt(B1*alpha2)",
    "ex5": "Leslie-Gower with constant inflows, one to three equilibria; "
           "params: b1, b2, c1, c2, h1, h2 (all positive)",
}

DEFAULT_PARAMS = {
    "ex1": {"a": 2.0},
    "ex2": {"b1": 2.0, "b2": 3.0, "c1": 0.5, "c2": 2.0},
    "ex3_T": {},
    "ex3_T2": {},
    "ex4": {"B1": 1.0, "gamma2": 1.0, "alpha2": 1.0, "beta1": 3.0},
    "ex5": {"b1": 2.0, "b2": 2.0, "c1": 3.0, "c2": 3.0, "h1": 0.03, "h2": 0.01},
}


@dataclass(frozen=True)
class Fixture:
    point: Point2
    eigenvalues: tuple  # (lam, mu), |lam| <= |mu|
    eigenvectors: tuple  # closed-form directions (not normalized), None if n/a
    note: str = ""


@dataclass(frozen=True)
class Continuum:
    t_lo: float
    t_hi: float
    point: Callable[[float], Point2]
    eigenvalues: Callable[[float], tuple]
    eigenvector_lam: Optional[Callable[[float], Point2]] = None
    note: str = ""


@dataclass(frozen=True)
class ExampleSystem:
    id: str
    params: Mapping[str, float]
    map: PlanarMap
    fixtures: tuple
    continuum: Optional[Continuum] = None
    taylor_pair: Optional[tuple] = None  # (c2, d2) along the unit center eigenvector
    center_eigenvector: Optional[Point2] = None


# ---------------------------------------------------------------------------
# The maps as expressions: f, g, then the closed-form partials df/dx, df/dy,
# dg/dx, dg/dy. The operation order fixes every float, so keep it.

_LESLIE_GOWER = ("b1*x/(1+x+c1*y) + h1", "b2*y/(1+y+c2*x) + h2",
                 "b1*(1+c1*y)/((1+x+c1*y)*(1+x+c1*y))",
                 "-b1*c1*x/((1+x+c1*y)*(1+x+c1*y))",
                 "-b2*c2*y/((1+y+c2*x)*(1+y+c2*x))",
                 "b2*(1+c2*x)/((1+y+c2*x)*(1+y+c2*x))")

_EXPRESSIONS = {
    "ex1": ("x/(a+y)", "y/(1+x)",
            "1/(a+y)", "-x/((a+y)*(a+y))", "-y/((1+x)*(1+x))", "1/(1+x)"),
    "ex2": _LESLIE_GOWER,
    "ex3_T": ("y", "1 + x/y", "0", "1", "1/y", "-x/(y*y)"),
    "ex3_T2": ("1 + x/y", "1 + y*y/(x+y)",
               "1/y", "-x/(y*y)", "-y*y/((x+y)*(x+y))", "y*(2*x+y)/((x+y)*(x+y))"),
    "ex4": ("beta1*x/(B1*x+y)", "(alpha2+gamma2*y)/x",
            "beta1*y/((B1*x+y)*(B1*x+y))", "-beta1*x/((B1*x+y)*(B1*x+y))",
            "-(alpha2+gamma2*y)/(x*x)", "gamma2/x"),
    "ex5": _LESLIE_GOWER,
}


def _map(eid: str, p: dict, meta: dict, values: Optional[dict] = None) -> PlanarMap:
    """The built-in map eid with parameters p, compiled from _EXPRESSIONS with
    the parameter values `values` (default p)."""
    f, g, *partials = (parse(text) for text in _EXPRESSIONS[eid])
    values = p if values is None else values
    pair = ExprPair(f, g, values)
    return PlanarMap(name=eid, step=pair.step, domain=_POS_QUADRANT,
                     jac=ExprJacobian(partials, values).jac, params=p, meta=meta,
                     batch=pair.batch)


# ---------------------------------------------------------------------------
# Construction


def _require(cond: bool, relation: str):
    if not cond:
        raise ConstraintError(f"parameter constraint violated: {relation}")


def _resolve_params(eid: str, params: Optional[Mapping[str, float]]):
    base = dict(DEFAULT_PARAMS[eid])
    for k, v in (params or {}).items():
        if k not in base:
            raise ConstraintError(f"unknown parameter {k!r} for {eid} "
                                  f"(expected {sorted(base) or 'none'})")
        base[k] = float(v)
    return base


def make_example(eid: str, params: Optional[Mapping[str, float]] = None
                 ) -> ExampleSystem:
    """Construct a built-in system, enforcing its parameter constraints."""
    if eid not in EXAMPLE_IDS:
        raise ConstraintError(f"unknown example id {eid!r}; "
                              f"known ids: {', '.join(EXAMPLE_IDS)}")
    p = _resolve_params(eid, params)
    for k, v in p.items():
        _require(0 < v < math.inf, f"0 < {k} < inf")
    if eid == "ex1":
        return _make_ex1(p)
    if eid == "ex2":
        return _make_ex2(p)
    if eid == "ex3_T":
        return _make_ex3_t(p)
    if eid == "ex3_T2":
        return _make_ex3_t2(p)
    if eid == "ex4":
        return _make_ex4(p)
    return _make_ex5(p)


def _make_ex1(p):
    a = p["a"]
    _require(a > 1.0, "a > 1")
    m = _map("ex1", p, {"continuum": "fixed-points"})

    def point(t):
        return Point2(0.0, t)

    def eig(t):
        return (1.0 / (a + t), 1.0)

    def vlam(t):
        return Point2(a - 1.0 + t, t * (a + t))

    fixtures = tuple(
        Fixture(point=Point2(0.0, yb),
                eigenvalues=(1.0 / (a + yb), 1.0),
                eigenvectors=(Point2(a - 1.0 + yb, yb * (a + yb)), Point2(0.0, 1.0)),
                note=f"equilibrium (0, {yb:g})")
        for yb in (0.0, 1.0, 2.0))
    cont = Continuum(t_lo=0.0, t_hi=2.0, point=point, eigenvalues=eig,
                     eigenvector_lam=vlam,
                     note="equilibria (0, t) along the y-axis, t >= 0")
    return ExampleSystem(id="ex1", params=p, map=m, fixtures=fixtures,
                         continuum=cont)


def _make_ex2(p):
    b1, b2, c1, c2 = p["b1"], p["b2"], p["c1"], p["c2"]
    _require(b1 > 1.0, "b1 > 1")
    _require(b2 > 1.0, "b2 > 1")
    _require(abs(c1 * (b2 - 1.0) - (b1 - 1.0)) <= 1e-12, "c1*(b2-1) = b1-1")
    _require(abs(c2 * (b1 - 1.0) - (b2 - 1.0)) <= 1e-12, "c2*(b1-1) = b2-1")
    m = _map("ex2", p, {"continuum": "fixed-points"}, {**p, "h1": 0.0, "h2": 0.0})

    def point(t):
        return Point2((b1 - 1.0) * (1.0 - t), (b2 - 1.0) * t)

    def eig(t):
        return ((1.0 - t) / b1 + t / b2, 1.0)

    def vlam(t):
        return Point2(b2 * (1.0 - b1) ** 2 * (1.0 - t), b1 * (1.0 - b2) ** 2 * t)

    v_mu = Point2(-(1.0 - b1) / (1.0 - b2), 1.0)
    fixtures = tuple(
        Fixture(point=point(t), eigenvalues=eig(t),
                eigenvectors=(vlam(t), v_mu),
                note=f"segment equilibrium at t={t:g}")
        for t in (0.0, 0.25, 0.5, 0.75, 1.0))
    cont = Continuum(t_lo=0.0, t_hi=1.0, point=point, eigenvalues=eig,
                     eigenvector_lam=vlam,
                     note="segment of equilibria from (b1-1, 0) to (0, b2-1)")
    return ExampleSystem(id="ex2", params=p, map=m, fixtures=fixtures,
                         continuum=cont)


def _make_ex3_t(p):
    m = _map("ex3_T", p, {})
    fixtures = (Fixture(point=Point2(2.0, 2.0), eigenvalues=(0.5, -1.0),
                        eigenvectors=(Point2(2.0, 1.0), Point2(1.0, -1.0)),
                        note="unique fixed point; period-two points fill x+y=xy"),)
    return ExampleSystem(id="ex3_T", params=p, map=m, fixtures=fixtures)


def _make_ex3_t2(p):
    m = _map("ex3_T2", p, {"continuum": "fixed-points"})

    def point(t):
        return Point2(t, t / (t - 1.0))

    def eig(t):
        yb = t / (t - 1.0)
        return (1.0 / (t * yb), 1.0)

    def vlam(t):
        return Point2(t, 1.0)

    fixtures = []
    for xb in (3.0, 4.0, 5.0):
        yb = xb / (xb - 1.0)
        fixtures.append(Fixture(
            point=Point2(xb, yb), eigenvalues=(1.0 / (xb * yb), 1.0),
            eigenvectors=(Point2(xb, 1.0), Point2(xb, yb * (1.0 - yb))),
            note="hyperbola fixed point of the second iterate"))
    cont = Continuum(t_lo=3.0, t_hi=5.0, point=point, eigenvalues=eig,
                     eigenvector_lam=vlam,
                     note="fixed points on the branch x+y=xy, parametrized by x")
    return ExampleSystem(id="ex3_T2", params=p, map=m, fixtures=tuple(fixtures),
                         continuum=cont)


def _make_ex4(p):
    B1, g2, a2, b1 = p["B1"], p["gamma2"], p["alpha2"], p["beta1"]
    _require(abs(b1 - B1 * g2 - 2.0 * math.sqrt(B1 * a2)) <= 1e-12,
             "beta1 - B1*gamma2 = 2*sqrt(B1*alpha2)")
    m = _map("ex4", p, {})
    E = Point2((B1 * g2 + b1) / (2.0 * B1), (b1 - B1 * g2) / 2.0)
    lam2 = -(b1 - B1 * g2) ** 2 / (2.0 * b1 * (b1 + B1 * g2))
    e1 = Point2(-1.0, B1)
    e2 = Point2((b1 + B1 * g2) ** 2, 2.0 * b1 * B1 * (b1 - B1 * g2))
    # second Taylor coefficient of T(E + t*v) along the unit center direction
    d2 = 2.0 * B1 * B1 / ((b1 + B1 * g2) * (1.0 + B1 * B1))
    fixtures = (Fixture(point=E, eigenvalues=(lam2, 1.0), eigenvectors=(e2, e1),
                        note="unique equilibrium, oscillatory nonhyperbolic"),)
    return ExampleSystem(id="ex4", params=p, map=m, fixtures=fixtures,
                         taylor_pair=(0.0, d2), center_eigenvector=e1)


def _make_ex5(p):
    return ExampleSystem(id="ex5", params=p, map=_map("ex5", p, {}), fixtures=())


# ---------------------------------------------------------------------------
# Continuum sweeps


def sweep_continuum(sys: ExampleSystem, n: int) -> list:
    """Sample the fixed-point family; verify residuals and eigenvalue formulas.

    Returns FixedPointRecords at n parameter values spread evenly over
    [t_lo, t_hi] of the continuum. Raises if a sampled point fails its
    fixed-point residual (1e-10) or its computed eigenvalues drift from the
    closed forms by more than 1e-8 relative.
    """
    if sys.continuum is None:
        raise ValueError(f"{sys.id} does not declare a continuum of fixed points")
    cont = sys.continuum
    lo, hi = cont.t_lo, cont.t_hi
    records = []
    for k in range(n):
        t = lo + (hi - lo) * (k / (n - 1) if n > 1 else 0.0)
        pt = cont.point(t)
        fx, fy = sys.map.step(pt.x, pt.y)
        res = sup_norm(fx - pt.x, fy - pt.y)
        if not res <= 1e-10:
            raise AssertionError(f"{sys.id} continuum point {pt} has residual {res:g}")
        rec = _record(pt, "fixed", None, jacobian(sys.map, pt), res)
        lam_f, mu_f = cont.eigenvalues(t)
        for got, want in ((rec.eigen.lam, lam_f), (rec.eigen.mu, mu_f)):
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                raise AssertionError(
                    f"{sys.id} eigenvalue {got!r} != closed form {want!r} at t={t:g}")
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# ex5 critical curves and the two-equilibria instance


@dataclass(frozen=True)
class Ex5Curves:
    """The two critical curves whose intersections are the ex5 equilibria."""

    b1: float
    b2: float
    c1: float
    c2: float
    h1: float
    h2: float

    def residual_c1(self, x: float, y: float) -> float:
        return (x * x + self.c1 * x * y + (1.0 - self.b1 - self.h1) * x
                - self.c1 * self.h1 * y - self.h1)

    def residual_c2(self, x: float, y: float) -> float:
        return (y * y + self.c2 * x * y + (1.0 - self.b2 - self.h2) * y
                - self.c2 * self.h2 * x - self.h2)

    # y1, y2 and gap take a float (and return one) or an array.

    def y1(self, x):
        """Solve residual_c1 = 0 for y (linear in y); NaN at the x = h1 pole."""
        den = self.c1 * (x - self.h1)
        return ((-x * x - (1.0 - self.b1 - self.h1) * x + self.h1)
                / _nan_where(abs(den) < 1e-14, den))

    def y2(self, x):
        """Positive root of residual_c2 = 0 (quadratic in y); NaN if none is real."""
        b = self.c2 * x + (1.0 - self.b2 - self.h2)
        c = -(self.c2 * self.h2 * x + self.h2)
        disc = b * b - 4.0 * c
        return 0.5 * (-b + _sqrt(_nan_where(disc < 0.0, disc)))

    def gap(self, x):
        return self.y1(x) - self.y2(x)

    def slope_gap(self, x: float) -> float:
        """Difference of the two graph slopes at x (zero at a tangency), by
        central differences with step FD_STEP."""
        h = FD_STEP
        d1 = (self.y1(x + h) - self.y1(x - h)) / (2.0 * h)
        d2 = (self.y2(x + h) - self.y2(x - h)) / (2.0 * h)
        return d1 - d2


def _nan_where(bad, v):
    """v with NaN where bad holds; a float stays a float."""
    if isinstance(v, np.ndarray):
        return np.where(bad, math.nan, v)
    return math.nan if bad else v


def _sqrt(v):
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def ex5_critical_curves(params: Optional[Mapping[str, float]] = None) -> Ex5Curves:
    p = _resolve_params("ex5", params)
    for k in ("b1", "b2", "c1", "c2"):
        _require(p[k] > 0, f"{k} > 0")
    for k in ("h1", "h2"):  # zero inflow degenerates to the inflow-free model
        _require(p[k] >= 0, f"{k} >= 0")
    return Ex5Curves(b1=p["b1"], b2=p["b2"], c1=p["c1"], c2=p["c2"],
                     h1=p["h1"], h2=p["h2"])


# ex5_equilibria scans the curve gap at EX5_SCAN abscissae up to EX5_X_MAX.
EX5_X_MAX = 30.0
EX5_SCAN = 20001
# Bisection and golden-section search stop at brackets this narrow.
XTOL = 1e-14
# _leftmost_local_min scans the curve gap at TANGENCY_SCAN abscissae up to
# TANGENCY_X_MAX.
TANGENCY_X_MAX = 5.0
TANGENCY_SCAN = 4000
# The inflow h1 bracket find_ex5_two_equilibria bisects for the tangency.
H1_BRACKET = (0.02, 0.08)


def ex5_equilibria(params: Optional[Mapping[str, float]] = None) -> list:
    """Transversal equilibria of ex5 as crossings of the critical curves."""
    cur = ex5_critical_curves(params)
    x_lo = cur.h1 * (1.0 + 1e-9) + 1e-12
    xs = np.linspace(x_lo, EX5_X_MAX, EX5_SCAN)
    sign = np.sign(cur.gap(xs))
    roots = []
    for i in np.nonzero(np.diff(sign) != 0)[0]:
        xr = _bisect_root(cur.gap, float(xs[i]), float(xs[i + 1]))
        roots.append(Point2(xr, cur.y2(xr)))
    return roots


def _bisect_root(f, a: float, b: float) -> float:
    """Root of f in [a, b], where f changes sign, by bisection to XTOL."""
    fa = f(a)
    while b - a > XTOL:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _golden_min(f, a: float, b: float) -> float:
    """Minimizer of a unimodal f on [a, b] by golden-section search to XTOL."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > XTOL and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _leftmost_local_min(cur: Ex5Curves):
    """Locate the leftmost local minimum of the curve gap (the tangency dip)."""
    x_lo = cur.h1 + 1e-6 * max(1.0, cur.h1)
    xs = np.linspace(x_lo, TANGENCY_X_MAX, TANGENCY_SCAN)
    g = cur.gap(xs)
    dips = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]))
    if not len(dips):
        return None, math.nan
    i = int(dips[0]) + 1
    x = _golden_min(cur.gap, float(xs[i - 1]), float(xs[i + 1]))
    return x, cur.gap(x)


@dataclass(frozen=True)
class Ex5TwoEquilibria:
    system: ExampleSystem
    nonhyperbolic: Point2
    attractor: Point2
    h1: float
    tangency_x: float


@lru_cache(maxsize=8)
def _find_two_equilibria_cached(b1, b2, c1, c2, h2):
    def min_gap(h1):
        cur = Ex5Curves(b1=b1, b2=b2, c1=c1, c2=c2, h1=h1, h2=h2)
        _x, g = _leftmost_local_min(cur)
        return g

    h1_lo, h1_hi = H1_BRACKET
    g_lo = min_gap(h1_lo)
    g_hi = min_gap(h1_hi)
    if not (g_lo < 0 < g_hi):
        raise ConstraintError(
            "h1 bracket does not straddle the tangency: gap signs "
            f"{g_lo:g} / {g_hi:g}")
    lo, hi = h1_lo, h1_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if min_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    h1s = 0.5 * (lo + hi)
    cur = Ex5Curves(b1=b1, b2=b2, c1=c1, c2=c2, h1=h1s, h2=h2)
    xt, _g = _leftmost_local_min(cur)
    p_nh = Point2(xt, cur.y2(xt))
    roots = ex5_equilibria({"b1": b1, "b2": b2, "c1": c1, "c2": c2,
                            "h1": h1s, "h2": h2})
    others = [r for r in roots if r.dist_inf(p_nh) > 1e-4]
    if len(others) != 1:
        raise ConstraintError(
            f"expected exactly one transversal equilibrium at tangency, found "
            f"{len(others)}")
    sys = make_example("ex5", {"b1": b1, "b2": b2, "c1": c1, "c2": c2,
                               "h1": h1s, "h2": h2})
    return Ex5TwoEquilibria(system=sys, nonhyperbolic=p_nh, attractor=others[0],
                            h1=h1s, tangency_x=xt)


def find_ex5_two_equilibria(b1: float = 2.0, b2: float = 2.0, c1: float = 3.0,
                            c2: float = 3.0, h2: float = 0.01) -> Ex5TwoEquilibria:
    """Locate the inflow value h1 at which ex5 has exactly two equilibria.

    Bisects h1 within H1_BRACKET on the sign of the local minimum of the
    critical-curve gap: a negative dip means three transversal crossings, a
    positive one means a single equilibrium; the tangency between them is
    the two-equilibria instance, whose merged equilibrium is nonhyperbolic
    (eigenvalue 1).
    """
    return _find_two_equilibria_cached(float(b1), float(b2), float(c1),
                                       float(c2), float(h2))
