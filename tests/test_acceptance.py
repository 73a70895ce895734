"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs as well.
"""

import math
import time

import numpy as np
import pytest

from compmap import (Point2, Rect, SideOptions, classify_side, eigen2x2,
                     classify_nonhyperbolic, continuity_probe,
                     find_order_interval, find_fixed_point,
                     first_nonzero_index, jacobian, le_se, limit_equilibrium,
                     make_example, raster, taylor_along_eigenvector)
from compmap.curves import locate_ordinate
from compmap.expr import differentiate, evaluate, expr_map
from compmap.basins import LABEL_CODES
from compmap.cli import main as cli_main

from helpers import (converges_to, direction_close, ex1_boundary_scan,
                     ex4_step_np, ex5_step_np, exits_interval, random_expr)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


# ---------------------------------------------------------------------------


def test_criterion_1_eigen_fixtures():
    t0 = time.perf_counter()
    failures = []

    def check(m, point, lam, mu, v_lam, v_mu, tag):
        e = eigen2x2(jacobian(m, point))
        if abs(e.lam - lam) > 1e-8 * max(1.0, abs(lam)):
            failures.append(f"{tag}: lam {e.lam} != {lam}")
        if abs(e.mu - mu) > 1e-8 * max(1.0, abs(mu)):
            failures.append(f"{tag}: mu {e.mu} != {mu}")
        if v_lam is not None and not direction_close(e.v_lam, v_lam, 1e-8):
            failures.append(f"{tag}: v_lam {e.v_lam} != {v_lam}")
        if v_mu is not None and not direction_close(e.v_mu, v_mu, 1e-8):
            failures.append(f"{tag}: v_mu {e.v_mu} != {v_mu}")

    a = 2.0
    ex1 = make_example("ex1", {"a": a})
    for yb in (0.0, 1.0, 2.0):
        check(ex1.map, Point2(0.0, yb), 1.0 / (a + yb), 1.0,
              Point2(a - 1.0 + yb, yb * (a + yb)), Point2(0.0, 1.0),
              f"ex1 ybar={yb}")

    b1, b2 = 2.0, 3.0
    ex2 = make_example("ex2", {"b1": b1, "b2": b2, "c1": 0.5, "c2": 2.0})
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        check(ex2.map, Point2((b1 - 1) * (1 - t), (b2 - 1) * t),
              (1 - t) / b1 + t / b2, 1.0,
              Point2(b2 * (1 - b1) ** 2 * (1 - t), b1 * (1 - b2) ** 2 * t),
              Point2(-(1 - b1) / (1 - b2), 1.0), f"ex2 t={t}")

    ex3 = make_example("ex3_T2")
    for xb in (3.0, 4.0, 5.0):
        yb = xb / (xb - 1.0)
        check(ex3.map, Point2(xb, yb), 1.0 / (xb * yb), 1.0,
              Point2(xb, 1.0), None, f"ex3_T2 xbar={xb}")

    ex4 = make_example("ex4")
    check(ex4.map, Point2(2.0, 1.0), -1.0 / 6.0, 1.0,
          Point2(16.0, 12.0), Point2(-1.0, 1.0), "ex4")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "closed-form eigen fixtures",
            ok, f"{elapsed:.3f}s" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_2_taylor_classification_and_dynamics(ex4):
    t0 = time.perf_counter()
    E = Point2(2.0, 1.0)
    ray = taylor_along_eigenvector(ex4.map, E, Point2(-1.0, 1.0))
    c2, d2 = ray.coeffs[0]
    verdict = classify_nonhyperbolic(ray)
    structural = (first_nonzero_index(ray) == 2
                  and abs(c2) <= 1e-6 and abs(d2 - 0.25) <= 1e-6
                  and verdict.case_id == "even_se_negative")

    # order interval of the verdict; convergence is checked on a small
    # Q4 sub-interval (the approach along the center direction is algebraic,
    # dist ~ 1/n, so 1e-5 accuracy within 1e5 steps is reachable only near
    # the point). Each orbit must stay within 1e-5 of E over the whole run
    # and end strictly closer than it started.
    iv = find_order_interval(ex4.map, E, Point2(-1.0, 1.0), verdict.case_id)
    w = 1e-5 / math.sqrt(2.0)
    rng = np.random.default_rng(1234)
    conv_ok = True
    step = ex4.map.step
    for _ in range(50):
        u, v = rng.uniform(0.3, 0.98, 2)
        x, y = E.x + u * w, E.y - v * w
        d0 = math.hypot(x - E.x, y - E.y)
        worst = 0.0
        for _n in range(100_000):
            x, y = step(x, y)
            d = math.hypot(x - E.x, y - E.y)
            if d > worst:
                worst = d
        if worst > 1e-5 or not d < 0.99 * d0:
            conv_ok = False
            break

    escape_ok = True
    q2 = iv.q2_corner
    for _ in range(50):
        u, v = rng.uniform(0.02, 0.98, 2)
        p = Point2(E.x + (q2.x - E.x) * u, E.y + (q2.y - E.y) * v)
        if not exits_interval(ex4.map, p, iv, max_iter=100_000):
            escape_ok = False
            break

    elapsed = time.perf_counter() - t0
    ok = structural and conv_ok and escape_ok and elapsed < 30.0
    _report(2, "nonhyperbolic Taylor classification + dynamics", ok,
            f"(c2,d2)=({c2:.2e},{d2:.9f}), case={verdict.case_id}, "
            f"conv={conv_ok}, escape={escape_ok}, {elapsed:.1f}s")


def test_criterion_3_separatrix_oracle(ex1, ex1_fp, ex1_curve, ex1_window):
    t0 = time.perf_counter()
    a = 2.0
    curve = ex1_curve
    w = ex1_window
    tol = 2.0 * 1e-8 + (w.y_hi - w.y_lo) / 512.0
    cols = np.linspace(w.x_lo, w.x_hi, 64)
    span = (curve.vertices[0].x, curve.vertices[-1].x)
    compared = 0
    worst = 0.0
    ok = True
    for x_c in cols:
        boundary, step = ex1_boundary_scan(a, float(x_c), w.y_lo, w.y_hi)
        covered = span[0] - 1e-12 <= x_c <= span[1] + 1e-12
        if boundary is None:
            # the curve must not extend into columns with a one-sided scan
            if covered and x_c > span[0] + 0.2:
                ok = False
            continue
        if not covered:
            # boundary exists but tracing stopped: allowed only right at the
            # traced range's edge (the curve leaves the window there)
            if x_c > span[1] + 0.2 or boundary < w.y_hi - 0.5:
                ok = False
            continue
        diff = abs(curve.y_at(float(x_c)) - boundary)
        worst = max(worst, diff)
        compared += 1
        if diff > tol:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and compared >= 30 and elapsed < 60.0
    _report(3, "separatrix vs brute-force boundary", ok,
            f"{compared} columns, worst gap {worst:.2e} vs tol {tol:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_curve_properties(ex1, ex1_fp, ex1_curve, ex1_window,
                                      ex3_t2, ex3_t2_fp, ex3_t2_curve):
    t0 = time.perf_counter()
    ok = True
    details = []
    cases = [(ex1, ex1_fp, ex1_curve, ex1_window),
             (ex3_t2, ex3_t2_fp, ex3_t2_curve, Rect(0.5, 8.0, 0.5, 8.0))]
    for sys_, fp, curve, window in cases:
        vs = curve.vertices
        # strict vertex monotonicity
        mono = all(b.x > a_.x and b.y > a_.y for a_, b in zip(vs, vs[1:]))

        # tangency: slope of the five vertices nearest the fixed point
        order = np.argsort([abs(v.x - fp.location.x) for v in vs])[:5]
        pts = [vs[i] for i in sorted(order)]
        slope = np.polyfit([p.x for p in pts], [p.y for p in pts], 1)[0]
        v_lam = fp.eigen.v_lam
        tang = abs(slope - v_lam.y / v_lam.x) <= 0.05 * abs(v_lam.y / v_lam.x)

        # invariance: images of 20 vertices stay within 10*curve_tol of the
        # curve, located independently by a fresh column bisection
        inv = True
        for k in np.linspace(1, len(vs) - 2, 20, dtype=int):
            img = Point2(*sys_.map.step(vs[k].x, vs[k].y))
            y_curve = locate_ordinate(sys_.map, fp, img.x, window)
            if y_curve is None or abs(img.y - y_curve) > 10 * 1e-8:
                inv = False
                break

        # forward convergence of 10 vertex orbits
        conv = all(converges_to(sys_.map, vs[k], fp.location, tol=1e-5,
                                max_iter=100_000)
                   for k in np.linspace(1, len(vs) - 1, 10, dtype=int))

        details.append(f"{sys_.id}: mono={mono} tang={tang} inv={inv} conv={conv}")
        ok = ok and mono and tang and inv and conv
    elapsed = time.perf_counter() - t0
    _report(4, "stable-curve properties", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def _census_agreement(r, oracle_labels):
    raster_dec = np.isin(r.labels, [LABEL_CODES["minus"], LABEL_CODES["plus"]])
    oracle_dec = oracle_labels >= 0
    both = raster_dec & oracle_dec
    agree = (r.labels == oracle_labels) & both
    return int(both.sum()), int(agree.sum())


def _invariance_fraction(r, m, fp, opts, rng, n=100):
    bad = 0
    for want in ("minus", "plus"):
        code = LABEL_CODES[want]
        js, iis = np.nonzero(r.labels == code)
        take = min(n, len(js))
        pick = rng.choice(len(js), size=take, replace=False)
        for k in pick:
            c = r.cell_center(int(iis[k]), int(js[k]))
            img = Point2(*m.step(c.x, c.y))
            cell = r.cell_of(img)
            if cell is not None and r.label_at(*cell) == want:
                continue
            if classify_side(m, img, fp, opts).label != want:
                bad += 1
    return bad


def test_criterion_5_basin_invariance_and_census(ex4, ex5_two):
    rng = np.random.default_rng(77)
    ok_all = True
    details = []

    # --- ex4 ---------------------------------------------------------------
    t0 = time.perf_counter()
    window = Rect(0.0, 6.0, 0.0, 4.0)
    E = Point2(2.0, 1.0)
    r = raster(ex4.map, E, window, 128, 128)
    opts = SideOptions(epsilon_margin=1e-4 * window.diagonal(), max_iter=5000)
    bad = _invariance_fraction(r, ex4.map, E, opts, rng)

    # independent vectorized oracle: divergence (y above 1e3) vs convergence to E
    xs = (np.arange(128) + 0.5) * window.width() / 128 + window.x_lo
    ys = (np.arange(128) + 0.5) * window.height() / 128 + window.y_lo
    X, Y = np.meshgrid(xs, ys)
    oracle = -np.ones_like(X, dtype=np.int8)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            X, Y = ex4_step_np(1.0, 1.0, 1.0, 3.0, X, Y)
            div = ~np.isfinite(X) | ~np.isfinite(Y) | (Y > 1e3)
            newly = div & (oracle < 0)
            oracle[newly] = LABEL_CODES["minus"]
            X = np.where(div, 2.0, X)
            Y = np.where(div, 1.0, Y)
    near = (np.abs(X - 2.0) < 1e-2) & (np.abs(Y - 1.0) < 1e-2) & (oracle < 0)
    oracle[near] = LABEL_CODES["plus"]
    both, agree = _census_agreement(r, oracle)
    frac = agree / both if both else 0.0
    t_ex4 = time.perf_counter() - t0
    ok = bad == 0 and frac >= 0.98 and t_ex4 < 120.0
    details.append(f"ex4: invariance misses {bad}, census {frac:.4f}, {t_ex4:.1f}s")
    ok_all = ok_all and ok

    # --- ex5 two-equilibria fixture -----------------------------------------
    t0 = time.perf_counter()
    m5 = ex5_two.system.map
    p_nh = ex5_two.nonhyperbolic
    p_att = ex5_two.attractor
    window5 = Rect(0.0, 1.6, 0.0, 1.2)
    r5 = raster(m5, p_nh, window5, 128, 128)
    opts5 = SideOptions(epsilon_margin=1e-4 * window5.diagonal(), max_iter=5000)
    bad5 = _invariance_fraction(r5, m5, p_nh, opts5, rng)

    prm = ex5_two.system.params
    xs = (np.arange(128) + 0.5) * window5.width() / 128 + window5.x_lo
    ys = (np.arange(128) + 0.5) * window5.height() / 128 + window5.y_lo
    X, Y = np.meshgrid(xs, ys)
    with np.errstate(all="ignore"):
        for _ in range(20000):
            X, Y = ex5_step_np(prm["b1"], prm["b2"], prm["c1"], prm["c2"],
                               prm["h1"], prm["h2"], X, Y)
    oracle5 = -np.ones_like(X, dtype=np.int8)
    d_nh = np.maximum(np.abs(X - p_nh.x), np.abs(Y - p_nh.y))
    d_att = np.maximum(np.abs(X - p_att.x), np.abs(Y - p_att.y))
    oracle5[d_nh < 0.02] = LABEL_CODES["minus"]
    oracle5[d_att < 0.02] = LABEL_CODES["plus"]
    both5, agree5 = _census_agreement(r5, oracle5)
    frac5 = agree5 / both5 if both5 else 0.0
    t_ex5 = time.perf_counter() - t0
    ok5 = bad5 == 0 and frac5 >= 0.98 and t_ex5 < 120.0
    details.append(f"ex5: invariance misses {bad5}, census {frac5:.4f}, {t_ex5:.1f}s")
    ok_all = ok_all and ok5

    _report(5, "basin invariance and brute-force census", ok_all,
            "; ".join(details))


def test_criterion_6_continuum_limits(ex2, ex3_t2):
    rng = np.random.default_rng(55)
    ok = True
    worst2 = 0.0
    for _ in range(200):
        p = Point2(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        rec = limit_equilibrium(ex2.map, p, tol=1e-11)
        if not rec.converged:
            ok = False
            break
        x, y = rec.limit
        worst2 = max(worst2, abs(2 * x + y - 2))
        if abs(2 * x + y - 2) >= 1e-5:
            ok = False
            break
    worst3 = 0.0
    for _ in range(200):
        p = Point2(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
        rec = limit_equilibrium(ex3_t2.map, p, tol=1e-11)
        if not rec.converged:
            ok = False
            break
        x, y = rec.limit
        worst3 = max(worst3, abs(x + y - x * y))
        if abs(x + y - x * y) >= 1e-5:
            ok = False
            break
    _report(6, "continuum membership of limits", ok,
            f"segment residual {worst2:.2e}, hyperbola residual {worst3:.2e}")


def test_criterion_7_continuity_probe(ex1):
    seg = (Point2(0.1, 0.1), Point2(0.1, 4.0))
    gaps = [continuity_probe(ex1.map, seg, n, tol=1e-12).max_gap
            for n in (64, 128, 256)]
    r1 = gaps[0] / gaps[1]
    r2 = gaps[1] / gaps[2]
    ok = r1 >= 1.8 and r2 >= 1.8
    _report(7, "limit-map continuity (gap decay)", ok,
            f"ratios {r1:.3f}, {r2:.3f}")


def test_criterion_8_parser_and_derivatives():
    rng = np.random.default_rng(2024)
    params = {"a": 1.3, "b": 0.7, "c": 2.1}
    checked = 0
    ok = True
    while checked < 100:
        e = random_expr(rng, depth=5)
        var = "x" if rng.random() < 0.5 else "y"
        x, y = rng.uniform(0.5, 2.0, 2)
        try:
            d_sym = evaluate(differentiate(e, var), x, y, params)
            h = 1e-6 * max(1.0, abs(x if var == "x" else y))
            if var == "x":
                d_fd = (evaluate(e, x + h, y, params)
                        - evaluate(e, x - h, y, params)) / (2 * h)
            else:
                d_fd = (evaluate(e, x, y + h, params)
                        - evaluate(e, x, y - h, params)) / (2 * h)
        except Exception:
            continue
        if not (math.isfinite(d_sym) and math.isfinite(d_fd)):
            continue
        if max(abs(d_sym), abs(d_fd)) > 1e8:
            continue
        checked += 1
        if abs(d_sym - d_fd) > 1e-5 * max(1.0, abs(d_sym), abs(d_fd)):
            ok = False
            break

    # a DSL-defined copy of the first builtin reproduces its eigen fixtures
    m = expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0})
    eig_ok = True
    for yb in (0.0, 1.0, 2.0):
        e = eigen2x2(jacobian(m, Point2(0.0, yb)))
        if abs(e.lam - 1.0 / (2.0 + yb)) > 1e-6 or abs(e.mu - 1.0) > 1e-6:
            eig_ok = False
    ok = ok and eig_ok
    _report(8, "symbolic derivatives and DSL equivalence", ok,
            f"{checked} expressions checked, eigenvalues via DSL {eig_ok}")


def test_criterion_9_byte_determinism(tmp_path):
    def run(argv):
        rc = cli_main(argv)
        assert rc == 0

    files = {}
    for tag in "abc":
        out = tmp_path / f"basin_{tag}.pgm"
        run(["basin", "--example", "ex4", "--guess", "2,1",
             "--window", "0,6,0,4", "--nx", "32", "--ny", "32",
             "--out", str(out)])
        files[tag] = out.read_bytes()
    basin_ok = files["a"] == files["b"] == files["c"]

    cfiles = {}
    for tag in "abc":
        out = tmp_path / f"curve_{tag}.csv"
        run(["curve", "--example", "ex1", "--guess", "1e-9,1",
             "--window", "0,5,0,6", "--columns", "64",
             "--out", str(out)])
        cfiles[tag] = out.read_bytes()
    curve_ok = cfiles["a"] == cfiles["b"] == cfiles["c"]

    ok = basin_ok and curve_ok
    _report(9, "byte-identical outputs across repeated runs", ok,
            f"basin={basin_ok}, curve={curve_ok}")
