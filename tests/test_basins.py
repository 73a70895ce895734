import math
from dataclasses import replace

import numpy as np
import pytest

from compmap import (Point2, Rect, SideOptions, SingularityError, basins,
                     classify_side, continuity_probe, limit_equilibrium,
                     load_csv_raster, load_pgm, raster, raster_to_csv,
                     raster_to_pgm, save_raster)
from compmap.basins import LABEL_CODES, LABEL_NAMES
from compmap.curves import LIMIT_RESIDUAL_TOL
from compmap.planarmap import PlanarMap


@pytest.fixture(scope="module")
def ex4_raster(ex4):
    return raster(ex4.map, Point2(2, 1), Rect(0, 6, 0, 4), 64, 64)


def test_limit_record_invariants(ex1):
    rec = limit_equilibrium(ex1.map, Point2(1, 1))
    assert rec.converged
    x, y = rec.limit
    fx, fy = ex1.map.step(x, y)
    assert max(abs(fx - x), abs(fy - y)) < 1e-6
    assert x == pytest.approx(0.0, abs=1e-9) and y >= 0.0


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-3])
def test_limit_is_certified_by_its_own_step(ex2, tol):
    # the limit is the iterations-th orbit point, its step is below
    # min(tol, LIMIT_RESIDUAL_TOL), and that step is the last evaluation
    steps = []

    def step(x, y):
        steps.append((x, y))
        return ex2.map.step(x, y)

    rec = limit_equilibrium(replace(ex2.map, step=step), Point2(0.7, 0.9), tol=tol)
    x, y = rec.limit
    fx, fy = ex2.map.step(x, y)
    assert max(abs(fx - x), abs(fy - y)) < min(tol, LIMIT_RESIDUAL_TOL)
    assert len(steps) == rec.iterations + 1 and steps[-1] == (x, y)


def _nan_y(x, y):
    return x, math.nan


def _pole(x, y):
    raise SingularityError("pole")


_PLANE = Rect(-math.inf, math.inf, -math.inf, math.inf)


@pytest.mark.parametrize("step, flag, diverged", [
    (_nan_y, "singularity", True),
    (_pole, "singularity", True),
    (lambda x, y: (x, 10.0 * y), "divergence", True),
    (lambda x, y: (x + 1e-3, y), "max_iter", False),
])
def test_limit_flags(step, flag, diverged):
    m = PlanarMap(name="toy", step=step, domain=_PLANE)
    rec = limit_equilibrium(m, Point2(0.0, 1.0), max_iter=50)
    assert (rec.limit, rec.flag, rec.diverged) == (None, flag, diverged)


@pytest.mark.parametrize("batch", [None, lambda X, Y: (X, np.full_like(Y, math.nan))])
def test_continuity_probe_nan_map_is_divergent(batch):
    m = PlanarMap(name="nan-y", step=_nan_y, domain=_PLANE, batch=batch)
    rep = continuity_probe(m, (Point2(0.0, 1.0), Point2(1.0, 2.0)), n=20)
    assert rep.divergent == 20 and set(rep.limits) == {None}


@pytest.mark.parametrize("step, p", [
    (None, Point2(0.7, 0.9)), (None, Point2(0.1, 2.5)), (None, Point2(1.9, 0.2)),
    (lambda x, y: (x, 10.0 * y), Point2(0.0, 1.0)), (_nan_y, Point2(0.0, 1.0)),
])
def test_classify_side_limit_mode_uses_limit_equilibrium(ex2, step, p):
    m = ex2.map if step is None else PlanarMap(name="toy", step=step, domain=_PLANE)
    opts = SideOptions(mode="limit_equilibrium", max_iter=5000, conv_tol=1e-11)
    v = classify_side(m, p, Point2(0.5, 1.0), opts)
    rec = limit_equilibrium(m, p, tol=opts.conv_tol, max_iter=opts.max_iter)
    assert (v.iterations_used, v.flag) == (rec.iterations, rec.flag)


@pytest.mark.parametrize("kw", [{"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-10},
                                {"tol": math.inf}, {"max_iter": 0}])
def test_limit_arguments_validated(ex1, kw):
    with pytest.raises(ValueError):
        limit_equilibrium(ex1.map, Point2(1, 1), **kw)
    with pytest.raises(ValueError):
        continuity_probe(ex1.map, (Point2(0.1, 0.1), Point2(0.1, 4.0)), 8, **kw)


def test_limit_fixed_start_zero_iterations(ex1):
    rec = limit_equilibrium(ex1.map, Point2(0.0, 2.0))
    assert rec.limit == Point2(0.0, 2.0)
    assert rec.iterations == 0


def test_limit_ex2_on_segment(ex2):
    rec = limit_equilibrium(ex2.map, Point2(0.7, 0.9))
    x, y = rec.limit
    assert abs(2 * x + y - 2) < 1e-5


def test_limit_divergence_marker(ex4):
    rec = limit_equilibrium(ex4.map, Point2(1.0, 2.0), max_iter=5000)
    assert rec.diverged and rec.limit is None


def test_limit_singularity_mid_orbit():
    def step(x, y):
        if x > 3.5:
            raise SingularityError("pole")
        return x + 1.0, y

    m = PlanarMap(name="drift", step=step, domain=Rect(0, 10, 0, 10))
    rec = limit_equilibrium(m, Point2(0.0, 1.0))
    assert (rec.limit, rec.iterations, rec.diverged, rec.flag) == \
        (None, 4, True, "singularity")


def test_cell_centers_are_the_classified_points(ex4, monkeypatch):
    seen = []
    classify = basins.classify_batch

    def spy(m, X, Y, fp, opts):
        seen.append((X, Y))
        return classify(m, X, Y, fp, opts)

    monkeypatch.setattr(basins, "classify_batch", spy)
    # on this window 2.5 * (6/33) and 2.5 * 6 / 33 differ by an ulp
    r = raster(ex4.map, Point2(2, 1), Rect(0, 6, 0, 4), 33, 33,
               SideOptions(max_iter=5))
    [(X, Y)] = seen
    for j in range(33):
        for i in range(33):
            assert r.cell_center(i, j) == (X[j, i], Y[j, i])


def test_raster_census_and_labels(ex4_raster):
    census = ex4_raster.census()
    assert census["minus"] > 0 and census["plus"] > 0
    assert census["singular"] == 0
    assert sum(census.values()) == 64 * 64
    assert ex4_raster.labels.shape == (64, 64)


def test_raster_label_invariance(ex4, ex4_raster):
    # minus cells map into minus territory, plus cells into plus territory
    rng = np.random.default_rng(31)
    opts = SideOptions(epsilon_margin=1e-4 * Rect(0, 6, 0, 4).diagonal(),
                       max_iter=5000)
    for want in ("minus", "plus"):
        code = LABEL_CODES[want]
        js, iis = np.nonzero(ex4_raster.labels == code)
        pick = rng.choice(len(js), size=40, replace=False)
        for k in pick:
            c = ex4_raster.cell_center(int(iis[k]), int(js[k]))
            img = Point2(*ex4.map.step(c.x, c.y))
            cell = ex4_raster.cell_of(img)
            if cell is not None and ex4_raster.label_at(*cell) == want:
                continue
            assert classify_side(ex4.map, img, Point2(2, 1), opts).label == want


def test_raster_curve_consistency(ex4, ex4_raster):
    # separatrix vertices sit in band cells or next to the label transition
    from compmap import find_fixed_point, trace_stable_curve
    fp = find_fixed_point(ex4.map, Point2(2, 1))
    curve = trace_stable_curve(ex4.map, fp, Rect(0, 6, 0, 4))
    r = ex4_raster
    for v in curve.vertices[:: max(1, len(curve.vertices) // 40)]:
        cell = r.cell_of(v)
        if cell is None:
            continue
        i, j = cell
        labels = set()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if 0 <= i + di < r.nx and 0 <= j + dj < r.ny:
                    labels.add(r.label_at(i + di, j + dj))
        assert ("band" in labels or "undecided" in labels
                or ("minus" in labels and "plus" in labels))


def test_contraction_raster_labels():
    # global contraction toward (1, 1): no separatrix exists; NW cells are
    # epsilon-inside Q2 immediately, SE cells inside Q4, the rest converge
    # into the fp ball (band)
    m = PlanarMap(name="contraction",
                  step=lambda x, y: (0.5 * (x + 1.0), 0.5 * (y + 1.0)),
                  domain=Rect(-10, 10, -10, 10))
    r = raster(m, Point2(1, 1), Rect(0, 2, 0, 2), 8, 8,
               SideOptions(epsilon_margin=1e-3, max_iter=1000))
    census = r.census()
    assert census["undecided"] == 0
    assert census["minus"] > 0 and census["plus"] > 0 and census["band"] > 0
    r2 = raster(m, Point2(1, 1), Rect(0, 2, 0, 2), 8, 8,
                SideOptions(mode="limit_equilibrium", epsilon_margin=1e-3,
                            max_iter=1000, conv_tol=1e-13))
    assert r2.census()["band"] == 64


def test_raster_serialization_round_trip(tmp_path, ex4_raster):
    pgm = tmp_path / "r.pgm"
    csv = tmp_path / "r.csv"
    save_raster(ex4_raster, str(pgm), fmt="pgm")
    save_raster(ex4_raster, str(csv), fmt="csv")

    labels, meta = load_pgm(str(pgm))
    assert np.array_equal(labels, ex4_raster.labels)
    assert meta == dict(ex4_raster.meta)

    labels2, meta2 = load_csv_raster(str(csv))
    assert np.array_equal(labels2, ex4_raster.labels)
    assert meta2 == dict(ex4_raster.meta)


def test_raster_deterministic_and_worker_independent(ex4):
    window = Rect(0, 6, 0, 4)
    opts = SideOptions(epsilon_margin=1e-4 * window.diagonal(), max_iter=2000)
    a = raster(ex4.map, Point2(2, 1), window, 16, 16, opts, workers=1)
    b = raster(ex4.map, Point2(2, 1), window, 16, 16, opts, workers=1)
    c = raster(ex4.map, Point2(2, 1), window, 16, 16, opts, workers=2)
    assert raster_to_pgm(a) == raster_to_pgm(b) == raster_to_pgm(c)
    assert raster_to_csv(a) == raster_to_csv(c)


def test_pgm_gray_mapping(ex4_raster):
    text = raster_to_pgm(ex4_raster)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "P2"
    assert lines[1] == "64 64"
    assert lines[2] == "255"
    grays = {int(t) for ln in lines[3:] for t in ln.split()}
    assert grays <= {0, 32, 64, 128, 255}


def test_continuity_probe_degenerate_segment(ex1):
    rep = continuity_probe(ex1.map, (Point2(1, 1), Point2(1, 1)), n=4)
    assert rep.max_gap == 0.0


def test_continuity_probe_limits_on_hyperbola(ex3_t2):
    rep = continuity_probe(ex3_t2.map, (Point2(1.5, 0.8), Point2(5.0, 4.0)),
                           n=32, tol=1e-11)
    assert rep.divergent == 0
    for q in rep.limits:
        assert abs(q.x + q.y - q.x * q.y) < 1e-6


def test_continuity_probe_gap_shrinks(ex1):
    gaps = [continuity_probe(ex1.map, (Point2(0.1, 0.1), Point2(0.1, 4.0)),
                             n=n, tol=1e-12).max_gap for n in (32, 64)]
    assert gaps[1] < gaps[0]


def test_continuity_probe_without_batch_matches_batch(ex1):
    seg = (Point2(0.1, 0.1), Point2(0.1, 4.0))
    assert continuity_probe(replace(ex1.map, batch=None), seg, n=24) == \
        continuity_probe(ex1.map, seg, n=24)
