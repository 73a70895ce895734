import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from compmap import (BasinRaster, Point2, Rect, SideOptions, SingularityError, basins,
                     check_competitive, classify_side, continuity_probe,
                     expr_map, find_fixed_point, limit_equilibrium, load_csv_raster, load_pgm,
                     make_example, planarmap, raster, raster_to_csv,
                     raster_to_pgm, save_raster)
from compmap.basins import (LABEL_CODES, LABEL_NAMES, LIMIT_RESIDUAL_TOL, _UNDECIDED,
                            classify_batch, raster_options)
from compmap.planarmap import PlanarMap

from helpers import (cell_load_csv_raster, cell_load_pgm, cell_raster_to_csv,
                     cell_raster_to_pgm, counting_map)

QUADRANT = Rect(0.0, math.inf, 0.0, math.inf)


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
    sided = basins._sided

    def spy(m, X, Y, fp, opts):
        seen.append((X.reshape(33, 33), Y.reshape(33, 33)))
        return sided(m, X, Y, fp, opts)

    monkeypatch.setattr(basins, "_sided", spy)
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


def test_raster_refuses_a_window_whose_width_overflows(ex4):
    with pytest.raises(ValueError, match="needs a bounded window"):
        raster(ex4.map, Point2(2.0, 1.0), Rect(-1e308, 1e308, 0, 4), 8, 8)


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


# ---------------------------------------------------------------------------
# Order-inferred rasters: a licensed limit-mode raster classifies a coarse
# lattice and the cells its verdicts leave open, and fills the rest


def _direct(m, fp, window, nx, ny, opts):
    """classify_batch over every cell center: the labels without inference."""
    X, Y = np.meshgrid(*basins._cell_centers(window, nx, ny, np.arange(nx),
                                             np.arange(ny)))
    return classify_batch(m, X, Y, fp, opts)


@pytest.fixture(scope="module")
def limit_cases():
    return {
        "ex1": (make_example("ex1").map, Point2(0.0, 1.0), Rect(0.0, 5.0, 0.0, 6.0)),
        "ex1_dsl": (expr_map("x/(a+y)", "y/(1+x)", {"a": 2.0}, domain=QUADRANT),
                    Point2(0.0, 1.0), Rect(0.0, 5.0, 0.0, 6.0)),
        "ex2": (make_example("ex2").map, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0)),
        "ex3_T2": (make_example("ex3_T2").map, Point2(4.0, 4.0 / 3.0),
                   Rect(0.5, 8.0, 0.5, 8.0)),
    }


def test_limit_cases_are_licensed(limit_cases):
    for m, _, w in limit_cases.values():
        assert planarmap._order_licensed(m, w, 4)


@pytest.mark.parametrize("case", ["ex1", "ex1_dsl", "ex2", "ex3_T2"])
@settings(max_examples=30, deadline=None)
@given(lo=st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 0.9)),
       size=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
       nx=st.integers(2, 40), ny=st.integers(2, 40),
       conv_tol=st.sampled_from([1e-12, 1e-6, 1e-3]))
def test_inferred_raster_matches_direct_classification(limit_cases, case, lo, size,
                                                       nx, ny, conv_tol):
    m, fp, w = limit_cases[case]
    xs = [w.x_lo + t * w.width() for t in (lo[0], lo[0] + (1.0 - lo[0]) * size[0])]
    ys = [w.y_lo + t * w.height() for t in (lo[1], lo[1] + (1.0 - lo[1]) * size[1])]
    sub = Rect(xs[0], xs[1], ys[0], ys[1])
    opts = replace(raster_options(m, sub), mode="limit_equilibrium", conv_tol=conv_tol)
    r = raster(m, fp, sub, nx, ny, opts)
    assert np.array_equal(r.labels, _direct(m, fp, sub, nx, ny, opts))


def _counted_raster_and_direct(m, fp, w, n, opts):
    """(raster labels, its step count) and the same for classify_batch over
    every cell."""
    got, want = [0, 0, 0], [0, 0, 0]
    r = raster(counting_map(m, got), fp, w, n, n, opts)
    labels = _direct(counting_map(m, want), fp, w, n, n, opts)
    return (r.labels, got[0]), (labels, want[0])


def test_noncompetitive_limit_raster_classifies_every_cell():
    # g's x-partial y * (0.05 - 1/(1+x)^2) turns positive for x > 3.48, so the
    # map leaves the competitive sign pattern inside the window
    m = expr_map("x/(a+y)", "y/(1+x) + 0.05*x*y", {"a": 2.0}, domain=QUADRANT)
    w = Rect(0.0, 5.0, 0.0, 6.0)
    assert not check_competitive(m, w).competitive
    opts = replace(raster_options(m, w), mode="limit_equilibrium")
    got, want = _counted_raster_and_direct(m, Point2(0.0, 1.0), w, 32, opts)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert {"minus", "plus"} <= {LABEL_NAMES[c] for c in np.unique(got[0])}


def test_limit_raster_on_a_domain_beside_the_sampling_window():
    # ex1 moved by -200 in both coordinates: the licence samples the map's
    # domain, whose x-interval misses the sampling window [0, 50]
    m = expr_map("(x+200)/(a+y+200) - 200", "(y+200)/(1+x+200) - 200", {"a": 2.0},
                 domain=Rect(-200.0, -100.0, -200.0, math.inf))
    w = Rect(-200.0, -195.0, -200.0, -194.0)
    fp = Point2(-200.0, -199.0)
    assert planarmap._order_licensed(m, w, 24 * 24)
    opts = replace(raster_options(m, w), mode="limit_equilibrium")
    r = raster(m, fp, w, 24, 24, opts)
    assert np.array_equal(r.labels, _direct(m, fp, w, 24, 24, opts))
    assert r.census()["minus"] > 0 and r.census()["plus"] > 0


def test_quadrant_raster_classifies_every_cell_in_one_call(ex4, monkeypatch):
    m, fp, w = ex4.map, Point2(2.0, 1.0), Rect(0.0, 6.0, 0.0, 4.0)
    calls = []
    sided = basins._sided

    def spy(m, X, Y, fp, opts):  # the raster's calls, not classify_batch's
        if sys._getframe(1).f_code.co_name == "raster":
            calls.append(X.shape)
        return sided(m, X, Y, fp, opts)

    monkeypatch.setattr(basins, "_sided", spy)
    got, want = _counted_raster_and_direct(m, fp, w, 32, raster_options(m, w))
    assert calls == [(32 * 32,)]
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_undecided_lattice_verdicts_stop_the_inference(limit_cases):
    # with max_iter 30 most orbits run out of iterations, and the lattice
    # verdicts mix minus, plus and undecided: every other cell is classified,
    # and the raster costs a direct classification plus the licence's images
    m, fp, w = limit_cases["ex2"]
    opts = replace(raster_options(m, w), max_iter=30)
    got, want = _counted_raster_and_direct(m, fp, w, 32, opts)
    lattice = {LABEL_NAMES[c] for c in got[0][::8, ::8].ravel()}
    assert {"minus", "plus", "undecided"} <= lattice
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] + planarmap.GRID_SAMPLES


def test_cells_implied_both_ways_are_classified(limit_cases, monkeypatch):
    # a classifier that breaks the order, minus below y = 2 and plus above:
    # lattice rows 0, 8 and 16 read minus and row 24 plus, so rows 0..24 of
    # columns 0..24 are implied both ways and keep the classifier's labels
    m, fp, w = limit_cases["ex2"]

    def fake(m, X, Y, fp, opts):
        return np.where(Y > 2.0, LABEL_CODES["plus"], LABEL_CODES["minus"]).astype(np.uint8)

    def fake_sided(m, X, Y, fp, opts):  # (codes, gaps, iteration counts)
        return fake(m, X, Y, fp, opts), X + np.nan, np.zeros(X.shape, int)

    monkeypatch.setattr(basins, "_sided", fake_sided)
    r = raster(m, fp, w, 32, 32)
    want = fake(m, *np.meshgrid(*basins._cell_centers(w, 32, 32, np.arange(32),
                                                      np.arange(32))), fp, None)
    assert np.array_equal(r.labels[:25, :25], want[:25, :25])
    assert set(np.unique(r.labels)) == {LABEL_CODES["minus"], LABEL_CODES["plus"]}


def test_slow_lattice_verdicts_imply_no_cells():
    # max_iter 30 cuts short the orbits right of the last lattice column;
    # the lattice verdicts next to them ran past half of max_iter, so they
    # imply nothing, and the 9 cells that run out of iterations are
    # classified, not filled as plus
    m = make_example("ex1").map
    fp = find_fixed_point(m, Point2(1e-9, 1.0)).location
    w = Rect(2.4588722857925687, 4.424528463838813, 1.0772235603435014,
             3.440251311088247)
    opts = SideOptions(mode="limit_equilibrium", epsilon_margin=0.01, max_iter=30,
                       conv_tol=1e-9)
    assert planarmap._order_licensed(m, w, 14 * 15)
    r = raster(m, fp, w, 14, 15, opts)
    want = classify_batch(m, *np.meshgrid(*basins._cell_centers(
        w, 14, 15, np.arange(14), np.arange(15))), fp, opts)
    assert np.count_nonzero(want == _UNDECIDED) == 9
    assert np.array_equal(r.labels, want)


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


def test_save_raster_refuses_an_unknown_format(tmp_path, ex4_raster):
    path = tmp_path / "r.bogus"
    with pytest.raises(ValueError, match="'bogus'"):
        save_raster(ex4_raster, str(path), fmt="bogus")
    assert not path.exists()


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


# window bounds, some of them not exact in binary
_BOUNDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.1 / 3, -0.1 / 3, 2 / 3, 1e-300,
                                                           0.1 + 0.2, 1e15 + 0.3]))
# meta keys and values as the writers emit them: '=' may appear in a value
_META = st.dictionaries(st.text("abxyz._09", min_size=1, max_size=6).filter(
    lambda k: k not in ("nx", "ny")), st.text("ab=.,-+e#09", max_size=12), max_size=4)


@st.composite
def basin_rasters(draw):
    """A BasinRaster built directly: any of the five label codes per cell,
    meta with or without the nx and ny the CSV loader reads."""
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    (x_lo, x_hi), (y_lo, y_hi) = (draw(st.lists(_BOUNDS, min_size=2, max_size=2,
                                                 unique=True).map(sorted))
                                  for _ in range(2))
    labels = draw(arrays(np.uint8, (ny, nx), elements=st.integers(0, len(LABEL_NAMES) - 1)))
    meta = draw(_META)
    if draw(st.booleans()):
        meta.update(nx=str(nx), ny=str(ny))
    return BasinRaster(window=Rect(x_lo, x_hi, y_lo, y_hi), nx=nx, ny=ny,
                       labels=labels, meta=meta)


@settings(max_examples=200, deadline=None)
@given(r=basin_rasters())
def test_raster_files_match_the_per_cell_oracle(r):
    pgm, csv = raster_to_pgm(r), raster_to_csv(r)
    assert pgm == cell_raster_to_pgm(r)
    assert csv == cell_raster_to_csv(r)
    with tempfile.TemporaryDirectory() as tmp:
        for text, loaders in ((pgm, (load_pgm, cell_load_pgm)),
                              (csv, (load_csv_raster, cell_load_csv_raster))):
            path = os.path.join(tmp, "r")
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
            for load in loaders:
                labels, meta = load(path)
                assert labels.dtype == np.uint8
                assert np.array_equal(labels, r.labels)
                assert meta == r.meta


@pytest.fixture(scope="module")
def small_files(ex4):
    """The PGM and CSV lines of an 8x6 ex4 raster."""
    r = raster(ex4.map, Point2(2, 1), Rect(0, 6, 0, 4), 8, 6)
    assert {"minus", "plus"} <= {name for name, n in r.census().items() if n}
    return raster_to_pgm(r).splitlines(), raster_to_csv(r).splitlines()


def _write(tmp_path, lines):
    path = tmp_path / "r"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_csv_raster_rejects_a_missing_cell(tmp_path, small_files):
    lines = list(small_files[1])
    lines.remove(next(ln for ln in lines if ln.endswith(",plus")))
    with pytest.raises(ValueError, match=r"cell \(\d+, \d+\) is missing"):
        load_csv_raster(_write(tmp_path, lines))


def test_load_csv_raster_rejects_a_repeated_cell(tmp_path, small_files):
    lines = small_files[1] + [small_files[1][-1]]
    with pytest.raises(ValueError, match=r"cell \(7, 5\) is repeated"):
        load_csv_raster(_write(tmp_path, lines))


def test_load_csv_raster_rejects_cells_short_of_the_recorded_grid(tmp_path, small_files):
    # without its top row the cells span 8x5, but the header records ny=6
    assert "# ny=6" in small_files[1]
    lines = [ln for ln in small_files[1] if ln.startswith("#") or ln.split(",")[1] != "5"]
    assert len(lines) == len(small_files[1]) - 8
    with pytest.raises(ValueError, match=r"cell \(0, 5\) is missing"):
        load_csv_raster(_write(tmp_path, lines))


def test_load_csv_raster_rejects_a_cell_outside_the_recorded_grid(tmp_path, small_files):
    lines = small_files[1][:-1] + ["8" + small_files[1][-1][1:]]
    with pytest.raises(ValueError, match=r"cell \(8, 5\) lies outside the 8x6 grid"):
        load_csv_raster(_write(tmp_path, lines))


def test_load_csv_raster_rejects_an_unknown_label(tmp_path, small_files):
    lines = small_files[1][:-1] + [small_files[1][-1].rsplit(",", 1)[0] + ",basin"]
    with pytest.raises(ValueError, match="unknown label 'basin'"):
        load_csv_raster(_write(tmp_path, lines))


def test_load_pgm_rejects_an_unknown_gray_level(tmp_path, small_files):
    lines = small_files[0][:-1] + [" ".join(small_files[0][-1].split()[:-1] + ["17"])]
    with pytest.raises(ValueError, match="unknown gray level 17"):
        load_pgm(_write(tmp_path, lines))


@pytest.mark.parametrize("edit", ["extra", "short"])
def test_load_pgm_rejects_a_pixel_count_other_than_nx_ny(tmp_path, small_files, edit):
    last = small_files[0][-1]
    last = last + " 0" if edit == "extra" else last.rsplit(" ", 1)[0]
    n = 49 if edit == "extra" else 47
    with pytest.raises(ValueError, match=rf"PGM holds {n} pixels, not nx\*ny = 8\*6"):
        load_pgm(_write(tmp_path, small_files[0][:-1] + [last]))


def test_load_pgm_rejects_a_file_that_is_not_p2(tmp_path, small_files):
    with pytest.raises(ValueError, match="not a P2 PGM: 'P5'"):
        load_pgm(_write(tmp_path, ["P5"] + small_files[0][1:]))


def test_load_pgm_rejects_a_maxval_other_than_255(tmp_path):
    # gray level 32 of 100 is not the writer's 32 of 255 (singular)
    with pytest.raises(ValueError, match="PGM maxval 100 is not 255"):
        load_pgm(_write(tmp_path, ["P2", "2 1", "100", "0 32"]))


@pytest.mark.parametrize("lines", [
    ["P2", "2 1", "255", "0 99999999999999999999"],
    ["i,j,x,y,label", "99999999999999999999,0,0.5,0.5,minus"]],
    ids=["pgm", "csv"])
def test_loaders_reject_an_integer_beyond_int64(tmp_path, lines):
    load = load_pgm if lines[0] == "P2" else load_csv_raster
    with pytest.raises(ValueError, match="beyond int64"):
        load(_write(tmp_path, lines))


def test_load_csv_raster_rejects_a_grid_its_cells_cannot_fill(tmp_path):
    # nx * ny = 2**64 overflows int64; the grid is refused before it is sized
    lines = ["# nx=4294967296", "# ny=4294967296", "i,j,x,y,label",
             "0,0,0.5,0.5,minus"]
    with pytest.raises(ValueError, match=r"cell \(1, 0\) is missing"):
        load_csv_raster(_write(tmp_path, lines))


@pytest.mark.parametrize("nx, ny, key", [
    ("-1", "1", "nx"), ("2", "0", "ny"), ("1.5", "1", "nx"), ("2", "two", "ny")])
def test_load_csv_raster_rejects_a_header_size_that_is_not_a_positive_integer(
        tmp_path, nx, ny, key):
    # with no cell lines a negative nx once loaded as a (1, 0) label grid
    lines = [f"# nx={nx}", f"# ny={ny}", "i,j,x,y,label"]
    bad = nx if key == "nx" else ny
    with pytest.raises(ValueError, match=f"header {key}={bad} is not a positive integer"):
        load_csv_raster(_write(tmp_path, lines))


@pytest.mark.parametrize("lines, message", [
    (["P2", "2 1"], "PGM header ends before its maxval"),
    (["P2", "2"], "PGM header ends before its ny"),
    (["P2"], "PGM header ends before its nx"),
    (["P2", "2 1", "x"], "PGM maxval x is not 255"),
    (["P2", "2 1", "255", "0 x"], "gray level 'x' in the raster file is not an integer"),
    (["i,j,x,y,label", "0,0,0.5"],
     r"CSV raster line 2 holds 3 fields, not the 5 of i,j,x,y,label: '0,0,0.5'"),
    (["# nx=1", "0,0,0.5,0.5,minus,plus"], "CSV raster line 2 holds 6 fields"),
    (["i,j,x,y,label", "0,1.5,0.5,0.5,minus"],
     "cell index '1.5' in the raster file is not an integer")],
    ids=["pgm-maxval", "pgm-ny", "pgm-nx", "pgm-maxval-token", "pgm-gray",
         "csv-short", "csv-long", "csv-index"])
def test_loaders_name_the_fault_in_a_truncated_file(tmp_path, lines, message):
    # these raised Python's own unpacking and int() messages
    load = load_pgm if lines[0] == "P2" else load_csv_raster
    with pytest.raises(ValueError, match=message):
        load(_write(tmp_path, lines))


@pytest.mark.parametrize("size, key, bad", [("0 5", "nx", "0"), ("-2 -1", "nx", "-2"),
                                            ("3 0", "ny", "0")])
def test_load_pgm_rejects_a_size_that_is_not_a_positive_integer(tmp_path, size, key, bad):
    # nx = 0 once loaded as a (5, 0) label grid, and -2 -1 failed in reshape
    with pytest.raises(ValueError, match=f"header {key}={bad} is not a positive integer"):
        load_pgm(_write(tmp_path, ["P2", size, "255"]))


@pytest.mark.parametrize("text", ["", "i,j,x,y,label\n", "# nx=2\ni,j,x,y,label\n"],
                         ids=["empty", "column-names", "nx-only"])
def test_load_csv_raster_rejects_a_file_without_cells(tmp_path, text):
    # these once loaded as (0, 0) and (0, 2) label grids
    path = tmp_path / "r"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"cell \(0, 0\) is missing"):
        load_csv_raster(str(path))


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
