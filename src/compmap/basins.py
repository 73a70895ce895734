"""Basin decomposition rasters and continuity probes of the limiting-equilibrium
map T* (which curves defines; limit_equilibrium is re-exported here)."""

from __future__ import annotations

import math
from dataclasses import field
from functools import reduce
from typing import Mapping, Optional

import numpy as np

from .errors import check_count, check_point, check_tolerance, check_window
from .geometry import Point2, Rect, record_class
from .planarmap import PlanarMap, _order_licensed
from .curves import (_MINUS, _PLUS, _SINGULAR, _UNDECIDED, LABEL_CODES,
                     LABEL_NAMES, SideOptions, _limits_lockstep, _resolve_mode,
                     _sided)
from .curves import LimitRecord, limit_equilibrium  # noqa: F401  (re-exported)

# PGM gray levels per label
PGM_GRAY = {"minus": 0, "band": 128, "plus": 255, "undecided": 64, "singular": 32}
# the gray level per label code, and the label code per gray level (0 at
# levels not in PGM_GRAY, which load_pgm rejects before the lookup)
_GRAY = np.array([PGM_GRAY[name] for name in LABEL_NAMES])
_GRAY_CODE = np.zeros(256, dtype=np.uint8)
_GRAY_CODE[_GRAY] = np.arange(len(LABEL_NAMES))


# ---------------------------------------------------------------------------
# Rasters


@record_class
class BasinRaster:
    """Labeled grid over a bounded window; labels[j][i] is the cell at (i, j).

    Cell (i, j) has center _cell_centers(window, nx, ny, i, j), the point
    raster classifies; j grows with y. The meta mapping echoes the full
    configuration and round-trips through the PGM/CSV serializations.
    """

    window: Rect
    nx: int
    ny: int
    labels: np.ndarray  # shape (ny, nx), uint8 codes into LABEL_NAMES
    meta: Mapping[str, str] = field(default_factory=dict)

    def cell_center(self, i: int, j: int) -> Point2:
        return Point2(*_cell_centers(self.window, self.nx, self.ny, i, j))

    def label_at(self, i: int, j: int) -> str:
        return LABEL_NAMES[self.labels[j, i]]

    def cell_of(self, p: Point2) -> Optional[tuple]:
        if not self.window.contains(Point2(*p)):
            return None
        i = min(self.nx - 1, int((p[0] - self.window.x_lo) / self.window.width() * self.nx))
        j = min(self.ny - 1, int((p[1] - self.window.y_lo) / self.window.height() * self.ny))
        return i, j

    def census(self) -> dict:
        counts = np.bincount(self.labels.ravel(), minlength=len(LABEL_NAMES))
        return {name: int(counts[LABEL_CODES[name]]) for name in LABEL_NAMES}


def _cell_centers(window: Rect, nx: int, ny: int, i, j) -> tuple:
    """Center coordinates of column i and row j (ints or arrays)."""
    return (window.x_lo + (i + 0.5) * (window.width() / nx),
            window.y_lo + (j + 0.5) * window.height() / ny)


def raster_options(m: PlanarMap, window: Rect) -> SideOptions:
    """Default raster options: limit_equilibrium mode for maps with a
    continuum of equilibria (quadrant_escape otherwise), a verdict margin of
    1e-4 times the window diagonal, and max_iter 5000."""
    return SideOptions(mode=_resolve_mode(m), max_iter=5000,
                       epsilon_margin=1e-4 * window.diagonal())


# Lattice strides of a licensed limit-mode raster: a coarse lattice, then
# every cell the coarse verdicts leave open.
ORDER_STRIDES = (8, 1)
# A lattice verdict implies cells only if its orbit retired within this
# share of max_iter: next to a slower orbit, cells may run out of iterations.
SLOW_SHARE = 0.5
_UNKNOWN = 255  # a cell not yet classified or inferred


def raster(m: PlanarMap, fp: Point2, window: Rect, nx: int, ny: int,
           opts: SideOptions = None, workers: int = 1) -> BasinRaster:
    """Classify every cell center against the separatrix through fp.

    Cells are classified level by level over lattice strides, one lockstep
    call per level (_sided, which also counts each orbit's iterations) over
    the lattice cells that the verdicts so far leave open; the other cells
    are inferred from the southeast
    order. The paper's separatrix is an increasing curve that splits the
    region into two invariant parts, and a competitive map keeps z <=_se p
    in T^n(z) <=_se T^n(p). So the minus cells form a down-set of the order
    (a cell left of or above a minus cell is minus) and the plus cells an
    up-set. A cell implied minus and not plus is filled as minus, and the
    other way round; a cell implied both ways is classified. band,
    undecided and singular cells imply nothing, nor does a verdict whose
    orbit ran for more than SLOW_SHARE of max_iter, and a level whose
    verdicts include undecided or singular cells ends the inference.

    The strides are ORDER_STRIDES in limit_equilibrium mode when the
    sampled licence of planarmap._order_licensed (which curve traces share)
    holds, and (1,) otherwise: one _sided call over every cell.
    Quadrant-mode cells cost about one evaluation each, so there the
    lattice would cost more than it saves. fp must be finite
    (errors.check_point) and nx and ny ints >= 2. workers has no effect; it
    stays only for perfbench's process-pool probe and must be an int >= 1.
    """
    check_window("raster", window)
    check_point("fp", fp)
    check_count("nx", nx, 2)
    check_count("ny", ny, 2)
    check_count("workers", workers)
    if opts is None:
        opts = raster_options(m, window)
    infer = opts.mode == "limit_equilibrium" and _order_licensed(m, window, nx * ny)
    X, Y = np.meshgrid(*_cell_centers(window, nx, ny, np.arange(nx), np.arange(ny)))
    labels = np.full((ny, nx), _UNKNOWN, dtype=np.uint8)
    slow = np.zeros((ny, nx), dtype=bool)  # verdicts past SLOW_SHARE * max_iter
    for s in ORDER_STRIDES if infer else (1,):
        lattice = (slice(None, None, s),) * 2
        known = labels[lattice]  # a view: writes go to labels
        todo = known == _UNKNOWN
        if infer and not todo.all():  # fill what the verdicts so far imply
            implied = _implied(np.where(slow, _UNKNOWN, labels))
            minus, plus = (a[lattice] for a in implied)
            known[todo & minus & ~plus] = _MINUS
            known[todo & plus & ~minus] = _PLUS
            todo &= minus == plus
        if todo.all():  # the whole lattice, in one call on its own shape
            todo = ...
        xs, ys = X[lattice][todo], Y[lattice][todo]
        codes, _, n = _sided(m, xs.ravel(), ys.ravel(), Point2(*fp), opts)
        codes = codes.reshape(xs.shape)
        if infer:
            slow[lattice][todo] = (n > SLOW_SHARE * opts.max_iter).reshape(xs.shape)
        known[todo] = codes
        # an undecided or singular verdict shows an orbit outside the
        # licence's premises (out of iterations, diverged, at a pole): the
        # cells left open are classified, not inferred
        infer = infer and not np.isin(codes, (_UNDECIDED, _SINGULAR)).any()
    meta = {
        "map": m.name,
        "fp": f"{fp[0]!r},{fp[1]!r}",
        "window": f"{window.x_lo!r},{window.x_hi!r},{window.y_lo!r},{window.y_hi!r}",
        "nx": str(nx), "ny": str(ny),
        "mode": opts.mode,
        "epsilon_margin": repr(opts.epsilon_margin),
        "max_iter": str(opts.max_iter),
        "conv_tol": repr(opts.conv_tol),
    }
    for k, val in sorted(m.params.items()):
        meta[f"param.{k}"] = repr(float(val))
    return BasinRaster(window=window, nx=nx, ny=ny, labels=labels, meta=meta)


def _implied(labels: np.ndarray) -> tuple:
    """Masks of the cells the known minus cells imply minus and the known
    plus cells imply plus.

    Per column, the lowest minus row and the highest plus row are the
    frontiers; a suffix minimum and a prefix maximum over the columns turn
    them into the down-set of the minus cells and the up-set of the plus
    cells (row j grows with y, column i with x).
    """
    ny = labels.shape[0]
    rows = np.arange(ny)[:, None]
    is_minus = labels == _MINUS
    is_plus = labels == _PLUS
    low_minus = np.where(is_minus.any(axis=0), is_minus.argmax(axis=0), ny)
    high_plus = np.where(is_plus.any(axis=0),
                         ny - 1 - is_plus[::-1].argmax(axis=0), -1)
    return (rows >= np.minimum.accumulate(low_minus[::-1])[::-1],
            rows <= np.maximum.accumulate(high_plus))


# ---------------------------------------------------------------------------
# Serialization (PGM P2 and long-form CSV). Both are bit-exact functions of
# the raster contents and meta.


def raster_to_pgm(r: BasinRaster) -> str:
    """The raster as a plain PGM (P2): '# key=value' comment lines for meta,
    then 'nx ny', maxval 255 and one line of PGM_GRAY levels per cell row,
    the top row (highest y) first."""
    head = ["P2", *(f"# {k}={v}" for k, v in r.meta.items()), f"{r.nx} {r.ny}", "255"]
    rows = _GRAY.astype(str)[r.labels[::-1]].tolist()  # top row first, image convention
    return "\n".join(head + [" ".join(row) for row in rows]) + "\n"


def raster_to_csv(r: BasinRaster) -> str:
    """The raster as long-form CSV: '# key=value' lines for meta, the header
    'i,j,x,y,label', then one line per cell with its center to 17
    significant digits, row j = 0 (lowest y) first and i fastest."""
    i, j = np.arange(r.nx), np.arange(r.ny)[:, None]
    x, y = _cell_centers(r.window, r.nx, r.ny, i, j)
    cells = reduce(np.char.add, (np.char.mod("%d,", i), np.char.mod("%d,", j),
                                 np.char.mod("%.17g,", x), np.char.mod("%.17g,", y),
                                 np.array(LABEL_NAMES)[r.labels]))
    head = [f"# {k}={v}" for k, v in r.meta.items()] + ["i,j,x,y,label"]
    return "\n".join(head + cells.ravel().tolist()) + "\n"


def save_raster(r: BasinRaster, path: str, fmt: str = "pgm") -> None:
    """Write r to path as fmt, 'pgm' or 'csv'; another fmt raises ValueError
    before the file is opened."""
    if fmt not in ("pgm", "csv"):
        raise ValueError(f"unknown raster format {fmt!r}; expected pgm or csv")
    text = raster_to_pgm(r) if fmt == "pgm" else raster_to_csv(r)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _read_meta(line: str, meta: dict) -> bool:
    """Whether line is a '#' comment; a '# key=value' one goes into meta."""
    if not line.startswith("#"):
        return False
    body = line[1:].strip()
    if "=" in body:
        k, v = body.split("=", 1)
        meta[k.strip()] = v
    return True


def _int64s(values, what: str) -> np.ndarray:
    """values (ints or integer strings) as an int64 array; ValueError for
    one beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a {what} in the raster file lies beyond int64") from None


def _header_size(meta: dict, key: str) -> int:
    """meta[key] as a positive int; ValueError naming key otherwise."""
    try:
        n = int(meta[key])
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"header {key}={meta[key].strip()} is not a positive integer")
    return n


def load_pgm(path: str):
    """Read back a raster_to_pgm file; returns (labels, meta), labels of shape
    (ny, nx) with row j = 0 the file's last (lowest y) row.

    Raises ValueError for a file that is not a P2 PGM, one whose maxval is
    not 255 (the one raster_to_pgm writes) or whose pixel count is not
    nx*ny, and for a gray level that is not in PGM_GRAY.
    """
    meta = {}
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "P2":
            raise ValueError(f"not a P2 PGM: {magic!r}")
        body = " ".join(line for line in fh if not _read_meta(line, meta))
    nx, ny, maxval, *grays = body.split()
    if int(maxval) != 255:
        raise ValueError(f"PGM maxval {maxval} is not 255, the one raster_to_pgm "
                         f"writes")
    nx, ny, grays = int(nx), int(ny), _int64s(grays, "gray level")
    if grays.size != nx * ny:
        raise ValueError(f"PGM holds {grays.size} pixels, not nx*ny = {nx}*{ny}")
    unknown = ~np.isin(grays, _GRAY)
    if unknown.any():
        raise ValueError(f"unknown gray level {grays[unknown][0]} in PGM")
    return _GRAY_CODE[grays.reshape(ny, nx)[::-1]], meta


def load_csv_raster(path: str):
    """Read back a raster_to_csv file; returns (labels, meta), labels[j, i]
    the label code of the line 'i,j,x,y,label' (x and y are not read).

    The grid is meta's nx by ny when the file records them, else it spans
    the largest i and j. Raises ValueError for a header nx or ny that is not
    a positive integer, an index beyond int64, an unknown label, a cell
    outside that grid, and a grid cell that is missing or repeated; the grid
    is allocated only once the cell lines fill it.
    """
    meta = {}
    cells = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or _read_meta(line, meta) or line.startswith("i,"):
                continue
            i, j, _x, _y, label = line.split(",")
            if label not in LABEL_CODES:
                raise ValueError(f"unknown label {label!r} in CSV raster")
            cells.append((int(i), int(j), LABEL_CODES[label]))
    i, j, codes = _int64s(cells, "cell index").reshape(-1, 3).T
    nx, ny = (_header_size(meta, k) if k in meta else int(a.max(initial=-1) + 1)
              for k, a in (("nx", i), ("ny", j)))
    outside = (i < 0) | (i >= nx) | (j < 0) | (j >= ny)
    if outside.any():
        k = outside.argmax()
        raise ValueError(f"cell ({i[k]}, {j[k]}) lies outside the {nx}x{ny} grid")
    # sorted row by row, the k-th line must hold cell (k % nx, k // nx); a
    # divisor w past the line count gives the same cells and fits in int64
    order = np.lexsort((i, j))
    i, j, codes = i[order], j[order], codes[order]
    k, w = np.arange(len(i)), min(nx, len(i) + 1)
    off = np.flatnonzero((i != k % w) | (j != k // w))
    if len(off) or len(i) < nx * ny:
        k = int(off[0]) if len(off) else len(i)
        if 0 < k < len(i) and (i[k], j[k]) == (i[k - 1], j[k - 1]):
            raise ValueError(f"cell ({i[k]}, {j[k]}) is repeated")
        raise ValueError(f"cell ({k % nx}, {k // nx}) is missing")
    return codes.astype(np.uint8).reshape(ny, nx), meta


# ---------------------------------------------------------------------------
# Continuity probe for the limiting-equilibrium map


@record_class
class ContinuityReport:
    max_gap: float
    argmax: int  # index of the left point of the widest adjacent pair
    n: int
    divergent: int
    limits: tuple  # Point2 or None per sample


def continuity_probe(m: PlanarMap, segment: tuple, n: int,
                     tol: float = 1e-10, max_iter: int = 100_000) -> ContinuityReport:
    """Sample T* along a segment and report the largest adjacent limit gap.

    Shrinking max_gap under refinement of n is numeric evidence that the
    limiting equilibrium varies continuously with the initial condition.
    The samples are iterated together; each limit equals limit_equilibrium's
    at its sample. Both ends of segment must be finite, n an int >= 2, tol
    finite and > 0, and max_iter an int >= 1.
    """
    check_count("n", n, 2)
    check_tolerance("tol", tol)
    check_count("max_iter", max_iter)
    for end in segment:
        check_point("segment end", end)
    a, b = Point2(*segment[0]), Point2(*segment[1])
    starts = [Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
              for t in (k / (n - 1) for k in range(n))]
    LX, LY, _, _ = _limits_lockstep(m, np.array([p.x for p in starts], dtype=float),
                                    np.array([p.y for p in starts], dtype=float),
                                    tol, max_iter)
    limits = [None if math.isnan(x) else Point2(x, y)
              for x, y in zip(LX.tolist(), LY.tolist())]
    divergent = sum(q is None for q in limits)
    max_gap = 0.0
    argmax = 0
    prev = None
    prev_idx = -1
    for idx, q in enumerate(limits):
        if q is None:
            continue
        if prev is not None and idx == prev_idx + 1:
            gap = prev.dist2(q)
            if gap > max_gap:
                max_gap = gap
                argmax = prev_idx
        prev, prev_idx = q, idx
    return ContinuityReport(max_gap=max_gap, argmax=argmax, n=n,
                            divergent=divergent, limits=tuple(limits))
