"""Basin decomposition rasters, limiting equilibria, and continuity probes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import SingularityError
from .geometry import Point2, Rect
from .planarmap import PlanarMap
from .curves import (BATCH_HANDOFF, ESCAPE_BOUND, LABEL_CODES, LABEL_NAMES,
                     SideOptions, _resolve_mode, classify_batch)

LIMIT_RESIDUAL_TOL = 1e-6

# PGM gray levels per label
PGM_GRAY = {"minus": 0, "band": 128, "plus": 255, "undecided": 64, "singular": 32}
_GRAY_TO_LABEL = {v: k for k, v in PGM_GRAY.items()}


# ---------------------------------------------------------------------------
# Limiting equilibrium T*


@dataclass(frozen=True)
class LimitRecord:
    start: Point2
    limit: Optional[Point2]
    iterations: int
    diverged: bool = False
    flag: str = ""

    @property
    def converged(self) -> bool:
        return self.limit is not None


def limit_equilibrium(m: PlanarMap, p: Point2, tol: float = 1e-10,
                      max_iter: int = 100_000) -> LimitRecord:
    """Iterate to the limiting equilibrium T*(p).

    Converges when the sup-norm step drops below tol and the fixed-point
    residual of the candidate limit is below 1e-6; a coordinate exceeding
    ESCAPE_BOUND (or a singularity) yields a divergence marker instead.
    """
    start = Point2(*p)
    x, y = float(p[0]), float(p[1])
    try:
        x1, y1 = m.step(x, y)
    except SingularityError:
        return LimitRecord(start, None, 0, diverged=True, flag="singularity")
    if max(abs(x1 - x), abs(y1 - y)) < tol:
        return LimitRecord(start, Point2(x, y), 0)
    return _continue_limit(m, start, x, y, 0, tol, max_iter)


def _continue_limit(m: PlanarMap, start: Point2, x: float, y: float, n: int,
                    tol: float, max_iter: int) -> LimitRecord:
    """limit_equilibrium's iteration from its state after n steps, at (x, y)."""
    step = m.step
    while n < max_iter:
        try:
            xn, yn = step(x, y)
        except SingularityError:
            return LimitRecord(start, None, n, diverged=True, flag="singularity")
        n += 1
        if not (math.isfinite(xn) and math.isfinite(yn)) \
                or abs(xn) > ESCAPE_BOUND or abs(yn) > ESCAPE_BOUND:
            return LimitRecord(start, None, n, diverged=True, flag="escape")
        if max(abs(xn - x), abs(yn - y)) < tol:
            try:
                xr, yr = step(xn, yn)
            except SingularityError:
                return LimitRecord(start, None, n, diverged=True, flag="singularity")
            if max(abs(xr - xn), abs(yr - yn)) < LIMIT_RESIDUAL_TOL:
                return LimitRecord(start, Point2(xn, yn), n)
        x, y = xn, yn
    return LimitRecord(start, None, max_iter, diverged=False, flag="max_iter")


# ---------------------------------------------------------------------------
# Rasters


@dataclass(frozen=True)
class BasinRaster:
    """Labeled grid over a bounded window; labels[j][i] is the cell at (i, j).

    Cell (i, j) has center (x_lo + (i+0.5)dx, y_lo + (j+0.5)dy); j grows with
    y. The meta mapping echoes the full configuration and round-trips through
    the PGM/CSV serializations.
    """

    window: Rect
    nx: int
    ny: int
    labels: np.ndarray  # shape (ny, nx), uint8 codes into LABEL_NAMES
    meta: Mapping[str, str] = field(default_factory=dict)

    def cell_center(self, i: int, j: int) -> Point2:
        return Point2(self.window.x_lo + (i + 0.5) * self.window.width() / self.nx,
                      self.window.y_lo + (j + 0.5) * self.window.height() / self.ny)

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


def raster_options(m: PlanarMap, window: Rect) -> SideOptions:
    """Default raster options: limit_equilibrium mode for maps with a
    continuum of equilibria (quadrant_escape otherwise), a verdict margin of
    1e-4 times the window diagonal, and max_iter 5000."""
    return SideOptions(mode=_resolve_mode(m), max_iter=5000,
                       epsilon_margin=1e-4 * window.diagonal())


def raster(m: PlanarMap, fp: Point2, window: Rect, nx: int, ny: int,
           opts: SideOptions = None, workers: int = 1) -> BasinRaster:
    """Classify every cell center against the separatrix through fp.

    All cells are classified in one classify_batch call. workers is accepted
    for compatibility and must be >= 1; it has no effect.
    """
    if not window.is_bounded():
        raise ValueError("raster needs a bounded window")
    if not (window.width() > 0 and window.height() > 0):
        raise ValueError(f"raster needs a window of positive width and height, "
                         f"got {window}")
    if nx < 2 or ny < 2:
        raise ValueError("raster needs nx, ny >= 2")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if opts is None:
        opts = raster_options(m, window)
    # cell centers (x_lo + (i + 0.5) * dx, y_lo + (j + 0.5) * height / ny)
    xs = window.x_lo + (np.arange(nx) + 0.5) * (window.width() / nx)
    ys = window.y_lo + (np.arange(ny) + 0.5) * window.height() / ny
    X, Y = np.meshgrid(xs, ys)
    labels = classify_batch(m, X, Y, Point2(*fp), opts)
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


# ---------------------------------------------------------------------------
# Serialization (PGM P2 and long-form CSV). Both are bit-exact functions of
# the raster contents and meta.


def raster_to_pgm(r: BasinRaster) -> str:
    lines = ["P2"]
    for k, v in r.meta.items():
        lines.append(f"# {k}={v}")
    lines.append(f"{r.nx} {r.ny}")
    lines.append("255")
    for j in range(r.ny - 1, -1, -1):  # top row first, image convention
        lines.append(" ".join(str(PGM_GRAY[LABEL_NAMES[c]]) for c in r.labels[j]))
    return "\n".join(lines) + "\n"


def raster_to_csv(r: BasinRaster) -> str:
    lines = []
    for k, v in r.meta.items():
        lines.append(f"# {k}={v}")
    lines.append("i,j,x,y,label")
    for j in range(r.ny):
        for i in range(r.nx):
            c = r.cell_center(i, j)
            lines.append(f"{i},{j},{c.x:.17g},{c.y:.17g},{LABEL_NAMES[r.labels[j, i]]}")
    return "\n".join(lines) + "\n"


def save_raster(r: BasinRaster, path: str, fmt: str = "pgm") -> None:
    text = raster_to_pgm(r) if fmt == "pgm" else raster_to_csv(r)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_pgm(path: str):
    """Read back a raster PGM; returns (labels array, meta dict)."""
    meta = {}
    with open(path) as fh:
        tokens = []
        magic = fh.readline().strip()
        if magic != "P2":
            raise ValueError(f"not a P2 PGM: {magic!r}")
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v
                continue
            tokens.extend(line.split())
    nx, ny, maxval = int(tokens[0]), int(tokens[1]), int(tokens[2])
    vals = np.array(tokens[3:3 + nx * ny], dtype=int).reshape(ny, nx)
    labels = np.empty((ny, nx), dtype=np.uint8)
    for j in range(ny):
        for i in range(nx):
            labels[ny - 1 - j, i] = LABEL_CODES[_GRAY_TO_LABEL[int(vals[j, i])]]
    return labels, meta


def load_csv_raster(path: str):
    meta = {}
    cells = {}
    nx = ny = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v
                continue
            if line.startswith("i,"):
                continue
            i_s, j_s, _x, _y, label = line.split(",")
            i, j = int(i_s), int(j_s)
            nx = max(nx, i + 1)
            ny = max(ny, j + 1)
            cells[(i, j)] = LABEL_CODES[label]
    labels = np.zeros((ny, nx), dtype=np.uint8)
    for (i, j), c in cells.items():
        labels[j, i] = c
    return labels, meta


# ---------------------------------------------------------------------------
# Continuity probe for the limiting-equilibrium map


@dataclass(frozen=True)
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
    The samples are iterated together when the map has a batch step; each
    limit equals limit_equilibrium's at its sample.
    """
    if n < 2:
        raise ValueError("need at least two probe points")
    a, b = Point2(*segment[0]), Point2(*segment[1])
    starts = [Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
              for t in (k / (n - 1) for k in range(n))]
    if m.batch is None:
        limits = [limit_equilibrium(m, p, tol=tol, max_iter=max_iter).limit
                  for p in starts]
    else:
        with np.errstate(all="ignore"):
            limits = _limits_batch(m, starts, tol, max_iter)
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


def _limits_batch(m: PlanarMap, starts: list, tol: float, max_iter: int) -> list:
    """limit_equilibrium(...).limit for every start, in lockstep.

    Applies limit_equilibrium's rules to all points at once: the first-step
    check, the escape bound, and the residual step before a limit is
    accepted. NaN from the batch step stands for a singularity. Once
    BATCH_HANDOFF or fewer points remain, each finishes in limit_equilibrium's
    scalar loop from where it stands.
    """
    limits = [None] * len(starts)
    X = np.array([p.x for p in starts])
    Y = np.array([p.y for p in starts])
    X1, Y1 = m.batch(X, Y)
    fixed = np.maximum(np.abs(X1 - X), np.abs(Y1 - Y)) < tol
    for k in np.flatnonzero(fixed).tolist():
        limits[k] = starts[k]
    live = ~fixed & np.isfinite(X1) & np.isfinite(Y1)
    idx, X, Y = np.flatnonzero(live), X[live], Y[live]
    n = 0
    while len(idx) > BATCH_HANDOFF and n < max_iter:
        Xn, Yn = m.batch(X, Y)
        n += 1
        stop = (~(np.isfinite(Xn) & np.isfinite(Yn)) | (np.abs(Xn) > ESCAPE_BOUND)
                | (np.abs(Yn) > ESCAPE_BOUND))
        near = ~stop & (np.maximum(np.abs(Xn - X), np.abs(Yn - Y)) < tol)
        if near.any():
            Xr, Yr = m.batch(Xn[near], Yn[near])
            ok = (np.maximum(np.abs(Xr - Xn[near]), np.abs(Yr - Yn[near]))
                  < LIMIT_RESIDUAL_TOL)
            stop[near] = np.isnan(Xr) | np.isnan(Yr)  # singular residual step
            hit = np.flatnonzero(near)[ok]
            stop[hit] = True
            for k, x, y in zip(idx[hit].tolist(), Xn[hit].tolist(),
                               Yn[hit].tolist()):
                limits[k] = Point2(x, y)
        idx, X, Y = idx[~stop], Xn[~stop], Yn[~stop]
    for k, x, y in zip(idx.tolist(), X.tolist(), Y.tolist()):
        limits[k] = _continue_limit(m, starts[k], x, y, n, tol, max_iter).limit
    return limits
