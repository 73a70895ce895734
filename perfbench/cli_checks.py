"""Direct library checks of CLI outputs: the CLI writes what the library computes."""

from __future__ import annotations

import re

import numpy as np

import compmap
from compmap import CurveOptions, Point2, Rect, SideOptions, basins, curves


def flag(argv, name) -> str:
    return argv[argv.index(name) + 1]


def _rows(body: bytes) -> list:
    lines = [ln for ln in body.decode().splitlines() if ln and not ln.startswith("#")]
    return lines[1:]  # drop the header row


def library_check(cmd, tmp):
    """A function (stdout, body) -> None or the reason the output is wrong."""
    argv = list(cmd.argv)
    if cmd.verb == "examples":
        def check(stdout, _body):
            missing = [e for e in compmap.EXAMPLE_IDS if f"{e}:".encode() not in stdout]
            return f"examples does not list {missing}" if missing else None
    elif cmd.verb == "analyze":
        def check(stdout, _body):
            m = re.search(rb"fixed points found: (\d+)", stdout)
            return None if m and int(m.group(1)) >= 1 else "analyze found no fixed point"
    elif cmd.verb == "orbit":
        def check(_stdout, body):
            start = Point2(*map(float, flag(argv, "--start").split(",")))
            o = compmap.orbit(compmap.make_example("ex4").map, start,
                              max_iter=int(flag(argv, "--n")), conv_tol=1e-12)
            want = [f"{k},{p.x:.17g},{p.y:.17g}" for k, p in enumerate(o.points)]
            return None if _rows(body) == want else "orbit rows differ from compmap.orbit"
    elif cmd.verb == "curve":
        def check(_stdout, body):
            m = compmap.make_example("ex1").map
            fp = compmap.find_fixed_point(m, Point2(1e-9, 1.0), tol=1e-10)
            w = Rect(*map(float, flag(argv, "--window").split(",")))
            c = curves.trace_stable_curve(
                m, fp, w, CurveOptions(columns=int(flag(argv, "--columns"))))
            want = [f"{v.x:.17g},{v.y:.17g}" for v in c.vertices]
            return None if _rows(body) == want else "curve rows differ from trace_stable_curve"
    elif cmd.verb == "basin":
        def check(_stdout, body):
            m = compmap.make_example("ex4").map
            fp = compmap.find_fixed_point(m, Point2(2.0, 1.0), tol=1e-10).location
            w = Rect(*map(float, flag(argv, "--window").split(",")))
            n = int(flag(argv, "--nx"))
            opts = SideOptions(epsilon_margin=1e-4 * w.diagonal(), max_iter=5000)
            want = basins.raster(m, fp, w, n, n, opts).labels
            path = tmp / "check.pgm"
            path.write_bytes(body)
            got, _meta = basins.load_pgm(str(path))
            return None if np.array_equal(got, want) else "basin labels differ from raster"
    else:
        raise ValueError(f"no library check for verb {cmd.verb!r}")
    return check
