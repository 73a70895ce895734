"""Seeded inputs and operations of the three benchmark workloads.

A workload is a list of operations that make up one pass. Each operation is
one public call into compmap (or one CLI process) on an input made from the
seed. For curve tracing (and the CLI curve, basin and orbit calls) the seed
moves the outer window edges by up to 1 % or draws the start point; for
rasters it draws the limit_equilibrium start points and the raster windows
stay the ones the workload names. Maps are passed through `wrap` as they
are built, so a traced run can count their evaluations.

Every library function is looked up on its module at call time
(`curves.trace_stable_curve`, not a name bound at import), so the tracer
in spans.py sees the calls this file makes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import compmap
from compmap import CurveOptions, Point2, Rect, basins, curves

QUADRANT = Rect(0.0, math.inf, 0.0, math.inf)
RASTER_N = 128
CLI_VERBS = ("examples", "analyze", "orbit", "curve", "basin")


@dataclass
class Op:
    """One public call; `run` performs it and returns its output."""

    name: str  # unique within a pass
    fn: str  # public function (or CLI verb) the call exercises
    run: Callable[[], Any]
    kind: str  # selects the output check in oracles.py
    units: int = 0  # work units one successful call completes
    timed_call: bool = False  # an L3 call (curve, raster, probe, CLI process): call_s
    ctx: dict = field(default_factory=dict)  # inputs the output check needs


# Built-ins written in the expression language, with the built-ins' operation
# order, so their verdicts and evaluation counts match the built-ins.
DSL = {"ex1": ("x/(a+y)", "y/(1+x)"),
       "ex4": ("beta1*x/(B1*x+y)", "(alpha2+gamma2*y)/x"),
       "ex5": ("b1*x/(1+x+c1*y)+h1", "b2*y/(1+y+c2*x)+h2")}


def dsl_map(eid: str):
    f, g = DSL[eid]
    return compmap.expr_map(f, g, dict(compmap.DEFAULT_PARAMS[eid]), domain=QUADRANT,
                            name=f"{eid}-dsl")


def _edge(rng: random.Random, v: float) -> float:
    return v * (1.0 + 0.01 * rng.random())


def _same(m):
    return m


# ---------------------------------------------------------------------------
# trace: separatrix tracing by column bisection


def trace_ops(seed: int, wrap=_same) -> list:
    rng = random.Random(seed)
    ops = []
    ex1 = wrap(compmap.make_example("ex1").map)
    ex3 = wrap(compmap.make_example("ex3_T2").map)
    ex5_sys = compmap.make_example("ex5")
    ex5 = wrap(ex5_sys.map)
    eqs = compmap.ex5_equilibria(ex5_sys.params)
    dsl5 = wrap(dsl_map("ex5"))
    dsl1 = wrap(dsl_map("ex1"))
    limit = CurveOptions(mode="limit_equilibrium")
    w1 = Rect(0.0, _edge(rng, 5.0), 0.0, _edge(rng, 6.0))
    w3 = Rect(0.5, _edge(rng, 8.0), 0.5, _edge(rng, 8.0))
    w5 = Rect(0.0, _edge(rng, 1.5), 0.0, _edge(rng, 1.5))
    saddle = compmap.find_fixed_point(ex5, eqs[1])
    cases = (
        ("ex1", ex1, compmap.find_fixed_point(ex1, Point2(1e-9, 1.0)), w1,
         CurveOptions(), "curve_ex1_scan"),
        ("ex3_T2", ex3, compmap.find_fixed_point(ex3, Point2(3.0, 1.5)), w3,
         CurveOptions(), "curve_invariance"),
        ("ex5", ex5, saddle, w5, CurveOptions(), "curve_invariance"),
        ("ex5_dsl", dsl5, compmap.find_fixed_point(dsl5, eqs[1]), w5,
         CurveOptions(), "curve_invariance"),
        ("ex1_dsl", dsl1, compmap.find_fixed_point(dsl1, Point2(1e-9, 1.0)), w1,
         limit, "curve_ex1_scan"),
    )
    for name, m, fp, w, opts, kind in cases:
        ops.append(Op(
            name=f"stable:{name}", fn="trace_stable_curve", kind=kind,
            run=lambda m=m, fp=fp, w=w, opts=opts:
                curves.trace_stable_curve(m, fp, w, opts),
            units=opts.columns, timed_call=True,
            ctx={"map": m, "fp": fp, "window": w, "opts": opts, "a": 2.0}))
    ops.append(Op(
        name="unstable:ex5", fn="trace_unstable_curve", kind="curve_unstable",
        run=lambda: curves.trace_unstable_curve(ex5, saddle),
        ctx={"map": ex5, "ends": (eqs[0], eqs[2])}))
    return ops


# ---------------------------------------------------------------------------
# raster: basin rasters and limiting-equilibrium probes


def raster_ops(seed: int, wrap=_same) -> list:
    rng = random.Random(seed)
    ops = []
    ex1 = wrap(compmap.make_example("ex1").map)
    ex2_sys = compmap.make_example("ex2")
    ex2 = wrap(ex2_sys.map)
    ex3 = wrap(compmap.make_example("ex3_T2").map)
    ex4_sys = compmap.make_example("ex4")
    ex4 = wrap(ex4_sys.map)
    ex5_sys = compmap.make_example("ex5")
    ex5 = wrap(ex5_sys.map)
    eqs = compmap.ex5_equilibria(ex5_sys.params)
    saddle = compmap.find_fixed_point(ex5, eqs[1]).location
    two = compmap.find_ex5_two_equilibria()
    ex5_two = wrap(two.system.map)
    dsl4 = wrap(dsl_map("ex4"))
    w4 = Rect(0.0, 6.0, 0.0, 4.0)
    cases = (
        ("ex4", ex4, Point2(2.0, 1.0), w4,
         {"oracle": "escape", "system": "ex4", "params": dict(ex4_sys.params)}),
        ("ex2", ex2, Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0),
         {"oracle": "limit", "system": "ex2", "params": dict(ex2_sys.params)}),
        ("ex3_T2", ex3, Point2(4.0, 4.0 / 3.0),
         Rect(0.5, 8.0, 0.5, 8.0),
         {"oracle": "limit", "system": "ex3_T2", "params": {}}),
        ("ex5", ex5, saddle, Rect(0.0, 1.5, 0.0, 1.5),
         {"oracle": "attractors", "system": "ex5", "params": dict(ex5_sys.params),
          "minus": eqs[0], "plus": eqs[2], "iters": 2000, "radius": 1e-3}),
        ("ex5_two", ex5_two, two.nonhyperbolic,
         Rect(0.0, 1.6, 0.0, 1.2),
         {"oracle": "attractors", "system": "ex5", "params": dict(two.system.params),
          "minus": two.nonhyperbolic, "plus": two.attractor, "iters": 20000,
          "radius": 0.02}),
        ("ex4_dsl", dsl4, Point2(2.0, 1.0), w4,
         {"oracle": "escape", "system": "ex4", "params": dict(ex4_sys.params)}),
    )
    for name, m, fp, w, ctx in cases:
        ctx.update(map=m, fp=fp, window=w)
        ops.append(Op(
            name=f"raster:{name}", fn="raster", kind="raster",
            run=lambda m=m, fp=fp, w=w: basins.raster(m, fp, w, RASTER_N, RASTER_N),
            units=RASTER_N * RASTER_N, timed_call=True, ctx=ctx))
    segment = (Point2(0.1, 0.1), Point2(0.1, 4.0))
    for n in (64, 128, 256):
        ops.append(Op(
            name=f"continuity:{n}", fn="continuity_probe", kind="continuity",
            run=lambda n=n: basins.continuity_probe(ex1, segment, n, tol=1e-12),
            units=n, timed_call=True, ctx={"n": n, "coarser": f"continuity:{n // 2}"}))
    starts = (("ex2", ex2, (0.0, 2.0), lambda x, y: 2.0 * x + y - 2.0),
              ("ex3_T2", ex3, (0.2, 5.0), lambda x, y: x + y - x * y))
    for name, m, (lo, hi), residual in starts:
        for k in range(200):
            p = Point2(rng.uniform(lo, hi), rng.uniform(lo, hi))
            ops.append(Op(
                name=f"limit:{name}:{k}", fn="limit_equilibrium", kind="limit",
                run=lambda m=m, p=p: basins.limit_equilibrium(m, p, tol=1e-11),
                units=1, ctx={"residual": residual}))
    return ops


# ---------------------------------------------------------------------------
# cli: fresh `python -m compmap.cli` processes


@dataclass(frozen=True)
class CliCommand:
    name: str
    verb: str
    argv: tuple  # arguments after `python -m compmap.cli`, without --out
    out_ext: str = ""  # file extension of --out, empty when stdout only


def cli_commands(seed: int) -> list:
    rng = random.Random(seed)
    cmds = [CliCommand("examples", "examples", ("examples",))]
    for eid in compmap.EXAMPLE_IDS:
        cmds.append(CliCommand(f"analyze:{eid}", "analyze",
                               ("analyze", "--example", eid)))
    cmds.append(CliCommand("analyze:ex1_dsl", "analyze",
                           ("analyze", "--f", DSL["ex1"][0], "--g", DSL["ex1"][1],
                            "--param", "a=2")))
    start = f"{rng.uniform(2.2, 3.5)!r},{rng.uniform(0.2, 0.9)!r}"
    cmds.append(CliCommand("orbit", "orbit",
                           ("orbit", "--example", "ex4", "--start", start,
                            "--n", "1000"), "csv"))
    w1 = f"0,{_edge(rng, 5.0)!r},0,{_edge(rng, 6.0)!r}"
    cmds.append(CliCommand("curve", "curve",
                           ("curve", "--example", "ex1", "--guess", "1e-9,1",
                            "--window", w1, "--columns", "64"), "csv"))
    w4 = f"0,{_edge(rng, 6.0)!r},0,{_edge(rng, 4.0)!r}"
    cmds.append(CliCommand("basin", "basin",
                           ("basin", "--example", "ex4", "--guess", "2,1",
                            "--window", w4, "--nx", "64", "--ny", "64"), "pgm"))
    return cmds


def cli_setup(seed: int, wrap=_same) -> list:
    """What a CLI session loads before its first call: the CLI module and maps.

    The maps are built for their cost only (the CLI processes build their
    own), so `wrap` is not applied.
    """
    import compmap.cli  # noqa: F401  (the import is part of the set-up cost)
    for eid in compmap.EXAMPLE_IDS:
        compmap.make_example(eid)
    dsl_map("ex1")
    return cli_commands(seed)


BUILDERS = {"trace": trace_ops, "raster": raster_ops, "cli": cli_setup}
