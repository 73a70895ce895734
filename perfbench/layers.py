"""The traced run: per-layer metrics of one workload.

The run builds the workload twice: plain maps for untraced passes, and maps
whose evaluations are counted for traced passes, with set-up itself traced.
The untraced and traced passes run the same inputs, so their time ratio is
the tracing overhead. Probes that do not depend on the workload (single map
evaluations, expression compilation, import breakdown, seed-independent
evaluation counts) run in every traced run. A per-layer metric of a layer
the workload does not exercise is reported as 0.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

import compmap
from compmap import CurveOptions, Point2, Rect, basins, curves

import harness
import oracles
import spans
import workloads
from harness import PER_LAYER_UNITS, TRACED_PASSES, metric, run_pass

DECISIVE = ("minus", "plus", "band")


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _traced_passes(tracer, ops, problems) -> tuple:
    """TRACED_PASSES traced passes; evaluation counts must repeat exactly."""
    passes, totals, per_op = [], [], []
    tracer.install()
    try:
        for _ in range(TRACED_PASSES):
            i0, e0, j0 = len(tracer.spans), tracer.evals[0], tracer.jac_evals[0]
            passes.append(run_pass(ops, tracer, slowness=harness.loop_slowness))
            totals.append((tracer.evals[0] - e0, tracer.jac_evals[0] - j0))
            per_op.append([s[7] - s[6] for s in tracer.spans[i0:] if s[4] == 0])
    finally:
        tracer.uninstall()
    if any(p != per_op[0] for p in per_op) or any(t != totals[0] for t in totals):
        problems.append(f"map-evaluation counts differ between passes: {totals}")
    return passes, totals


def run_traced(workload: str, seed: int) -> tuple:
    tracer = spans.Tracer()
    problems = []
    vals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    tracer.install()
    try:
        built = tracer.op("setup", "setup",
                          lambda: workloads.BUILDERS[workload](seed, tracer.counted))
    finally:
        tracer.uninstall()
    checker = oracles.Checker()

    if workload == "cli":
        with tempfile.TemporaryDirectory(dir=harness.WORK) as d:
            tmp = Path(d)
            inproc = harness.cli_ops(built, tmp, inprocess=True)
            reference = run_pass(inproc)
            harness.attach_cli_references(inproc, reference, built, tmp)
            untraced = [run_pass(inproc, slowness=harness.loop_slowness)
                        for _ in range(TRACED_PASSES)]
            traced, totals = _traced_passes(tracer, inproc, problems)
            procs = harness.cli_ops(built, tmp, inprocess=False)
            harness.attach_cli_references(procs, reference, built, tmp)
            proc_pass = run_pass(procs)
            checked = untraced + traced + [proc_pass]
            failed = [f for p in checked for f in checker.failures(p)]
        for verb in workloads.CLI_VERBS:
            vals[f"cli.{verb}.s"] = _mean(
                r.seconds for r in proc_pass if r.op.fn == f"cli:{verb}")
            vals[f"cli.{verb}.inproc_s"] = _mean(
                r.seconds for p in untraced for r in p if r.op.fn == f"cli:{verb}")
    else:
        plain = workloads.BUILDERS[workload](seed)
        checker.failures(run_pass(plain))  # warm-up; its outputs are checked
        untraced = [run_pass(plain, slowness=harness.loop_slowness)
                    for _ in range(TRACED_PASSES)]
        traced, totals = _traced_passes(tracer, built, problems)
        # re-run the checks of the traced outputs, so locate_ordinate is traced
        recheck = checker.fresh()
        tracer.install()
        try:
            traced_failed = [tracer.op("check", "check", lambda p=p: recheck.failures(p))
                             for p in traced]
        finally:
            tracer.uninstall()
        failed = [f for p in untraced for f in checker.failures(p)]
        failed += [f for fs in traced_failed for f in fs]
        first = {op.name: op for op in plain}
        if workload == "trace":
            vals["pool.trace.w2_over_w1"] = _pool_ratio(
                lambda w, c=first["stable:ex1"].ctx: curves.trace_stable_curve(
                    c["map"], c["fp"], c["window"], c["opts"], workers=w))
        else:
            vals["pool.raster.w2_over_w1"] = _pool_ratio(
                lambda w, c=first["raster:ex2"].ctx: basins.raster(
                    c["map"], c["fp"], c["window"], workloads.RASTER_N,
                    workloads.RASTER_N, workers=w))

    vals.update(_span_metrics(tracer, traced, totals))
    # calibrated times, so host drift between the two sets of passes cancels
    wall = [sum(r.scaled for r in p) for p in untraced]
    traced_wall = [sum(r.scaled for r in p) for p in traced]
    vals["trace_overhead_frac"] = _mean(traced_wall) / _mean(wall) - 1.0
    vals.update(_map_probes())
    vals.update(_import_probe())
    spans_path = harness.WORK / f"spans-{workload}.csv"
    tracer.write(spans_path)
    print(f"perfbench: {len(tracer.spans)} spans written to {spans_path}", flush=True)
    attempted = sum(len(p) for p in untraced + traced) + (
        len(proc_pass) if workload == "cli" else 0)
    metrics = {k: metric(v, PER_LAYER_UNITS[k]) for k, v in vals.items()}
    return attempted, failed, problems, metrics


# ---------------------------------------------------------------------------


def _span_metrics(tracer, traced, totals) -> dict:
    n = len(traced)
    selfs = tracer.self_times()
    outputs = [r for p in traced for r in p if r.error is None]
    v = {"planarmap.evals": _mean(e for e, _ in totals),
         "planarmap.jac_evals": _mean(j for _, j in totals)}

    def dur(name, phases=None, scale=1e-9):
        return _mean((s[3] - s[2]) * scale for s in tracer.select(name, phases))

    side = tracer.select("classify_side", ("pass",))
    if side:
        verdicts = [x for x in tracer.verdicts if tracer.phase_of_run.get(x[0]) == "pass"]
        iters = [x[2] for x in verdicts]
        v["curves.classify_side.calls"] = len(side) / n
        v["curves.classify_side.us"] = _mean(selfs[s[0]] * 1e-3 for s in side)
        v["curves.classify_side.iters_p50"] = statistics.median(iters)
        v["curves.classify_side.iters_max"] = max(iters)
        v["curves.classify_side.decisive_frac"] = (
            sum(x[1] in DECISIVE for x in verdicts) / len(verdicts))
    v["curves.locate_ordinate.ms"] = dur("locate_ordinate", None, 1e-6)

    stable = tracer.select("trace_stable_curve", ("pass",))
    curves_out = [r.out for r in outputs if r.op.fn == "trace_stable_curve"]
    if stable and curves_out:
        v["curves.evals_per_vertex"] = (sum(s[7] - s[6] for s in stable)
                                        / sum(len(c.vertices) for c in curves_out))
        notes = [note for c in curves_out for note in c.notes]
        v["curves.columns_skipped"] = harness.note_count(harness.SKIPPED, notes) / n
        v["curves.columns_flagged"] = harness.note_count(harness.FLAGGED, notes) / n
    v["curves.trace_stable_curve.s"] = dur("trace_stable_curve", ("pass",))
    v["curves.trace_unstable_curve.ms"] = dur("trace_unstable_curve", ("pass",), 1e-6)

    rasters = tracer.select("raster", ("pass",))
    cells = sum(r.out.nx * r.out.ny for r in outputs if r.op.fn == "raster")
    v["basins.raster.s"] = dur("raster", ("pass",))
    if rasters and cells:
        v["basins.evals_per_cell"] = sum(s[7] - s[6] for s in rasters) / cells
        v["basins.cell_us"] = sum(s[3] - s[2] for s in rasters) * 1e-3 / cells
    v["basins.limit_equilibrium.us"] = dur("limit_equilibrium", ("pass",), 1e-3)
    v["basins.continuity_probe.ms"] = dur("continuity_probe", ("pass",), 1e-6)

    v["fixedpoints.find_fixed_point.ms"] = dur("find_fixed_point", None, 1e-6)
    v["fixedpoints.find_fixed_point.evals"] = _mean(
        s[7] - s[6] for s in tracer.select("find_fixed_point"))
    v["fixedpoints.check_invariant_curve_hypotheses.ms"] = dur(
        "check_invariant_curve_hypotheses", None, 1e-6)
    v["classification.taylor_along_eigenvector.ms"] = dur(
        "taylor_along_eigenvector", None, 1e-6)
    # lru_cached: only the first call does the work
    two = tracer.select("find_ex5_two_equilibria")
    v["systems.find_ex5_two_equilibria.s"] = max(
        ((s[3] - s[2]) * 1e-9 for s in two), default=0.0)
    return v


def _pool_ratio(call) -> float:
    """Wall time with workers=2 over workers=1 on the same input (best of 2)."""
    best = {}
    for workers in (1, 2, 1, 2):
        t0 = time.perf_counter()
        call(workers)
        dt = time.perf_counter() - t0
        best[workers] = min(best.get(workers, dt), dt)
    return best[2] / best[1]


def _per_eval_us(m) -> float:
    step, n = m.step, 2000
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in itertools.repeat(None, n):
            step(1.0, 1.0)
        reps.append((time.perf_counter() - t0) / n)
    return statistics.median(reps) * 1e6


def _map_probes() -> dict:
    """L0 costs and the evaluation counts of two seed-independent calls."""
    builtin = [compmap.make_example(e).map for e in ("ex1", "ex2", "ex3_T2", "ex4", "ex5")]
    build = []
    for _ in range(5):
        t0 = time.perf_counter()
        dsl = [workloads.dsl_map(eid) for eid in workloads.DSL]
        build.append((time.perf_counter() - t0) / len(dsl))
    counter = spans.Tracer()
    ex1 = counter.counted(builtin[0])
    fp = compmap.find_fixed_point(ex1, Point2(1e-9, 1.0))
    e0 = counter.evals[0]
    curves.trace_stable_curve(ex1, fp, Rect(0.0, 5.0, 0.0, 6.0), CurveOptions())
    ex1_ref = counter.evals[0] - e0
    e0 = counter.evals[0]
    basins.raster(counter.counted(builtin[1]), Point2(0.5, 1.0), Rect(0.0, 2.0, 0.0, 3.0),
                  128, 128)
    ex2_ref = counter.evals[0] - e0
    return {"planarmap.step_us.builtin": _mean(_per_eval_us(m) for m in builtin),
            "planarmap.step_us.dsl": _mean(_per_eval_us(m) for m in dsl),
            "expr.expr_map_ms": statistics.median(build) * 1e3,
            "planarmap.evals.ex1_trace_ref": ex1_ref,
            "planarmap.evals.ex2_raster_ref": ex2_ref}


def _import_probe() -> dict:
    """Median of three `-X importtime` imports after one discarded warm-up."""
    runs = []
    for i in range(4):
        r = harness.child([sys.executable, "-X", "importtime", "-c", "import compmap"],
                          harness.WORK)
        if r.returncode != 0:
            raise RuntimeError(f"import compmap failed:\n{r.stderr.decode()}")
        if i:
            runs.append(spans.import_breakdown(r.stderr.decode()))
    return {"import.compmap_s": statistics.median(x["compmap_s"] for x in runs),
            "import.scipy_s": statistics.median(x["scipy_s"] for x in runs)}
