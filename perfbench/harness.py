"""Shared pieces of the benchmark: passes, output checks and end-to-end metrics.

Imported by run.py once compmap has been imported from the checkout's src/.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import compmap.cli
import cli_checks
import oracles
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".bench_build" / "perfbench"

# Percentile reported as call_s.tail: the highest one that keeps at least ten
# calls beyond it at the call count a 20-second run makes, and that falls
# inside one input's cluster of latencies rather than between two (trace
# has 5 timed calls per pass, raster 9, cli 11 of similar cost).
TAIL_PCT = {"trace": 70, "raster": 83, "cli": 54}
SETUP_REPEATS = 3
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "call_s.p50": "s", "call_s.tail": "s",
    "peak_rss_mb": "MB", "ok_frac": "fraction", "decided_frac": "fraction",
}

PER_LAYER_UNITS = {
    "planarmap.evals": "count", "planarmap.jac_evals": "count",
    "planarmap.step_us.builtin": "us", "planarmap.step_us.dsl": "us",
    "planarmap.evals.ex1_trace_ref": "count",
    "planarmap.evals.ex2_raster_ref": "count",
    "expr.expr_map_ms": "ms",
    "curves.classify_side.calls": "count", "curves.classify_side.us": "us",
    "curves.classify_side.iters_p50": "count",
    "curves.classify_side.iters_max": "count",
    "curves.classify_side.decisive_frac": "fraction",
    "curves.locate_ordinate.ms": "ms", "curves.evals_per_vertex": "count",
    "curves.columns_skipped": "count", "curves.columns_flagged": "count",
    "curves.trace_stable_curve.s": "s", "curves.trace_unstable_curve.ms": "ms",
    "basins.raster.s": "s", "basins.evals_per_cell": "count",
    "basins.cell_us": "us", "basins.limit_equilibrium.us": "us",
    "basins.continuity_probe.ms": "ms",
    "fixedpoints.find_fixed_point.ms": "ms",
    "fixedpoints.find_fixed_point.evals": "count",
    "fixedpoints.check_invariant_curve_hypotheses.ms": "ms",
    "classification.taylor_along_eigenvector.ms": "ms",
    "systems.find_ex5_two_equilibria.s": "s",
    **{f"cli.{v}.s": "s" for v in workloads.CLI_VERBS},
    **{f"cli.{v}.inproc_s": "s" for v in workloads.CLI_VERBS},
    "import.compmap_s": "s", "import.scipy_s": "s",
    "pool.trace.w2_over_w1": "ratio", "pool.raster.w2_over_w1": "ratio",
    "trace_overhead_frac": "fraction",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def child(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=_child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Running passes and checking outputs


@dataclass
class Result:
    op: workloads.Op
    seconds: float  # wall time of the call
    out: Any  # None when the call raised
    error: str | None
    scaled: float = 0.0  # seconds at the reference host speed (run_pass)


# Timing on a shared host. The host this benchmark was written on shares its
# CPUs with other machines: each vCPU flips between a fast and a 2x slower
# state about once a second, so raw wall times of ten runs spread by 25-60 %.
# Every timing is therefore divided by the host's momentary slowness,
# measured right before and after the timed call by code that runs no
# compmap code (so a change to compmap cannot move it). The reference
# constants are the calibration times of that host in its fast state.
LOOP_REF_S = 0.0025
PROCESS_REF_S = 0.11


def _calibration_guard(d: float) -> float:
    if abs(d) < 1e-12:
        raise ZeroDivisionError(d)
    return d


def _calibration_step(b1, b2, c1, c2, x, y):
    d1 = _calibration_guard(1.0 + x + c1 * y)
    d2 = _calibration_guard(1.0 + y + c2 * x)
    return b1 * x / d1, b2 * y / d2


_CALIBRATION_MAP = functools.partial(_calibration_step, 2.0, 3.0, 0.5, 2.0)


def loop_slowness() -> float:
    """Slowness for in-process calls: a loop shaped like classify_side's orbit
    iteration (a partial-bound rational step with guarded denominators,
    finiteness and step-size tests), timed against LOOP_REF_S."""
    step, isfinite = _CALIBRATION_MAP, math.isfinite
    x, y = 0.3, 0.4
    t0 = time.perf_counter()
    for _ in itertools.repeat(None, 4000):
        xn, yn = step(x, y)
        if not (isfinite(xn) and isfinite(yn)) or max(abs(xn - x), abs(yn - y)) < 0.0:
            break
        x, y = xn, yn
    return (time.perf_counter() - t0) / LOOP_REF_S


def process_slowness() -> float:
    """Slowness for whole processes (CLI calls, set-up children), which are
    mostly interpreter start-up and imports: a fresh interpreter importing
    numpy, timed against PROCESS_REF_S."""
    t0 = time.perf_counter()
    r = child([sys.executable, "-c", "import numpy"], WORK)
    if r.returncode != 0:
        raise RuntimeError(f"calibration child failed:\n{r.stderr.decode()}")
    return (time.perf_counter() - t0) / PROCESS_REF_S


def run_pass(ops, tracer=None, slowness=None) -> list:
    """Run ops once each; given a slowness function, also fill Result.scaled.

    Each timed call is bracketed by slowness measurements and its wall time
    divided by their mean; a stretch of consecutive untimed calls (the T*
    start points) shares one bracket.
    """
    results, marks = [], []  # marks: (index of first result, slowness)
    for op in ops:
        if slowness and (op.timed_call or not results or results[-1].op.timed_call):
            marks.append((len(results), slowness()))
        t0 = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.op(f"op:{op.name}", "pass", op.run)
            error = None
        except Exception as e:  # one failed call must not stop the run
            out = None
            error = f"{type(e).__name__}: {e}"
            print(f"perfbench: {op.name} raised\n{traceback.format_exc()}",
                  file=sys.stderr)
        results.append(Result(op, time.perf_counter() - t0, out, error))
    if slowness:
        marks.append((len(results), slowness()))
        for (i, s0), (j, s1) in zip(marks, marks[1:]):
            for r in results[i:j]:
                r.scaled = r.seconds * 2.0 / (s0 + s1)
    return results


FLAGGED = re.compile(r"(\d+) columns flagged")
SKIPPED = re.compile(r"(\d+) columns skipped")
_CENSUS = re.compile(rb"^(undecided|singular): (\d+)$", re.M)


def note_count(pattern, notes) -> int:
    return sum(int(m.group(1)) for n in notes for m in [pattern.search(n)] if m)


def undecided(r) -> tuple:
    """(undecided cells + flagged columns, cells + columns) of one output."""
    if r.error is not None:
        return 0, 0
    if r.op.fn == "trace_stable_curve":
        return note_count(FLAGGED, r.out.notes), r.op.units
    if r.op.fn == "raster":
        c = r.out.census()
        return c["undecided"] + c["singular"], r.op.units
    if r.op.fn == "cli:curve":
        return note_count(FLAGGED, r.out[3].splitlines()), r.op.ctx["columns"]
    if r.op.fn == "cli:basin":
        return sum(int(n) for _k, n in _CENSUS.findall(r.out[1])), r.op.ctx["cells"]
    return 0, 0


def end_to_end(workload, timed, setup) -> dict:
    passes, failed, und_n, und_d = timed
    results = [r for p in passes for r in p]
    calls = sorted(r.scaled for r in results if r.op.timed_call)
    p50, tail = np.percentile(calls, [50, TAIL_PCT[workload]])
    units = sum(r.op.units for r in results if r.error is None)
    busy = sum(r.scaled for r in results)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    raw_busy = sum(r.seconds for r in results)
    print(f"perfbench: {workload}: {len(passes)} passes, {len(results)} calls, "
          f"{len(calls)} timed calls (tail = p{TAIL_PCT[workload]}), "
          f"{len(failed)} failed; unscaled work_per_s {units / raw_busy:.6g}, "
          f"host speed {busy / raw_busy:.3f} of the reference", flush=True)
    vals = {
        "setup_s": statistics.median(setup),
        "work_per_s": units / busy,
        "call_s.p50": p50,
        "call_s.tail": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(failed) / len(results),
        "decided_frac": 1.0 - und_n / und_d if und_d else 1.0,
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in vals.items()}


def measure_setup(workload, seed) -> list:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, calibrated."""
    runs, s0 = [], process_slowness()
    for _ in range(SETUP_REPEATS):
        r = child([sys.executable, str(HERE / "setup_child.py"), workload,
                   str(seed)], WORK)
        s1 = process_slowness()
        if r.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{r.stderr.decode()}")
        setup_s = json.loads(r.stdout.decode().splitlines()[-1])["setup_s"]
        runs.append(setup_s * 2.0 / (s0 + s1))
        s0 = s1
    return runs


def timed_passes(ops, seconds, checker, slowness) -> tuple:
    """Whole calibrated passes until `seconds` have gone by.

    Each pass is checked as soon as it ends, outside the timed calls, and
    its outputs are dropped, so memory does not grow with the run length.
    Returns (passes, failures, undecided count, cells + columns).
    """
    passes, failed, und_n, und_d = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        results = run_pass(ops, slowness=slowness)
        failed += checker.failures(results)
        for r in results:
            n, d = undecided(r)
            und_n, und_d = und_n + n, und_d + d
            r.out = None
        passes.append(results)
    return passes, failed, und_n, und_d


# ---------------------------------------------------------------------------
# CLI operations


def cli_ops(cmds, tmp: Path, inprocess: bool) -> list:
    ops = []
    for c in cmds:
        stem = ("inproc-" if inprocess else "proc-") + c.name.replace(":", "-")
        out_path = tmp / f"{stem}.{c.out_ext}" if c.out_ext else None
        argv = list(c.argv) + (["--out", str(out_path)] if out_path else [])
        if inprocess:
            def run(argv=argv, out_path=out_path):
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    rc = compmap.cli.main(argv)
                body = out_path.read_bytes() if out_path else b""
                return rc, so.getvalue().encode(), body, se.getvalue()
        else:
            def run(argv=argv, out_path=out_path):
                p = child([sys.executable, "-m", "compmap.cli", *argv], tmp)
                body = out_path.read_bytes() if out_path and p.returncode == 0 else b""
                return p.returncode, p.stdout, body, p.stderr.decode()
        ctx = {}
        if c.verb == "curve":
            ctx["columns"] = int(cli_checks.flag(argv, "--columns"))
        elif c.verb == "basin":
            ctx["cells"] = (int(cli_checks.flag(argv, "--nx"))
                            * int(cli_checks.flag(argv, "--ny")))
        ops.append(workloads.Op(name=c.name, fn=f"cli:{c.verb}", run=run, kind="cli",
                                units=1, timed_call=True, ctx=ctx))
    return ops


def attach_cli_references(ops, reference_results, cmds, tmp):
    """The in-process result and a direct library check for each command.

    A failed in-process run leaves no reference, so the command's check fails.
    """
    for op, ref, cmd in zip(ops, reference_results, cmds):
        ok = ref.error is None and ref.out[0] == 0
        op.ctx["reference"] = (ref.out[1], ref.out[2]) if ok else None
        op.ctx["library_check"] = cli_checks.library_check(cmd, tmp)


# ---------------------------------------------------------------------------
# Runs


def run_plain(workload, seed, seconds) -> tuple:
    setup = measure_setup(workload, seed)
    checker = oracles.Checker()
    if workload == "cli":
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            tmp = Path(d)
            cmds = workloads.cli_setup(seed)
            ops = cli_ops(cmds, tmp, inprocess=False)
            # warm-up: the in-process reference pass and one discarded process
            attach_cli_references(ops, run_pass(cli_ops(cmds, tmp, True)), cmds, tmp)
            run_pass(ops[:1])
            timed = timed_passes(ops, seconds, checker, process_slowness)
    else:
        ops = workloads.BUILDERS[workload](seed)
        checker.failures(run_pass(ops))  # warm-up; its outputs are checked
        timed = timed_passes(ops, seconds, checker, loop_slowness)
    passes, failed = timed[0], timed[1]
    for name, reason in failed[:10]:
        print(f"perfbench: check failed: {name}: {reason}", file=sys.stderr)
    attempted = sum(len(p) for p in passes)
    return attempted, failed, [], end_to_end(workload, timed, setup)
