"""In-memory spans and map-evaluation counts for the traced benchmark run.

The tracer replaces public compmap functions with span-recording wrappers
on every compmap module that holds them, so both the benchmark's own calls
and the calls the library makes through module globals (for example
`compmap.curves.classify_side` inside column bisection, or
`compmap.curves.check_invariant_curve_hypotheses` inside tracing) are
recorded. No library source is edited and `uninstall` restores every name.

Map evaluations are counted by wrapping `PlanarMap.step` and `.jac` with
`dataclasses.replace`. Every evaluation entry point the library has today
goes through these two callables; a change that adds another must extend
`counted` in a change of its own that touches only the benchmark.
"""

from __future__ import annotations

import csv
import functools
import re
import sys
import time
from dataclasses import replace

# Public functions whose calls become spans, on whichever compmap module
# binds them.
TRACED = (
    "trace_stable_curve", "trace_unstable_curve", "locate_ordinate",
    "classify_side", "check_invariant_curve_hypotheses",
    "check_boundary_endpoint_conditions", "raster", "continuity_probe",
    "limit_equilibrium", "find_fixed_point", "find_period_two",
    "taylor_along_eigenvector", "check_competitive", "check_O_condition",
    "orbit", "make_example", "expr_map", "find_ex5_two_equilibria",
    "ex5_equilibria",
)


class _Counted:
    __slots__ = ("fn", "box")

    def __init__(self, fn, box):
        self.fn = fn
        self.box = box

    def __call__(self, x, y):
        self.box[0] += 1
        return self.fn(x, y)


class Tracer:
    """Spans (id, name, start, end, parent, run) plus evaluation counters.

    A run is one benchmark operation; every span it causes shares its id.
    """

    def __init__(self):
        self.spans = []  # (sid, name, start_ns, end_ns, parent, run, evals0, evals1)
        self.phase_of_run = {}
        self.verdicts = []  # (run, label, iterations_used) per classify_side call
        self.evals = [0]
        self.jac_evals = [0]
        self._stack = []  # (sid, run)
        self._next = 1
        self._restore = []

    # -- counting ------------------------------------------------------------

    def counted(self, m):
        """A copy of PlanarMap m whose step/jac calls are counted."""
        jac = None if m.jac is None else _Counted(m.jac, self.jac_evals)
        return replace(m, step=_Counted(m.step, self.evals), jac=jac)

    # -- spans ---------------------------------------------------------------

    def op(self, name: str, phase: str, fn):
        """Run fn() as the root span of a new run tagged with phase."""
        self.phase_of_run[self._next] = phase
        return self._span(name, fn, new_run=True)()

    def _span(self, name, fn, new_run=False):
        spans, stack, evals = self.spans, self._stack, self.evals
        observe = self._observe_verdict if name == "classify_side" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent, run = stack[-1] if stack else (0, sid)
            if new_run:
                parent, run = 0, sid
            stack.append((sid, run))
            ev0 = evals[0]
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, run, ev0, evals[0]))
            if observe is not None:
                observe(run, out)
            return out

        return traced

    def _observe_verdict(self, run, v):
        self.verdicts.append((run, v.label, v.iterations_used))

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap the TRACED functions on every loaded compmap module, and make
        the CLI count the evaluations of the maps it builds."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "compmap" or n.startswith("compmap.")]
        originals = {}
        for mod in modules:
            for name in TRACED:
                fn = getattr(mod, name, None)
                if fn is not None and callable(fn):
                    originals.setdefault(id(fn), (name, fn))
        wrappers = {key: self._span(name, fn) for key, (name, fn) in originals.items()}
        for mod in modules:
            for name in TRACED:
                fn = getattr(mod, name, None)
                if fn is not None and id(fn) in wrappers:
                    self._restore.append((mod, name, fn))
                    setattr(mod, name, wrappers[id(fn)])
        self._count_cli_maps(sys.modules["compmap.cli"])

    def _count_cli_maps(self, cli):
        make_example, expr_map = cli.make_example, cli.expr_map

        def counted_example(*args, **kwargs):
            s = make_example(*args, **kwargs)
            return replace(s, map=self.counted(s.map))

        def counted_expr_map(*args, **kwargs):
            return self.counted(expr_map(*args, **kwargs))

        self._restore.append((cli, "make_example", make_example))
        self._restore.append((cli, "expr_map", expr_map))
        cli.make_example = counted_example
        cli.expr_map = counted_expr_map

    def uninstall(self):
        while self._restore:
            mod, name, fn = self._restore.pop()
            setattr(mod, name, fn)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """sid -> span duration minus the time its child spans cover (ns)."""
        child = {}
        for sid, _n, t0, t1, parent, *_ in self.spans:
            if parent:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        return {s[0]: (s[3] - s[2]) - child.get(s[0], 0) for s in self.spans}

    def select(self, name: str, phases=None) -> list:
        return [s for s in self.spans if s[1] == name
                and (phases is None or self.phase_of_run.get(s[5]) in phases)]

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "run",
                          "phase", "evals_start", "evals_end"))
            for sid, name, t0, t1, parent, run, e0, e1 in self.spans:
                out.writerow((sid, name, t0, t1, parent, run,
                              self.phase_of_run.get(run, ""), e0, e1))


# ---------------------------------------------------------------------------
# `python -X importtime` breakdown

_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_breakdown(stderr: str) -> dict:
    """Cumulative seconds of `compmap` and of every scipy import under it.

    -X importtime prints a module after its children, indented by depth, so
    a line's children are the deeper lines printed since the last line at
    its own depth or shallower.
    """
    nodes = []  # (depth, name, cumulative_us, children)
    pending = {}  # depth -> children waiting for their parent
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = (len(m.group(3)) - 1) // 2
        node = (depth, m.group(4), int(m.group(2)), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
        nodes.append(node)

    def scipy_us(node):
        if node[1] == "scipy" or node[1].startswith("scipy."):
            return node[2]
        return sum(scipy_us(c) for c in node[3])

    roots = pending.get(0, [])
    compmap = [n for n in nodes if n[1] == "compmap"]
    return {"compmap_s": sum(n[2] for n in compmap) / 1e6,
            "scipy_s": sum(scipy_us(n) for n in roots) / 1e6}
