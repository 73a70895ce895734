"""Command-line front end.

Verbs: analyze | curve | basin | orbit | examples. Exit codes are a stable
contract: 0 success, 2 configuration error, 3 map-evaluation failure,
4 hypothesis failure.

Options may come from flags or from a key=value config file (--config);
flags override the file. Every output file embeds the resolved configuration
as '# key=value' comment lines, and re-running from that echo reproduces the
file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

from .errors import (ConstraintError, HypothesisError, MapEvalError,
                     NoConvergenceError, ParseError, UnboundParameterError,
                     check_window)
from .expr import expr_map
from .fixedpoints import (NEWTON_TOL, NONHYPERBOLIC_TOL, FixedPointRecord,
                          _boundary_reports, _find_fixed_points,
                          check_invariant_curve_hypotheses)
from .classification import (classify_hyperbolic_ray, classify_nonhyperbolic,
                             taylor_along_eigenvector)
from .geometry import Point2, Rect
from .planarmap import (SIDE_MODES, _sample_grid, check_competitive,
                        check_O_condition, orbit)
from .systems import (DEFAULT_PARAMS, DESCRIPTIONS, EXAMPLE_IDS, make_example)

_FMT = "{:.17g}"


def _fmt(v: float) -> str:
    return _FMT.format(float(v))


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Options. Each verb lists the options it reads, once; the table builds the
# argparse subparser, the defaults, the keys a config file may set and the
# echo. The canonical configuration is a flat dict of strings, exactly as
# written in a config file; flags are folded into it.


@dataclass(frozen=True)
class _Opt:
    """One option of a verb, keyed by its flag name with '-' read as '_'.

    default is the config string when neither flag nor file sets it (None:
    unset). A value must parse as type and be one of choices, if given. A
    repeated flag joins its values with ';'; a const flag takes no value.
    """

    flag: str
    default: Optional[str] = None
    type: type = str
    choices: tuple = ()
    help: Optional[str] = None
    metavar: Optional[str] = None
    repeat: bool = False
    const: Optional[str] = None
    echo: bool = True

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_MAP = (_Opt("--example", help="built-in system id (see 'examples')"),
        _Opt("--param", metavar="K=V", repeat=True,
             help="parameter binding, repeatable"),
        _Opt("--f", help="first map component (expression)"),
        _Opt("--g", help="second map component (expression)"))
_GUESS = _Opt("--guess", metavar="X,Y", repeat=True,
              help="fixed-point guess, repeatable")
_WINDOW = _Opt("--window", metavar="XLO,XHI,YLO,YHI")
_OUT = _Opt("--out", help="output file path", echo=False)
_MODE = _Opt("--mode", choices=SIDE_MODES)

_VERBS = {
    "analyze": ("find and classify fixed points", _MAP + (
        _GUESS, replace(_WINDOW, default="0,5,0,5"), _OUT,
        _Opt("--format", "text", choices=("text", "json")),
        _Opt("--tol", "1e-10", float))),
    "curve": ("trace the stable (or unstable) curve", _MAP + (
        _GUESS, _WINDOW, _OUT, _Opt("--format", "csv", choices=("csv",)),
        _Opt("--tol", "1e-8", float), _Opt("--max-iter", "50000", int),
        _Opt("--columns", "256", int), _MODE,
        _Opt("--unstable", "false", choices=("false", "true"), const="true"),
        _Opt("--steps", "100", int, help="unstable-curve iteration count"),
        _Opt("--seed-radius", "1e-4", float))),
    "basin": ("rasterize the basin decomposition", _MAP + (
        _GUESS, _WINDOW, _OUT, _Opt("--format", "pgm", choices=("pgm", "csv")),
        _Opt("--tol", "1e-12", float), _Opt("--max-iter", "5000", int),
        _Opt("--nx", "128", int), _Opt("--ny", "128", int), _MODE,
        _Opt("--epsilon", type=float, help="verdict margin"))),
    "orbit": ("write orbit iterates as CSV", _MAP + (
        _Opt("--start", metavar="X,Y"),
        _Opt("--n", "1000", int, help="maximum number of steps"),
        _OUT, _Opt("--format", "csv", choices=("csv",)),
        _Opt("--tol", "1e-12", float))),
    "examples": ("list built-in systems",
                 (_Opt("--format", "text", choices=("text", "json")),)),
}
_OPTIONS = {verb: {o.key: o for o in opts} for verb, (_, opts) in _VERBS.items()}

# Keys an output records that no option sets (besides 'command'): a basin
# file records the raster's resolved map and fixed point. A config file made
# from an echo may carry them; they follow from the options and are ignored.
_RECORDED = {"basin": ("map", "fp")}


def _read_config_file(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _CliError(2, f"{path}:{ln}: expected key=value")
                k, v = line.split("=", 1)
                cfg[k.strip()] = v.strip()
    except OSError as e:
        raise _CliError(2, f"cannot read config file: {e}")
    return cfg


def _parse(o: _Opt, raw: str):
    """raw as a value of o; exit 2 unless it parses and is allowed."""
    try:
        value = o.type(raw)
    except ValueError:
        what = {int: "an integer", float: "a number"}[o.type]
        raise _CliError(2, f"option {o.key!r} needs {what}, got {raw!r}")
    if o.choices and raw not in o.choices:
        raise _CliError(2, f"option {o.key!r} must be one of "
                           f"{', '.join(o.choices)}; got {raw!r}")
    return value


def _fold_args(cmd: str, args: argparse.Namespace) -> dict:
    """The verb's defaults, overridden by the config file, then by flags."""
    table = _OPTIONS[cmd]
    cfg = {k: o.default for k, o in table.items() if o.default is not None}
    cfg["command"] = cmd
    if args.config:
        for k, v in _read_config_file(args.config).items():
            option = "param" if k.startswith("param.") else k
            if (option in table and k != "param") or k in _RECORDED.get(cmd, ()):
                cfg[k] = v
            elif k != "command":
                raise _CliError(2, f"{args.config}: {cmd} reads no option {k!r}")
    for k, o in table.items():
        v = getattr(args, k)
        if v is None:
            continue
        if k == "param":
            for item in v:
                if "=" not in item:
                    raise _CliError(2, f"--param expects k=v, got {item!r}")
                name, value = item.split("=", 1)
                cfg[f"param.{name.strip()}"] = value.strip()
        else:
            cfg[k] = ";".join(v) if o.repeat else str(_parse(o, v))
    for k in [k for k in table if k in cfg]:  # file values a flag left standing
        _parse(table[k], cfg[k])
    return cfg


def _value(cfg: dict, key: str):
    """A folded option as its type; the fold has checked that it parses."""
    return _OPTIONS[cfg["command"]][key].type(cfg[key])


def _echoed(cfg: dict) -> dict:
    """The folded options an output records, sorted by key."""
    table = _OPTIONS[cfg["command"]]
    return {k: cfg[k] for k in sorted(cfg) if k not in table or table[k].echo}


def _write_csv(cfg: dict, header: str, rows) -> None:
    """The echo, header and rows to --out, else to stdout."""
    text = "\n".join([f"# {k}={v}" for k, v in _echoed(cfg).items()]
                     + [header] + list(rows)) + "\n"
    if cfg.get("out"):
        _save(cfg["out"], text)
    else:
        sys.stdout.write(text)


def _save(path: str, text: str) -> None:
    """text to the file path; exit 2 if it cannot be written."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise _CliError(2, f"cannot write {path}: {e.strerror}")


def _cfg_window(cfg: dict) -> Rect:
    raw = cfg.get("window")
    if raw is None:
        raise _CliError(2, "a --window xlo,xhi,ylo,yhi is required")
    parts = raw.split(",")
    if len(parts) != 4:
        raise _CliError(2, f"malformed window {raw!r}: expected xlo,xhi,ylo,yhi")
    try:
        vals = [float(p) for p in parts]
        w = Rect(vals[0], vals[1], vals[2], vals[3])
    except ValueError as e:
        raise _CliError(2, f"malformed window {raw!r}: {e}")
    check_window(cfg["command"], w)  # main reports its ValueError with exit 2
    return w


def _cfg_point(raw: str, what: str) -> Point2:
    parts = raw.split(",")
    if len(parts) != 2:
        raise _CliError(2, f"malformed {what} {raw!r}: expected x,y")
    try:
        p = Point2(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise _CliError(2, f"malformed {what} {raw!r}: {e}")
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise _CliError(2, f"{what} {raw!r} must be finite")
    return p


def _cfg_params(cfg: dict) -> dict:
    params = {}
    for k, v in cfg.items():
        if k.startswith("param."):
            try:
                value = float(v)
            except ValueError:
                raise _CliError(2, f"parameter {k[6:]!r} needs a number, got {v!r}")
            if not math.isfinite(value):
                raise _CliError(2, f"parameter {k[6:]!r} needs a finite number, "
                                   f"got {v!r}")
            params[k[len("param."):]] = value
    return params


def _build_map(cfg: dict):
    """Return (map, example_system_or_None) from example id or expressions."""
    params = _cfg_params(cfg)
    eid = cfg.get("example")
    has_expr = "f" in cfg or "g" in cfg
    if eid and has_expr:
        raise _CliError(2, "give either --example or --f/--g, not both")
    if eid:
        try:
            sys_ = make_example(eid, params)
        except ConstraintError as e:
            raise _CliError(2, str(e))
        return sys_.map, sys_
    if has_expr:
        if "f" not in cfg or "g" not in cfg:
            raise _CliError(2, "a map needs both --f and --g expressions")
        try:
            m = expr_map(cfg["f"], cfg["g"], params)
        except (ParseError, UnboundParameterError) as e:
            raise _CliError(2, f"bad expression: {e}")
        return m, None
    raise _CliError(2, "select a map: --example ID or --f EXPR --g EXPR")


def _resolve_fixed_points(cfg: dict, m, sys_, window: Rect,
                          tol: float) -> list:
    if cfg.get("guess"):
        X, Y = zip(*(_cfg_point(raw, "guess") for raw in cfg["guess"].split(";")))
    elif sys_ is not None and sys_.fixtures:
        X, Y = zip(*(f.point for f in sys_.fixtures))
    else:
        X, Y = _sample_grid(window, 36)
    roots = []
    eval_failures = 0
    for rec in _find_fixed_points(m, X, Y, tol=tol):
        if isinstance(rec, MapEvalError):
            eval_failures += 1
            continue
        if isinstance(rec, NoConvergenceError):
            continue
        if isinstance(rec, Exception):
            raise rec
        if not any(rec.location.dist_inf(r.location) < 1e-6 for r in roots):
            roots.append(rec)
    if not roots and eval_failures == len(X) and len(X):
        raise _CliError(3, "the map could not be evaluated at any start point")
    return roots


def _first_fixed_point(cfg: dict) -> tuple:
    """(map, window, the first fixed point resolved) of a curve or basin
    run; exit 3 when none resolves."""
    m, sys_ = _build_map(cfg)
    window = _cfg_window(cfg)
    roots = _resolve_fixed_points(cfg, m, sys_, window, NEWTON_TOL)
    if not roots:
        raise _CliError(3, "no fixed point could be resolved from the guesses")
    return m, window, roots[0]


def _local_verdict(m, rec: FixedPointRecord):
    e = rec.eigen
    if not e.real_distinct:
        return None
    for val, vec in ((e.mu, e.v_mu), (e.lam, e.v_lam)):
        if vec is None or not (vec.x * vec.y < 0):
            continue
        if abs(val - 1.0) <= NONHYPERBOLIC_TOL:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    ray = taylor_along_eigenvector(m, rec.location, vec)
                except (MapEvalError, ValueError):
                    return None
            v = classify_nonhyperbolic(ray)
            return {"case": v.case_id, "ell": v.ell, "condition": v.detail,
                    "coefficients": [list(c) for c in ray.coeffs],
                    "conclusion": v.conclusion}
        try:
            v = classify_hyperbolic_ray(val, vec)
        except HypothesisError:
            continue
        return {"case": v.case_id, "ell": None, "condition": v.detail,
                "conclusion": v.conclusion}
    return None


# ---------------------------------------------------------------------------
# Commands


def _cmd_analyze(cfg: dict) -> int:
    m, sys_ = _build_map(cfg)
    window = _cfg_window(cfg)
    roots = _resolve_fixed_points(cfg, m, sys_, window, _value(cfg, "tol"))

    comp = check_competitive(m, window)
    ocond = check_O_condition(m, window)
    report = {"config": _echoed(cfg),
              "map": m.name,
              "competitivity": str(comp),
              "o_condition": ocond.verdict,
              "fixed_points": []}
    for rec, thm2 in zip(roots, _boundary_reports(m, roots, window)):
        thm1 = check_invariant_curve_hypotheses(m, rec, window)
        entry = {
            "location": [rec.location.x, rec.location.y],
            "residual": rec.residual,
            "classification": rec.classification,
            "eigenvalues": [rec.eigen.lam, rec.eigen.mu],
            "eigenvectors": [list(v) if v is not None else None
                             for v in (rec.eigen.v_lam, rec.eigen.v_mu)],
            "invariant_curve_hypotheses": {
                "delta_nonempty": thm1.delta_nonempty,
                "eigen_ok": thm1.eigen_ok,
                "eigenvector_off_axis": thm1.eigenvector_off_axis,
                "strongly_competitive": thm1.strongly_competitive,
                "all": thm1.all_pass,
            },
            "boundary_endpoint_conditions": {
                "i": thm2.condition_i, "ii": thm2.condition_ii,
                "iii": thm2.condition_iii, "det": thm2.det_at_fp,
            },
            "local_dynamics": _local_verdict(m, rec),
        }
        report["fixed_points"].append(entry)

    if cfg["format"] == "json":
        text = json.dumps(report, indent=2)
    else:
        lines = [f"map: {m.name}",
                 f"competitivity: {report['competitivity']}",
                 f"orientation condition: {ocond.verdict}",
                 f"fixed points found: {len(roots)}"]
        for entry in report["fixed_points"]:
            x, y = entry["location"]
            lines.append(f"- ({_fmt(x)}, {_fmt(y)})  [{entry['classification']}]"
                         f"  residual {entry['residual']:.2e}")
            lam, mu = entry["eigenvalues"]
            lines.append(f"    eigenvalues: {_fmt(lam)}, {_fmt(mu)}")
            h = entry["invariant_curve_hypotheses"]
            lines.append("    invariant-curve hypotheses: "
                         + ("PASS" if h["all"] else
                            "FAIL (" + ", ".join(k for k, v in h.items()
                                                 if k != "all" and not v) + ")"))
            b = entry["boundary_endpoint_conditions"]
            lines.append(f"    boundary-endpoint conditions: i={b['i']} "
                         f"ii={b['ii']} iii={b['iii']} (det={_fmt(b['det'])})")
            loc = entry["local_dynamics"]
            if loc is not None:
                extra = f", l={loc['ell']}" if loc.get("ell") else ""
                lines.append(f"    local dynamics: {loc['case']}"
                             f" (condition {loc['condition']}{extra});"
                             f" {loc['conclusion']}")
        text = "\n".join(lines)

    print(text)
    if cfg.get("out"):
        if cfg["format"] == "text":
            text = "".join(f"# {k}={v}\n" for k, v in report["config"].items()) + text
        _save(cfg["out"], text + "\n")
    return 0


def _cmd_curve(cfg: dict) -> int:
    from .curves import CurveOptions, trace_stable_curve, trace_unstable_curve

    m, window, fp = _first_fixed_point(cfg)
    if cfg["unstable"] == "true":
        curve = trace_unstable_curve(m, fp, steps=_value(cfg, "steps"),
                                     seed_radius=_value(cfg, "seed_radius"))
    else:
        opts = CurveOptions(columns=_value(cfg, "columns"),
                            curve_tol=_value(cfg, "tol"),
                            mode=cfg.get("mode"),
                            max_iter=_value(cfg, "max_iter"))
        curve = trace_stable_curve(m, fp, window, opts)

    _write_csv(cfg, "x,y", (f"{v.x:.17g},{v.y:.17g}" for v in curve.vertices))
    print(f"# vertices: {len(curve.vertices)}", file=sys.stderr)
    print(f"# monotonicity: strictly {curve.monotonicity} (verified)",
          file=sys.stderr)
    print(f"# endpoints: left {curve.endpoint_left}; right {curve.endpoint_right}",
          file=sys.stderr)
    for note in curve.notes:
        print(f"# note: {note}", file=sys.stderr)
    return 0


def _cmd_basin(cfg: dict) -> int:
    from .basins import raster, raster_options, raster_to_csv, raster_to_pgm

    if not cfg.get("out"):
        raise _CliError(2, "basin needs an --out path")
    m, window, fp = _first_fixed_point(cfg)
    nx = _value(cfg, "nx")
    ny = _value(cfg, "ny")
    overrides = {"max_iter": _value(cfg, "max_iter"),
                 "conv_tol": _value(cfg, "tol")}
    if "mode" in cfg:
        overrides["mode"] = cfg["mode"]
    if "epsilon" in cfg:
        overrides["epsilon_margin"] = _value(cfg, "epsilon")
    opts = replace(raster_options(m, window), **overrides)
    r = raster(m, fp.location, window, nx, ny, opts)
    census = r.census()
    total = nx * ny
    if census["singular"] > 0.5 * total:
        raise _CliError(3, f"{census['singular']}/{total} cells hit singularities")
    # the echo's tol and epsilon record conv_tol and epsilon_margin, the
    # margin as resolved, so the file records each setting once
    meta = {k: v for k, v in r.meta.items() if k not in ("conv_tol", "epsilon_margin")}
    for k, v in _echoed({**cfg, "epsilon": repr(opts.epsilon_margin)}).items():
        meta.setdefault(k, v)
    r = type(r)(window=r.window, nx=r.nx, ny=r.ny, labels=r.labels, meta=meta)
    _save(cfg["out"], raster_to_pgm(r) if cfg["format"] == "pgm" else raster_to_csv(r))
    for name, count in census.items():
        print(f"{name}: {count}")
    return 0


def _cmd_orbit(cfg: dict) -> int:
    m, _sys = _build_map(cfg)
    if "start" not in cfg:
        raise _CliError(2, "orbit needs a --start x,y")
    start = _cfg_point(cfg["start"], "start")
    try:
        orb = orbit(m, start, max_iter=_value(cfg, "n"),
                    conv_tol=_value(cfg, "tol"))
    except MapEvalError as e:
        raise _CliError(3, f"cannot start the orbit: {e}")
    if len(orb.points) == 1 and orb.terminated_by == "singularity":
        raise _CliError(3, "singularity at step 0")
    _write_csv(cfg, "n,x,y", (f"{k},{p.x:.17g},{p.y:.17g}"
                              for k, p in enumerate(orb.points)))
    print(f"# terminated_by: {orb.terminated_by}", file=sys.stderr)
    return 0


def _cmd_examples(cfg: dict) -> int:
    entries = []
    for eid in EXAMPLE_IDS:
        entries.append({"id": eid, "description": DESCRIPTIONS[eid],
                        "default_params": DEFAULT_PARAMS[eid]})
    if cfg["format"] == "json":
        print(json.dumps(entries, indent=2))
    else:
        for e in entries:
            print(f"{e['id']}: {e['description']}")
            if e["default_params"]:
                joined = ", ".join(f"{k}={v:g}"
                                   for k, v in e["default_params"].items())
                print(f"    defaults: {joined}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="compmap",
                                 description="planar competitive map analysis")
    sub = ap.add_subparsers(dest="command", required=True)
    for verb, (about, opts) in _VERBS.items():
        p = sub.add_parser(verb, help=about)
        for o in opts:
            action = "store_const" if o.const else "append" if o.repeat else "store"
            metavar = o.metavar or ("{%s}" % ",".join(o.choices) if o.choices else None)
            p.add_argument(o.flag, action=action, const=o.const, metavar=metavar,
                           help=o.help)
        p.add_argument("--config", help="key=value config file; flags override")
    return ap


_COMMANDS = {"analyze": _cmd_analyze, "curve": _cmd_curve, "basin": _cmd_basin,
             "orbit": _cmd_orbit, "examples": _cmd_examples}


def main(argv: Optional[list] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = _COMMANDS[args.command](_fold_args(args.command, args))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone; point fd 1 at devnull so that the flush at
        # exit cannot raise again (the SIGPIPE recipe of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ValueError, UnboundParameterError) as e:  # Constraint/ParseError too
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return 4
    except (MapEvalError, NoConvergenceError) as e:
        print(f"evaluation failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
