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
import sys
import warnings
from dataclasses import replace
from typing import Optional

from .errors import (ConstraintError, HypothesisError, MapEvalError,
                     NoConvergenceError, ParseError, UnboundParameterError)
from .expr import expr_map
from .fixedpoints import (FixedPointRecord, check_invariant_curve_hypotheses,
                          find_fixed_point)
from .classification import (classify_hyperbolic_ray, classify_nonhyperbolic,
                             taylor_along_eigenvector)
from .curves import (CurveOptions, check_boundary_endpoint_conditions,
                     trace_stable_curve, trace_unstable_curve)
from .basins import raster, raster_options, save_raster
from .geometry import Point2, Rect
from .planarmap import check_competitive, check_O_condition, orbit
from .systems import (DEFAULT_PARAMS, DESCRIPTIONS, EXAMPLE_IDS, make_example)

_FMT = "{:.17g}"


def _fmt(v: float) -> str:
    return _FMT.format(float(v))


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Configuration handling. The canonical configuration is a flat dict of
# strings, exactly as written in a config file; flags are folded into it.

_DEFAULTS = {
    "analyze": {"window": "0,5,0,5", "tol": "1e-10", "max_iter": "1000",
                "format": "text"},
    "curve": {"tol": "1e-8", "max_iter": "50000", "columns": "256",
              "format": "csv", "unstable": "false", "steps": "100",
              "seed_radius": "1e-4", "workers": "1"},
    "basin": {"nx": "128", "ny": "128", "tol": "1e-12", "max_iter": "5000",
              "format": "pgm", "workers": "1"},
    "orbit": {"n": "1000", "tol": "1e-12", "format": "csv"},
    "examples": {"format": "text"},
}

_ECHO_EXCLUDE = {"out", "workers", "config"}


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


def _fold_args(cmd: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[cmd])
    cfg["command"] = cmd
    if getattr(args, "config", None):
        file_cfg = _read_config_file(args.config)
        file_cfg.pop("command", None)
        cfg.update(file_cfg)
    for name in ("example", "f", "g", "window", "tol", "max_iter", "format",
                 "out", "nx", "ny", "columns", "mode", "steps", "seed_radius",
                 "start", "n", "workers", "epsilon"):
        v = getattr(args, name, None)
        if v is not None:
            cfg[name] = str(v)
    if getattr(args, "param", None):
        for item in args.param:
            if "=" not in item:
                raise _CliError(2, f"--param expects k=v, got {item!r}")
            k, v = item.split("=", 1)
            cfg[f"param.{k.strip()}"] = v.strip()
    if getattr(args, "guess", None):
        cfg["guess"] = ";".join(args.guess)
    if getattr(args, "unstable", None):
        cfg["unstable"] = "true"
    return cfg


def _echo_lines(cfg: dict) -> list:
    return [f"# {k}={cfg[k]}" for k in sorted(cfg) if k not in _ECHO_EXCLUDE]


def _cfg_float(cfg: dict, key: str) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError):
        raise _CliError(2, f"option {key!r} needs a number, got {cfg.get(key)!r}")


def _cfg_int(cfg: dict, key: str) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError):
        raise _CliError(2, f"option {key!r} needs an integer, got {cfg.get(key)!r}")


def _cfg_window(cfg: dict, require_bounded: bool = True) -> Rect:
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
    if require_bounded and not w.is_bounded():
        raise _CliError(2, f"window {raw!r} must be bounded")
    return w


def _cfg_point(raw: str, what: str) -> Point2:
    parts = raw.split(",")
    if len(parts) != 2:
        raise _CliError(2, f"malformed {what} {raw!r}: expected x,y")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise _CliError(2, f"malformed {what} {raw!r}: {e}")


def _cfg_params(cfg: dict) -> dict:
    params = {}
    for k, v in cfg.items():
        if k.startswith("param."):
            try:
                params[k[len("param."):]] = float(v)
            except ValueError:
                raise _CliError(2, f"parameter {k[6:]!r} needs a number, got {v!r}")
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
            m = expr_map(cfg["f"], cfg["g"], params,
                         domain=Rect(-math.inf, math.inf, -math.inf, math.inf),
                         name="expr-map")
        except (ParseError, UnboundParameterError) as e:
            raise _CliError(2, f"bad expression: {e}")
        return m, None
    raise _CliError(2, "select a map: --example ID or --f EXPR --g EXPR")


def _resolve_fixed_points(cfg: dict, m, sys_, window: Rect,
                          tol: float) -> list:
    guesses = []
    if cfg.get("guess"):
        for raw in cfg["guess"].split(";"):
            guesses.append(_cfg_point(raw, "guess"))
    elif sys_ is not None and sys_.fixtures:
        guesses = [f.point for f in sys_.fixtures]
    else:
        for i in range(6):
            for j in range(6):
                guesses.append(Point2(window.x_lo + (i + 0.5) * window.width() / 6,
                                      window.y_lo + (j + 0.5) * window.height() / 6))
    roots = []
    eval_failures = 0
    for g in guesses:
        try:
            rec = find_fixed_point(m, g, tol=tol)
        except MapEvalError:
            eval_failures += 1
            continue
        except NoConvergenceError:
            continue
        if not any(rec.location.dist_inf(r.location) < 1e-6 for r in roots):
            roots.append(rec)
    if not roots and eval_failures == len(guesses) and guesses:
        raise _CliError(3, "the map could not be evaluated at any start point")
    return roots


def _local_verdict(m, rec: FixedPointRecord):
    e = rec.eigen
    if not e.real_distinct:
        return None
    for val, vec in ((e.mu, e.v_mu), (e.lam, e.v_lam)):
        if vec is None or not (vec.x * vec.y < 0):
            continue
        if abs(val - 1.0) <= 1e-7:
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


def _cmd_analyze(args) -> int:
    cfg = _fold_args("analyze", args)
    m, sys_ = _build_map(cfg)
    window = _cfg_window(cfg)
    tol = _cfg_float(cfg, "tol")
    roots = _resolve_fixed_points(cfg, m, sys_, window, tol)

    comp = check_competitive(m, window)
    ocond = check_O_condition(m, window)
    report = {"config": {k: v for k, v in sorted(cfg.items())
                         if k not in _ECHO_EXCLUDE},
              "map": m.name,
              "competitivity": str(comp),
              "o_condition": ocond.verdict,
              "fixed_points": []}
    for rec in roots:
        thm1 = check_invariant_curve_hypotheses(m, rec, window)
        thm2 = check_boundary_endpoint_conditions(m, rec, window)
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

    if cfg.get("format") == "json":
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
        with open(cfg["out"], "w", newline="\n") as fh:
            if cfg.get("format") == "json":
                fh.write(json.dumps(report, indent=2) + "\n")
            else:
                fh.write("\n".join(_echo_lines(cfg)) + "\n" + text + "\n")
    return 0


def _cmd_curve(args) -> int:
    cfg = _fold_args("curve", args)
    m, sys_ = _build_map(cfg)
    window = _cfg_window(cfg)
    tol = _cfg_float(cfg, "tol")
    roots = _resolve_fixed_points(cfg, m, sys_, window, tol=1e-10)
    if not roots:
        raise _CliError(3, "no fixed point could be resolved from the guesses")
    fp = roots[0]
    workers = _cfg_int(cfg, "workers")
    unstable = cfg.get("unstable", "false").lower() in ("true", "1", "yes")
    if unstable:
        curve = trace_unstable_curve(m, fp, steps=_cfg_int(cfg, "steps"),
                                     seed_radius=_cfg_float(cfg, "seed_radius"))
    else:
        opts = CurveOptions(columns=_cfg_int(cfg, "columns"),
                            curve_tol=tol,
                            mode=cfg.get("mode"),
                            max_iter=_cfg_int(cfg, "max_iter"))
        curve = trace_stable_curve(m, fp, window, opts, workers=workers)

    out = cfg.get("out")
    lines = _echo_lines(cfg)
    lines.append("x,y")
    for v in curve.vertices:
        lines.append(f"{v.x:.17g},{v.y:.17g}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# vertices: {len(curve.vertices)}", file=sys.stderr)
    print(f"# monotonicity: strictly {curve.monotonicity} (verified)",
          file=sys.stderr)
    print(f"# endpoints: left {curve.endpoint_left}; right {curve.endpoint_right}",
          file=sys.stderr)
    for note in curve.notes:
        print(f"# note: {note}", file=sys.stderr)
    return 0


def _cmd_basin(args) -> int:
    cfg = _fold_args("basin", args)
    m, sys_ = _build_map(cfg)
    window = _cfg_window(cfg)
    fmt = cfg.get("format", "pgm")
    if fmt not in ("pgm", "csv"):
        raise _CliError(2, f"basin format must be pgm or csv, got {fmt!r}")
    roots = _resolve_fixed_points(cfg, m, sys_, window, tol=1e-10)
    if not roots:
        raise _CliError(3, "no fixed point could be resolved from the guesses")
    fp = roots[0].location
    nx = _cfg_int(cfg, "nx")
    ny = _cfg_int(cfg, "ny")
    if nx < 2 or ny < 2:
        raise _CliError(2, "raster needs nx, ny >= 2")
    overrides = {"max_iter": _cfg_int(cfg, "max_iter"),
                 "conv_tol": _cfg_float(cfg, "tol")}
    if "mode" in cfg:
        overrides["mode"] = cfg["mode"]
    if "epsilon" in cfg:
        overrides["epsilon_margin"] = _cfg_float(cfg, "epsilon")
    opts = replace(raster_options(m, window), **overrides)
    r = raster(m, fp, window, nx, ny, opts, workers=_cfg_int(cfg, "workers"))
    census = r.census()
    total = nx * ny
    if census["singular"] > 0.5 * total:
        raise _CliError(3, f"{census['singular']}/{total} cells hit singularities")
    meta = dict(r.meta)
    for k, v in sorted(cfg.items()):
        if k not in _ECHO_EXCLUDE:
            meta.setdefault(k, v)
    r = type(r)(window=r.window, nx=r.nx, ny=r.ny, labels=r.labels, meta=meta)
    out = cfg.get("out")
    if not out:
        raise _CliError(2, "basin needs an --out path")
    save_raster(r, out, fmt=fmt)
    for name, count in census.items():
        print(f"{name}: {count}")
    return 0


def _cmd_orbit(args) -> int:
    cfg = _fold_args("orbit", args)
    m, _sys = _build_map(cfg)
    if "start" not in cfg:
        raise _CliError(2, "orbit needs a --start x,y")
    start = _cfg_point(cfg["start"], "start")
    n = _cfg_int(cfg, "n")
    tol = _cfg_float(cfg, "tol")
    try:
        orb = orbit(m, start, max_iter=n, conv_tol=tol)
    except MapEvalError as e:
        raise _CliError(3, f"cannot start the orbit: {e}")
    if len(orb.points) == 1 and orb.terminated_by == "singularity":
        raise _CliError(3, "singularity at step 0")
    lines = _echo_lines(cfg)
    lines.append("n,x,y")
    for k, p in enumerate(orb.points):
        lines.append(f"{k},{p.x:.17g},{p.y:.17g}")
    text = "\n".join(lines) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# terminated_by: {orb.terminated_by}", file=sys.stderr)
    return 0


def _cmd_examples(args) -> int:
    cfg = _fold_args("examples", args)
    entries = []
    for eid in EXAMPLE_IDS:
        entries.append({"id": eid, "description": DESCRIPTIONS[eid],
                        "default_params": DEFAULT_PARAMS[eid]})
    if cfg.get("format") == "json":
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

    def add_shared(p, with_guess=True):
        p.add_argument("--example", help="built-in system id (see 'examples')")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="parameter binding, repeatable")
        p.add_argument("--f", help="first map component (expression)")
        p.add_argument("--g", help="second map component (expression)")
        p.add_argument("--window", metavar="XLO,XHI,YLO,YHI")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "pgm", "json", "text"))
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--config", help="key=value config file; flags override")
        if with_guess:
            p.add_argument("--guess", action="append", metavar="X,Y",
                           help="fixed-point guess, repeatable")

    p = sub.add_parser("analyze", help="find and classify fixed points")
    add_shared(p)

    p = sub.add_parser("curve", help="trace the stable (or unstable) curve")
    add_shared(p)
    p.add_argument("--unstable", action="store_true", default=None)
    p.add_argument("--columns", type=int)
    p.add_argument("--mode", choices=("quadrant_escape", "limit_equilibrium"))
    p.add_argument("--steps", type=int, help="unstable-curve iteration count")
    p.add_argument("--seed-radius", dest="seed_radius", type=float)
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility; no effect (columns are"
                        " bisected together)")

    p = sub.add_parser("basin", help="rasterize the basin decomposition")
    add_shared(p)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--mode", choices=("quadrant_escape", "limit_equilibrium"))
    p.add_argument("--epsilon", type=float, help="verdict margin")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility; no effect (one numpy batch)")

    p = sub.add_parser("orbit", help="write orbit iterates as CSV")
    add_shared(p, with_guess=False)
    p.add_argument("--start", metavar="X,Y")
    p.add_argument("--n", type=int, help="maximum number of steps")

    p = sub.add_parser("examples", help="list built-in systems")
    p.add_argument("--format", choices=("json", "text"))
    p.add_argument("--config", help=argparse.SUPPRESS)
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
        return _COMMANDS[args.command](args)
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
