import hashlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from compmap.cli import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_examples_verb(capsys):
    rc, out, _ = _run(capsys, ["examples"])
    assert rc == 0
    for eid in ("ex1", "ex2", "ex3_T", "ex3_T2", "ex4", "ex5"):
        assert eid in out


def test_analyze_loads_neither_curves_nor_basins():
    # the package resolves its names on first use and the CLI imports curves
    # and basins only in the verbs that use them; -X importtime lists every
    # module the process imports
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    err = subprocess.run([sys.executable, "-X", "importtime", "-m", "compmap.cli",
                          "analyze", "--example", "ex1"], env=env, check=True,
                         capture_output=True, text=True).stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
              if line.startswith("import time:")}
    assert {"compmap.fixedpoints", "compmap.classification"} <= loaded
    assert not loaded & {"compmap.curves", "compmap.basins"}


def test_analyze_loads_no_numpy_random():
    # the O-condition probe draws its pairs from the standard library's random
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys; from compmap.cli import main; "
            "rc = main(['analyze', '--example', 'ex4']); "
            "print(rc, 'numpy.random' in sys.modules, file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stderr
    assert err.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv, unbuffered", [
    (["analyze", "--example", "ex5"], True),  # print's second write raises
    (["analyze", "--example", "ex5"], False),  # the flush at exit would raise
    (["examples"], False)])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # stdout is a pipe whose read end is closed before the process starts,
    # as after `compmap ... | head -1` once head has exited
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "compmap.cli", *argv], env=env,
                              stdout=w, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_analyze_ex4_reports_taylor_case(capsys):
    rc, out, _ = _run(capsys, ["analyze", "--example", "ex4", "--param", "B1=1",
                               "--param", "gamma2=1", "--param", "alpha2=1",
                               "--param", "beta1=3"])
    assert rc == 0
    assert "(2, 1)" in out
    assert "nonhyperbolic" in out
    assert "even_se_negative" in out  # oscillatory semi-stable case


def test_analyze_dsl_matches_builtin(capsys):
    rc, out, _ = _run(capsys, ["analyze", "--f", "x/(2+y)", "--g", "y/(1+x)",
                               "--guess", "0,1", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    fps = rep["fixed_points"]
    assert len(fps) == 1
    lam, mu = fps[0]["eigenvalues"]
    assert lam == pytest.approx(1 / 3, abs=1e-8)
    assert mu == pytest.approx(1.0, abs=1e-8)
    assert fps[0]["invariant_curve_hypotheses"]["all"]


def test_analyze_bad_params_exit_2(capsys):
    rc, _, err = _run(capsys, ["analyze", "--example", "ex1", "--param", "a=0.5"])
    assert rc == 2
    assert "a > 1" in err


def test_curve_ex1_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    rc, _, err = _run(capsys, ["curve", "--example", "ex1", "--guess", "1e-9,1",
                               "--window", "0,5,0,6", "--out", str(out_file)])
    assert rc == 0
    rows = [ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#") and ln != "x,y"]
    x0, y0 = map(float, rows[0].split(","))
    assert abs(x0) < 1e-9 and y0 == pytest.approx(1.0, abs=1e-6)
    ys = [float(r.split(",")[1]) for r in rows]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    assert "domain_boundary" in err


def test_curve_malformed_window_exit_2(capsys):
    rc, _, _ = _run(capsys, ["curve", "--example", "ex1", "--guess", "0,1",
                             "--window", "0,5,0"])
    assert rc == 2


def test_curve_hypothesis_failure_exit_4(capsys):
    rc, _, err = _run(capsys, ["curve", "--example", "ex1", "--guess", "0,0",
                               "--window", "0,5,0,6"])
    assert rc == 4
    assert "eigenvector_off_axis" in err


def test_curve_unstable_ex5(tmp_path, capsys):
    out_file = tmp_path / "wu.csv"
    rc, _, err = _run(capsys, ["curve", "--example", "ex5", "--unstable",
                               "--guess", "0.235,0.352", "--steps", "200",
                               "--window", "0,2,0,2", "--out", str(out_file)])
    assert rc == 0
    assert err.count("fixed_point") >= 2
    rows = [ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#") and ln != "x,y"]
    ys = [float(r.split(",")[1]) for r in rows]
    assert all(b < a for a, b in zip(ys, ys[1:]))


def test_basin_census_and_pgm(tmp_path, capsys):
    out_file = tmp_path / "b.pgm"
    rc, out, _ = _run(capsys, ["basin", "--example", "ex4", "--guess", "2,1",
                               "--window", "0,6,0,4", "--nx", "32", "--ny", "32",
                               "--out", str(out_file)])
    assert rc == 0
    census = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert int(census["minus"]) > 0 and int(census["plus"]) > 0
    assert out_file.read_text().startswith("P2\n")


def test_basin_contraction_single_label(tmp_path, capsys):
    # window entirely northeast of the fixed point of a global contraction
    out_file = tmp_path / "c.csv"
    rc, out, _ = _run(capsys, ["basin", "--f", "x/2+1", "--g", "y/2+0.5",
                               "--guess", "2,1", "--window", "3,4,2,3",
                               "--nx", "2", "--ny", "2", "--format", "csv",
                               "--out", str(out_file)])
    assert rc == 0
    census = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert int(census["band"]) == 4


def test_basin_loose_tolerance_compares_certified_limits(tmp_path, capsys):
    # a T* limit is certified at min(tol, 1e-6), and it is compared with fp
    # under a slack of ten times that, 1e-5 (not 10 * tol = 1e-2): no cell
    # near the segment of fixed points reads incomparable
    out_file = tmp_path / "b.pgm"
    rc, out, _ = _run(capsys, ["basin", "--example", "ex2", "--guess", "0.5,1",
                               "--window", "0,2,0,3", "--nx", "32", "--ny", "32",
                               "--tol", "1e-3", "--out", str(out_file)])
    assert rc == 0
    census = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert census == {"minus": "341", "plus": "683", "band": "0", "undecided": "0",
                      "singular": "0"}


def test_basin_pervasive_singularity_exit_3(tmp_path, capsys):
    out_file = tmp_path / "s.pgm"
    rc, _, err = _run(capsys, ["basin", "--f", "x/0", "--g", "y",
                               "--guess", "1,1", "--window", "0,1,0,1",
                               "--nx", "4", "--ny", "4", "--max-iter", "5",
                               "--out", str(out_file)])
    assert rc == 3


def test_orbit_outputs(tmp_path, capsys):
    out_file = tmp_path / "o.csv"
    rc, _, _ = _run(capsys, ["orbit", "--example", "ex1", "--start", "1,1",
                             "--n", "100", "--out", str(out_file)])
    assert rc == 0
    rows = [ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#") and ln != "n,x,y"]
    n, x, y = rows[-1].split(",")
    assert float(x) < 1e-3  # limits on the vertical axis
    assert float(y) >= 0.0

    # constant orbit from a fixed point
    rc, _, _ = _run(capsys, ["orbit", "--example", "ex1", "--start", "0,2",
                             "--n", "50", "--out", str(out_file)])
    rows = [ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#") and ln != "n,x,y"]
    assert all(r.split(",")[1:] == rows[0].split(",")[1:] for r in rows)


def test_orbit_unbounded_coordinate(tmp_path, capsys):
    out_file = tmp_path / "w.csv"
    rc, _, _ = _run(capsys, ["orbit", "--example", "ex4", "--start", "1,2",
                             "--n", "500", "--out", str(out_file)])
    assert rc == 0
    ys = [float(ln.split(",")[2]) for ln in out_file.read_text().splitlines()
          if ln and not ln.startswith("#") and ln != "n,x,y"]
    assert max(ys) > 1e3


def test_orbit_singularity_at_start_exit_3(capsys):
    rc, _, err = _run(capsys, ["orbit", "--example", "ex4", "--start", "0,1",
                               "--n", "10"])
    assert rc == 3


def test_orbit_missing_start_exit_2(capsys):
    rc, _, _ = _run(capsys, ["orbit", "--example", "ex1", "--n", "10"])
    assert rc == 2


_ECHO_RUNS = [
    (["basin", "--example", "ex4", "--guess", "2,1", "--window", "0,6,0,4",
      "--nx", "16", "--ny", "16"], "pgm"),
    (["basin", "--example", "ex2", "--guess", "0.5,1", "--window", "0,2,0,3",
      "--nx", "16", "--ny", "16", "--format", "csv"], "csv"),
    (["curve", "--example", "ex1", "--guess", "1e-9,1", "--window", "0,5,0,6",
      "--columns", "16", "--tol", "1e-7"], "csv"),
    (["curve", "--example", "ex5", "--unstable", "--guess", "0.235,0.352",
      "--window", "0,2,0,2", "--steps", "20"], "csv"),
    (["orbit", "--example", "ex4", "--param", "beta1=3", "--start", "2,1",
      "--n", "50", "--tol", "1e-9"], "csv"),
    (["analyze", "--example", "ex4", "--guess", "2,1"], "txt"),
]


def test_config_echo_reproduces_output(tmp_path, capsys):
    for k, (argv, ext) in enumerate(_ECHO_RUNS):
        f1 = tmp_path / f"a{k}.{ext}"
        rc, _, _ = _run(capsys, argv + ["--out", str(f1)])
        assert rc == 0
        echo = [ln[2:] for ln in f1.read_text().splitlines()
                if ln.startswith("# ") and "=" in ln]
        cfg = tmp_path / f"run{k}.cfg"
        cfg.write_text("\n".join(echo) + "\n")
        f2 = tmp_path / f"b{k}.{ext}"
        rc, _, _ = _run(capsys, [argv[0], "--config", str(cfg), "--out", str(f2)])
        assert rc == 0
        assert f1.read_bytes() == f2.read_bytes()
        # the echo names only options the verb reads: one more key is refused
        cfg.write_text("\n".join(echo + ["colums=8"]) + "\n")
        f3 = tmp_path / f"c{k}.{ext}"
        rc, _, err = _run(capsys, [argv[0], "--config", str(cfg), "--out", str(f3)])
        assert rc == 2 and "colums" in err
        assert not f3.exists()


def test_restated_defaults_are_the_library_defaults():
    # the echo prints the verbs' default strings as they stand; each that
    # restates a library default must parse to it, so neither side drifts
    from compmap import (CurveOptions, Rect, SideOptions, make_example, orbit,
                         trace_unstable_curve)
    from compmap.basins import raster_options
    from compmap.cli import _OPTIONS, _parse
    from compmap.fixedpoints import NEWTON_TOL

    curve = CurveOptions()
    unstable = inspect.signature(trace_unstable_curve).parameters
    library = {
        ("curve", "tol"): curve.curve_tol,
        ("curve", "max_iter"): curve.max_iter,
        ("curve", "columns"): curve.columns,
        ("curve", "steps"): unstable["steps"].default,
        ("curve", "seed_radius"): unstable["seed_radius"].default,
        ("basin", "tol"): SideOptions().conv_tol,
        ("basin", "max_iter"): raster_options(make_example("ex4").map,
                                              Rect(0.0, 6.0, 0.0, 4.0)).max_iter,
        ("analyze", "tol"): NEWTON_TOL,
        ("orbit", "tol"): inspect.signature(orbit).parameters["conv_tol"].default,
    }
    for (verb, key), want in library.items():
        o = _OPTIONS[verb][key]
        got = _parse(o, o.default)
        assert (type(got), got) == (type(want), want), (verb, key)


# sha256 of the basin files: the labels from before limit-mode rasters
# inferred labels from the southeast order, under an echo that records each
# setting once (tol and epsilon, not conv_tol and epsilon_margin as well)
BASIN_PINS = {
    "ex2": (["--guess", "0.5,1", "--window", "0,2,0,3"],
            "35cc914ce2d31e0caf90884a6458fc5efdcddbd98da4e89a36f063333a844ab6"),
    "ex3_T2": (["--guess", "4,1.3333333333333333", "--window", "0.5,8,0.5,8"],
               "3818711069be8b096d60ceeb47a815c95fd745217e3dc6032a5791f4448231c1"),
}


@pytest.mark.parametrize("name", sorted(BASIN_PINS))
def test_limit_mode_basin_bytes_pinned(tmp_path, capsys, name):
    flags, digest = BASIN_PINS[name]
    out = tmp_path / "b.pgm"
    rc, _, _ = _run(capsys, ["basin", "--example", name] + flags + ["--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of stdout, stderr and the --out file of stable-curve runs, from
# before traces read probe verdicts from the southeast order
CURVE_PINS = {
    "ex1": (["--guess", "1e-9,1", "--window", "0,5,0,6", "--columns", "64"],
            ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "c763b5330f12b77dfafac437e209f2b2d998b8eed5ea6b897388159521d9e67e",
             "9ddf27dd94279984390e96c7b2a6b260ea1052a959600457791b07bf3b1cc9a7")),
    "ex5": (["--guess", "0.235,0.352", "--window", "0,1.5,0,1.5"],  # the saddle
            ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "3e96e665b3acc1b1139ff58014b67e2fb5da8bc7ad407beb264c3a3d5ed983b3",
             "49c4ebb7323edf84288074db689db747404c8f400735e31ad56903e2ab9e41ca")),
}


@pytest.mark.parametrize("name", sorted(CURVE_PINS))
def test_stable_curve_bytes_pinned(tmp_path, capsys, name):
    flags, digests = CURVE_PINS[name]
    out = tmp_path / "c.csv"
    rc, stdout, stderr = _run(capsys, ["curve", "--example", name] + flags
                              + ["--out", str(out)])
    assert rc == 0
    assert tuple(hashlib.sha256(b).hexdigest() for b in
                 (stdout.encode(), stderr.encode(), out.read_bytes())) == digests


def test_cli_defaults_match_library_defaults():
    import inspect

    from compmap import CurveOptions, Rect, SideOptions, make_example
    from compmap.basins import raster_options
    from compmap.cli import _OPTIONS
    from compmap.curves import trace_unstable_curve
    from compmap.fixedpoints import NEWTON_TOL
    from compmap.planarmap import orbit

    def cli(verb, key):
        o = _OPTIONS[verb][key]
        return o.type(o.default)

    def lib(fn, name):
        return inspect.signature(fn).parameters[name].default

    curve = CurveOptions()
    assert cli("curve", "tol") == curve.curve_tol
    assert cli("curve", "max_iter") == curve.max_iter
    assert cli("curve", "columns") == curve.columns
    assert cli("curve", "steps") == lib(trace_unstable_curve, "steps")
    assert cli("curve", "seed_radius") == lib(trace_unstable_curve, "seed_radius")
    ex4 = make_example("ex4").map
    assert cli("basin", "max_iter") == raster_options(ex4, Rect(0, 6, 0, 4)).max_iter
    assert cli("basin", "tol") == SideOptions().conv_tol
    assert cli("orbit", "tol") == lib(orbit, "conv_tol")
    assert cli("analyze", "tol") == NEWTON_TOL


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example=ex1\nparam.a=0.5\n")
    # the flag value repairs the config file's bad parameter
    rc, _, _ = _run(capsys, ["analyze", "--config", str(cfg), "--param", "a=2",
                             "--guess", "0,1"])
    assert rc == 0


def test_numbers_serialized_with_17_digits(tmp_path, capsys):
    out_file = tmp_path / "o.csv"
    rc, _, _ = _run(capsys, ["orbit", "--example", "ex1", "--start", "1,1",
                             "--n", "5", "--out", str(out_file)])
    assert rc == 0
    row = [ln for ln in out_file.read_text().splitlines()
           if ln.startswith("1,")][0]
    x = row.split(",")[1]
    assert float(x) == 1.0 / 3.0  # round-trips the double exactly
    assert len(x.replace("0.", "")) >= 16


@pytest.mark.parametrize("flags", [
    ["--max-iter", "0"], ["--max-iter", "-1"], ["--epsilon", "nan"],
    ["--tol", "nan"], ["--epsilon", "-1"], ["--window", "0,0,0,4"],
    ["--nx", "1"]])
def test_basin_invalid_input_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "b.pgm"
    argv = ["basin", "--example", "ex2", "--guess", "0.5,1",
            "--window", "0,2,0,3", "--nx", "16", "--ny", "16",
            "--out", str(out_file)]
    rc, _, err = _run(capsys, argv + flags)
    assert rc == 2
    assert "configuration error" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "0"], ["--columns", "0"], ["--columns", "-3"],
    ["--max-iter", "0"]])
def test_curve_invalid_input_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "c.csv"
    argv = ["curve", "--example", "ex1", "--guess", "1e-9,1",
            "--window", "0,5,0,6", "--columns", "16", "--out", str(out_file)]
    rc, _, err = _run(capsys, argv + flags)
    assert rc == 2
    assert "configuration error" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flags", [
    ["--n", "-3"], ["--n", "0"], ["--tol", "nan"], ["--tol", "-1"],
    ["--tol", "inf"], ["--start", "nan,1"], ["--start", "1,inf"]])
def test_orbit_invalid_input_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "o.csv"
    argv = ["orbit", "--example", "ex4", "--start", "2,1", "--n", "10",
            "--out", str(out_file)]
    rc, _, err = _run(capsys, argv + flags)
    assert rc == 2
    assert "error" in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["--example", "ex1", "--param", "a=inf"],
    ["--example", "ex1", "--param", "a=nan"],
    ["--example", "ex5", "--param", "h1=-inf"],
    ["--f", "x/(a+y)", "--g", "y/(1+x)", "--param", "a=nan"],
    ["--f", "x/(a+y)", "--g", "y/(1+x)", "--param", "a=inf"]])
def test_analyze_non_finite_parameter_exit_2(capsys, argv):
    rc, out, err = _run(capsys, ["analyze"] + argv)
    assert rc == 2
    assert "finite" in err and out == ""


def test_analyze_overflowing_newton_matrix_fails_cleanly(capsys):
    # the Newton matrix of x^320 on this window squares to beyond a float
    rc, _, err = _run(capsys, ["analyze", "--f", "x^320", "--g", "y/2",
                               "--window", "0,10,0,10"])
    assert rc in (0, 3)
    assert "Traceback" not in err


def test_analyze_nan_residual_is_no_fixed_point(capsys):
    # T(0, 0.5) = (0, nan): inf - inf in g, and a residual (0, nan) is not small
    rc, out, _ = _run(capsys, ["analyze", "--f", "x/2", "--g",
                               "y*1e300*1e300 - y*1e300*1e300 + y/2",
                               "--guess", "0,0.5", "--window", "0,1,0,1"])
    assert rc == 0
    assert "fixed points found: 0" in out


@pytest.mark.parametrize("f", ["10^400*x + y", "(0-2)^0.5*x + y"])
def test_analyze_unfoldable_constant_power_exit_3(capsys, f):
    # the Jacobian folds these constant powers, which math.pow rejects
    rc, _, err = _run(capsys, ["analyze", "--f", f, "--g", "y/2",
                               "--window", "0,1,0,1"])
    assert rc == 3
    assert "could not be evaluated" in err


def test_analyze_dsl_stdout_pinned(capsys):
    # stdout of the tree-walking evaluator, before expressions were compiled
    rc, out, _ = _run(capsys, ["analyze", "--f", "x/(a+y)", "--g", "y/(1+x)",
                               "--param", "a=2"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "aed44a328d38fed53a586bb03a60cba0364d0dd53dd6b6aa5d2975a226b5a410"


ANALYZE_PINS = {
    ("ex1", "text"): "5302020860ee7e50de4cb3d913f58cabce38ca66716458a5fd12b4d46b997636",
    ("ex1", "json"): "ed8f701531b6e90a852e0ef29bcb08cc4fd1088e07e35d0a1fdbd62c86321962",
    ("ex2", "text"): "6b5642b7eff56b1594b8e7c3875bbacf6455b2309319c2af9a29528528849c86",
    ("ex2", "json"): "d2d9c73daa9e4be5a29980d9ed917051fc44f87c69fe1e76f1dde5db35de79e9",
    ("ex3_T", "text"): "16644a4baeb08dcafa776b4db64079969ec8d64bf05ed6995f300a99f40a6e15",
    ("ex3_T", "json"): "86cf305ce5bbef3cf80bd7d7f0858270ffadfe773d03b897495360a4ae5963c1",
    ("ex3_T2", "text"): "d01f3e1f7c904da2eee1a0a99d894784c2ee603f928f9f732cc72864ef2f81d0",
    ("ex3_T2", "json"): "4ac3c976445ae0f74ca6a228e244e63a9b471329652c26786aee94265b7fb5f8",
    ("ex4", "text"): "5262210384f14207a0d5c2fed161b1b18f112c89e0276e9b8505d93d464a1771",
    ("ex4", "json"): "36eea8e6fd643bbb8dc839b78ef6faee6d0b5beb0499eae0dc7880309a0b92c6",
    ("ex5", "text"): "ccfd4b4763835f8e26530027a0b51bfde05c99ac96238d4af0361e27acf52849",
    ("ex5", "json"): "867b4cc008fb1a23a052c83acd237f709e692d094cd68f64c2de99b271e285de",
    ("ex1_dsl", "text"): "aed44a328d38fed53a586bb03a60cba0364d0dd53dd6b6aa5d2975a226b5a410",
    ("ex1_dsl", "json"): "390f381a59acbaa9a54685c707a0156c44dfb3c6a1bf707903971893994c2ab7",
}


@pytest.mark.parametrize("name, fmt", sorted(ANALYZE_PINS))
def test_analyze_stdout_pinned(capsys, name, fmt):
    # stdout of the scalar Newton searches, before they ran in lockstep
    argv = (["--f", "x/(a+y)", "--g", "y/(1+x)", "--param", "a=2"]
            if name == "ex1_dsl" else ["--example", name])
    rc, out, _ = _run(capsys, ["analyze"] + argv + ["--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_PINS[name, fmt]


@pytest.mark.parametrize("flags", [
    ["--steps", "0"], ["--steps", "-1"], ["--seed-radius", "nan"],
    ["--seed-radius", "inf"], ["--seed-radius", "0"]])
def test_curve_unstable_invalid_input_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "u.csv"
    argv = ["curve", "--example", "ex5", "--unstable", "--guess", "0.235,0.352",
            "--window", "0,2,0,2", "--out", str(out_file)]
    rc, _, err = _run(capsys, argv + flags)
    assert rc == 2
    assert "configuration error" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "0"], ["--tol=-1"]])
def test_analyze_invalid_tolerance_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "a.txt"
    rc, out, err = _run(capsys, ["analyze", "--example", "ex1", "--out",
                                 str(out_file)] + flags)
    assert rc == 2
    assert "tol" in err and "fixed points found" not in out
    assert not out_file.exists()


_ORBIT = ["orbit", "--example", "ex1", "--start", "1,1"]
_CURVE = ["curve", "--example", "ex1", "--guess", "1e-9,1", "--window", "0,5,0,6",
          "--columns", "16"]
_BASIN = ["basin", "--example", "ex4", "--guess", "2,1", "--window", "0,6,0,4",
          "--nx", "4", "--ny", "4"]


def _refused(tmp_path, capsys, argv, cfg_text=None):
    """Run argv (with a config file holding cfg_text, if given); assert exit 2,
    no output file and nothing on stdout; return stderr."""
    out_file = tmp_path / "out"
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        argv = argv + ["--config", str(cfg)]
    if argv[0] != "examples":
        argv = argv + ["--out", str(out_file)]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == "" and not out_file.exists()
    return err


@pytest.mark.parametrize("argv", [
    ["analyze", "--example", "ex4"], _ORBIT + ["--n", "5"], _CURVE, _BASIN])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exit_2_without_output(tmp_path, capsys, argv, where):
    out = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
    rc, _, err = _run(capsys, argv + ["--out", str(out)])
    assert rc == 2
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_too_deep_nesting_exit_2_without_output(tmp_path, capsys):
    f = "(" * 1000 + "x" + ")" * 1000
    err = _refused(tmp_path, capsys, ["analyze", "--f", f, "--g", "y"])
    assert "nests too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--example", "ex1", "--max-iter", "0"],
    _ORBIT + ["--max-iter", "7"],
    _ORBIT + ["--window", "0,1,0,1"],
    _CURVE + ["--workers", "1"],
    _BASIN + ["--workers", "1"]])
def test_dropped_flags_exit_2_without_output(tmp_path, capsys, argv):
    assert "unrecognized arguments" in _refused(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["analyze", "--example", "ex1", "--guess", "nan,1"],
    ["curve", "--example", "ex1", "--guess", "nan,1", "--window", "0,5,0,6"],
    _BASIN + ["--guess", "nan,1"],
    ["analyze", "--example", "ex1", "--window=-1e308,1e308,0,5"],
    ["analyze", "--example", "ex1", "--window=0,5,-1e308,1e308"]])
def test_non_finite_point_or_window_exit_2_without_output(tmp_path, capsys, argv):
    # a window from -1e308 to 1e308 has finite sides, but its width overflows
    assert "finite" in _refused(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["curve", "--example", "ex1", "--guess", "1e-9,1", "--window", "0,5,3,3"],
    ["analyze", "--example", "ex4", "--window", "0,6,1,1"],
    _BASIN + ["--window", "1,1,0,3"]])
def test_window_without_area_exit_2_without_output(tmp_path, capsys, argv):
    err = _refused(tmp_path, capsys, argv)
    assert err.startswith("configuration error: ") and "needs a bounded window" in err


@pytest.mark.parametrize("argv, fmt", [
    (["analyze", "--example", "ex1"], "csv"), (_CURVE, "pgm"), (_CURVE, "json"),
    (_ORBIT, "json")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unsupported_format_exit_2_without_output(tmp_path, capsys, argv, fmt,
                                                  source):
    if source == "flag":
        err = _refused(tmp_path, capsys, argv + ["--format", fmt])
    else:
        err = _refused(tmp_path, capsys, argv, f"format={fmt}\n")
    assert "format" in err and fmt in err


@pytest.mark.parametrize("argv, line", [
    (_CURVE, "colums=8"),
    (["analyze", "--example", "ex1"], "max_iter=1000"),  # echo before the fix
    (_ORBIT, "window=0,1,0,1"),
    (_ORBIT, "config=other.cfg"),
    (["examples"], "param.a=2"),
    (["examples"], "format=csv"),
    (_CURVE, "unstable=yes"),
    (_CURVE, "steps=many"),  # read only by unstable curves
    (_BASIN, "workers=2"),
    # basin files once recorded these next to tol and epsilon
    (_BASIN, "conv_tol=1e-3"),
    (_BASIN, "epsilon_margin=0.5"),
    (_BASIN, "conv_tol=small")])
def test_unread_config_key_or_value_exit_2_without_output(tmp_path, capsys, argv,
                                                          line):
    err = _refused(tmp_path, capsys, argv, line + "\n")
    assert line.split("=")[0] in err
