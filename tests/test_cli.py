import json

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


def test_config_echo_reproduces_output(tmp_path, capsys):
    f1 = tmp_path / "a.pgm"
    rc, _, _ = _run(capsys, ["basin", "--example", "ex4", "--guess", "2,1",
                             "--window", "0,6,0,4", "--nx", "16", "--ny", "16",
                             "--out", str(f1)])
    assert rc == 0
    echo = [ln[2:] for ln in f1.read_text().splitlines()
            if ln.startswith("# ") and "=" in ln]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(echo) + "\n")
    f2 = tmp_path / "b.pgm"
    rc, _, _ = _run(capsys, ["basin", "--config", str(cfg), "--out", str(f2)])
    assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


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
    ["--tol", "nan"], ["--workers", "0"], ["--window", "0,0,0,4"]])
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
    ["--workers", "0"]])
def test_curve_invalid_input_exit_2_without_output(tmp_path, capsys, flags):
    out_file = tmp_path / "c.csv"
    argv = ["curve", "--example", "ex1", "--guess", "1e-9,1",
            "--window", "0,5,0,6", "--columns", "16", "--out", str(out_file)]
    rc, _, err = _run(capsys, argv + flags)
    assert rc == 2
    assert "configuration error" in err
    assert not out_file.exists()


def test_analyze_overflowing_newton_matrix_fails_cleanly(capsys):
    # the Newton matrix of x^320 on this window squares to beyond a float
    rc, _, err = _run(capsys, ["analyze", "--f", "x^320", "--g", "y/2",
                               "--window", "0,10,0,10"])
    assert rc in (0, 3)
    assert "Traceback" not in err
