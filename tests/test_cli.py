"""Command-line behavior: files, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from array import array
from pathlib import Path

import pytest

import lanestab
from lanestab import (
    IntegratorOptions,
    classify,
    equilibria,
    gamma2_profile,
    integrate,
    lyapunov_V,
    make_params,
    powerlaw_profile,
    theta_from_z,
    ValidationError,
)
from lanestab import cli
from lanestab.cli import CSV_HEADER_BARE, CSV_HEADER_FULL, build_parser, main
from lanestab.closedform import powerlaw_boundary

from certificate_oracle import lyapunov_Vdot

SVG = "{http://www.w3.org/2000/svg}"
SRC = str(Path(lanestab.__file__).resolve().parents[1])
# lanestab.integrate names the function; the fork tests patch the module
INTEGRATE_MODULE = importlib.import_module("lanestab.integrate")


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, _ = _run(["solve", "--n", "2", "--omega", "0.5",
                       "--zeta-end", "10", "--out", str(out)], capsys)
    assert code == 0
    sidecar = tmp_path / "run.summary.json"
    assert out.exists() and sidecar.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER_FULL

    # cells are emitted at 17 significant digits, so parsing them back must
    # reproduce the node values bit for bit
    p = make_params(2, 0.5)
    traj = integrate(p, IntegratorOptions(zeta_end=10.0))
    assert len(lines) == 1 + len(traj.zetas)
    left = equilibria(p)[0]
    for row, t, z, dz in zip(lines[1:], traj.zetas, traj.zs, traj.dzs):
        cells = [float(c) for c in row.split(",")]
        assert cells[0] == t and cells[1] == z and cells[2] == dz
        assert cells[3] == theta_from_z(float(z), 2)
        assert cells[4] == lyapunov_V(float(z) - left.z_eq, float(dz), p)
        assert cells[5] == lyapunov_Vdot(float(dz), float(t))

    summary = json.loads(sidecar.read_text())
    assert summary["params"] == {"n": 2, "omega": 0.5, "theta0": 1.0,
                                 "zeta0": 1e-3}
    assert summary["stable_regime"] is True
    assert math.isclose(summary["zeta_star"], 5.069116954881416, rel_tol=1e-9)


def test_solve_csv_drops_v_columns_when_undefined(tmp_path, capsys):
    odd = tmp_path / "odd.csv"
    code, _, _ = _run(["solve", "--n", "3", "--omega", "0.125",
                       "--zeta-end", "5", "--out", str(odd)], capsys)
    assert code == 0
    assert odd.read_text().splitlines()[0] == CSV_HEADER_BARE

    free = tmp_path / "free.csv"
    code, _, _ = _run(["solve", "--n", "2", "--omega", "0",
                       "--zeta-end", "4", "--out", str(free)], capsys)
    assert code == 0
    assert free.read_text().splitlines()[0] == CSV_HEADER_BARE


def _csv_cells(params):
    traj = integrate(params, IntegratorOptions(zeta_end=60.0))
    lines = cli._trajectory_csv(traj).split("\n")
    assert lines[-1] == "" and len(lines) == len(traj.zetas) + 2
    return traj, lines[0], [row.split(",") for row in lines[1:-1]]


@pytest.mark.parametrize("theta0", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("omega", [1e-3, 0.1, 0.65, 2.0])
@pytest.mark.parametrize("n", [2, 4, 6, 50])
def test_csv_v_columns_equal_the_stability_functions(n, omega, theta0):
    """The rows compute theta, V and Vdot inline; every cell must equal
    the %.17g of theta_from_z, lyapunov_V and lyapunov_Vdot, diverged
    runs (theta0 > 1/omega) included."""
    p = make_params(n, omega, theta0)
    traj, header, rows = _csv_cells(p)
    assert header == CSV_HEADER_FULL
    z_eq = equilibria(p)[0].z_eq
    for cells, t, z, dz in zip(rows, traj.zetas, traj.zs, traj.dzs):
        assert cells == ["%.17g" % v for v in (
            t, z, dz, theta_from_z(z, n), lyapunov_V(z - z_eq, dz, p),
            lyapunov_Vdot(dz, t))]


@pytest.mark.parametrize("n, omega", [(1, 0.5), (3, 0.125), (5, 2.0),
                                      (2, 0.0), (3, 0.0)])
def test_bare_csv_theta_equals_theta_from_z(n, omega):
    traj, header, rows = _csv_cells(make_params(n, omega))
    assert header == CSV_HEADER_BARE
    for cells, t, z, dz in zip(rows, traj.zetas, traj.zs, traj.dzs):
        assert cells == ["%.17g" % v for v in (t, z, dz, theta_from_z(z, n))]


def test_cli_keeps_the_names_the_tracer_patches():
    """The benchmark's traced mode replaces these cli globals by name."""
    for name in ("integrate", "first_zero", "classify", "make_params",
                 "lyapunov_V", "theta_from_z", "_trajectory_csv",
                 "_write_text", "_read_csv_columns"):
        assert callable(getattr(cli, name, None)), name


def test_solve_json_summary_to_stdout(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = _run(["solve", "--n", "2", "--omega", "0.5",
                            "--zeta-end", "10", "--out", str(out), "--json"],
                           capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary.keys()) == ["params", "stable_regime",
                                    "start_in_basin", "zeta_star"]
    assert stdout.encode() == (tmp_path / "run.summary.json").read_bytes()


@pytest.mark.parametrize("n, omega, theta0, inside", [
    ("2", "0.5", "3", False), ("2", "0.5", "1", True),
    ("4", "0.3333333333333333", "3", True),
    ("4", "0.33333333333333337", "3", False),
    ("3", "0.5", "1", None), ("2", "0", "1", None)])
def test_solve_sidecar_places_the_start(n, omega, theta0, inside, tmp_path,
                                        capsys):
    """For even n with omega > 0 the sidecar says whether the start lies in
    the basin estimate, right after stable_regime and as stability --json
    says: a theta0 = 3 start that diverges is not inside.  Odd n and
    omega = 0 omit the key."""
    model = ["--n", n, "--omega", omega, "--theta0", theta0]
    code, stdout, _ = _run(["solve", *model, "--zeta-end", "10", "--json",
                            "--out", str(tmp_path / "run.csv")], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary.get("start_in_basin") is inside
    assert list(summary)[:2] == ["params", "stable_regime"]
    if theta0 == "3" and n == "2":  # the runaway start
        assert summary["diverged_at"] == pytest.approx(8.90, abs=0.01)
    if inside is not None:
        assert list(summary)[2] == "start_in_basin"
        _, report, _ = _run(["stability", *model, "--json"], capsys)
        assert json.loads(report)["start_in_basin"] is inside


def test_solve_human_output_mentions_zeta_star(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = _run(["solve", "--n", "2", "--omega", "0.5",
                            "--zeta-end", "10", "--out", str(out)], capsys)
    assert code == 0
    assert "zeta_star" in stdout
    assert "completed" in stdout


def test_solve_validation_exit_code(tmp_path, capsys):
    code, _, err = _run(["solve", "--n", "0", "--omega", "0.5"], capsys)
    assert code == 1
    assert "--n" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = _run(["solve", "--n", "2", "--omega", "0.5", "--bogus"],
                        capsys)
    assert code == 1
    assert "error" in err


def test_output_under_a_regular_file_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, stdout, err = _run(["solve", "--n", "2", "--omega", "0.5",
                              "--zeta-end", "1",
                              "--out", str(blocker / "run.csv")], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and str(blocker) in err
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_negative_values_in_exponent_form(tmp_path, capsys):
    """argparse took -1e-3 and -inf for options ("expected one argument");
    as separate arguments they now reach the flags' own checks."""
    tables = []
    for gamma in (["--gamma", "-1e-3"], ["--gamma=-1e-3"]):
        out = tmp_path / f"table{len(tables)}.csv"
        code, _, _ = _run(["oracle", "--kind", "powerlaw", *gamma,
                           "--out", str(out)], capsys)
        assert code == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    code, _, err = _run(["oracle", "--kind", "powerlaw", "--gamma", "-inf",
                         "--out", str(tmp_path / "inf.csv")], capsys)
    assert code == 1 and err == "error: --gamma: must be finite, got -inf\n"
    code, _, err = _run(["solve", "--n", "2", "--omega", "-1e-3",
                         "--out", str(tmp_path / "run.csv")], capsys)
    assert code == 1 and err.startswith("error: --omega: must be finite")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["table0.csv",
                                                          "table1.csv"]


MODEL = ["--n", "2", "--omega", "0.5"]


@pytest.mark.parametrize("field, argv", [
    ("n", ["solve", "--n", "0", "--omega", "0.5"]),
    ("omega", ["stability", "--n", "2", "--omega", "-1"]),
    ("theta0", ["stability", *MODEL, "--theta0", "0"]),
    ("zeta0", ["solve", *MODEL, "--start-mode", "series", "--zeta0", "0.5"]),
    ("zeta-end", ["sweep", *MODEL, "--zeta-end", "0"]),
    ("rtol", ["solve", *MODEL, "--rtol", "0.1"]),
    ("atol", ["solve", *MODEL, "--atol", "1e-6"]),
    ("max-steps", ["solve", *MODEL, "--max-steps", "0"]),
    ("check-oracle", ["solve", *MODEL, "--check-oracle", "gamma2"]),
    ("kind", ["oracle", "--kind", "cubic"]),
    ("start-mode", ["sweep", *MODEL, "--start-mode", "bogus"]),
    ("gamma", ["oracle", "--kind", "powerlaw", "--gamma", "1"]),
    ("points", ["oracle", "--kind", "gaussian", "--points", "1"]),
    ("input", ["plot", "--input", "absent.csv"]),
    ("zeta-end", ["oracle", "--kind", "gaussian", "--zeta-end", "nan"]),
    ("zeta-end", ["oracle", "--kind", "gaussian", "--zeta-end", "-1"]),
    ("omega", ["solve", "--n", "1", "--omega", "0.5", "--theta0", "2",
               "--check-oracle", "gamma2"]),
    ("omega", ["oracle", "--kind", "gamma2", "--omega", "0.5", "--theta0",
               "2"]),
])
def test_rejected_field_names_its_flag(field, argv, tmp_path, capsys,
                                       monkeypatch):
    """A ValidationError on a field names "--" + field ("-" for "_"), or
    the renamed flag; argparse names a rejected choice itself.  Either way
    the flag on stderr is one that the subcommand accepts."""
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(argv, capsys)
    assert code == 1
    flag = re.search(r"error: (?:argument )?(--[a-z0-9-]+)", err).group(1)
    assert flag == "--" + field
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert flag in sub.choices[argv[0]]._option_string_actions
    assert list(tmp_path.iterdir()) == []


def test_solve_tiny_omega_is_a_validation_error(tmp_path, capsys):
    """For even n the CSV's V column needs omega**(-(n+1)/n); past the
    float range this was an OverflowError traceback after the run."""
    out = tmp_path / "run.csv"
    code, stdout, err = _run(["solve", "--n", "4", "--omega", "1e-250",
                              "--zeta-end", "5", "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error: --omega: ") and "float range" in err
    assert list(tmp_path.iterdir()) == []


def test_solve_check_oracle(tmp_path, capsys):
    out = tmp_path / "halo.csv"
    code, stdout, _ = _run(["solve", "--n", "1", "--omega", "0.5",
                            "--zeta-end", "1", "--out", str(out), "--json",
                            "--check-oracle", "gamma2"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["oracle"]["kind"] == "gamma2"
    assert summary["oracle"]["max_abs_err"] <= 1e-6
    # theta stays below 1 on [0, 1], so the relative error is the absolute
    assert summary["oracle"]["max_rel_err"] \
        == summary["oracle"]["max_abs_err"]
    code, stdout, _ = _run(["solve", "--n", "1", "--omega", "0.5",
                            "--zeta-end", "1", "--out", str(out),
                            "--check-oracle", "gamma2"], capsys)
    assert code == 0
    assert stdout.splitlines()[-1] == (
        "oracle gamma2: max |numeric - closed form| = %.3e, relative to "
        "max(1, |closed form|) = %.3e" % (summary["oracle"]["max_abs_err"],
                                          summary["oracle"]["max_rel_err"]))


@pytest.mark.parametrize("start_mode", ["offset", "series"])
def test_solve_check_oracle_states_a_relative_error(start_mode, tmp_path,
                                                    capsys):
    """To zeta 60 the gamma2 profile grows like shc(zeta/2) to about
    1.8e11, so the absolute error (2.1e4 from the offset start) cannot tell
    a right run from a wrong one; the error over max(1, |closed form|), on
    the same 1001 points, can.  Both match a recomputation."""
    out = tmp_path / "g2.csv"
    code, stdout, _ = _run(["solve", "--n", "1", "--omega", "0.5", "--json",
                            "--start-mode", start_mode, "--out", str(out),
                            "--check-oracle", "gamma2"], capsys)
    assert code == 0
    oracle = json.loads(stdout)["oracle"]
    assert list(oracle) == ["kind", "max_abs_err", "max_rel_err"]
    traj = integrate(make_params(1, 0.5), IntegratorOptions(
        60.0, start_mode=start_mode))
    grid = cli._linspace(traj.zetas[0], traj.zetas[-1], 1001)
    errs = [(abs(z - gamma2_profile(t, 1.0, 0.5)),
             max(1.0, abs(gamma2_profile(t, 1.0, 0.5))))
            for t, (z, _) in zip(grid, traj.evaluate_many(grid))]
    assert oracle["max_abs_err"] == max(e for e, _ in errs) > 1.0
    assert oracle["max_rel_err"] == max(e / s for e, s in errs) <= 1e-6


def test_oracle_gamma2_window_is_the_exact_product(tmp_path, capsys):
    """3 times 1/3 rounded down lies 5.55e-17 below 1, so the halo has a
    boundary there (the rounded window omega < 1/theta0 refused it); one
    float up, theta0*omega passes 1 and the table is refused before any
    file is written."""
    out = tmp_path / "g.csv"
    argv = ["oracle", "--kind", "gamma2", "--theta0", "3", "--out", str(out)]
    code, stdout, _ = _run(argv + ["--omega", repr(1 / 3)], capsys)
    assert code == 0
    assert stdout.splitlines()[-1] == "halo boundary zeta_M = 102.52918045"
    out.unlink()
    code, stdout, err = _run(argv + ["--omega", repr(math.nextafter(
        1 / 3, 1.0))], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error: --omega: must satisfy 0 < omega and "
                          "theta0*omega < 1")
    assert list(tmp_path.iterdir()) == []


def test_solve_check_oracle_refuses_a_profile_ending_before_zeta0(tmp_path,
                                                                  capsys):
    """At n = 1, theta0 = 1e-8 the power law ends at zeta* = 3.46e-4, below
    --zeta0 = 1e-3: the check is refused before the run, on its own flag
    (the run used to fail afterwards on a nonexistent --zeta)."""
    out = tmp_path / "run.csv"
    code, stdout, err = _run(["solve", "--n", "1", "--omega", "0",
                              "--theta0", "1e-8", "--out", str(out),
                              "--check-oracle", "powerlaw"], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error: --check-oracle: the powerlaw profile ends "
                          f"at zeta = {powerlaw_boundary(2.0, 1e-8)!r}")
    assert list(tmp_path.iterdir()) == []
    # a start below zeta* runs the check
    code, _, _ = _run(["solve", "--n", "1", "--omega", "0", "--theta0", "1e-8",
                       "--zeta0", "1e-4", "--out", str(out),
                       "--check-oracle", "powerlaw"], capsys)
    assert code == 0


@pytest.mark.parametrize("kind", ["gamma2", "powerlaw", "gaussian"])
def test_solve_check_oracle_parameter_mismatch(kind, tmp_path, capsys):
    # gamma2 needs --n 1; powerlaw and gaussian need --omega 0
    out = tmp_path / "bad.csv"
    code, _, err = _run(["solve", "--n", "2", "--omega", "0.5",
                         "--zeta-end", "1", "--out", str(out),
                         "--check-oracle", kind], capsys)
    assert code == 1
    assert "--check-oracle" in err


def test_solve_check_oracle_unknown_kind_fails_fast(capsys):
    code, _, err = _run(["solve", "--n", "1", "--omega", "0.5",
                         "--check-oracle", "cubic"], capsys)
    assert code == 1
    assert "--check-oracle" in err


def test_solve_max_steps_numerical_failure(tmp_path, capsys):
    out = tmp_path / "short.csv"
    code, _, err = _run(["solve", "--n", "2", "--omega", "0.5",
                         "--zeta-end", "60", "--max-steps", "10",
                         "--out", str(out)], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_solve_divergence_is_reported_success(tmp_path, capsys):
    out = tmp_path / "div.csv"
    code, stdout, _ = _run(["solve", "--n", "3", "--omega", "0.125",
                            "--theta0", "8.2", "--zeta-end", "50",
                            "--out", str(out), "--json"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert 10.0 < summary["diverged_at"] < 20.0
    code, text, _ = _run(["solve", "--n", "3", "--omega", "0.125",
                          "--theta0", "8.2", "--zeta-end", "50",
                          "--out", str(out)], capsys)
    assert code == 0
    assert f"diverged_at = {summary['diverged_at']:.12g} (|z| crossed" in text


def test_solve_runaway_past_float_resolution_is_reported_success(tmp_path,
                                                                 capsys):
    """n = 5 blows up below float resolution in zeta before |z| reaches the
    guard; it used to exit 2 with a step-size underflow."""
    out = tmp_path / "div.csv"
    code, stdout, _ = _run(["solve", "--n", "5", "--omega", "0.5",
                            "--out", str(out), "--json"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["diverged_at"] == float(
        out.read_text().splitlines()[-1].split(",")[0])
    code, text, _ = _run(["solve", "--n", "5", "--omega", "0.5",
                          "--out", str(out)], capsys)
    assert code == 0
    assert (f"diverged_at = {summary['diverged_at']:.12g} (z runs away "
            "within float resolution in zeta;") in text


def test_solve_deterministic_bytes(tmp_path, capsys):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub / "run.csv"
        code, _, _ = _run(["solve", "--n", "2", "--omega", "0.5",
                           "--zeta-end", "10", "--out", str(out)], capsys)
        assert code == 0
        blobs.append((out.read_bytes(),
                      out.with_suffix(".summary.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_oracle_gamma2_table(tmp_path, capsys):
    code, _, err = _run(["oracle", "--kind", "gamma2",
                         "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 1
    assert "--omega" in err
    out = tmp_path / "oracle.csv"
    code, stdout, _ = _run(["oracle", "--kind", "gamma2", "--omega", "0.5",
                            "--zeta-end", "6", "--points", "100",
                            "--out", str(out)], capsys)
    assert code == 0
    assert "zeta_M" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "zeta,theta"
    assert len(lines) == 101
    first = [float(c) for c in lines[1].split(",")]
    last = [float(c) for c in lines[-1].split(",")]
    assert first == [0.0, 1.0]
    assert last[0] == 6.0
    assert last[1] == gamma2_profile(6.0, 1.0, 0.5)


def test_oracle_gamma2_tiny_omega_boundary(tmp_path, capsys):
    # omega -> 0 puts the halo boundary at sqrt(12 theta0)
    code, stdout, _ = _run(["oracle", "--kind", "gamma2", "--omega", "1e-20",
                            "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0
    assert "zeta_M = 3.46410161514\n" in stdout


def _gamma2_top(tmp_path, capsys, omega, zeta_end, points="400"):
    """The largest zeta the refusal of --zeta-end names; that zeta itself
    writes a finite table."""
    out = tmp_path / "g.csv"
    argv = ["oracle", "--kind", "gamma2", "--omega", omega, "--points",
            points, "--out", str(out)]
    code, _, err = _run(argv + ["--zeta-end", zeta_end], capsys)
    assert code == 1
    assert err.startswith("error: --zeta-end: ")
    assert not out.exists()
    top = float(err.split("past zeta = ")[1].split(",")[0])
    code, _, _ = _run(argv + ["--zeta-end", repr(top)], capsys)
    assert code == 0
    table = [[float(c) for c in ln.split(",")]
             for ln in out.read_text().splitlines()[1:]]
    assert table[-1][0] == top
    assert all(math.isfinite(theta) for _, theta in table)
    return top


def test_oracle_gamma2_rejects_an_overflowing_range(tmp_path, capsys):
    """shc's sinh overflows once sqrt(omega/2)*zeta passes asinh(max
    float), about 710.48; the range is refused naming --zeta-end and the
    largest zeta that works."""
    top = _gamma2_top(tmp_path, capsys, "0.5", "1500")
    assert 1420.0 < top < 1421.0


def test_oracle_gamma2_rejects_the_zeta_squared_overflow(tmp_path, capsys):
    """At small omega the term zeta**2*_shc_excess(x)/2 ~ shc(x)/omega
    overflows well before sinh does (x about 697 at omega = 1e-8, not
    710); the table wrote -inf there.  The named zeta is the last float
    that works."""
    top = _gamma2_top(tmp_path, capsys, "1e-8", "1e7", points="11")
    assert 9.8e6 < top < 9.9e6
    code, _, _ = _run(["oracle", "--kind", "gamma2", "--omega", "1e-8",
                       "--zeta-end", repr(math.nextafter(top, math.inf)),
                       "--out", str(tmp_path / "h.csv")], capsys)
    assert code == 1


def test_oracle_waterbag(tmp_path, capsys):
    code, _, err = _run(["oracle", "--kind", "waterbag",
                         "--out", str(tmp_path / "w.csv")], capsys)
    assert code == 1
    assert "--omega" in err
    out = tmp_path / "w.csv"
    code, stdout, _ = _run(["oracle", "--kind", "waterbag", "--omega", "0.5",
                            "--zeta-end", "4", "--points", "50",
                            "--out", str(out)], capsys)
    assert code == 0
    assert "xi0" in stdout
    values = {float(line.split(",")[1]) for line in
              out.read_text().splitlines()[1:]}
    assert values == {0.0, 2.0}


def test_oracle_powerlaw_caps_grid_at_boundary(tmp_path, capsys):
    code, _, err = _run(["oracle", "--kind", "powerlaw",
                         "--out", str(tmp_path / "q.csv")], capsys)
    assert code == 1
    assert "--gamma" in err
    for bad in ("nan", "inf"):
        code, _, err = _run(["oracle", "--kind", "powerlaw", "--gamma", bad,
                             "--out", str(tmp_path / "q.csv")], capsys)
        assert code == 1
        assert "--gamma" in err
    out = tmp_path / "p.csv"
    code, stdout, _ = _run(["oracle", "--kind", "powerlaw", "--gamma", "1.5",
                            "--zeta-end", "100", "--points", "80",
                            "--out", str(out)], capsys)
    assert code == 0
    assert "zeta_star" in stdout
    last_zeta = float(out.read_text().splitlines()[-1].split(",")[0])
    assert last_zeta <= math.sqrt(18.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("gamma, theta0, error", [
    # the last row was zeta_star itself, where the bracket rounded below 0
    ("1.2", "1", None), ("2.5", "1", None), ("4", "1", None),
    ("7", "1", None), ("3", "0.3", None), ("7", "0.3", None),
    ("2", "1e-300", None), ("1.2", "5e-324", None),
    # gamma < 0 has finite support too, and was never capped
    ("-1", "1", None), ("-0.5", "3.7", None), ("-5", "1e8", None),
    # theta0**(gamma - 1) past the float range: an OverflowError traceback,
    # or an underflow to 0 that left no finite density at all
    ("-1", "1e-300", "--theta0"), ("5", "1e100", "--theta0"),
    ("-1", "1e300", "--theta0"),
    # (gamma - 1)*zeta**2 overflowed past zeta = 2.448e153 and 5.474e153,
    # and the table ended there, short of zeta_star = 2.871e153 and 1.789e154
    ("31", "1.6e10", None), ("-5", "5e-52", None),
    # 6*gamma passed the float range: zeta_star read inf, the table ran on
    ("3e307", "1", None), ("1e308", "1", None), ("-1e308", "1", None),
])
def test_oracle_powerlaw_table_ends_at_the_last_finite_value(
        gamma, theta0, error, tmp_path, capsys):
    """--zeta-end lies past every case's zeta_star, so the table runs to
    its end."""
    out = tmp_path / "p.csv"
    code, _, err = _run(["oracle", "--kind", "powerlaw", f"--gamma={gamma}",
                         f"--theta0={theta0}", "--zeta-end", "1e200",
                         "--points", "50", "--out", str(out)], capsys)
    if error is not None:
        assert code == 1 and err.startswith(f"error: {error}: ")
        assert not out.exists()
        return
    assert code == 0, err
    g, t0 = float(gamma), float(theta0)
    table = [[float(c) for c in ln.split(",")]
             for ln in out.read_text().splitlines()[1:]]
    assert all(math.isfinite(theta) for _, theta in table)
    last, zeta_star = table[-1][0], powerlaw_boundary(g, t0)
    assert zeta_star * (1.0 - 1e-15) <= last <= zeta_star
    if last < zeta_star:  # the next float up has no finite value
        try:
            beyond = powerlaw_profile(math.nextafter(last, math.inf), g, t0)
        except (ValidationError, OverflowError):
            beyond = math.inf
        assert not math.isfinite(beyond)


def test_oracle_powerlaw_prints_zeta_star_where_six_gamma_overflows(
        tmp_path, capsys):
    """At gamma = 1e308 the note printed zeta_star = inf, and the table
    held theta = 1 out to zeta = 10."""
    out = tmp_path / "p.csv"
    code, stdout, _ = _run(["oracle", "--kind", "powerlaw", "--gamma",
                            "1e308", "--out", str(out)], capsys)
    assert code == 0
    assert stdout.splitlines()[-1] == \
        "profile boundary zeta_star = 2.44948974278"
    last = float(out.read_text().splitlines()[-1].split(",")[0])
    assert last <= powerlaw_boundary(1e308, 1.0) < 2.4494897427832


def test_oracle_rejects_unknown_kind(tmp_path, capsys):
    code, _, err = _run(["oracle", "--kind", "cubic"], capsys)
    assert code == 1
    assert "--kind" in err


# 3 times 1/3 rounded down lies 5.55e-17 below 1, the next float up above it
@pytest.mark.parametrize("n, omega, inside", [
    ("2", "0.3333333333333333", True), ("2", "0.33333333333333337", False),
    ("4", "0.25", True), ("3", "0.3333333333333333", None)])
def test_stability_json_places_the_start(n, omega, inside, capsys):
    """For even n, stability --json says whether the start lies in the
    basin estimate, theta0*omega < 1 exactly; odd n omits the key."""
    code, stdout, _ = _run(["stability", "--n", n, "--omega", omega,
                            "--theta0", "3", "--json"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report.get("start_in_basin") is inside
    assert list(report)[-1] == ("start_in_basin" if inside is not None
                                else "stable_regime")


def test_stability_cli_json_and_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = _run(["stability", "--n", "2", "--omega", "0.5",
                            "--json", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["lmi"]["verified"] is True
    assert report["lmi"]["worst_eig"] <= 1e-12
    assert report["stable_regime"] is True
    assert [e["kind"] for e in report["equilibria"]] == ["stable_left",
                                                         "unstable_right"]
    assert out.read_bytes() == stdout.encode()
    out.unlink()
    code, text, _ = _run(["stability", "--n", "2", "--omega", "0.5",
                          "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == stdout.encode()
    assert text == classify(make_params(2, 0.5)).summary + f"\nwrote {out}\n"


@pytest.mark.parametrize("n, onset", [(1024, 2.1217134328803796e+154),
                                      (1025, 3.000553493491564e+154),
                                      (5000, None)])
def test_stability_cli_for_large_n(n, onset, capsys):
    """2**(n-1) overflowed a float from n = 1025 on (a traceback), and
    n = 1024 printed Infinity, which is not JSON; past the float range
    the onset radius is null."""
    code, stdout, _ = _run(["stability", "--n", str(n), "--omega", "0.5",
                            "--json"], capsys)
    assert code == 0
    zeta0 = json.loads(stdout, parse_constant=pytest.fail)["instability_zeta0"]
    assert zeta0 is None if onset is None else \
        math.isclose(zeta0, onset, rel_tol=1e-13)
    code, stdout, _ = _run(["stability", "--n", str(n), "--omega", "0.5"],
                           capsys)
    assert code == 0
    assert ("onset zeta0 beyond the float range." in stdout) == (onset is None)


def test_stability_cli_human_summary(capsys):
    code, stdout, _ = _run(["stability", "--n", "3", "--omega", "0.125"],
                           capsys)
    assert code == 0
    assert "unstable" in stdout


def test_stability_cli_rejects_omega_zero(capsys):
    code, _, err = _run(["stability", "--n", "2", "--omega", "0"], capsys)
    assert code == 1
    assert "--omega" in err


def test_stability_cli_tiny_omega_is_a_validation_error(tmp_path, capsys):
    """omega**(-1/n) passes the float range for n = 1 below about 5.6e-309;
    this was an OverflowError traceback from model.equilibria."""
    out = tmp_path / "report.json"
    for extra in ([], ["--json"]):
        code, stdout, err = _run(["stability", "--n", "1", "--omega",
                                  "1e-310", "--out", str(out), *extra], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: --omega: ") and "float range" in err
        assert not out.exists()


def test_sweep_outputs_are_deterministic(tmp_path, capsys):
    argv_tail = ["--n", "2,3", "--omega", "0.45,0.9", "--zeta-end", "40"]
    outputs = []
    for sub in ("d1", "d2"):
        out_dir = tmp_path / sub
        code, _, _ = _run(["sweep", *argv_tail, "--out-dir", str(out_dir)],
                          capsys)
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text())
        outputs.append((
            (out_dir / "index.json").read_bytes(),
            sorted(f.name for f in out_dir.glob("run_*.csv")),
            [(out_dir / r["file"]).read_bytes() for r in index["runs"]],
        ))
    assert outputs[0] == outputs[1]

    runs = json.loads((tmp_path / "d1" / "index.json").read_text())["runs"]
    assert [(r["n"], r["omega"]) for r in runs] == [(2, 0.45), (2, 0.9),
                                                    (3, 0.45), (3, 0.9)]
    by_key = {(r["n"], r["omega"]): r for r in runs}
    assert by_key[(2, 0.45)]["status"] == "completed"
    assert by_key[(2, 0.45)]["bounded"] is True
    assert "zeta_star" in by_key[(2, 0.45)]
    # odd n from a start below the repelling equilibrium runs away downward
    assert by_key[(3, 0.45)]["status"] == "diverged"
    assert by_key[(3, 0.45)]["bounded"] is False
    assert "diverged_at" in by_key[(3, 0.45)]


@pytest.mark.parametrize("omega, extra, inside", [
    ("0.3333333333333333", [], True), ("0.33333333333333337", [], False),
    ("0.5", ["--max-steps", "5"], False)])
def test_sweep_rows_place_the_start(omega, extra, inside, tmp_path, capsys):
    """Every row of an even-n, omega > 0 run, error rows included, says
    whether the start lies in the basin estimate right after zeta_end, as
    the solve sidecar does: theta0 = 3 times 1/3 rounded down lies below 1,
    the next float up above it, and those two omegas share a file name, so
    each runs in its own sweep.  Odd n and omega = 0 rows omit the key."""
    out_dir = tmp_path / "s"
    _run(["sweep", "--n", "3,4", "--omega", f"0,{omega}", "--theta0", "3",
          "--zeta-end", "10", *extra, "--out-dir", str(out_dir)], capsys)
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert [r["status"] == "error" for r in runs] == [bool(extra)] * 4
    for row in runs:
        keys = list(row)
        if row["n"] == 4 and row["omega"] > 0.0:
            assert row["start_in_basin"] is inside
            assert keys[keys.index("zeta_end") + 1] == "start_in_basin"
        else:
            assert "start_in_basin" not in row


def test_sweep_validation(tmp_path, capsys):
    code, _, err = _run(["sweep", "--n", "2", "--omega", "-1",
                         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "--omega" in err

    code, _, err = _run(["sweep", "--n", "2,x", "--omega", "0.5",
                         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "--n" in err

    code, _, err = _run(["sweep", "--n", ",", "--omega", "0.5",
                         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err == "error: --n: needs at least one value\n"


def test_sweep_rejects_colliding_run_files(tmp_path, capsys):
    """Run files are named run_n{n}_omega{omega:g}.csv; two omegas that
    agree to 6 significant digits, or a repeated n, would write two runs
    to one file, so the grid is refused before any run starts."""
    for argv, flag in ((["--n", "2", "--omega", "1e-7,1.0000001e-7"],
                        "--omega"),
                       (["--n", "2", "--omega", "0.5,0.5"], "--omega"),
                       (["--n", "2,4,2", "--omega", "0.5"], "--n")):
        out_dir = tmp_path / "s"
        code, _, err = _run(["sweep", *argv, "--zeta-end", "5",
                             "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith(f"error: {flag}: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("flag, argv", [
    ("--zeta0", ["--start-mode", "series", "--zeta0", "0.02"]),
    ("--zeta-end", ["--zeta0", "10", "--zeta-end", "5"]),
])
def test_sweep_refuses_a_bad_start_before_any_run(flag, argv, tmp_path,
                                                  capsys):
    """A start no run can take exits 1 on its flag, as on solve; it used to
    exit 2 with one error row per run."""
    out_dir = tmp_path / "s"
    code, stdout, err = _run(["sweep", "--n", "2,3", "--omega", "0.5", *argv,
                              "--out-dir", str(out_dir)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {flag}: ")
    assert not out_dir.exists()
    assert _run(["solve", *MODEL, *argv, "--out", str(tmp_path / "r.csv")],
                capsys)[2] == err


def test_stability_takes_no_start_flag(capsys):
    """The report is about n, omega and theta0 alone; --zeta0, which it
    only echoed, no longer parses."""
    code, stdout, err = _run(["stability", *MODEL, "--zeta0", "0.5"], capsys)
    assert code == 1 and stdout == ""
    assert "unrecognized arguments: --zeta0 0.5" in err


def test_sweep_records_per_run_errors(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = _run(["sweep", "--n", "2", "--omega", "0.5",
                       "--zeta-end", "60", "--max-steps", "5",
                       "--out-dir", str(out_dir)], capsys)
    assert code == 2
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert runs[0]["status"] == "error"
    assert "error" in runs[0]


def test_sweep_records_tiny_omega_runs_as_errors(tmp_path, capsys):
    """The CSV's V column needs omega**(-(n+1)/n), past the float range
    here; the sweep aborted on its first run and wrote no index."""
    out_dir = tmp_path / "s"
    code, _, _ = _run(["sweep", "--n", "2,4", "--omega", "1e-250",
                       "--zeta-end", "5", "--out-dir", str(out_dir)], capsys)
    assert code == 2
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert [(r["n"], r["status"]) for r in runs] == [(2, "error"),
                                                     (4, "error")]
    assert all(r["error"].startswith("omega: ") and "float range" in r["error"]
               for r in runs)
    assert sorted(f.name for f in out_dir.iterdir()) == ["index.json"]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="sweep workers are forked processes")
# the fork _cpus wraps, taken once, so that a test calling _cpus in a loop
# records each fork once, not once per call before it
_REAL_FORK = getattr(os, "fork", None)


@pytest.fixture
def deadline():
    """Fails the test, rather than hanging the suite, if it runs past 60 s:
    a sweep that waits on a worker that never ends."""
    def expire(signum, frame):
        raise TimeoutError("the sweep ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, count: int) -> list:
    """Give a sweep or solve `count` CPUs in its affinity mask, and return
    the list that records each fork this process makes."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _REAL_FORK())
    return forks


@needs_fork
def test_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys,
                                                       monkeypatch, deadline):
    """A 2 x 2 grid with a completed, an error and a diverged run: one
    worker, two (runs 0 and 2 in the sweep process, 1 and 3 in a forked
    worker) and three (0 and 3; 1; 2) give the same exit code, streams and
    files."""
    outputs = []
    for cpus in (1, 2, 3):
        forks = _cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        code, out, err = _run(["sweep", "--n", "2,3", "--omega",
                               "0.45,1e-250", "--zeta-end", "40",
                               "--out-dir", str(out_dir)], capsys)
        assert len(forks) == cpus - 1
        outputs.append((code, out.replace(str(out_dir), "DIR"), err,
                        {f.name: f.read_bytes() for f in out_dir.iterdir()}))
    assert outputs[0] == outputs[1] == outputs[2]
    code, _, _, files = outputs[0]
    assert code == 2
    runs = json.loads(files["index.json"])["runs"]
    assert [r["status"] for r in runs] == ["completed", "error", "diverged",
                                           "completed"]


def test_sweep_of_one_run_forks_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)

    def refuse():
        raise AssertionError("a one-run sweep forked a worker")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    code, _, _ = _run(["sweep", "--n", "2", "--omega", "0.5", "--zeta-end",
                       "10", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "index.json", "run_n2_omega0.5.csv"]


@needs_fork
@pytest.mark.parametrize("failure, status", [("exit-7", 7), ("cut-json", 0)])
def test_sweep_worker_failure_leaves_error_rows(failure, status, tmp_path,
                                                capsys, monkeypatch, deadline):
    """The worker (runs 1 and 3) dies in integrate, or sends its rows cut
    short: its runs become error rows naming its exit status, the sweep
    process's runs keep theirs, and index.json is complete."""
    _cpus(monkeypatch, 2)
    sweep_pid, real_integrate = os.getpid(), integrate

    def integrate_or_exit(params, opts):
        if os.getpid() != sweep_pid:
            os._exit(7)
        return real_integrate(params, opts)

    if failure == "exit-7":
        monkeypatch.setattr("lanestab.cli.integrate", integrate_or_exit)
    else:  # only a worker writes JSON to a file object
        monkeypatch.setattr(json, "dump", lambda rows, fh: fh.write('[{"n"'))
    out_dir = tmp_path / "s"
    code, out, err = _run(["sweep", "--n", "2,4", "--omega", "0.5,0.6",
                           "--zeta-end", "10", "--out-dir", str(out_dir)],
                          capsys)
    assert (code, err) == (2, "")
    assert out == f"wrote {out_dir / 'index.json'} (4 runs)\n"
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert [(r["n"], r["omega"], r["status"]) for r in runs] == [
        (2, 0.5, "completed"), (2, 0.6, "error"),
        (4, 0.5, "completed"), (4, 0.6, "error")]
    for row in runs[1::2]:
        assert row == {"n": row["n"], "omega": 0.6, "theta0": 1.0,
                       "zeta0": 1e-3, "zeta_end": 10.0,
                       "start_in_basin": True, "status": "error",
                       "error": f"sweep worker exited with status {status}"}
    if failure == "cut-json":  # the worker wrote its CSVs before it failed
        assert len(list(out_dir.glob("*.csv"))) == 4
    else:
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "index.json", "run_n2_omega0.5.csv", "run_n4_omega0.5.csv"]


@needs_fork
@pytest.mark.parametrize("call, error", [("pipe", errno.EMFILE),
                                         ("fork", errno.EAGAIN)],
                         ids=["pipe-fails", "fork-fails"])
def test_sweep_that_cannot_fork_runs_serially(call, error, tmp_path, capsys,
                                              monkeypatch, deadline):
    """Where os.pipe or os.fork fails (no descriptor or process to spare),
    the sweep forks no more and runs the slices left itself: on two CPUs,
    where the first call fails, and on three, where the second does (runs
    0 and 3, and 2, in the sweep process; 1 in a worker), the same exit
    code, streams and files as on one CPU, and no descriptor or child
    left."""
    argv = ["sweep", "--n", "2,4", "--omega", "0.5,0.6", "--zeta-end", "10"]
    outputs = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forks, calls, real = _cpus(patch, cpus), [], getattr(os, call)

            def flaky():
                calls.append(1)
                if len(calls) == cpus - 1:
                    raise OSError(error, os.strerror(error))
                return real()

            patch.setattr(os, call, flaky)
            fds = sorted(os.listdir("/dev/fd"))
            out_dir = tmp_path / f"cpus{cpus}"
            code, out, err = _run([*argv, "--out-dir", str(out_dir)], capsys)
        assert len(forks) == max(0, cpus - 2)
        assert sorted(os.listdir("/dev/fd")) == fds
        _no_child_left()
        outputs.append((code, out.replace(str(out_dir), "DIR"), err,
                        {f.name: f.read_bytes() for f in out_dir.iterdir()}))
    assert outputs[0] == outputs[1] == outputs[2]
    code, out, err, files = outputs[0]
    assert (code, out, err) == (0, "wrote DIR/index.json (4 runs)\n", "")
    assert len(files) == 5


@needs_fork
def test_sweep_interrupted_in_its_own_slice_kills_its_worker(
        tmp_path, capsys, monkeypatch, deadline):
    """On two CPUs, a KeyboardInterrupt in the sweep process's own run
    reaches the caller at once: the worker, still in its run, is killed
    and reaped rather than waited for, and no descriptor is left open."""
    forks = _cpus(monkeypatch, 2)
    sweep_pid = os.getpid()

    def interrupt_or_hang(params, opts, out_dir):
        if os.getpid() == sweep_pid:
            raise KeyboardInterrupt
        signal.pause()  # the worker's run never ends

    monkeypatch.setattr(cli, "_sweep_run", interrupt_or_hang)
    fds = sorted(os.listdir("/dev/fd"))
    with pytest.raises(KeyboardInterrupt):
        _run(["sweep", "--n", "2", "--omega", "0.5,0.6", "--zeta-end", "10",
              "--out-dir", str(tmp_path)], capsys)
    assert len(forks) == 1
    _no_child_left()
    assert sorted(os.listdir("/dev/fd")) == fds
    assert list(tmp_path.iterdir()) == []


@needs_fork
def test_sweep_csv_write_failure_is_that_runs_error_row(tmp_path, capsys,
                                                        monkeypatch, deadline):
    """A directory where run 1's CSV goes: that run becomes an error row
    naming the path, and run 0 completes, on one CPU and on two (run 1 in
    a forked worker).  One CPU exited 1 with no index.json; two turned the
    worker's whole slice into 'sweep worker exited' rows."""
    outputs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        (out_dir / "run_n2_omega0.6.csv").mkdir(parents=True)
        code, out, err = _run(["sweep", "--n", "2", "--omega", "0.5,0.6",
                               "--zeta-end", "10", "--out-dir", str(out_dir)],
                              capsys)
        runs = json.loads((out_dir / "index.json").read_text())["runs"]
        assert runs[1]["error"].endswith(f"'{out_dir / 'run_n2_omega0.6.csv'}'")
        runs[1]["error"] = runs[1]["error"].replace(str(out_dir), "DIR")
        outputs.append((code, out.replace(str(out_dir), "DIR"), err, runs,
                        {f.name: f.is_dir() or f.read_bytes()
                         for f in out_dir.iterdir() if f.name != "index.json"}))
    assert outputs[0] == outputs[1]
    code, _, err, runs, files = outputs[0]
    assert (code, err) == (2, "")
    assert [r["status"] for r in runs] == ["completed", "error"]
    assert runs[1] == {"n": 2, "omega": 0.6, "theta0": 1.0, "zeta0": 1e-3,
                       "zeta_end": 10.0, "start_in_basin": True,
                       "status": "error",
                       "error": "[Errno 21] Is a directory: "
                                "'DIR/run_n2_omega0.6.csv'"}
    assert sorted(files) == ["run_n2_omega0.5.csv", "run_n2_omega0.6.csv"]


def test_sweep_into_an_unusable_out_dir_exits_1(tmp_path, capsys,
                                                monkeypatch):
    """A file where --out-dir goes: exit 1 before any run starts."""
    blocker, runs = tmp_path / "file", []
    blocker.write_text("")
    monkeypatch.setattr("lanestab.cli.integrate", lambda *a: runs.append(a))
    code, out, err = _run(["sweep", "--n", "2", "--omega", "0.5,0.6",
                           "--zeta-end", "10", "--out-dir", str(blocker)],
                          capsys)
    assert (code, out, runs) == (1, "", [])
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == ""


SOLVES = {
    "completed": ["--n", "4", "--omega", "0.65"],
    "guard": ["--n", "3", "--omega", "0.125", "--theta0", "8.2",
              "--zeta-end", "50"],
    "runaway": ["--n", "5", "--omega", "0.5"],
    "gamma2": ["--n", "1", "--omega", "0.5", "--check-oracle", "gamma2"],
    "json": ["--n", "2", "--omega", "0.5", "--json"],
}


def _solve_outputs(args, out_dir: Path, capsys) -> tuple:
    """Exit code, streams (out_dir read as DIR) and the files in out_dir
    of `solve *args --out out_dir/run.csv`."""
    code, out, err = _run(["solve", *args, "--out", str(out_dir / "run.csv")],
                          capsys)
    files = {f.name: f.read_bytes() for f in out_dir.iterdir()} \
        if out_dir.exists() else {}
    return (code, out.replace(str(out_dir), "DIR"),
            err.replace(str(out_dir), "DIR"), files)


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("case", sorted(SOLVES))
def test_solve_bytes_do_not_depend_on_the_cpus(case, tmp_path, capsys,
                                               monkeypatch, deadline):
    """With sink batches of 256 steps, two CPUs fork the row formatter at
    step 256 and stream it every node, and solve formats no row itself;
    one CPU formats serially.  Both give the same exit code, streams and
    files."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 256)
    solve_pid, real_rows = os.getpid(), cli._csv_rows
    formatted = []  # node counts solve's own process formats

    def counted_rows(params, z0, dz0):
        header, rows = real_rows(params, z0, dz0)

        def counted(*cols):
            if os.getpid() == solve_pid:
                formatted.append(len(cols[0]))
            return rows(*cols)
        return header, counted

    monkeypatch.setattr(cli, "_csv_rows", counted_rows)
    outputs = []
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        outputs.append(_solve_outputs(SOLVES[case], tmp_path / f"cpus{cpus}",
                                      capsys))
        assert len(forks) == cpus - 1
        assert len(formatted) == 2 - cpus
        formatted.clear()
        _no_child_left()
    assert outputs[0] == outputs[1]
    code, _, err, files = outputs[0]
    assert (code, err) == (0, "")
    assert sorted(files) == ["run.csv", "run.summary.json"]


def test_point_sized_solve_forks_nothing(tmp_path, capsys, monkeypatch):
    """824 steps, about the longest `point` solve, stays under a sink batch
    of 1024 steps, so integrate never calls the sink that forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)

    def refuse():
        raise AssertionError("a point-sized solve forked its formatter")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    code, out, _ = _run(["solve", *SOLVES["completed"],
                         "--out", str(tmp_path / "run.csv")], capsys)
    assert code == 0 and "in 824 steps" in out


@needs_fork
@pytest.mark.parametrize("lack", ["no-memfd", "memfd-fails", "fork-fails"])
def test_solve_that_cannot_fork_formats_serially(lack, tmp_path, capsys,
                                                 monkeypatch, deadline):
    """On two CPUs, without os.memfd_create, or where it or the fork fails
    (no file or process to spare), solve forks nothing, gives a one-CPU
    run's bytes and leaves no descriptor open."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 256)
    _cpus(monkeypatch, 1)
    serial = _solve_outputs(SOLVES["completed"], tmp_path / "serial", capsys)
    forks = _cpus(monkeypatch, 2)

    def fail(*args):
        raise OSError(errno.EMFILE, "Too many open files")

    if lack == "no-memfd":
        monkeypatch.delattr(os, "memfd_create", raising=False)
    else:
        monkeypatch.setattr(os, {"memfd-fails": "memfd_create",
                                 "fork-fails": "fork"}[lack], fail)
    fds = sorted(os.listdir("/dev/fd"))
    assert _solve_outputs(SOLVES["completed"], tmp_path / lack,
                          capsys) == serial
    assert forks == []
    assert sorted(os.listdir("/dev/fd")) == fds


@needs_fork
@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("case", ["max-steps", "tiny-omega"])
def test_solve_failure_after_the_fork_writes_nothing(case, existing, tmp_path,
                                                     capsys, monkeypatch,
                                                     deadline):
    """With sink batches of 50 steps, the run exhausts --max-steps after
    the formatter forked (at step 50), or the V column's --omega check
    fails once it has forked (in a 59-step run): on one CPU and on two,
    the same exit code and message, no CSV and no sidecar, and an existing
    --out left as it was."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 50)
    args = {"max-steps": [*SOLVES["completed"], "--max-steps", "600"],
            "tiny-omega": ["--n", "4", "--omega", "1e-250",
                           "--zeta-end", "1e6"]}[case]
    outputs = []
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        if existing:
            out_dir.mkdir()
            (out_dir / "run.csv").write_bytes(b"zeta\n1\n")
        outputs.append(_solve_outputs(args, out_dir, capsys))
        assert len(forks) == cpus - 1
        _no_child_left()
    assert outputs[0] == outputs[1]
    code, out, err, files = outputs[0]
    assert out == ""
    assert files == ({"run.csv": b"zeta\n1\n"} if existing else {})
    if case == "max-steps":
        assert code == 2 and err.startswith(
            "numerical failure: max_steps = 600 exhausted at zeta = ")
    else:
        assert code == 1 and err.startswith("error: --omega: ") \
            and "float range" in err


@needs_fork
@pytest.mark.parametrize("failure", ["exit-at-start", "exit-7", "cut-text"])
def test_solve_formatter_failure_formats_serially(failure, tmp_path, capsys,
                                                  monkeypatch, deadline):
    """The formatter dies before it formats a row, exits 7 after writing
    all its text, or exits 0 with a row of each batch missing: solve
    formats the rows itself, and the bytes match a one-CPU run."""
    monkeypatch.setattr(INTEGRATE_MODULE, "_SINK_STEPS", 256)
    _cpus(monkeypatch, 1)
    serial = _solve_outputs(SOLVES["completed"], tmp_path / "serial", capsys)
    forks = _cpus(monkeypatch, 2)
    solve_pid, real_exit, real_rows = os.getpid(), os._exit, cli._csv_rows
    formatted = []  # node counts solve's own process formats

    def failing_rows(params, z0, dz0):
        header, rows = real_rows(params, z0, dz0)
        if os.getpid() == solve_pid:
            return header, lambda *cols: formatted.append(len(cols[0])) \
                or rows(*cols)
        if failure == "exit-at-start":
            real_exit(7)
        if failure == "exit-7":
            return header, rows
        return header, lambda ts, zs, dzs: rows(ts[1:], zs[1:], dzs[1:])

    monkeypatch.setattr(cli, "_csv_rows", failing_rows)
    if failure == "exit-7":  # only the formatter leaves through _exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(7))
    assert _solve_outputs(SOLVES["completed"], tmp_path / "forked",
                          capsys) == serial
    assert len(forks) == 1 and formatted == [825]
    _no_child_left()


@pytest.mark.parametrize("n, omega, theta0, zeta_end",
                         [(4, 0.65, 1.0, 60.0), (3, 0.125, 8.2, 50.0),
                          (2, 0.0, 1.0, 60.0)])
def test_formatter_rows_equal_the_serial_rows(n, omega, theta0, zeta_end,
                                              monkeypatch):
    """_format_rows, run in process on a feed of a run's nodes as raw
    doubles, read 16 nodes at a time, writes the rows _trajectory_csv
    formats, for an even-n run with V columns, a diverged odd-n run and
    an omega = 0 run; none of their node counts (825, 985, 58) is a
    multiple of 16."""
    monkeypatch.setattr(cli, "_SINK_STEPS", 16)
    p = make_params(n, omega, theta0)
    traj = integrate(p, IntegratorOptions(zeta_end=zeta_end))
    assert len(traj.zetas) % 16 != 0
    nodes = array("d", [v for node in zip(traj.zetas, traj.zs, traj.dzs)
                        for v in node])
    out = io.StringIO()
    cli._format_rows(p, io.BytesIO(nodes.tobytes()), out)
    assert out.getvalue() == cli._trajectory_csv(traj).split("\n", 1)[1]


def test_plot_profile_svg(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    _run(["solve", "--n", "2", "--omega", "0.5", "--zeta-end", "10",
          "--out", str(csv)], capsys)
    code, _, _ = _run(["plot", "--input", str(csv), "--kind", "profile"],
                      capsys)
    assert code == 0
    svg_path = tmp_path / "run.svg"
    root = ET.fromstring(svg_path.read_text())
    assert root.tag == f"{SVG}svg"
    assert len(root.findall(f".//{SVG}polyline")) == 1


def test_plot_phase_marks_equilibria(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    _run(["solve", "--n", "2", "--omega", "0.5", "--zeta-end", "30",
          "--out", str(csv)], capsys)
    out = tmp_path / "phase.svg"
    code, _, _ = _run(["plot", "--input", str(csv), "--kind", "phase",
                       "--out", str(out)], capsys)
    assert code == 0
    root = ET.fromstring(out.read_text())
    circles = root.findall(f".//{SVG}circle")
    assert len(circles) == 2
    fills = {c.get("fill") for c in circles}
    assert len(fills) == 2


def test_plot_phase_without_markers_past_the_float_range(tmp_path, capsys):
    """n = 1 at omega = 1e-310 integrates, but its equilibrium is past the
    float range; the phase plot draws without markers, as for omega = 0,
    where the marker lookup was an OverflowError traceback."""
    csv = tmp_path / "run.csv"
    code, _, _ = _run(["solve", "--n", "1", "--omega", "1e-310",
                       "--zeta-end", "5", "--out", str(csv)], capsys)
    assert code == 0
    out = tmp_path / "phase.svg"
    code, _, _ = _run(["plot", "--input", str(csv), "--kind", "phase",
                       "--out", str(out)], capsys)
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert len(root.findall(f".//{SVG}polyline")) == 1
    assert root.findall(f".//{SVG}circle") == []


@pytest.mark.parametrize("text, kind, columns", [
    ("zeta,theta\n0,nan\n1,inf\n", "profile", "zeta/theta"),
    ("zeta,z,dz\n0,nan,1\n1,2,-inf\n2,inf,nan\n", "phase", "z/dz"),
], ids=["profile", "phase"])
def test_plot_with_nothing_to_draw_exits_1(tmp_path, capsys, text, kind,
                                           columns):
    """No row with both plotted cells finite: exit 1 naming --input, where
    the plot was an empty polyline."""
    csv = tmp_path / "run.csv"
    csv.write_text(text)
    code, out, err = _run(["plot", "--input", str(csv), "--kind", kind],
                          capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --input: {csv} has no finite {columns} pair\n"
    assert not (tmp_path / "run.svg").exists()


def test_plot_of_a_constant_series_pads_its_axis_by_one(tmp_path, capsys):
    """A constant theta column spans no range, so its axis runs from one
    below to one above the value; the nan row is skipped."""
    csv = tmp_path / "run.csv"
    csv.write_text("zeta,theta\n0,0.5\n1,0.5\n2,nan\n3,0.5\n")
    renders = []
    for name in ("a.svg", "b.svg"):
        code, _, _ = _run(["plot", "--input", str(csv), "--out",
                           str(tmp_path / name)], capsys)
        assert code == 0
        renders.append((tmp_path / name).read_bytes())
    assert renders[0] == renders[1]
    root = ET.fromstring(renders[0])
    ticks = [t.text for t in root.findall(f"{SVG}text")
             if t.get("text-anchor") == "end"]
    assert ticks == ["-0.5", "0", "0.5", "1", "1.5"]
    (polyline,) = root.findall(f"{SVG}polyline")
    points = polyline.get("points").split()
    assert len(points) == 3 and len({p.split(",")[1] for p in points}) == 1


@pytest.mark.parametrize("oracle, thetas", [
    (["gamma2", "--omega", "1e-300", "--theta0", "1e299"], None),
    (None, ["4503599627370496", "4503599627370496"]),
    (None, ["1e20", "100000000000000016384"]),
], ids=["constant-1e299", "constant-2**52", "one-ulp-at-1e20"])
def test_plot_of_a_narrow_series_at_large_magnitude_draws(
        oracle, thetas, tmp_path, capsys, deadline):
    """A constant theta of 1e299, whose pad of one is lost to rounding,
    raised a math domain error, and a constant 2**52 or two values one ulp
    apart at 1e20 hung the tick loop.  The axis now spans at least 1e-9 of
    the largest magnitude a side, so each draws its ticks."""
    csv = tmp_path / "run.csv"
    if oracle is None:
        csv.write_text("zeta,theta\n0,%s\n1,%s\n" % tuple(thetas))
    else:
        _run(["oracle", "--kind", *oracle, "--out", str(csv)], capsys)
    code, out, err = _run(["plot", "--input", str(csv)], capsys)
    assert (code, err) == (0, "")
    root = ET.fromstring((tmp_path / "run.svg").read_text())
    ticks = [t.text for t in root.findall(f"{SVG}text")
             if t.get("text-anchor") == "end"]
    assert len(ticks) >= 2


def test_plot_of_values_near_the_float_maximum_exits_1(tmp_path, capsys):
    """A theta column up to 1.7976931057355819e+308 has no room for its 5%
    margins, which overflowed in a traceback: exit 1 naming the file."""
    csv = tmp_path / "q.csv"
    _run(["oracle", "--kind", "powerlaw", "--gamma", "-1e-3", "--theta0",
          "1e300", "--zeta-end", "1e300", "--out", str(csv)], capsys)
    assert csv.read_text().endswith(",1.7976931057355819e+308\n")
    code, out, err = _run(["plot", "--input", str(csv), "--kind", "profile"],
                          capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --input: {csv}: values from ") \
        and err.endswith(" within the float range\n")
    assert not (tmp_path / "q.svg").exists()


@pytest.mark.parametrize("text, kind, what", [
    ("", "profile", "is empty"),
    ("zeta,theta\n0.1,1.0\n0.2\n", "profile", "has a ragged row"),
    ("zeta,theta\n0.1,abc\n", "profile", "has a non-numeric cell"),
    ("zeta,z\n0.1,1.0\n", "profile", "lacks zeta/theta columns"),
    ("zeta,theta\n0.1,1.0\n", "phase", "lacks z/dz columns"),
    ("", "profile-family", "is empty"),
    ("zeta,z\n0.1,1.0\n", "profile-family", "lacks zeta/theta columns"),
], ids=["empty", "ragged", "non-numeric", "no-theta", "no-dz",
        "family-empty", "family-no-theta"])
def test_plot_rejects_malformed_csv(tmp_path, capsys, text, kind, what):
    csv = tmp_path / "run.csv"
    csv.write_text(text)
    src = csv
    if kind == "profile-family":
        src = tmp_path / "index.json"
        src.write_text(json.dumps({"runs": [
            {"n": 2, "omega": 0.5, "file": csv.name, "bounded": True}]}))
    code, _, err = _run(["plot", "--input", str(src), "--kind", kind], capsys)
    assert code == 1
    assert err.startswith(f"error: --input: {csv} {what}")
    assert not (tmp_path / "run.svg").exists()
    assert not (tmp_path / "index.svg").exists()


def test_plot_profile_family_and_determinism(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    _run(["sweep", "--n", "2", "--omega", "0.3,0.6", "--zeta-end", "20",
          "--out-dir", str(out_dir)], capsys)
    renders = []
    for name in ("f1.svg", "f2.svg"):
        out = tmp_path / name
        code, _, _ = _run(["plot", "--input", str(out_dir / "index.json"),
                           "--kind", "profile-family", "--out", str(out)],
                          capsys)
        assert code == 0
        renders.append(out.read_bytes())
    assert renders[0] == renders[1]
    root = ET.fromstring(renders[0].decode())
    assert len(root.findall(f".//{SVG}polyline")) == 2
    text = renders[0].decode()
    assert "n=2, omega=0.3" in text and "n=2, omega=0.6" in text


def test_plot_profile_family_skips_unbounded_runs(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = _run(["sweep", "--n", "2,3", "--omega", "0.45,0.9",
                       "--zeta-end", "40", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert [r["bounded"] for r in runs] == [True, True, False, False]
    out = tmp_path / "family.svg"
    code, _, _ = _run(["plot", "--input", str(out_dir / "index.json"),
                       "--kind", "profile-family", "--out", str(out)], capsys)
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert len(root.findall(f".//{SVG}polyline")) == 2
    # a diverged run would stretch the theta axis to about -1e36
    ticks = []
    for el in root.findall(f".//{SVG}text"):
        try:
            ticks.append(float(el.text))
        except ValueError:
            pass
    assert ticks and max(abs(t) for t in ticks) <= 1e3
    assert "n=3" not in out.read_text()


def test_plot_profile_family_rejects_index_without_bounded_runs(tmp_path,
                                                                capsys):
    out_dir = tmp_path / "sweep"
    _run(["sweep", "--n", "3", "--omega", "0.45", "--zeta-end", "40",
          "--out-dir", str(out_dir)], capsys)
    code, _, err = _run(["plot", "--input", str(out_dir / "index.json"),
                         "--kind", "profile-family"], capsys)
    assert code == 1
    assert "lists no bounded runs" in err


@pytest.mark.parametrize("runs, what", [
    ([{"n": 2, "omega": 0.5, "bounded": True}], "runs[0] = "),
    ([{"bounded": False}, {"file": "a.csv", "bounded": True}], "runs[1] = "),
    ([{"n": 2, "omega": "0.5", "file": "a.csv", "bounded": True}],
     "runs[0] = "),
    (["run_n2_omega0.5.csv"], "runs[0] = "),
    ({"n": 2}, "runs is not a list"),
], ids=["no-file", "no-n", "omega-not-a-number", "row-not-an-object",
        "runs-an-object"])
def test_plot_profile_family_rejects_malformed_rows(tmp_path, capsys, runs,
                                                    what):
    """A bounded row without "file" ended in KeyError and a runs object in
    AttributeError, both with a traceback."""
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"runs": runs}))
    code, _, err = _run(["plot", "--input", str(index), "--kind",
                         "profile-family"], capsys)
    assert code == 1
    assert err.startswith(f"error: --input: malformed sweep index {index}: "
                          f"{what}")


def test_plot_missing_input(tmp_path, capsys):
    code, _, err = _run(["plot", "--input", str(tmp_path / "absent.csv")],
                        capsys)
    assert code == 1
    assert "--input" in err


def test_plot_accepts_oracle_csv(tmp_path, capsys):
    csv = tmp_path / "oracle.csv"
    _run(["oracle", "--kind", "gaussian", "--zeta-end", "5",
          "--out", str(csv)], capsys)
    code, _, _ = _run(["plot", "--input", str(csv), "--kind", "profile"],
                      capsys)
    assert code == 0
    assert (tmp_path / "oracle.svg").exists()


def _python(*args):
    """A fresh interpreter with this checkout's package on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)


def test_cli_import_does_not_load_scipy():
    proc = _python("-c", "import sys, lanestab.cli; "
                         "print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_does_not_load_numpy():
    proc = _python("-c", "import sys, lanestab.cli; "
                         "print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_does_not_load_dataclasses_or_svgplot():
    """dataclasses with inspect costs every process several milliseconds;
    only plot needs the SVG writer."""
    proc = _python("-c", "import sys, lanestab.cli; "
                         "print(sorted(m for m in sys.modules if m in "
                         "('dataclasses', 'lanestab.svgplot')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_overflow_is_a_clean_numerical_failure(tmp_path):
    """theta0 = 1e200 overflows z**n on every trial stage; the process
    exits 2 with one message, no traceback and no RuntimeWarning."""
    proc = _python("-m", "lanestab.cli", "solve", "--n", "2", "--omega",
                   "0.5", "--theta0", "1e200", "--out",
                   str(tmp_path / "run.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
