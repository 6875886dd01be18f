"""Command-line behavior: files, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from lanestab import (
    IntegratorOptions,
    equilibria,
    gamma2_profile,
    HaloProfile,
    integrate,
    lyapunov_V,
    lyapunov_Vdot,
    make_params,
    theta_from_z,
)
from lanestab.cli import CSV_HEADER_BARE, CSV_HEADER_FULL, main

SVG = "{http://www.w3.org/2000/svg}"


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


def test_solve_json_summary_to_stdout(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = _run(["solve", "--n", "2", "--omega", "0.5",
                            "--zeta-end", "10", "--out", str(out), "--json"],
                           capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary.keys()) == ["params", "stable_regime", "zeta_star"]
    assert stdout.encode() == (tmp_path / "run.summary.json").read_bytes()


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


def test_solve_check_oracle(tmp_path, capsys):
    out = tmp_path / "halo.csv"
    code, stdout, _ = _run(["solve", "--n", "1", "--omega", "0.5",
                            "--zeta-end", "1", "--out", str(out), "--json",
                            "--check-oracle", "gamma2"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["oracle"]["kind"] == "gamma2"
    assert summary["oracle"]["max_abs_err"] <= 1e-6


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
    profile = HaloProfile(theta0=1.0, omega=0.5)
    first = [float(c) for c in lines[1].split(",")]
    last = [float(c) for c in lines[-1].split(",")]
    assert first == [0.0, 1.0]
    assert last[0] == 6.0
    assert last[1] == gamma2_profile(6.0, profile)


def test_oracle_gamma2_tiny_omega_boundary(tmp_path, capsys):
    # omega -> 0 puts the halo boundary at sqrt(12 theta0)
    code, stdout, _ = _run(["oracle", "--kind", "gamma2", "--omega", "1e-20",
                            "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 0
    assert "zeta_M = 3.46410161514\n" in stdout


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


def test_oracle_rejects_unknown_kind(tmp_path, capsys):
    code, _, err = _run(["oracle", "--kind", "cubic"], capsys)
    assert code == 1
    assert "--kind" in err


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


def test_stability_cli_human_summary(capsys):
    code, stdout, _ = _run(["stability", "--n", "3", "--omega", "0.125"],
                           capsys)
    assert code == 0
    assert "unstable" in stdout


def test_stability_cli_rejects_omega_zero(capsys):
    code, _, err = _run(["stability", "--n", "2", "--omega", "0"], capsys)
    assert code == 1
    assert "--omega" in err


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


def test_sweep_validation(tmp_path, capsys):
    code, _, err = _run(["sweep", "--n", "2", "--omega", "-1",
                         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "--omega" in err

    code, _, err = _run(["sweep", "--n", "2,x", "--omega", "0.5",
                         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "--n" in err


def test_sweep_records_per_run_errors(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = _run(["sweep", "--n", "2", "--omega", "0.5",
                       "--zeta-end", "60", "--max-steps", "5",
                       "--out-dir", str(out_dir)], capsys)
    assert code == 2
    runs = json.loads((out_dir / "index.json").read_text())["runs"]
    assert runs[0]["status"] == "error"
    assert "error" in runs[0]


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
