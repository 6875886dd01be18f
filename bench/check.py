"""Correctness checks of CLI outputs against the documented contract and
the recorded reference.

observe() turns one call's exit code, streams and emitted files into a
small record: status, checked scalars, SHA-256 of every emitted file and
the number of accepted integrator steps (emitted rows - 1 per run).
make_reference.py stores these records; judge() compares a fresh record
against the stored one.

A call fails when
  * its exit code or status breaks the documented contract (exit 0;
    solve and every sweep run end "completed" or "diverged");
  * a RuntimeWarning reaches stderr;
  * a --check-oracle error exceeds its acceptance-criterion tolerance;
  * a checked scalar leaves the reference tolerance (only where the
    reference call itself met the contract).
A file whose bytes differ from the reference is not a failure on its own:
it is counted, so byte drift shows beside scalar deviation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# acceptance criteria 01 (gamma2) and 03 (powerlaw) gate at 1e-6, 04 (the
# Gaussian limit) at 1e-4
ORACLE_TOL = {"gamma2": 1e-6, "powerlaw": 1e-6, "gaussian": 1e-4}

# (relative tolerance, magnitude below which the tolerance is absolute)
TRAJECTORY_TOL = (1e-6, 1e-2)
CERTIFICATE_TOL = (1e-12, 1.0)
SCALAR_TOL = {"zeta_star": TRAJECTORY_TOL, "diverged_at": TRAJECTORY_TOL,
              "z_end": TRAJECTORY_TOL, "dz_end": TRAJECTORY_TOL,
              "alpha_max": CERTIFICATE_TOL,
              "instability_zeta0": CERTIFICATE_TOL,
              "worst_eig": CERTIFICATE_TOL}

COMPLETED = "completed"
DIVERGED = "diverged"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flag(args: tuple[str, ...], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _csv_tail(path: Path) -> tuple[int, list[float]]:
    """Data row count and last row of an emitted CSV."""
    lines = path.read_text().splitlines()
    return len(lines) - 1, [float(c) for c in lines[-1].split(",")]


def _trajectory_steps(csv: Path, status: str, prefix: str,
                      scalars: dict) -> int:
    """Record the final state of a completed run; return its step count."""
    rows, last = _csv_tail(csv)
    # past the divergence guard the last row depends on where the step landed
    if status == COMPLETED:
        scalars[prefix + "z_end"] = last[1]
        scalars[prefix + "dz_end"] = last[2]
    return rows - 1


def observe(args: tuple[str, ...], opdir: Path, rc: int, stdout: str,
            stderr: str) -> dict:
    """Checked facts of one finished call run inside opdir."""
    cmd = args[0]
    rec: dict = {"rc": rc, "warning": "RuntimeWarning" in stderr,
                 "status": None, "scalars": {}, "files": {}, "steps": 0,
                 "problems": []}
    scalars = rec["scalars"]
    files = rec["files"]

    def emitted(rel: str) -> Path | None:
        p = opdir / rel
        if p.is_file():
            files[rel] = sha256(p)
            return p
        rec["problems"].append(f"{rel} not written")
        return None

    if rc != 0:
        rec["problems"].append(f"exit {rc}: {stderr.strip()[-160:]}")
        return rec
    if cmd == "stability":
        report = json.loads(stdout)
        rec["status"] = "ok"
        for name in ("alpha_max", "instability_zeta0"):
            if name in report:
                scalars[name] = report[name]
        if "lmi" in report:
            scalars["worst_eig"] = report["lmi"]["worst_eig"]
            if not report["lmi"]["verified"]:
                rec["problems"].append("LMI not verified")
    elif cmd == "solve":
        out = _flag(args, "--out")
        csv = emitted(out)
        side = emitted(str(Path(out).with_suffix(".summary.json")))
        if csv is None or side is None:
            return rec
        summary = json.loads(side.read_text())
        rec["status"] = DIVERGED if "diverged_at" in summary else COMPLETED
        for name in ("zeta_star", "diverged_at"):
            if name in summary:
                scalars[name] = summary[name]
        rec["steps"] = _trajectory_steps(csv, rec["status"], "", scalars)
        kind = _flag(args, "--check-oracle")
        if kind is not None:
            err = summary["oracle"]["max_abs_err"]
            rec["oracle_err"] = err
            if not err <= ORACLE_TOL[kind]:
                rec["problems"].append(
                    f"oracle {kind} error {err:.3e} > {ORACLE_TOL[kind]:g}")
    elif cmd == "sweep":
        index = emitted(_flag(args, "--out-dir") + "/index.json")
        if index is None:
            return rec
        statuses = []
        for run in json.loads(index.read_text())["runs"]:
            tag = f"n{run['n']}-om{run['omega']!r}."
            if run["status"] not in (COMPLETED, DIVERGED):
                rec["problems"].append(f"{tag} status {run['status']}")
                continue
            statuses.append(run["status"])
            for name in ("zeta_star", "diverged_at"):
                if name in run:
                    scalars[tag + name] = run[name]
            csv = emitted(_flag(args, "--out-dir") + "/" + run["file"])
            if csv is not None:
                rec["steps"] += _trajectory_steps(csv, run["status"], tag,
                                                  scalars)
        rec["status"] = ",".join(statuses)
    else:  # oracle and plot each emit one file
        out = emitted(_flag(args, "--out"))
        if out is not None:
            rec["status"] = "ok"
            if cmd == "plot" and not out.read_text().rstrip().endswith("</svg>"):
                rec["problems"].append("truncated SVG")
    return rec


def contract_ok(rec: dict) -> bool:
    return rec["rc"] == 0 and not rec["warning"] and not rec["problems"]


def _dev(name: str, value: float, ref: float) -> tuple[float, float]:
    rtol, scale = SCALAR_TOL[name.rsplit(".", 1)[-1]]
    if value == ref:
        return 0.0, rtol
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf, rtol
    return abs(value - ref) / max(abs(ref), scale), rtol


def judge(rec: dict, ref: dict | None) -> dict:
    """Verdict on one call: failed (contract or reference), regression
    (failed although the reference call passed), largest scalar deviation,
    and file byte matches."""
    problems = list(rec["problems"])
    if rec["warning"]:
        problems.append("RuntimeWarning on stderr")
    if ref is None:
        problems.append("no reference recorded for this call")
    max_dev = 0.0
    files_same = files_total = 0
    # a call with no reference, or one that met the contract at the
    # reference commit, regresses when it fails now
    ref_ok = ref is None or contract_ok(ref)
    if ref is not None and ref_ok and not problems:
        if rec["status"] != ref["status"]:
            problems.append(f"status {rec['status']} != {ref['status']}")
        got, want = rec["scalars"], ref["scalars"]
        if set(got) != set(want):
            problems.append(f"scalar set {sorted(set(got) ^ set(want))}")
        for name in sorted(set(got) & set(want)):
            dev, rtol = _dev(name, got[name], want[name])
            max_dev = max(max_dev, dev)
            if dev > rtol:
                problems.append(f"{name} = {got[name]!r}, reference "
                                f"{want[name]!r}")
        for rel, digest in ref["files"].items():
            files_total += 1
            files_same += rec["files"].get(rel) == digest
    return {"failed": bool(problems), "regression": bool(problems) and ref_ok,
            "problems": problems, "max_dev": max_dev,
            "files_same": files_same, "files_total": files_total}
