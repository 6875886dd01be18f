"""Command-line front end.

Subcommands
-----------
solve      integrate one parameter set; emits trajectory CSV plus a JSON
           summary sidecar (<out>.summary.json)
oracle     tabulate one of the closed-form profiles to CSV
stability  run the certificate suite and emit the report as JSON
sweep      run a grid of (n, omega) pairs in parameter order, one CSV per
           run plus an index.json
plot       render an emitted CSV or sweep index as a standalone SVG

Exit codes: 0 success (a run that hits the divergence guard is a
meaningful success, reported through diverged_at), 1 user or validation
error (the message names the offending flag), 2 numerical failure.

All emitted files are byte deterministic for identical inputs.  CSV cells
carry 17 significant digits; sweep runs go one after another in parameter
order, and the index is written last.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import closedform, svgplot
from .integrate import (DIVERGED, IntegrationError, IntegratorOptions,
                        OFFSET, SERIES, Trajectory, first_zero, integrate)
from .model import (ModelParams, ValidationError, equilibria, make_params,
                    theta_from_z)
from .stability import classify, lyapunov_V, lyapunov_Vdot

CSV_HEADER_FULL = "zeta,z,dz,theta,V,Vdot"
CSV_HEADER_BARE = "zeta,z,dz,theta"
ORACLE_KINDS = ("gamma2", "powerlaw", "gaussian")
PLOT_KINDS = ("profile", "phase", "profile-family")
BOUNDED_LIMIT = 1e3
LMI_CLI_FAIL_TOL = 1e-10
STABLE_COLOR = "#000000"
UNSTABLE_COLOR = "#d62728"

FLAG_BY_FIELD = {
    "n": "--n",
    "omega": "--omega",
    "theta0": "--theta0",
    "zeta_start": "--zeta0",
    "zeta_small": "--zeta0",
    "zeta_end": "--zeta-end",
    "rel_tol": "--rtol",
    "abs_tol": "--atol",
    "start_mode": "--start-mode",
    "max_steps": "--max-steps",
    "check_oracle": "--check-oracle",
    "kind": "--kind",
    "gamma": "--gamma",
    "points": "--points",
    "input": "--input",
    "out_dir": "--out-dir",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for numerical failure
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _trajectory_csv(traj: Trajectory) -> str:
    params = traj.params
    with_v = params.n % 2 == 0 and params.omega > 0.0
    lines: list[str] = []
    if with_v:
        left = equilibria(params)[0]
        lines.append(CSV_HEADER_FULL)
        for t, z, dz in zip(traj.zetas, traj.zs, traj.dzs):
            v = lyapunov_V(z - left.z_eq, dz, params)
            vdot = lyapunov_Vdot(dz, t)
            lines.append(",".join(_fmt(x) for x in
                                  (t, z, dz, theta_from_z(z, params.n), v, vdot)))
    else:
        lines.append(CSV_HEADER_BARE)
        for t, z, dz in zip(traj.zetas, traj.zs, traj.dzs):
            lines.append(",".join(_fmt(x) for x in
                                  (t, z, dz, theta_from_z(z, params.n))))
    return "\n".join(lines) + "\n"


def _params_dict(params: ModelParams) -> dict:
    return {"n": params.n, "omega": params.omega, "theta0": params.theta0,
            "zeta0": params.zeta_start}


def _solve_summary(params: ModelParams, traj: Trajectory,
                   zeta_star: float | None, oracle: dict | None) -> dict:
    d: dict = {"params": _params_dict(params),
               "stable_regime": params.stable_regime}
    if zeta_star is not None:
        d["zeta_star"] = zeta_star
    if traj.diverged_at is not None:
        d["diverged_at"] = traj.diverged_at
    if oracle is not None:
        d["oracle"] = oracle
    return d


def _closed_form(kind: str, theta0: float, omega: float | None,
                 gamma: float | None):
    """(theta(zeta), domain end, note) of one closed-form profile.

    The domain end is math.inf where the formula is total.  The note is
    None or a callable giving the line `oracle` prints; it is lazy because
    `solve --check-oracle` never prints it.
    """
    if kind == "gamma2":
        profile = closedform.HaloProfile(theta0=theta0, omega=omega)
        return (lambda t: closedform.gamma2_profile(t, profile), math.inf,
                lambda: f"halo boundary zeta_M = "
                        f"{closedform.halo_boundary(profile):.12g}")
    if kind == "powerlaw":
        fn = lambda t: closedform.powerlaw_profile(t, gamma, theta0)
        if gamma > 1.0:
            end = closedform.powerlaw_boundary(gamma, theta0)
            return fn, end, lambda: f"profile boundary zeta_star = {end:.12g}"
        return fn, math.inf, None
    if kind == "gaussian":
        return (lambda t: closedform.gaussian_profile(t, theta0), math.inf,
                None)
    return (lambda t: closedform.waterbag_profile(t, omega), math.inf,
            lambda: f"step radius xi0 = "
                    f"{closedform.lane_emden_radius(omega):.12g}")


def _oracle_comparison(kind: str, params: ModelParams,
                       traj: Trajectory) -> dict:
    """Max |numeric - closed form| of theta on a 1001-point grid of the run
    range, capped below the profile's domain end."""
    fn, end, _ = _closed_form(kind, params.theta0, params.omega, params.gamma)
    hi = min(float(traj.zetas[-1]), float(np.nextafter(end, 0.0)))
    grid = np.linspace(float(traj.zetas[0]), hi, 1001)
    vals = traj.evaluate_many(grid)[:, 0]
    err = max(abs(theta_from_z(float(v), params.n) - fn(float(t)))
              for t, v in zip(grid, vals))
    return {"kind": kind, "max_abs_err": float(err)}


def _integrator_options(args) -> IntegratorOptions:
    return IntegratorOptions(zeta_end=args.zeta_end, rel_tol=args.rtol,
                             abs_tol=args.atol, max_steps=args.max_steps,
                             start_mode=args.start_mode)


def cmd_solve(args) -> int:
    if args.check_oracle is not None and args.check_oracle not in ORACLE_KINDS:
        raise ValidationError("check_oracle",
                              f"must be one of {ORACLE_KINDS}, got "
                              f"{args.check_oracle!r}")
    params = make_params(args.n, args.omega, args.theta0, args.zeta0)
    if args.check_oracle == "gamma2" and params.n != 1:
        raise ValidationError("check_oracle",
                              "the gamma2 oracle needs --n 1 (gamma = 2)")
    if args.check_oracle in ("powerlaw", "gaussian") and params.omega != 0.0:
        raise ValidationError("check_oracle",
                              f"the {args.check_oracle} oracle needs --omega 0")
    opts = _integrator_options(args)
    traj = integrate(params, opts)
    zeta_star = first_zero(traj)
    oracle = None
    if args.check_oracle is not None:
        oracle = _oracle_comparison(args.check_oracle, params, traj)
    out = Path(args.out) if args.out else \
        Path(f"run_n{params.n}_omega{params.omega:g}.csv")
    _write_text(out, _trajectory_csv(traj))
    summary = _solve_summary(params, traj, zeta_star, oracle)
    sidecar = out.with_suffix(".summary.json")
    _write_text(sidecar, _json_text(summary))
    if args.json:
        sys.stdout.write(_json_text(summary))
    else:
        print(f"wrote {out} and {sidecar}")
        if traj.status == DIVERGED:
            print(f"diverged_at = {traj.diverged_at:.12g} "
                  f"(|z| crossed the guard; expected for repelling starts)")
        else:
            print(f"completed to zeta = {traj.zetas[-1]:g} "
                  f"in {len(traj.q)} steps")
        if zeta_star is not None:
            print(f"zeta_star = {zeta_star:.12g}")
        if oracle is not None:
            print(f"oracle {oracle['kind']}: max |numeric - closed form| = "
                  f"{oracle['max_abs_err']:.3e}")
    return 0


def cmd_oracle(args) -> int:
    if args.kind not in ORACLE_KINDS + ("waterbag",):
        raise ValidationError("kind",
                              f"must be one of {ORACLE_KINDS + ('waterbag',)}, "
                              f"got {args.kind!r}")
    hi = float(args.zeta_end)
    if not (math.isfinite(hi) and hi > 0.0):
        raise ValidationError("zeta_end", f"must be finite and > 0, got {hi!r}")
    if isinstance(args.points, bool) or args.points < 2:
        raise ValidationError("points", f"must be an integer >= 2, got {args.points!r}")
    if args.kind in ("gamma2", "waterbag") and args.omega is None:
        raise ValidationError("omega", f"required for the {args.kind} oracle")
    if args.kind == "powerlaw" and args.gamma is None:
        raise ValidationError("gamma", "required for the powerlaw oracle")
    fn, end, note = _closed_form(args.kind, args.theta0, args.omega,
                                 args.gamma)
    hi = min(hi, end)
    grid = np.linspace(0.0, hi, int(args.points))
    lines = ["zeta,theta"]
    for t in grid:
        lines.append(f"{_fmt(t)},{_fmt(fn(float(t)))}")
    out = Path(args.out) if args.out else Path(f"oracle_{args.kind}.csv")
    _write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    if note is not None:
        print(note())
    return 0


def cmd_stability(args) -> int:
    params = make_params(args.n, args.omega, args.theta0, args.zeta0)
    report = classify(params)
    text = _json_text(report.to_json_dict())
    if args.out:
        _write_text(Path(args.out), text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(report.summary)
        if args.out:
            print(f"wrote {args.out}")
    if report.lmi_worst_eig is not None \
            and report.lmi_worst_eig > LMI_CLI_FAIL_TOL:
        print(f"numerical failure: LMI residual eigenvalue "
              f"{report.lmi_worst_eig!r} exceeds {LMI_CLI_FAIL_TOL!r}",
              file=sys.stderr)
        return 2
    return 0


def _parse_int_list(text: str, field: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(field,
                              f"must be a comma-separated integer list, got {text!r}")


def _parse_float_list(text: str, field: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(field,
                              f"must be a comma-separated number list, got {text!r}")


def cmd_sweep(args) -> int:
    ns = _parse_int_list(args.n, "n")
    omegas = _parse_float_list(args.omega, "omega")
    if not ns:
        raise ValidationError("n", "needs at least one value")
    if not omegas:
        raise ValidationError("omega", "needs at least one value")
    combos = [(n, om) for n in ns for om in omegas]
    # validate the whole grid before the first run starts
    run_params = [make_params(n, om, args.theta0, args.zeta0)
                  for n, om in combos]
    opts = _integrator_options(args)
    out_dir = Path(args.out_dir)

    entries = []
    failed = False
    for params in run_params:
        entry: dict = {"n": params.n, "omega": params.omega,
                       "theta0": params.theta0, "zeta0": params.zeta_start,
                       "zeta_end": opts.zeta_end}
        try:
            traj = integrate(params, opts)
        except Exception as exc:  # recorded per run; the sweep never aborts
            failed = True
            entry["status"] = "error"
            entry["error"] = str(exc)
        else:
            fname = f"run_n{params.n}_omega{params.omega:g}.csv"
            _write_text(out_dir / fname, _trajectory_csv(traj))
            entry["file"] = fname
            entry["status"] = traj.status
            zeta_star = first_zero(traj)
            if zeta_star is not None:
                entry["zeta_star"] = zeta_star
            if traj.diverged_at is not None:
                entry["diverged_at"] = traj.diverged_at
            max_abs_z = float(np.max(np.abs(traj.zs)))
            entry["max_abs_z"] = max_abs_z
            entry["bounded"] = (traj.status != DIVERGED
                                and max_abs_z <= BOUNDED_LIMIT)
        entries.append(entry)

    _write_text(out_dir / "index.json", _json_text({"runs": entries}))
    print(f"wrote {out_dir / 'index.json'} ({len(entries)} runs)")
    return 2 if failed else 0


def _read_csv_columns(path: Path) -> dict[str, list[float]]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError("input", f"cannot read {path}: {exc}")
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ValidationError("input", f"{path} is empty")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {name: [] for name in header}
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValidationError("input", f"{path} has a ragged row: {ln!r}")
        for name, cell in zip(header, cells):
            try:
                cols[name].append(float(cell))
            except ValueError:
                raise ValidationError("input",
                                      f"{path} has a non-numeric cell {cell!r}")
    return cols


def _equilibrium_markers(summary_path: Path) -> list[tuple[float, float, str]]:
    if not summary_path.exists():
        return []
    try:
        payload = json.loads(summary_path.read_text())
        p = payload["params"]
        params = make_params(p["n"], p["omega"], p["theta0"], p["zeta0"])
    except (OSError, KeyError, TypeError, ValueError):
        return []
    if params.omega <= 0.0:
        return []
    markers = []
    for eq in equilibria(params):
        color = STABLE_COLOR if eq.kind == "stable_left" else UNSTABLE_COLOR
        markers.append((eq.z_eq, 0.0, color))
    return markers


def cmd_plot(args) -> int:
    if args.kind not in PLOT_KINDS:
        raise ValidationError("kind",
                              f"must be one of {PLOT_KINDS}, got {args.kind!r}")
    src = Path(args.input)
    if not src.exists():
        raise ValidationError("input", f"no such file: {src}")
    out = Path(args.out) if args.out else src.with_suffix(".svg")

    if args.kind == "profile":
        cols = _read_csv_columns(src)
        if "zeta" not in cols or "theta" not in cols:
            raise ValidationError("input",
                                  f"{src} lacks zeta/theta columns")
        svg = svgplot.line_chart([(src.stem, cols["zeta"], cols["theta"])],
                                 xlabel="zeta", ylabel="theta",
                                 title="density profile")
    elif args.kind == "phase":
        cols = _read_csv_columns(src)
        if "z" not in cols or "dz" not in cols:
            raise ValidationError("input", f"{src} lacks z/dz columns")
        markers = _equilibrium_markers(src.with_suffix(".summary.json"))
        svg = svgplot.line_chart([(src.stem, cols["z"], cols["dz"])],
                                 xlabel="z", ylabel="dz",
                                 title="phase portrait", markers=markers)
    else:
        try:
            payload = json.loads(src.read_text())
            runs = payload["runs"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError("input", f"malformed sweep index {src}: {exc}")
        series = []
        for run in runs:
            if run.get("bounded") is not True:
                continue
            cols = _read_csv_columns(src.parent / run["file"])
            label = f"n={run['n']}, omega={run['omega']:g}"
            series.append((label, cols["zeta"], cols["theta"]))
        if not series:
            raise ValidationError("input", f"{src} lists no bounded runs")
        svg = svgplot.line_chart(series, xlabel="zeta", ylabel="theta",
                                 title="density profile family")

    _write_text(out, svg)
    print(f"wrote {out}")
    return 0


def _add_model_flags(sp, require_omega: bool = True) -> None:
    sp.add_argument("--n", type=int, required=True,
                    help="polytrope index n in gamma = 1 + 1/n")
    sp.add_argument("--omega", type=float, required=require_omega,
                    help="multiple-scattering to trapping ratio")
    sp.add_argument("--theta0", type=float, default=1.0,
                    help="central density theta(zeta0) (default 1.0)")
    sp.add_argument("--zeta0", type=float, default=1e-3,
                    help="start radius (default 1e-3)")


def _add_integrator_flags(sp) -> None:
    sp.add_argument("--zeta-end", type=float, default=60.0,
                    help="integration end radius (default 60)")
    sp.add_argument("--rtol", type=float, default=1e-9,
                    help="relative tolerance (default 1e-9)")
    sp.add_argument("--atol", type=float, default=1e-12,
                    help="absolute tolerance (default 1e-12)")
    sp.add_argument("--start-mode", default=OFFSET,
                    help=f"'{OFFSET}' or '{SERIES}' (default {OFFSET})")
    sp.add_argument("--max-steps", type=int, default=1_000_000,
                    help="step budget (default 1e6)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lanestab",
                     description="Trapped-cloud density profiles and "
                                 "orbital-mode stability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[], help="integrate one run")
    _add_model_flags(sp)
    _add_integrator_flags(sp)
    sp.add_argument("--out", help="trajectory CSV path (default run_n{n}_omega{omega}.csv)")
    sp.add_argument("--json", action="store_true",
                    help="print the JSON summary to stdout")
    sp.add_argument("--check-oracle", default=None,
                    help="compare against a closed form: gamma2|powerlaw|gaussian")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="tabulate a closed-form profile")
    sp.add_argument("--kind", required=True,
                    help="gamma2|powerlaw|gaussian|waterbag")
    sp.add_argument("--theta0", type=float, default=1.0)
    sp.add_argument("--omega", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--zeta-end", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=400)
    sp.add_argument("--out", help="CSV path (default oracle_{kind}.csv)")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("stability", help="emit the stability report")
    _add_model_flags(sp)
    sp.add_argument("--json", action="store_true",
                    help="print the JSON report to stdout")
    sp.add_argument("--out", help="also write the JSON report to this path")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("sweep", help="run a parameter grid")
    sp.add_argument("--n", required=True,
                    help="comma-separated n values, e.g. 2,4,6")
    sp.add_argument("--omega", required=True,
                    help="comma-separated omega values, e.g. 0.1,0.5,0.9")
    sp.add_argument("--theta0", type=float, default=1.0)
    sp.add_argument("--zeta0", type=float, default=1e-3)
    _add_integrator_flags(sp)
    sp.add_argument("--out-dir", default=".",
                    help="directory for per-run CSVs and index.json")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("plot", help="render emitted data as SVG")
    sp.add_argument("--input", required=True,
                    help="trajectory CSV or sweep index.json")
    sp.add_argument("--kind", default="profile",
                    help="profile|phase|profile-family")
    sp.add_argument("--out", help="SVG path (default: input with .svg)")
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        flag = FLAG_BY_FIELD.get(exc.field, exc.field)
        print(f"error: {flag}: {exc.message}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
