"""Command-line front end.

Subcommands
-----------
solve      integrate one parameter set; emits trajectory CSV plus a JSON
           summary sidecar (<out>.summary.json)
oracle     tabulate one of the closed-form profiles to CSV
stability  run the certificate suite and emit the report as JSON
sweep      run a grid of (n, omega) pairs, one CSV per run plus an
           index.json that lists them in parameter order
plot       render an emitted CSV or sweep index as a standalone SVG

Exit codes: 0 success (a run that diverges is a meaningful success,
reported through diverged_at), 1 user or validation
error (the message names the offending flag), 2 numerical failure.

All emitted files are byte deterministic for identical inputs, whatever
the CPUs in the affinity mask.  CSV cells carry 17 significant digits.

With a second CPU in the mask, on a platform with fork and memfd_create,
work goes to forked children (_fork.Child), each of which writes its
result to an anonymous in-memory file that is read once it exits.  A
sweep splits its runs across one process per CPU: of k, process i runs
runs[i::k], process 0 being the sweep itself, and each child returns its
index rows as JSON.  A solve past integrate._SINK_STEPS steps forks one
child at its first sink batch and streams it every node as raw doubles;
the child formats the CSV rows while the run goes on.  A solve writes its
files itself, after a serial run's checks; each sweep process writes its
slice's CSVs, and the sweep index.json.  What cannot fork runs serially; a
failed sweep child leaves error rows, a failed formatter serial rows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from array import array
from pathlib import Path

from . import closedform
from .integrate import (COMPLETED, DIVERGED, GUARD, IntegrationError,
                        IntegratorOptions, OFFSET, SERIES, _SINK_STEPS,
                        Trajectory, first_zero, integrate)
from .model import (STABLE_LEFT, ModelParams, ValidationError, _bisect,
                    _radius, _require_positive, equilibria, make_params,
                    theta_from_z)
from .stability import _basin_key, classify, lyapunov_V

CSV_HEADER_FULL = "zeta,z,dz,theta,V,Vdot"
CSV_HEADER_BARE = "zeta,z,dz,theta"
ORACLE_KINDS = ("gamma2", "powerlaw", "gaussian")
STABLE_COLOR = "#000000"
UNSTABLE_COLOR = "#d62728"

# a ValidationError field names the flag "--" + field, "-" for "_", except
FLAG_BY_FIELD = {"zeta_start": "--zeta0", "rel_tol": "--rtol",
                 "abs_tol": "--atol"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1e-3 and -inf for options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")

    # argparse exits with 2 by default; 2 is reserved for numerical failure
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_rows(params: ModelParams):
    """The CSV header line, and a function from node columns (zetas, zs,
    dzs) to their rows' text: theta, and where the certificate exists (where
    _basin_key has a key) V = lyapunov_V(z + u, dz) and Vdot = -4*dz**2/zeta,
    inlined so each cell equals theirs.  lyapunov_V(0, 0) checks once."""
    n = params.n
    if _basin_key(params):
        lyapunov_V(0.0, 0.0, params)
        u, m = _radius(params), n + 1
        tail, c = u ** m, -2.0 * params.omega / m ** 2
        return CSV_HEADER_FULL + "\n", lambda ts, zs, dzs: "".join([
            "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                t, z, dz, z ** n,
                c * (((x1 := z + u) - u) ** m + tail) + 2.0 * x1 / m
                + dz * dz, -4.0 * dz * dz / t)
            for t, z, dz in zip(ts, zs, dzs)])
    return CSV_HEADER_BARE + "\n", lambda ts, zs, dzs: "".join([
        "%.17g,%.17g,%.17g,%.17g\n" % (t, z, dz, z ** n)
        for t, z, dz in zip(ts, zs, dzs)])


def _trajectory_csv(traj: Trajectory, rows: str | None = None) -> str:
    """The CSV text of traj's nodes.  rows, where given, is their rows'
    text, formatted elsewhere by _csv_rows, and is used only where it has
    one line per node; the checks run here either way."""
    header, format_rows = _csv_rows(traj.params)
    if rows is None or rows.count("\n") != len(traj.zetas):
        rows = format_rows(traj.zetas, traj.zs, traj.dzs)
    return header + rows


def _fork_cpus() -> int:
    """The CPUs in this process's affinity mask; 1 where it cannot fork a
    Child."""
    if all(hasattr(os, name) for name in
           ("fork", "sched_getaffinity", "memfd_create")):
        return len(os.sched_getaffinity(0))
    return 1


def _format_rows(params: ModelParams, feed, out) -> None:
    """A forked formatter's work: the CSV rows of the nodes its feed streams,
    read one sink batch (24 bytes a node) at a time."""
    _, rows = _csv_rows(params)
    while nodes := array("d", feed.read(24 * _SINK_STEPS)):
        out.write(rows(nodes[0::3], nodes[1::3], nodes[2::3]))


def _integrate_rows(params: ModelParams, opts: IntegratorOptions):
    """integrate(params, opts), and the text of its CSV rows where a forked
    formatter made it, else None.  With a second CPU in the affinity mask,
    a run that reaches integrate's sink forks the formatter there."""
    child = None

    def sink(batch) -> None:
        nonlocal child
        if child is None:
            from ._fork import Child  # only a long run compiles it
            child = Child(lambda feed, out: _format_rows(params, feed, out))
        child.send(batch)

    try:
        traj = integrate(params, opts,
                         _sink=sink if _fork_cpus() > 1 else None)
        if child is None:
            return traj, None
        code, text = child.result()
        return traj, text.decode() if code == 0 else None
    finally:
        if child is not None:
            child.close()


def _outcome(traj: Trajectory, zeta_star: float | None) -> dict:
    """The run-outcome keys of the solve sidecar and of a sweep index row."""
    d = {"zeta_star": zeta_star, "diverged_at": traj.diverged_at}
    return {key: value for key, value in d.items() if value is not None}


def _run_json(params: ModelParams, opts: IntegratorOptions) -> dict:
    """The params block of the solve sidecar, which opens each sweep row."""
    return {**params._asdict(), "zeta0": opts.zeta_start}


def _run_name(params: ModelParams) -> str:
    return f"run_n{params.n}_omega{params.omega:g}.csv"


def _last_finite(fn, hi: float) -> float:
    """The largest float t <= hi with fn(t) finite, for an fn that is
    finite from 0 up to some point and nowhere past it."""
    def finite(t):
        try:
            return math.isfinite(fn(t))
        except (OverflowError, ValidationError):
            return False

    return hi if math.isinf(hi) or finite(hi) else _bisect(finite, 0.0, hi)


def _closed_form(kind: str, theta0: float, omega: float | None,
                 gamma: float | None):
    """(theta(zeta), domain end, note) of one closed-form profile.

    The domain end is math.inf where the formula is total, else the last
    float with a finite value.  The note is None or the line `oracle`
    prints.
    """
    if kind == "gamma2":  # refuses a start with no halo boundary
        zeta_m = closedform.halo_boundary(theta0, omega)
        return (lambda t: closedform.gamma2_profile(t, theta0, omega),
                math.inf, f"halo boundary zeta_M = {zeta_m:.12g}")
    if kind == "powerlaw":
        fn = lambda t: closedform.powerlaw_profile(t, gamma, theta0)
        if 0.0 <= gamma <= 1.0:
            return fn, math.inf, None
        # rounding can leave zeta_star itself with no finite value
        end = _last_finite(fn, closedform.powerlaw_boundary(gamma, theta0))
        note = f"profile boundary zeta_star = {end:.12g}"
        return fn, end, note if gamma > 1.0 else None
    if kind == "gaussian":
        return (lambda t: closedform.gaussian_profile(t, theta0), math.inf,
                None)
    return (lambda t: closedform.waterbag_profile(t, omega), math.inf,
            f"step radius xi0 = {closedform.lane_emden_radius(omega):.12g}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace's points: start + i*step, and stop itself last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _integrator_options(args) -> IntegratorOptions:
    return IntegratorOptions(zeta_end=args.zeta_end, rel_tol=args.rtol,
                             abs_tol=args.atol, max_steps=args.max_steps,
                             start_mode=args.start_mode, zeta_start=args.zeta0)


def cmd_solve(args) -> int:
    params = make_params(args.n, args.omega, args.theta0)
    opts = _integrator_options(args)
    if args.check_oracle == "gamma2" and params.n != 1:
        raise ValidationError("check_oracle",
                              "the gamma2 oracle needs --n 1 (gamma = 2)")
    if args.check_oracle in ("powerlaw", "gaussian") and params.omega != 0.0:
        raise ValidationError("check_oracle",
                              f"the {args.check_oracle} oracle needs --omega 0")
    if args.check_oracle is not None:
        fn, end, _ = _closed_form(args.check_oracle, params.theta0,
                                  params.omega, params.gamma)
        if end <= opts.zeta_start:
            raise ValidationError("check_oracle", f"the {args.check_oracle} "
                                  f"profile ends at zeta = {end!r}, not past "
                                  f"--zeta0 = {opts.zeta_start!r}")
    traj, rows = _integrate_rows(params, opts)
    zeta_star = first_zero(traj)
    summary = {"params": _run_json(params, opts),
               "stable_regime": params.stable_regime}
    summary.update(_basin_key(params))  # as stability --json
    summary.update(_outcome(traj, zeta_star))
    if args.check_oracle is not None:
        # max |numeric - closed form| of theta on a 1001-point grid of the
        # run range, capped at the profile's domain end, and the max of
        # that over max(1, |closed form|)
        grid = _linspace(traj.zetas[0], min(traj.zetas[-1], end), 1001)
        errs = [(abs(theta_from_z(z, params.n) - (exact := fn(t))), exact)
                for t, (z, _) in zip(grid, traj.evaluate_many(grid))]
        summary["oracle"] = {
            "kind": args.check_oracle, "max_abs_err": max(e for e, _ in errs),
            "max_rel_err": max(e / max(1.0, abs(x)) for e, x in errs)}
    out = Path(args.out or _run_name(params))
    _write_text(out, _trajectory_csv(traj, rows))
    sidecar = out.with_suffix(".summary.json")
    _write_text(sidecar, _json_text(summary))
    if args.json:
        sys.stdout.write(_json_text(summary))
    else:
        print(f"wrote {out} and {sidecar}")
        if traj.status == DIVERGED:
            how = "|z| crossed the guard" if traj.stop == GUARD else \
                "z runs away within float resolution in zeta"
            print(f"diverged_at = {traj.diverged_at:.12g} "
                  f"({how}; expected for repelling starts)")
        else:
            print(f"completed to zeta = {traj.zetas[-1]:g} "
                  f"in {len(traj.zetas) - 1} steps")
        if zeta_star is not None:
            print(f"zeta_star = {zeta_star:.12g}")
        if args.check_oracle is not None:
            print(f"oracle {args.check_oracle}: max |numeric - closed form| "
                  f"= {summary['oracle']['max_abs_err']:.3e}, relative to "
                  f"max(1, |closed form|) = "
                  f"{summary['oracle']['max_rel_err']:.3e}")
    return 0


def cmd_oracle(args) -> int:
    hi = _require_positive("zeta_end", args.zeta_end)
    if args.points < 2:
        raise ValidationError("points", f"must be an integer >= 2, got {args.points!r}")
    need = {"gamma2": "omega", "waterbag": "omega",
            "powerlaw": "gamma"}.get(args.kind)
    if need is not None and getattr(args, need) is None:
        raise ValidationError(need, f"required for the {args.kind} oracle")
    fn, end, note = _closed_form(args.kind, args.theta0, args.omega,
                                 args.gamma)
    # the gamma2 profile overflows monotonically in zeta, in sinh or in
    # its zeta**2 term, whichever comes first
    if args.kind == "gamma2" and (top := _last_finite(fn, hi)) < hi:
        raise ValidationError("zeta_end", f"the gamma2 profile overflows "
                              f"past zeta = {top!r}, got {hi!r}")
    lines = ["zeta,theta"] + ["%.17g,%.17g" % (t, fn(t)) for t in
                              _linspace(0.0, min(hi, end), args.points)]
    out = Path(args.out or f"oracle_{args.kind}.csv")
    _write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    if note is not None:
        print(note)
    return 0


def cmd_stability(args) -> int:
    report = classify(make_params(args.n, args.omega, args.theta0))
    text = _json_text(report.to_json_dict())
    if args.out:
        _write_text(Path(args.out), text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(report.summary)
        if args.out:
            print(f"wrote {args.out}")
    return 0


def _parse_list(text: str, field: str, convert, what: str) -> list:
    """The values of a comma-separated flag, at least one."""
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(field,
                              f"must be a comma-separated {what} list, got {text!r}")
    if not values:
        raise ValidationError(field, "needs at least one value")
    return values


def _row_params(params, opts) -> dict:
    """The parameter block opening every index.json row: the sidecar's
    params, zeta_end, then start_in_basin where the sidecar has it."""
    return {**_run_json(params, opts), "zeta_end": opts.zeta_end,
            **_basin_key(params)}


def _error_row(params, opts, error: str) -> dict:
    """The index.json row of a sweep run that failed."""
    return {**_row_params(params, opts), "status": "error", "error": error}


def _sweep_run(params, opts, out_dir: Path) -> dict:
    """One sweep run: its CSV written, its index.json row returned.  It is
    bounded where the certificate proves it: completed, start_in_basin true."""
    try:
        traj = integrate(params, opts)
        fname = _run_name(params)
        _write_text(out_dir / fname, _trajectory_csv(traj))
    except Exception as exc:  # recorded per run; the sweep never aborts
        return _error_row(params, opts, str(exc))
    max_abs_z = max(map(abs, traj.zs))
    return {**_row_params(params, opts), "file": fname, "status": traj.status,
            **_outcome(traj, first_zero(traj)), "max_abs_z": max_abs_z,
            "bounded": traj.status == COMPLETED
            and _basin_key(params).get("start_in_basin", False)}


def cmd_sweep(args) -> int:
    ns = _parse_list(args.n, "n", int, "integer")
    omegas = _parse_list(args.omega, "omega", float, "number")
    # validate the whole grid before the first run starts
    run_params = [make_params(n, om, args.theta0) for n in ns for om in omegas]
    # no two runs may share a _run_name
    for field, tags in (("n", ns), ("omega", [f"{om:g}" for om in omegas])):
        if len(set(tags)) < len(tags):
            raise ValidationError(field, "two values give runs one file "
                                  f"name: {getattr(args, field)!r}")
    opts = _integrator_options(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # unusable: exit 1, no run yet
    # process i of k runs runs[i::k]
    k = min(len(run_params), _fork_cpus())
    entries = [None] * len(run_params)
    workers = []
    from ._fork import Child
    try:
        for i in range(1, k):  # work runs in the child, before i moves on
            worker = Child(lambda feed, out: json.dump(
                [_sweep_run(p, opts, out_dir) for p in run_params[i::k]], out))
            if not worker.pid:  # no descriptor or process to spare
                break
            workers.append(worker)
        for i in (0, *range(len(workers) + 1, k)):  # 0, and slices not forked
            entries[i::k] = [_sweep_run(p, opts, out_dir)
                             for p in run_params[i::k]]
        for i, worker in enumerate(workers, 1):
            code, text = worker.result()
            try:  # an extended slice takes exactly one row per run
                entries[i::k] = json.loads(text) if code == 0 else []
            except ValueError:  # the worker failed, or cut its JSON short
                entries[i::k] = [_error_row(p, opts, "sweep worker exited "
                                            f"with status {code}")
                                 for p in run_params[i::k]]
    finally:
        for worker in workers:
            worker.close()

    _write_text(out_dir / "index.json", _json_text({"runs": entries}))
    print(f"wrote {out_dir / 'index.json'} ({len(entries)} runs)")
    return 2 if any(e["status"] == "error" for e in entries) else 0


def _read_csv_columns(path: Path, x: str, y: str) -> dict[str, list[float]]:
    """Every column of the CSV at path by name, each cell a float, with
    columns x and y present and at least one row where both are finite."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError("input", f"cannot read {path}: {exc}")
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ValidationError("input", f"{path} is empty")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {name: [] for name in header}
    if len(cols) < len(header):
        name = next(n for i, n in enumerate(header) if n in header[:i])
        raise ValidationError("input", f"{path} repeats the column {name!r}")
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
    if x not in cols or y not in cols:
        raise ValidationError("input", f"{path} lacks {x}/{y} columns")
    if not any(math.isfinite(a) and math.isfinite(b)
               for a, b in zip(cols[x], cols[y])):
        raise ValidationError("input", f"{path} has no finite {x}/{y} pair")
    return cols


def _equilibrium_markers(summary_path: Path) -> list[tuple[float, float, str]]:
    try:
        p = json.loads(summary_path.read_text())["params"]
        # a ValidationError where no equilibrium exists (omega = 0) or it
        # is past the float range: the plot has no markers
        eqs = equilibria(make_params(p["n"], p["omega"], p["theta0"]))
    except (OSError, KeyError, TypeError, ValueError):
        return []
    return [(eq.z_eq, 0.0, STABLE_COLOR if eq.kind == STABLE_LEFT
             else UNSTABLE_COLOR) for eq in eqs]


# plot kind -> (x column, y column, title)
_PLOT_KINDS = {"profile": ("zeta", "theta", "density profile"),
               "phase": ("z", "dz", "phase portrait"),
               "profile-family": ("zeta", "theta", "density profile family")}


def cmd_plot(args) -> int:
    src = Path(args.input)
    out = Path(args.out) if args.out else src.with_suffix(".svg")
    from . import svgplot  # only plots draw; other commands start faster

    x, y, title = _PLOT_KINDS[args.kind]
    if args.kind != "profile-family":
        family = [(src.stem, src)]  # (label, CSV path) of each series
    else:
        try:
            runs = json.loads(src.read_text())["runs"]
            if not isinstance(runs, list):
                raise TypeError("runs is not a list")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError("input", f"malformed sweep index {src}: {exc}")
        family = []
        for i, run in enumerate(runs):
            try:
                if run.get("bounded") is True:
                    family.append((f"n={run['n']}, omega={run['omega']:g}",
                                   src.parent / run["file"]))
            except (AttributeError, KeyError, TypeError, ValueError):
                raise ValidationError("input", f"malformed sweep index {src}: "
                                      f"runs[{i}] = {run!r}") from None
        if not family:
            raise ValidationError("input", f"{src} lists no bounded runs")
    series = []
    for label, path in family:
        cols = _read_csv_columns(path, x, y)
        series.append((label, cols[x], cols[y]))
    markers = _equilibrium_markers(src.with_suffix(".summary.json")) \
        if args.kind == "phase" else ()
    try:
        svg, legend = svgplot.line_chart(series, x, y, title, markers)
    except ValueError as exc:  # values too near the float range to place
        raise ValidationError("input", f"{src}: {exc}") from None
    if len(series) > 1 and not legend:
        print(f"drew no legend: {len(series)} series are more than the "
              f"frame's legend columns hold")
    _write_text(out, svg)
    print(f"wrote {out}")
    return 0


def _add_model_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True,
                    help="polytrope index n in gamma = 1 + 1/n")
    sp.add_argument("--omega", type=float, required=True,
                    help="multiple-scattering to trapping ratio")
    sp.add_argument("--theta0", type=float, default=1.0,
                    help="central density theta(zeta0) (default 1.0)")


def _add_integrator_flags(sp) -> None:
    sp.add_argument("--zeta0", type=float, default=1e-3,
                    help="start radius (default 1e-3)")
    sp.add_argument("--zeta-end", type=float, default=60.0,
                    help="integration end radius (default 60)")
    sp.add_argument("--rtol", type=float, default=1e-9,
                    help="relative tolerance (default 1e-9)")
    sp.add_argument("--atol", type=float, default=1e-12,
                    help="absolute tolerance (default 1e-12)")
    sp.add_argument("--start-mode", default=OFFSET, choices=(OFFSET, SERIES),
                    help=f"start strategy (default {OFFSET})")
    sp.add_argument("--max-steps", type=int, default=1_000_000,
                    help="step budget (default 1e6)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lanestab",
                     description="Trapped-cloud density profiles and "
                                 "orbital-mode stability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate one run")
    _add_model_flags(sp)
    _add_integrator_flags(sp)
    sp.add_argument("--out", help="trajectory CSV path (default run_n{n}_omega{omega}.csv)")
    sp.add_argument("--json", action="store_true",
                    help="print the JSON summary to stdout")
    sp.add_argument("--check-oracle", choices=ORACLE_KINDS,
                    help="compare against a closed form")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="tabulate a closed-form profile")
    sp.add_argument("--kind", required=True,
                    choices=ORACLE_KINDS + ("waterbag",))
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
    _add_integrator_flags(sp)
    sp.add_argument("--out-dir", default=".",
                    help="directory for per-run CSVs and index.json")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("plot", help="render emitted data as SVG")
    sp.add_argument("--input", required=True,
                    help="trajectory CSV or sweep index.json")
    sp.add_argument("--kind", default="profile",
                    choices=tuple(_PLOT_KINDS))
    sp.add_argument("--out", help="SVG path (default: input with .svg)")
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        flag = FLAG_BY_FIELD.get(exc.field,
                                 "--" + exc.field.replace("_", "-"))
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
