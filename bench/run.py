"""lanestab benchmark: the real CLI, end to end and layer by layer.

    python3 bench/run.py --workload point --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, and every file the run writes goes under .bench_work/.

--trace 0  runs each generated call as a fresh `lanestab` process, one at
           a time from this single driver (a closed loop with one client),
           and prints the end-to-end metrics.
--trace 1  runs the same calls in-process through lanestab.cli.main, each
           operation once plain and once with the span wrappers of
           spans.py installed (alternating which goes first), and prints
           the per-layer metrics; import times come from
           `python -X importtime`.

Both modes measure whole rounds of the workload (workloads.py) until the
next round would overrun --seconds, check every call against the contract
and reference.json (check.py), print one line of run facts, then one JSON
result line.  BENCHMARK.json lists the metrics; README.md explains them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".bench_work"

CLI_ENTRY = "import sys; from lanestab.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 120.0
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


class Spawner:
    """Runs CLI processes with the checkout's src/ first on the path."""

    def __init__(self, scratch: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # the sweep must use its default pool size
        env.pop("LANESTAB_THREADS", None)
        self.env = env
        self.out = scratch / "stdout"
        self.err = scratch / "stderr"

    def run(self, argv: list[str], cwd: Path) -> tuple[int, float, float, str, str]:
        """(exit code, wall s, max RSS MB, stdout, stderr) of one process."""
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            try:
                fd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([fd], [], [], CALL_TIMEOUT_S)
                finally:
                    os.close(fd)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))

    def cli(self, args: tuple[str, ...], cwd: Path):
        return self.run([sys.executable, "-c", CLI_ENTRY, *args], cwd)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with TAIL_BEYOND samples above it; the median
    when there are too few samples for one."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n)) if n else 50.0


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    facts = {"nproc": os.cpu_count(), "cpu": cpu,
             "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            facts[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            facts[dist] = None
    return facts


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["calls"]


class Tally:
    """Outcome of the checks over one run's operations."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = self.regressions = 0
        self.files_same = self.files_total = 0
        self.max_dev = 0.0
        self.problems: list[str] = []

    def op(self, op: workloads.Op, records: list[dict]) -> None:
        self.attempted += 1
        failed = False
        for args, rec in zip(op.calls, records):
            key = workloads.call_key(op, args)
            verdict = check.judge(rec, self.reference.get(key))
            failed |= verdict["failed"]
            self.regressions += verdict["regression"]
            self.files_same += verdict["files_same"]
            self.files_total += verdict["files_total"]
            self.max_dev = max(self.max_dev, verdict["max_dev"])
            if verdict["failed"] and len(self.problems) < 12:
                self.problems.append(f"{key}: {'; '.join(verdict['problems'])}")
        self.failed += failed


def measure_rounds(workload: str, seed: int, seconds: float, run_op) -> int:
    """Feed whole rounds to run_op until the next would overrun seconds."""
    start = time.perf_counter()
    done = 0
    for ops in workloads.rounds(workload, seed):
        for op in ops:
            run_op(op)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done
    return done


def op_dir(work: Path, op: workloads.Op) -> Path:
    path = work / op.dir
    if op.fresh:
        shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_plain(workload: str, seed: int, seconds: float, work: Path,
              tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: every call a fresh CLI process."""
    spawner = Spawner(work)
    importer = [sys.executable, "-c", "import lanestab.cli"]
    rc, _, _, _, err = spawner.run(importer, work)  # writes the bytecode
    if rc != 0:
        raise RuntimeError(f"import lanestab.cli failed: {err[-300:]}")
    setup = [spawner.run(importer, work)[1] for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    steps = 0
    peak = 0.0

    def run_op(op: workloads.Op) -> None:
        nonlocal steps, peak
        opdir = op_dir(work, op)
        wall = 0.0
        records = []
        for args in op.calls:
            rc, dt, rss, out, err = spawner.cli(args, opdir)
            wall += dt
            peak = max(peak, rss)
            rec = check.observe(args, opdir, rc, out, err)
            steps += rec["steps"]
            records.append(rec)
        walls.append(wall)
        tally.op(op, records)

    rounds = measure_rounds(workload, seed, seconds, run_op)
    q = tail_percentile(len(walls))
    tail = percentile(walls, q)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "steps_per_s": steps / sum(walls),
        "peak_rss_mb": peak,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    facts = {"rounds": rounds, "ops": len(walls), "setup_samples": len(setup),
             "op_tail_percentile": q,
             "op_tail_samples_beyond": sum(w > tail for w in walls),
             "steps": steps}
    return metrics, facts


def importtime(spawner: Spawner, work: Path) -> dict[str, float]:
    """Seconds of import self time per top-level package, median of runs."""
    samples: dict[str, list[float]] = {"lanestab": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        rc, _, _, _, err = spawner.run(
            [sys.executable, "-X", "importtime", "-c", "import lanestab.cli"],
            work)
        if rc != 0:
            raise RuntimeError(f"import lanestab.cli failed: {err[-300:]}")
        totals = dict.fromkeys(samples, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals and self_us.strip().isdigit():
                totals[top] += int(self_us) * 1e-6
        for pkg, total in totals.items():
            samples[pkg].append(total)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in samples.items()}


def call_in_process(cli, args: tuple[str, ...], opdir: Path, call):
    """(exit code, wall s, stdout, stderr) of cli.main run in opdir; every
    warning, from any thread, is appended to stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(opdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            rc = call(cli.main, list(args))
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    stderr = err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    return rc, wall, out.getvalue(), stderr


def run_traced(workload: str, seed: int, seconds: float, work: Path,
               tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: calls in-process, each op plain and traced."""
    metrics = importtime(Spawner(work), work)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lanestab.cli")
    integrate = importlib.import_module("lanestab.integrate")
    closedform = importlib.import_module("lanestab.closedform")
    svgplot = importlib.import_module("lanestab.svgplot")
    if Path(cli.__file__).resolve().parent != SRC / "lanestab":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's")
    tracer = spans.Tracer()
    plain_wall = traced_wall = 0.0
    ops = 0

    def plain(fn, argv):
        return fn(argv)

    def traced(fn, argv):
        tracer.install(cli, integrate, closedform, svgplot)
        try:
            return tracer.call_root(fn, argv)
        finally:
            tracer.uninstall()

    def run_op(op: workloads.Op) -> None:
        nonlocal plain_wall, traced_wall, ops
        order = (plain, traced) if ops % 2 == 0 else (traced, plain)
        ops += 1
        for mode in order:
            opdir = op_dir(work, op)
            records = []
            for args in op.calls:
                rc, wall, out, err = call_in_process(cli, args, opdir, mode)
                if mode is plain:
                    plain_wall += wall
                else:
                    traced_wall += wall
                records.append(check.observe(args, opdir, rc, out, err))
        tally.op(op, records)

    rounds = measure_rounds(workload, seed, seconds, run_op)
    metrics.update(spans.reduce(tracer, ops))
    metrics["cli.identical_files_frac"] = (
        tally.files_same / tally.files_total if tally.files_total else 1.0)
    metrics["check.max_ref_dev"] = tally.max_dev
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    facts = {"rounds": rounds, "ops": ops, "spans": len(tracer.spans),
             "importtime_samples": IMPORTTIME_REPEATS}
    return metrics, facts


def benchmark_metrics(kind: str) -> dict[str, str]:
    """name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lanestab" / "cli.py").is_file():
        print(f"error: no lanestab sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally(load_reference())
    try:
        if args.trace:
            values, facts = run_traced(args.workload, args.seed, args.seconds,
                                       work, tally)
            units = benchmark_metrics("per_layer")
        else:
            values, facts = run_plain(args.workload, args.seed, args.seconds,
                                      work, tally)
            units = benchmark_metrics("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do "
                           f"not match BENCHMARK.json")
    facts.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, machine=machine_facts(),
                 regressions=tally.regressions, failures=tally.problems)
    print(json.dumps({"run": facts}))
    print(json.dumps({
        "correct": tally.regressions == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
