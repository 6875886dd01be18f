"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for one round (--seconds 1), plain and traced, and
asserts that the result line names every metric of BENCHMARK.json with its
unit, that the reference check passes, and that the contract-edge points
are the only failures.  Then runs the benchmark from a directory holding
only BENCHMARK.json and bench/, where it must refuse without a result.
Takes a few minutes, most of it the point round.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def result_of(cwd, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = result_of(run.ROOT, workload, trace)
            assert rc == 0, (workload, trace, rc)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, lines[-2])
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, got)
            assert all(isinstance(v["value"], float)
                       for v in result["metrics"].values())
            # only the contract-edge points fail at the reference commit
            assert (result["failed"] > 0) == (workload == "point"), result
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed")

    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = result_of(bare, "point", 0)
        assert rc != 0 and not lines, (rc, lines)
        print("ok  refuses to run without the lanestab sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
