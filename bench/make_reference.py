"""Record reference.json: the checked outputs of every pooled operation.

    python3 bench/make_reference.py [workload ...]

Runs each operation that workloads.pool() can emit once, as real CLI
processes of the checkout it is run from, and stores check.observe()'s
record of every call (exit code, warnings, status, checked scalars, SHA-256
of each emitted file).  Run it only at a commit whose outputs are the
reference; the benchmark compares every later commit against this file.
Naming workloads re-records only those and keeps the other entries that
the pools still use.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    calls = (run.load_reference() if argv and run.REFERENCE.exists() else {})
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = run.Spawner(work)
    try:
        for name in names:
            for op in workloads.pool(name):
                opdir = run.op_dir(work, op)
                for args in op.calls:
                    rc, _, _, out, err = spawner.cli(args, opdir)
                    rec = check.observe(args, opdir, rc, out, err)
                    calls[workloads.call_key(op, args)] = rec
                    print(f"{'ok  ' if check.contract_ok(rec) else 'FAIL'} "
                          f"{workloads.call_key(op, args)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pooled = {workloads.call_key(op, args) for name in workloads.WORKLOADS
              for op in workloads.pool(name) for args in op.calls}
    run.REFERENCE.write_text(json.dumps(
        {"calls": {k: calls[k] for k in sorted(calls) if k in pooled},
         "machine": run.machine_facts()}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
