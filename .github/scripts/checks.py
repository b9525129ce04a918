"""The workflow's demo and benchmark-oracle checks, shared by its jobs.

    python .github/scripts/checks.py demos
        runs every demo under ``python -W error`` with ``PYTHONPATH=src``;
        fails if one exits non-zero.
    python .github/scripts/checks.py oracles
        prints the usable CPUs and the three BLAS thread variables, then
        runs ``perfbench/run.py`` for 3 s on seeds 0, 1 and 2 of each
        workload, then once traced for 2 s on gauss-rank seed 0; fails
        unless every run exits 0 and reports ``"correct": true`` with at
        least one attempted evaluation.  The tile passes (``fedeval.tiles``)
        run on two threads only with BLAS pinned to one thread and at
        least two usable CPUs; ``perfbench/run.py`` pins BLAS for its
        worker, so the CPU count tells whether kernel-knn's runs took the
        two-way path.

Each check stops at its first failure and exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("gauss-rank", "kernel-knn", "fed-protocol")
# (workload, seed, seconds, trace) of every oracle run.
ORACLE_RUNS = [(w, seed, 3, 0) for w in WORKLOADS for seed in (0, 1, 2)] + [("gauss-rank", 0, 2, 1)]


def demos() -> bool:
    env = {**os.environ, "PYTHONPATH": "src"}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        print(demo.relative_to(ROOT), flush=True)
        args = [sys.executable, "-W", "error", str(demo)]
        if subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode != 0:
            return False
    return True


def oracles() -> bool:
    print("usable CPUs:", len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        print(f"{name}={os.environ.get(name, '<unset>')}", flush=True)
    for workload, seed, seconds, trace in ORACLE_RUNS:
        args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
            return False
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload} seed {seed} trace {trace} correct: {result['correct']} "
              f"attempted: {result['attempted']}", flush=True)
        if not (result["correct"] is True and result["attempted"] >= 1):
            return False
    return True


if __name__ == "__main__":
    checks = {"demos": demos, "oracles": oracles}
    if len(sys.argv) != 2 or sys.argv[1] not in checks:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(checks)}}}")
    sys.exit(0 if checks[sys.argv[1]]() else 1)
