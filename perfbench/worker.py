"""Closed-loop runner for one workload, run in a fresh process by run.py.

Usage (normally only through run.py):

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON --src SRC --seconds S [--spans NPZ]

One caller runs evaluations back to back through ``fedeval.cli.main`` in
this process until ``--seconds`` have passed, cycling through the plan's
generators.  The clock covers only the CLI calls.  After each
evaluation, outside the clock, every output file is hashed; the first
successful copy for each generator is kept for run.py to verify against
its oracle, later copies must hash the same.

With ``--spans`` the evaluations alternate between traced and untraced,
so host-speed drift hits both halves alike; the span file is written at
exit.  After every evaluation, also outside the clock, the reference
task is timed.  The result file holds the latencies, the reference
times, the per-evaluation outcome and the peak RSS of this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

WARMUP_EVALUATIONS = 2


class ReferenceTask:
    """A fixed ~15 ms mix of the work fedeval does (LAPACK eigh, a
    polynomial Gram matrix, element-wise numpy, JSON, interpreted Python),
    run after every evaluation.  Its time tracks the host's current speed,
    so evaluation times divided by it cancel the drift of a shared machine.
    The 768x768 Gram matrix is what lets it track the GEMM-bound
    kernel-knn workload; without it that workload's ratio spread 3x wider.
    The matrix is built in row blocks in one preallocated buffer so the
    task adds under 1 MB to the worker's peak RSS."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((64, 64))
        self.spd = a @ a.T
        self.x = rng.standard_normal((768, 64))
        self.block = np.empty((128, 768))
        self.v = rng.standard_normal(1 << 16)
        self.floats = rng.standard_normal(2000).tolist()

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(self.spd)
        for row in range(0, len(self.x), len(self.block)):
            np.matmul(self.x[row : row + len(self.block)], self.x.T, out=self.block)
            self.block /= 64.0
            self.block += 1.0
            self.block **= 3
            self.block.sum()
        np.exp(-self.v * self.v).sum()
        np.sort(self.v)
        json.loads(json.dumps(self.floats))
        acc: dict[int, int] = {}
        for i in range(8000):
            acc[i & 127] = acc.get(i & 127, 0) + i
        return time.perf_counter() - start


def peak_rss_kb() -> int:
    """High-water resident set size of this process image.

    ``ru_maxrss`` is not used: Linux carries it over from the parent
    across fork and exec, so it would report run.py's own peak.
    """
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from fedeval import cli

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))["evaluations"]
    keep_dir = Path(args.result).parent / "keep"
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()

    def run_evaluation(ev: dict) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            ok = all(cli.main(argv) == 0 for argv in ev["calls"])
        except Exception:
            traceback.print_exc()
            ok = False
        return time.perf_counter() - start, ok

    def collect(ev: dict, index: int, kept: dict) -> list:
        """Hash and clear the outputs; keep the first successful set per generator."""
        hashes = []
        for out in map(Path, ev["outputs"]):
            hashes.append(hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None)
        keep = index >= 0 and ev["gen"] not in kept and None not in hashes
        for n, out in enumerate(map(Path, ev["outputs"])):
            if keep:
                os.replace(out, keep_dir / f"g{ev['gen']}-{n}")
            elif out.exists():
                out.unlink()
        if keep:
            kept[ev["gen"]] = index
        return hashes

    keep_dir.mkdir(parents=True, exist_ok=True)
    kept: dict[int, int] = {}
    reference = ReferenceTask()
    for i in range(WARMUP_EVALUATIONS):
        ev = plan[i % len(plan)]
        run_evaluation(ev)
        collect(ev, -1, kept)
        reference()

    records = []
    begin = time.perf_counter()
    # At least two evaluations, so a percentile and the traced/untraced
    # comparison exist even for a very short --seconds.
    while time.perf_counter() - begin < args.seconds or len(records) < 2:
        index = len(records)
        ev = plan[index % len(plan)]
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.eval_id = index
            tracer.install()
        latency, ok = run_evaluation(ev)
        if traced:
            tracer.uninstall()
        hashes = collect(ev, index if ok else -1, kept)
        records.append(
            {"gen": ev["gen"], "latency_s": latency, "reference_s": reference(), "ok": ok,
             "traced": traced, "hashes": hashes if ok else None}
        )
    elapsed = time.perf_counter() - begin
    # Wall time of the timed phase minus the untimed output handling.
    busy = sum(r["latency_s"] for r in records)

    if tracer is not None:
        tracer.save(args.spans)
    result = {
        "records": records,
        "elapsed_s": elapsed,
        "busy_s": busy,
        "kept": {str(g): i for g, i in kept.items()},
        "peak_rss_kb": peak_rss_kb(),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
