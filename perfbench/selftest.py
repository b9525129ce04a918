#!/usr/bin/env python3
"""Self-test of the benchmark's instrument.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload, runs two traced runs with the same seed and checks:

* both runs are correct, and every per-layer count (eigensolver calls,
  Gram elements, radii rows, messages, payload bytes, barycenter
  iterations, search evaluations, ...) is identical between them;
* gauss-rank: ``frechet.eigh.calls`` per evaluation equals
  2(K+1) + (K+1)(it+1) + it + 2(K+1), with ``it`` the reported
  barycenter iterations (fid: 2 per client and 2 for the pool;
  barycenter: K+1 per map, one per iterate, then 2(K+1) for the split);
* kernel-knn: ``kernelmmd.gram.elements`` per evaluation equals
  K(n^2+nm+m^2) + (N^2+Nm+m^2) + N^2 with N = Kn (kid_avg, kid_all, gap);
* fed-protocol: ``fedsim.payload_bytes`` per evaluation equals the
  closed form of the four rounds' message schedule.

The closed forms pin the program as it is when this benchmark was
written; a change that removes redundant work fails them on purpose,
which is how it shows that the counts moved.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import GR, KK, WORKLOADS, payload_bytes_per_eval

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "B")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=HERE.parent, timeout=seconds + 170,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def closed_form(workload: str, metrics: dict) -> tuple[str, float, float]:
    if workload == "gauss-rank":
        k, it = GR["clients"], metrics["frechet.barycenter.iterations"]
        want = 2 * (k + 1) + (k + 1) * (it + 1) + it + 2 * (k + 1)
        return "frechet.eigh.calls", metrics["frechet.eigh.calls"], want
    if workload == "kernel-knn":
        k, n, m = KK["clients"], KK["n"], KK["gen_n"]
        big = k * n
        want = k * (n * n + n * m + m * m) + (big * big + big * m + m * m) + big * big
        return "kernelmmd.gram.elements", metrics["kernelmmd.gram.elements"], want
    return "fedsim.payload_bytes", metrics["fedsim.payload_bytes"], payload_bytes_per_eval()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    units = {
        m["name"]: m["unit"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    }
    failures = 0

    def report(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}")

    for workload in WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for run in (first, second):
            report(run["correct"] and run["failed"] == 0,
                   f"{workload}: {run['attempted']} evaluations, {run['failed']} failed")
        for name, unit in units.items():
            if unit in COUNT_UNITS and not name.endswith(".errors"):
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                report(a == b, f"{workload}: {name} repeats ({a!r} vs {b!r})")
        values = {k: v["value"] for k, v in first["metrics"].items()}
        name, got, want = closed_form(workload, values)
        report(got == want, f"{workload}: {name} = {got!r}, closed form {want!r}")
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
