#!/usr/bin/env python3
"""Seeded benchmark of the fedeval CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script writes the workload's
fixtures from ``--seed`` into ``.perfbench_work/``, measures the cold
start of ``import fedeval.cli`` in fresh interpreters (``setup_s``), then
runs the workload's closed loop in a fresh worker process for ``--seconds``
and checks every evaluation's outputs against the workload's oracle.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics from a run in which every other
evaluation is traced.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of the last traced run
of each workload stay in ``.perfbench_work/spans-<workload>.npz``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here or in any child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COLD_STARTS = 6
WORKER_GRACE_S = 120
REPORTED_ONLY = {"eval_p50_s": "s", "eval_p90_s": "s", "eval_min_s": "s", "eval_per_s": "1/s",
                 "reference_p50_s": "s", "error_rate": "ratio"}

COLD_START = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import fedeval.cli\n"
    "fedeval.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def cold_start_seconds(count: int) -> list[float]:
    """Time ``import fedeval.cli`` plus parser construction in fresh interpreters."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", COLD_START, str(SRC)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(out.stdout.strip()))
    return times


def environment(args) -> dict:
    import numpy as np
    import scipy

    def blas(config) -> str:
        return config.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")

    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "llc": llc.read_text().strip() if llc.exists() else "unknown",
    }


def verify(plan, result: dict, keep: Path) -> tuple[list[bool], list[str]]:
    """Flag failed evaluations: a nonzero exit or exception, a kept output
    that fails its oracle, or an output that differs from the kept one."""
    problems: dict[int, list[str]] = {}
    reference: dict[int, list] = {}
    for gen, index in result["kept"].items():
        gen = int(gen)
        paths = [keep / f"g{gen}-{n}" for n in range(len(plan.evaluations[gen]["outputs"]))]
        try:
            problems[gen] = plan.verify(gen, paths)
        except Exception:
            problems[gen] = ["oracle check raised:\n" + traceback.format_exc()]
        reference[gen] = result["records"][index]["hashes"]
    messages = [f"generator {g}: {p}" for g, ps in sorted(problems.items()) for p in ps]
    failed = []
    for number, record in enumerate(result["records"]):
        if not record["ok"]:
            messages.append(f"evaluation {number}: a CLI call failed")
        elif record["hashes"] != reference.get(record["gen"]):
            messages.append(f"evaluation {number}: output differs from the verified copy")
        elif not problems[record["gen"]]:
            failed.append(False)
            continue
        failed.append(True)
    return failed, messages


def end_to_end(result: dict, setup: list[float], failed: list[bool]) -> dict:
    """Gated metrics first, then the ones printed for reading only.

    The two ``_rel`` metrics divide evaluation time by the time of the
    reference task run after each evaluation: on a shared host the speed
    of a fixed evaluation drifts by more than half in phases of seconds to
    minutes, and the ratio cancels that drift.
    """
    latencies = [r["latency_s"] for r in result["records"]]
    references = [r["reference_s"] for r in result["records"]]
    return {
        "eval_mean_rel": statistics.mean(latencies) / statistics.mean(references),
        "eval_p90_rel": p90(latencies) / p90(references),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
        "eval_p50_s": statistics.median(latencies),
        "eval_p90_s": p90(latencies),
        "eval_min_s": min(latencies),
        "eval_per_s": failed.count(False) / result["busy_s"],
        "reference_p50_s": statistics.median(references),
        "error_rate": failed.count(True) / len(failed),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fedeval" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a fedeval checkout (need src/fedeval and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import tracer
    from workloads import WORKLOADS, payload_bytes_per_eval

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        (work / "out").mkdir(parents=True)
        plan = workload.build(work, args.seed)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan.to_json_dict()), encoding="utf-8")
        # Half the cold starts before the workload and half after, so that
        # their median spans the run rather than one phase of host speed.
        setup = [] if args.trace else cold_start_seconds(COLD_STARTS // 2)
        command = [sys.executable, str(HERE / "worker.py"), str(plan_path),
                   str(work / "result.json"), "--src", str(SRC), "--seconds", str(args.seconds)]
        spans = work / "spans.npz"
        if args.trace:
            command += ["--spans", str(spans)]
        subprocess.run(command, check=True, stdout=sys.stderr,
                       timeout=args.seconds + WORKER_GRACE_S)
        if not args.trace:
            setup += cold_start_seconds(COLD_STARTS - len(setup))
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failures, messages = verify(plan, result, work / "keep")
        failed = failures.count(True)
        for line in messages[:20]:
            print(f"perfbench: {line}", file=sys.stderr)

        records = result["records"]
        attempted = len(records)
        print(json.dumps({"env": environment(args), "sizes": workload.sizes}))
        print(f"{args.workload} seed={args.seed}: {attempted} evaluations "
              f"({sum(r['traced'] for r in records)} traced) in {result['elapsed_s']:.1f} s, "
              f"{failed} failed")
        if args.trace:
            values = tracer.summarize(spans, workload.pooled_n, workload.gen_m)
            traced = [r["latency_s"] for r in records if r["traced"]]
            untraced = [r["latency_s"] for r in records if not r["traced"]]
            values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
            shutil.copyfile(spans, WORK / f"spans-{args.workload}.npz")
            listed = spec["per_layer"]
            note = f"per evaluation, over {len(traced)} traced evaluations"
        else:
            values = end_to_end(result, setup, failures)
            listed = spec["end_to_end"]
            note = (f"latencies over {attempted} evaluations; setup_s is the median of "
                    f"{len(setup)} cold starts")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
        if not args.trace:
            # Printed for reading, not gated: on a shared host their run-to-run
            # spread exceeds any usable bound, or they are zero by design.
            extra = {name: (values[name], unit) for name, unit in REPORTED_ONLY.items()}
            if args.workload == "fed-protocol":
                extra["payload_bytes_per_eval"] = (payload_bytes_per_eval(), "B")
            for name, (value, unit) in extra.items():
                print(f"  {name:<34} {value:>16.6g} {unit}  (not gated)")
        print(f"  ({note})")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
