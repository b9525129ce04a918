"""Command-line front end.

Every subcommand is a thin wrapper over the library; all randomness is
controlled by ``--seed`` (default 0), so identical invocations produce
byte-identical outputs.  Exit codes: 0 on success, 1 on usage or input
errors, 2 on numerical failures (non-PSD inputs, non-convergence, too
few samples, a LAPACK routine that fails).  Each subcommand imports
only the library modules it runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import statkit
from .errors import NumericalError

# Which subcommand exercises each public library operation (one each).
OPERATION_SUBCOMMANDS = {
    "statkit.ingest": "stats",
    "statkit.moments": "stats",
    "statkit.pool_moments": "stats",
    "statkit.log_likelihood_scores": "stats",
    "frechet.psd_sqrt": "barycenter",
    "frechet.frechet_distance": "fid",
    "frechet.fid_all": "fid",
    "frechet.fid_avg": "fid",
    "frechet.barycenter": "barycenter",
    "frechet.fid_avg_decomposition": "barycenter",
    "kernelmmd.kernel_eval": "kid",
    "kernelmmd.mmd2": "kid",
    "kernelmmd.kid_avg": "kid",
    "kernelmmd.kid_all": "kid",
    "kernelmmd.kid_constant_gap": "kid",
    "prdc.knn_radii": "prdc",
    "prdc.prdc_scores": "prdc",
    "prdc.prdc_aggregate": "prdc",
    "counterexample.construct": "counterexample",
    "counterexample.search_matched_pair": "counterexample",
    "fedsim.run_round": "simulate",
    "fedsim.mode_collapse_timeline": "simulate",
    "fedsim.toy_mixture_sweep": "sweep",
    "fedsim.variance_limited_sweep": "sweep",
    "fedsim.compare_rankings": "rank",
}

# Most steps a --grid start:stop:step may span; a finer grid is refused
# before any point is built, not left to run out of memory.
MAX_GRID_STEPS = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive grid (1e-12 endpoint
    slack) of at most ``MAX_GRID_STEPS`` steps."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = values = [float(p) for p in parts]
    except ValueError:
        values = [np.nan]
    if not np.isfinite(values).all():
        raise ValueError(f"grid start, stop and step must be finite numbers, got {text!r}")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    if (stop - start) / step > MAX_GRID_STEPS:
        raise ValueError(f"grid has more than {MAX_GRID_STEPS} steps, got {text!r}")
    grid = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12:
            break
        grid.append(v)
        i += 1
    return grid


def _emit(obj: dict, out: str | None) -> None:
    text = statkit.json_text(obj)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_gaussian(path: str) -> statkit.GaussianStats:
    """Moments of a moments JSON, or of the samples in an embedding file."""
    if path.endswith(".json"):
        return statkit.load_stats(path)
    return statkit.moments(statkit.ingest(path))


def _load_kernel(path: str | None) -> kernelmmd.KernelSpec:
    from . import kernelmmd

    if path is None:
        return kernelmmd.KernelSpec()
    return kernelmmd.load_kernel_spec(path)


def _cmd_stats(args) -> int:
    if args.clients:
        clients = statkit.load_client_set(args.clients)
        if args.ll_model:
            model_stats = statkit.load_stats(args.ll_model)
            model = statkit.GaussianModel(mean=model_stats.mean, cov=model_stats.cov)
            _emit(statkit.log_likelihood_scores(clients, model).to_json_dict(), args.out)
            return 0
        _emit(statkit.pool_moments(clients, estimator=args.estimator).to_json_dict(), args.out)
        return 0
    if not args.input:
        raise ValueError("stats needs --input or --clients")
    x = statkit.ingest(args.input)
    _emit(statkit.moments(x, estimator=args.estimator).to_json_dict(), args.out)
    return 0


def _cmd_fid(args) -> int:
    from . import frechet

    gen_stats = _load_gaussian(args.gen)
    if args.ref:
        ref_stats = _load_gaussian(args.ref)
        _emit(frechet.frechet_distance(ref_stats, gen_stats).to_json_dict(), args.out)
        return 0
    if not args.clients:
        raise ValueError("fid needs --clients or --ref")
    clients = statkit.load_client_set(args.clients)
    out: dict = {}
    if args.agg in ("avg", "both"):
        result = frechet.fid_avg(clients, gen_stats)
        out["fid_avg"] = result.value
        out["per_client"] = [r.value for r in result.per_client]
    if args.agg in ("all", "both"):
        out["fid_all"] = frechet.fid_all(clients, gen_stats).value
    _emit(out, args.out)
    return 0


def _cmd_kid(args) -> int:
    from . import kernelmmd

    spec = _load_kernel(args.kernel)
    gen = statkit.ingest(args.gen)
    if args.ref:
        ref = statkit.ingest(args.ref)
        _emit(kernelmmd.mmd2(spec, ref, gen, estimator=args.estimator).to_json_dict(), args.out)
        return 0
    if not args.clients:
        raise ValueError("kid needs --clients or --ref")
    clients = statkit.load_client_set(args.clients)
    # One tiled pass; every score below is algebra on its block sums.
    stats = kernelmmd.kernel_stats(clients, gen, spec, cross=args.agg != "avg" or args.gap)
    out: dict = {}
    if args.agg in ("avg", "both"):
        result = stats.kid_avg(args.estimator)
        out["kid_avg"] = result.value
        out["per_client"] = [r.value for r in result.per_client]
    if args.agg in ("all", "both"):
        out["kid_all"] = stats.kid_all(args.estimator)
    if args.gap:
        out["gap"] = stats.gap()
    _emit(out, args.out)
    return 0


def _cmd_prdc(args) -> int:
    from . import prdc

    k = prdc.DEFAULT_K if args.k is None else args.k
    gen = statkit.ingest(args.gen)
    if args.ref:
        ref = statkit.ingest(args.ref)
        _emit(prdc.prdc_scores(ref, gen, k=k).to_json_dict(), args.out)
        return 0
    if not args.clients:
        raise ValueError("prdc needs --clients or --ref")
    clients = statkit.load_client_set(args.clients)
    _emit(prdc.prdc_aggregate(clients, gen, k=k).to_json_dict(), args.out)
    return 0


def _cmd_barycenter(args) -> int:
    from . import frechet

    clients = statkit.load_client_set(args.clients)
    out: dict = {}
    if args.gen:
        gen_stats = _load_gaussian(args.gen)
        result = frechet.fid_avg_decomposition(
            clients, gen_stats, tol=args.tol, max_iter=args.max_iter
        )
        solution = result.solution
        out["barycenter_part"] = result.barycenter_part
        out["const_part"] = result.const_part
        out["fid_avg"] = frechet.fid_avg(clients, gen_stats).value
    else:
        solution = frechet.barycenter(clients, tol=args.tol, max_iter=args.max_iter)
    out["mean"] = solution.mean.tolist()
    out["cov"] = solution.cov.tolist()
    out["iterations"] = solution.iterations
    out["residual"] = solution.residual
    _emit(out, args.out)
    return 0


def _cmd_counterexample(args) -> int:
    from . import counterexample as cx

    clients = statkit.load_client_set(args.clients)
    if args.search:
        report = cx.search_matched_pair(clients, seed=args.seed, budget=args.budget)
    else:
        report = cx.construct(clients)
    _emit(report.to_json_dict(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    from . import fedsim

    scenario = fedsim.load_scenario(args.scenario)
    outcome = fedsim.run_scenario(scenario)
    if outcome["kind"] == "collapse":
        result = outcome["result"]
        if args.out_csv:
            fedsim.write_score_csv(result.rows, args.out_csv)
        _emit(
            {
                "ratios": result.ratios,
                "detections": result.detections,
                "collapse_step": result.collapse_step,
            },
            args.out,
        )
        return 0
    if args.out_csv:
        fedsim.write_score_csv(outcome["rows"], args.out_csv)
    if args.out_trace:
        fedsim.save_trace(outcome["trace"], args.out_trace)
    _emit(
        {
            "rows": outcome["rows"],
            "total_payload_bytes": outcome["trace"].total_payload_bytes,
        },
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    from . import fedsim

    grid = parse_grid(args.grid)
    if args.family == "toy-mixture":
        rows = fedsim.toy_mixture_sweep(
            grid, args.n, seed=args.seed, kid_n_per_client=args.kid_n
        )
        columns = fedsim.TOY_SWEEP_COLUMNS
    elif args.family == "variance-limited":
        rows = fedsim.variance_limited_sweep(
            args.k_clients,
            args.within_var,
            args.between_var,
            grid,
            seed=args.seed,
            d=args.d,
            n_per_client=args.n,
        )
        columns = fedsim.VARIANCE_SWEEP_COLUMNS
    else:
        raise ValueError(f"unknown sweep family {args.family!r}")
    fedsim.write_score_csv(rows, args.out or sys.stdout, columns=columns)
    return 0


def _cmd_rank(args) -> int:
    from . import fedsim

    tables = (statkit._read_json(path) for path in (args.table_a, args.table_b))
    _emit(fedsim.compare_rankings(*tables).to_json_dict(), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fedeval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="moments of an embedding file or a client set")
    p.add_argument("--input", help="embedding file (.csv or binary)")
    p.add_argument("--clients", help="client-set JSON (pooled moments)")
    p.add_argument("--estimator", choices=["population", "unbiased"], default="population")
    p.add_argument("--ll-model", help="moments JSON of a Gaussian model (log-likelihood scores)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fid", help="Gaussian 2-Wasserstein scores")
    p.add_argument("--clients")
    p.add_argument("--ref", help="single reference (embeddings or moments JSON)")
    p.add_argument("--gen", required=True)
    p.add_argument("--agg", choices=["avg", "all", "both"], default="both")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fid)

    p = sub.add_parser("kid", help="kernel squared-MMD scores")
    p.add_argument("--clients")
    p.add_argument("--ref")
    p.add_argument("--gen", required=True)
    p.add_argument("--kernel", help="kernel spec JSON")
    p.add_argument("--estimator", choices=["vstat", "ustat"], default="vstat")
    p.add_argument("--agg", choices=["avg", "all", "both"], default="both")
    p.add_argument("--gap", action="store_true", help="also emit the constant avg-all gap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kid)

    p = sub.add_parser("prdc", help="precision/recall/density/coverage")
    p.add_argument("--clients")
    p.add_argument("--ref")
    p.add_argument("--gen", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prdc)

    p = sub.add_parser("barycenter", help="covariance barycenter (and avg decomposition)")
    p.add_argument("--clients", required=True)
    p.add_argument("--gen", help="decompose the avg score for this generator")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_barycenter)

    p = sub.add_parser("counterexample", help="matched-score generator pair report")
    p.add_argument("--clients", required=True)
    p.add_argument("--search", action="store_true", help="numerical search instead of the analytic pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("simulate", help="run a scenario file (round or collapse timeline)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.add_argument("--out-csv")
    p.add_argument("--out-trace")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="score tables over a generator parameter grid")
    p.add_argument("family", choices=["toy-mixture", "variance-limited"])
    p.add_argument("--grid", required=True, help="start:stop:step (inclusive)")
    p.add_argument("--n", type=int, default=1000, help="samples per client")
    p.add_argument("--kid-n", type=int, default=None, help="kernel-score sample cap per client")
    p.add_argument("--k-clients", type=int, default=20)
    p.add_argument("--within-var", type=float, default=0.05)
    p.add_argument("--between-var", type=float, default=1.0)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rank", help="compare two generator score tables")
    p.add_argument("--table-a", required=True)
    p.add_argument("--table-b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError (a ValueError) is LAPACK failing, not bad input.
        print(f"fedeval: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # a MemoryError from numpy names the allocation it refused
        print(f"fedeval: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
