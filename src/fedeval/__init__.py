"""Distance-based evaluation of generative models against multi-client
reference data.

Scores (Gaussian 2-Wasserstein, kernel squared-MMD, log-likelihood,
precision/recall/density/coverage) come in two aggregations over a set
of weighted clients: ``avg`` (weighted mean of per-client scores) and
``all`` (score against the pooled mixture).  The package computes both,
verifies the structural identities that relate them, and simulates the
federated message exchange needed for each with exact byte accounting.

Every exported name and submodule is imported on first use (PEP 562),
so a process that uses one submodule loads only it and what it imports.
"""

from importlib import import_module as _import_module

# Each exported name, grouped by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "counterexample": ("CounterexampleReport", "construct", "search_matched_pair"),
        "errors": (
            "CapabilityError",
            "ConvergenceError",
            "NotPsdError",
            "NumericalError",
            "SampleCountError",
        ),
        "fedsim": (
            "ClientSpec",
            "GeneratorSpec",
            "Message",
            "ProtocolTrace",
            "RankingComparison",
            "Scenario",
            "ScoreReport",
            "compare_rankings",
            "default_collapse_scenario",
            "mode_collapse_timeline",
            "run_round",
            "run_scenario",
            "toy_mixture_sweep",
            "variance_limited_sweep",
        ),
        "frechet": (
            "BarycenterSolution",
            "FrechetResult",
            "barycenter",
            "fid_all",
            "fid_avg",
            "fid_avg_decomposition",
            "frechet_distance",
            "psd_sqrt",
        ),
        "kernelmmd": (
            "KernelSpec",
            "MmdResult",
            "kernel_eval",
            "kid_all",
            "kid_avg",
            "kid_constant_gap",
            "mmd2",
        ),
        "prdc": ("PrdcResult", "knn_radii", "prdc_aggregate", "prdc_scores"),
        "statkit": (
            "Client",
            "ClientSet",
            "GaussianModel",
            "GaussianStats",
            "LogLikelihoodScores",
            "as_embeddings",
            "ingest",
            "load_client_set",
            "log_likelihood_scores",
            "moments",
            "pool_moments",
            "write_embeddings",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = [*_EXPORTS, *sorted(_SUBMODULES)]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
