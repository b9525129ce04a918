"""Import budget: no subcommand loads scipy, and each loads only the
fedeval modules it runs.

The package runs on numpy alone; scipy is a test-only oracle.  The checks
run in fresh interpreters, because this test process has already
imported scipy and every fedeval module: one watches ``sys.modules``, and
one blocks every scipy import and compares each subcommand's output bytes
with a free run.  ``fedeval`` itself imports its submodules on first use;
the last tests hold its lazy namespace to the names it always exported.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedeval
from fedeval import moments, write_embeddings
from fedeval.statkit import save_stats

SRC = Path(fedeval.__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

if sys.argv[3] == "block":
    sys.meta_path.insert(0, BlockScipy())

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

import fedeval
package = modules("fedeval")
from fedeval import cli
cli.build_parser()
before, fedeval_before = modules("scipy"), modules("fedeval")
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({
    "codes": codes,
    "before": before,
    "after": modules("scipy"),
    "package": package,
    "fedeval_before": fedeval_before,
    "fedeval_after": modules("fedeval"),
}))
"""


@pytest.fixture
def fixtures(tmp_path):
    """Two 3-d raw clients, a generator and the small inputs of each subcommand."""
    rng = np.random.default_rng(5)
    for name, shift in (("c1", 1.0), ("c2", -1.0)):
        write_embeddings(rng.normal(size=(20, 3)) + shift * np.eye(3)[0], tmp_path / f"{name}.fevb")
    gen = rng.normal(size=(15, 3))
    write_embeddings(gen, tmp_path / "gen.fevb")
    save_stats(moments(gen), tmp_path / "gen.json")
    (tmp_path / "clients.json").write_text(
        json.dumps(
            {"clients": [{"id": "c1", "embeddings": "c1.fevb"}, {"id": "c2", "embeddings": "c2.fevb"}]}
        )
    )
    scenario = {
        "name": "imports",
        "kind": "round",
        "mode": "moments",
        "metrics": ["fid_avg", "fid_all"],
        "seed": 1,
        "clients": [
            {"id": "a", "mean": [0.0, 0.0], "cov": 1.0, "n": 10},
            {"id": "b", "mean": [2.0, 0.0], "cov": 1.0, "n": 10},
        ],
        "generators": [{"id": "g", "kind": "gaussian", "mean": [1.0, 0.0], "cov": 1.0, "n": 10}],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    (tmp_path / "a.json").write_text(json.dumps({"g1": 1.0, "g2": 2.0}))
    (tmp_path / "b.json").write_text(json.dumps({"g1": 2.0, "g2": 1.0}))
    return tmp_path


def run_child(tmp, calls, block=False):
    """Run ``calls`` in one fresh interpreter, each writing to its own
    ``--out`` file; the child's report and the output files' bytes."""
    out = tmp / ("blocked" if block else "free")
    out.mkdir()
    argvs = [[str(a) for a in call] + ["--out", str(out / f"out{i}")] for i, call in enumerate(calls)]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(argvs), "block" if block else "free"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    outputs = [(out / f"out{i}").read_bytes() for i in range(len(calls))]
    return json.loads(proc.stdout.splitlines()[-1]), outputs


def numpy_calls(tmp):
    clients = ["--clients", tmp / "clients.json"]
    return [
        ["stats", "--input", tmp / "gen.fevb"],
        ["stats", *clients],
        ["fid", *clients, "--gen", tmp / "gen.json", "--agg", "both"],
        ["kid", *clients, "--gen", tmp / "gen.fevb", "--agg", "both", "--gap"],
        ["prdc", *clients, "--gen", tmp / "gen.fevb", "--k", "3"],
        ["barycenter", *clients, "--gen", tmp / "gen.fevb"],
        ["simulate", "--scenario", tmp / "scenario.json"],
        ["sweep", "toy-mixture", "--grid", "0:1:0.5", "--n", "20"],
        ["rank", "--table-a", tmp / "a.json", "--table-b", tmp / "b.json"],
    ]


def counterexample_calls(tmp):
    clients = ["--clients", tmp / "clients.json"]
    return [["counterexample", *clients], ["counterexample", *clients, "--search", "--budget", "20"]]


def test_numpy_only_subcommands_do_not_load_scipy(fixtures):
    calls = numpy_calls(fixtures)
    result, _ = run_child(fixtures, calls)
    assert result["codes"] == [0] * len(calls)
    assert result["before"] == []
    assert result["after"] == []


def test_counterexample_does_not_load_scipy(fixtures):
    result, _ = run_child(fixtures, counterexample_calls(fixtures))
    assert result["codes"] == [0, 0]
    assert result["before"] == []
    assert result["after"] == []


def test_every_subcommand_runs_with_scipy_blocked(fixtures):
    """With every scipy import failing, each subcommand exits 0 and writes
    the bytes of a run where scipy could be imported."""
    calls = numpy_calls(fixtures) + counterexample_calls(fixtures)
    free, free_outputs = run_child(fixtures, calls)
    blocked, blocked_outputs = run_child(fixtures, calls, block=True)
    assert free["codes"] == blocked["codes"] == [0] * len(calls)
    assert blocked["after"] == []
    assert blocked_outputs == free_outputs


def test_cli_import_starts_no_pool_machinery():
    """The tile passes' pool thread and its ``queue`` import come with the
    first pass that runs on two threads, not with the CLI."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import fedeval.cli, threading\n"
        "fedeval.cli.build_parser()\n"
        "print(int('queue' in sys.modules), threading.active_count())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["0", "1"]


CLI_MODULES = ["fedeval", "fedeval.cli", "fedeval.errors", "fedeval.statkit"]
FEDSIM_MODULES = ("fedsim", "frechet", "kernelmmd", "prdc", "tiles")

# The library modules each subcommand loads beyond the CLI's own.
SUBCOMMAND_MODULES = {
    "stats": (),
    "fid": ("frechet",),
    "barycenter": ("frechet",),
    "kid": ("kernelmmd", "tiles"),
    "prdc": ("prdc", "tiles"),
    "counterexample": ("frechet", "counterexample"),
    "simulate": FEDSIM_MODULES,
    "sweep": FEDSIM_MODULES,
    "rank": FEDSIM_MODULES,
}


def test_cli_parser_loads_only_the_shared_modules(fixtures):
    """``import fedeval`` loads no submodule; the CLI and its parser add
    only what every subcommand needs."""
    result, _ = run_child(fixtures, [])
    assert result["package"] == ["fedeval"]
    assert result["fedeval_before"] == result["fedeval_after"] == CLI_MODULES


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_its_modules(fixtures, subcommand):
    every = numpy_calls(fixtures) + counterexample_calls(fixtures)
    calls = [call for call in every if call[0] == subcommand]
    result, _ = run_child(fixtures, calls)
    assert result["codes"] == [0] * len(calls)
    assert result["fedeval_before"] == CLI_MODULES
    expected = CLI_MODULES + [f"fedeval.{m}" for m in SUBCOMMAND_MODULES[subcommand]]
    assert result["fedeval_after"] == sorted(expected)


# Every name ``fedeval`` exported when it imported its submodules eagerly.
EXPORTED = {
    "counterexample": ["CounterexampleReport", "construct", "search_matched_pair"],
    "errors": [
        "CapabilityError", "ConvergenceError", "NotPsdError", "NumericalError", "SampleCountError",
    ],
    "fedsim": [
        "ClientSpec", "GeneratorSpec", "Message", "ProtocolTrace", "RankingComparison", "Scenario",
        "ScoreReport", "compare_rankings", "default_collapse_scenario", "mode_collapse_timeline",
        "run_round", "run_scenario", "toy_mixture_sweep", "variance_limited_sweep",
    ],
    "frechet": [
        "BarycenterSolution", "FrechetResult", "barycenter", "fid_all", "fid_avg",
        "fid_avg_decomposition", "frechet_distance", "psd_sqrt",
    ],
    "kernelmmd": [
        "KernelSpec", "MmdResult", "kernel_eval", "kid_all", "kid_avg", "kid_constant_gap", "mmd2",
    ],
    "prdc": ["PrdcResult", "knn_radii", "prdc_aggregate", "prdc_scores"],
    "statkit": [
        "Client", "ClientSet", "GaussianModel", "GaussianStats", "LogLikelihoodScores",
        "as_embeddings", "ingest", "load_client_set", "log_likelihood_scores", "moments",
        "pool_moments", "write_embeddings",
    ],
}
PUBLIC = {name for names in EXPORTED.values() for name in names} | set(EXPORTED)


def test_exported_names_resolve_to_their_module_objects():
    for module_name, names in EXPORTED.items():
        module = importlib.import_module(f"fedeval.{module_name}")
        assert getattr(fedeval, module_name) is module
        for name in names:
            assert getattr(fedeval, name) is getattr(module, name), name


def test_first_access_imports_the_submodule():
    """In a fresh interpreter, where no submodule is loaded yet, ``getattr``
    imports a submodule as the tracer reads it, and then a name from it;
    a name read first imports its submodule too."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "import fedeval\n"
        "exported = json.loads(sys.argv[2])\n"
        "assert fedeval.fid_avg is sys.modules['fedeval.frechet'].fid_avg\n"
        "for module_name, names in exported.items():\n"
        "    module = getattr(fedeval, module_name)\n"
        "    assert module is sys.modules['fedeval.' + module_name]\n"
        "    for name in names:\n"
        "        assert getattr(fedeval, name) is getattr(module, name)\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), json.dumps(EXPORTED)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["ok"]


def test_star_import_and_dir_give_the_exported_names():
    namespace: dict = {}
    exec("from fedeval import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert sorted(fedeval.__all__) == sorted(PUBLIC)
    listed = dir(fedeval)
    assert listed == sorted(listed)
    assert PUBLIC | {"__version__"} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fedeval' has no attribute 'no_such_name'$"):
        fedeval.no_such_name
    assert not hasattr(fedeval, "DEFAULT_K")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from fedeval import no_such_name", {})
