"""Import budget: no subcommand loads scipy.

The package runs on numpy alone; scipy is a test-only oracle.  The checks
run in fresh interpreters, because this test process has already
imported scipy: one watches ``sys.modules``, and one blocks every scipy
import and compares each subcommand's output bytes with a free run.
"""

from __future__ import annotations

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

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import fedeval
from fedeval import cli
cli.build_parser()
before = scipy_modules()
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
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
