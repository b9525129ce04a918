"""A client set computes each client's moments once.

``ClientSet.stats_list`` is the one place a client's statistic comes
from; every scorer (``fid_avg`` / ``fid_all``, the barycenter, the
counterexample and each protocol round) reads it.  The counts below are
taken at ``statkit.moments``, the name the set calls; ``fedsim`` binds
its own ``moments`` for generator samples, which these counts leave out.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from fedeval import Client, ClientSet, statkit, write_embeddings
from fedeval.cli import main
from fedeval.fedsim import ClientSpec, GeneratorSpec, Scenario, run_scenario

K, D = 4, 6


@pytest.fixture
def moments_calls(monkeypatch):
    calls = []
    original = statkit.moments

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(statkit, "moments", counted)
    return calls


@pytest.fixture
def raw_files(tmp_path):
    """K raw clients of dimension D, with means in K < D directions, and a
    raw generator and its moments file."""
    rng = np.random.default_rng(5)
    for i in range(K):
        x = rng.standard_normal((30 + 5 * i, D)) + 2.0 * np.eye(D)[i]
        write_embeddings(x, tmp_path / f"c{i}.fevb")
    clients = [{"id": f"c{i}", "embeddings": f"c{i}.fevb"} for i in range(K)]
    (tmp_path / "clients.json").write_text(json.dumps({"clients": clients}))
    gen = 1.2 * rng.standard_normal((40, D))
    write_embeddings(gen, tmp_path / "gen.fevb")
    statkit.save_stats(statkit.moments(gen), tmp_path / "gen.json")
    return tmp_path


def _cli(args) -> None:
    assert main([str(a) for a in args]) == 0


def test_fid_both_computes_each_client_once(raw_files, moments_calls, capsys):
    _cli(["fid", "--clients", raw_files / "clients.json", "--gen", raw_files / "gen.json"])
    assert len(moments_calls) == K


def test_barycenter_with_generator_computes_each_client_once(raw_files, moments_calls, capsys):
    _cli(["barycenter", "--clients", raw_files / "clients.json", "--gen", raw_files / "gen.fevb"])
    # The K clients, then the raw generator.
    assert len(moments_calls) == K + 1


@pytest.mark.parametrize("search", [False, True])
def test_counterexample_computes_each_client_once(raw_files, moments_calls, capsys, search):
    args = ["counterexample", "--clients", raw_files / "clients.json"]
    _cli(args + (["--search", "--budget", "20"] if search else []))
    assert len(moments_calls) == K


@pytest.mark.parametrize(
    "mode, metrics",
    [
        ("moments", ["fid_avg", "fid_all"]),
        ("raw", ["fid_avg", "fid_all", "kid_avg"]),
        ("scores", ["fid_avg", "kid_avg"]),
    ],
)
def test_round_scenario_computes_each_client_once(moments_calls, mode, metrics):
    clients = [
        ClientSpec(id=f"c{i}", mean=2.0 * np.eye(D)[i], cov=1.0, n=20 + i, seed=i)
        for i in range(K)
    ]
    generators = [
        GeneratorSpec(id=f"g{j}", kind="gaussian", mean=np.full(D, 0.2 * j), cov=1.0 + j, n=30)
        for j in range(3)
    ]
    scenario = Scenario(
        name="count", kind="round", clients=clients, generators=generators,
        metrics=metrics, mode=mode, seed=1,
    )
    outcome = run_scenario(scenario)
    assert len(outcome["rows"]) == 3
    assert len(moments_calls) == K


def test_stats_list_is_a_fresh_list(rng):
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.standard_normal((10, 3))) for i in range(3)]
    )
    first = clients.stats_list()
    kept = list(first)
    first.reverse()
    first.append(first[0])
    again = clients.stats_list()
    assert again is not first
    assert len(again) == 3
    # The same statistics, in client order, not computed again.
    assert all(a is b for a, b in zip(again, kept))
