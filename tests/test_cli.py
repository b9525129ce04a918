"""Command-line interface: exit codes, determinism, and dispatch coverage."""

from __future__ import annotations

import copy
import functools
import json
import operator
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fedeval
from fedeval import moments, write_embeddings
from fedeval.cli import OPERATION_SUBCOMMANDS, build_parser, main, parse_grid
from fedeval.statkit import save_stats


@pytest.fixture
def workspace(tmp_path):
    """Client-set JSON plus generator files for CLI runs."""
    rng = np.random.default_rng(11)
    c1 = rng.normal(size=(30, 2)) + np.array([1.0, 0.0])
    c2 = rng.normal(size=(40, 2)) + np.array([-1.0, 0.0])
    gen = rng.normal(size=(25, 2))
    write_embeddings(c1, tmp_path / "c1.fevb")
    write_embeddings(c2, tmp_path / "c2.fevb")
    write_embeddings(gen, tmp_path / "gen.fevb")
    save_stats(moments(gen), tmp_path / "gen_moments.json")
    (tmp_path / "clients.json").write_text(
        json.dumps(
            {
                "clients": [
                    {"id": "c1", "embeddings": "c1.fevb"},
                    {"id": "c2", "embeddings": "c2.fevb"},
                ]
            }
        )
    )
    return tmp_path, {"c1": c1, "c2": c2, "gen": gen}


def run_cli(args):
    return main([str(a) for a in args])


def test_fid_subcommand_matches_library(workspace, capsys):
    tmp, data = workspace
    code = run_cli(["fid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--agg", "both"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    from fedeval import Client, ClientSet, fid_all, fid_avg

    clients = ClientSet(
        [Client(id="c1", embeddings=data["c1"]), Client(id="c2", embeddings=data["c2"])]
    )
    gen_stats = moments(data["gen"])
    assert out["fid_avg"] == pytest.approx(fid_avg(clients, gen_stats).value, rel=1e-12)
    assert out["fid_all"] == pytest.approx(fid_all(clients, gen_stats).value, rel=1e-12)


def test_fid_ref_pair(workspace, capsys):
    tmp, _ = workspace
    code = run_cli(["fid", "--ref", tmp / "c1.fevb", "--gen", tmp / "gen_moments.json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"value", "mean_term", "trace_term"}


def test_fid_indefinite_generator_exit_2(workspace, capsys):
    tmp, _ = workspace
    save_stats(
        fedeval.GaussianStats(n=3, mean=[0.0, 0.0], cov=np.diag([1.0, -0.5])),
        tmp / "indefinite.json",
    )
    for ref in (["--ref", tmp / "c1.fevb"], ["--clients", tmp / "clients.json"]):
        assert run_cli(["fid", *ref, "--gen", tmp / "indefinite.json"]) == 2
        assert "covariance product is not PSD" in capsys.readouterr().err


def test_kid_subcommand_with_gap(workspace, capsys):
    tmp, data = workspace
    code = run_cli(
        ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--agg", "both", "--gap"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kid_avg"] - out["kid_all"] == pytest.approx(out["gap"], rel=1e-9)


def test_kid_avg_and_both_print_the_same_per_client(tmp_path, capsys):
    rng = np.random.default_rng(5)
    clients = []
    for i in range(3):
        write_embeddings(rng.normal(size=(60, 4)) + i, tmp_path / f"c{i}.fevb")
        clients.append({"id": f"c{i}", "embeddings": f"c{i}.fevb"})
    write_embeddings(rng.normal(size=(80, 4)), tmp_path / "gen.fevb")
    (tmp_path / "clients.json").write_text(json.dumps({"clients": clients}))
    outs = {}
    for agg in ("avg", "both"):
        args = ["kid", "--clients", tmp_path / "clients.json", "--gen", tmp_path / "gen.fevb"]
        assert run_cli(args + ["--agg", agg]) == 0
        outs[agg] = json.loads(capsys.readouterr().out)
    assert outs["avg"]["per_client"] == outs["both"]["per_client"]
    assert outs["avg"]["kid_avg"] == outs["both"]["kid_avg"]


@pytest.mark.parametrize("kind", ["laplace", "Polynomial", "RBF"])
def test_unknown_kernel_kind_exit_1(workspace, capsys, kind):
    tmp, _ = workspace
    (tmp / "kernel.json").write_text(json.dumps({"kind": kind}))
    args = ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb"]
    assert run_cli(args + ["--kernel", tmp / "kernel.json"]) == 1
    assert "unknown kernel kind" in capsys.readouterr().err
    scenario = {
        "name": "bad-kernel",
        "kind": "round",
        "mode": "kernel_blocks",
        "metrics": ["kid_avg"],
        "seed": 5,
        "kernel": {"kind": kind},
        "clients": [{"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20}],
        "generators": [{"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30}],
    }
    (tmp / "s.json").write_text(json.dumps(scenario))
    assert run_cli(["simulate", "--scenario", tmp / "s.json"]) == 1
    assert "unknown kernel kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--clients", "clients.json"],
        ["--clients", "clients.json", "--kernel", "rbf.json"],
        ["--clients", "clients.json", "--agg", "avg"],
        ["--ref", "c1.fevb"],
    ],
)
def test_kid_dimension_mismatch_exit_1(workspace, capsys, args):
    """2-d clients against a 3-d generator: the dimension check's one line,
    as fid and prdc print it."""
    tmp, _ = workspace
    write_embeddings(np.zeros((25, 3)), tmp / "gen3.fevb")
    (tmp / "rbf.json").write_text(json.dumps({"kind": "rbf"}))
    paths = [tmp / a if a.endswith((".json", ".fevb")) else a for a in args]
    assert run_cli(["kid", *paths, "--gen", tmp / "gen3.fevb"]) == 1
    assert capsys.readouterr().err == "fedeval: error: dimension mismatch: 2 vs 3\n"


MALFORMED_KERNELS = {
    "list": ([1], "kernel spec must be a JSON object, got [1]"),
    "string": ("rbf", "kernel spec must be a JSON object, got 'rbf'"),
    "null-degree": ({"degree": None}, "polynomial degree must be an integer >= 1, got None"),
    "string-degree": ({"degree": "3"}, "polynomial degree must be an integer >= 1, got '3'"),
    "bool-degree": ({"degree": True}, "polynomial degree must be an integer >= 1, got True"),
    "string-scale": ({"scale": "x"}, "kernel scale must be positive, got 'x'"),
    "bool-scale": ({"scale": True}, "kernel scale must be positive, got True"),
    "string-offset": ({"offset": "x"}, "kernel offset must be a number, got 'x'"),
    "list-bandwidth": (
        {"kind": "rbf", "bandwidth": [1]},
        "rbf bandwidth must be positive, got [1]",
    ),
    "bool-bandwidth": (
        {"kind": "rbf", "bandwidth": False},
        "rbf bandwidth must be positive, got False",
    ),
    # A 401-digit JSON integer is beyond float range.
    "huge-bandwidth": (
        {"kind": "rbf", "bandwidth": 10**400},
        "kernel spec field 'bandwidth' is beyond float range",
    ),
    # A bandwidth whose square overflows, or underflows to 0 (or below the
    # normal floats), leaves the Gram matrix's divisor outside float range.
    "square-overflow-bandwidth": (
        {"kind": "rbf", "bandwidth": 1e200},
        "kernel spec field 'bandwidth' has a square outside float range, got 1e+200",
    ),
    "square-underflow-bandwidth": (
        {"kind": "rbf", "bandwidth": 1e-200},
        "kernel spec field 'bandwidth' has a square outside float range, got 1e-200",
    ),
    "huge-scale": ({"scale": 10**400}, "kernel spec field 'scale' is beyond float range"),
    "huge-offset": ({"offset": 10**400}, "kernel spec field 'offset' is beyond float range"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_KERNELS))
def test_malformed_kernel_spec_exit_1(workspace, capsys, case):
    """A malformed kernel spec, in a --kernel file or a scenario's kernel
    field, is one input error line and exit 1, never a traceback."""
    spec, message = MALFORMED_KERNELS[case]
    tmp, _ = workspace
    (tmp / "kernel.json").write_text(json.dumps(spec))
    args = ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb"]
    assert run_cli(args + ["--kernel", tmp / "kernel.json"]) == 1
    assert capsys.readouterr().err == f"fedeval: error: {message}\n"
    scenario = {
        "name": "bad-kernel",
        "kind": "round",
        "mode": "kernel_blocks",
        "metrics": ["kid_avg"],
        "kernel": spec,
        "clients": [{"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20}],
        "generators": [{"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30}],
    }
    (tmp / "s.json").write_text(json.dumps(scenario))
    assert run_cli(["simulate", "--scenario", tmp / "s.json"]) == 1
    assert capsys.readouterr().err == f"fedeval: error: {message}\n"


def test_kid_ustat_single_sample_exit_2(tmp_path, capsys):
    write_embeddings(np.array([[1.0]]), tmp_path / "one.fevb")
    write_embeddings(np.array([[0.0], [0.5]]), tmp_path / "gen.fevb")
    (tmp_path / "clients.json").write_text(
        json.dumps({"clients": [{"id": "only", "embeddings": "one.fevb"}]})
    )
    code = run_cli(
        [
            "kid",
            "--estimator",
            "ustat",
            "--clients",
            tmp_path / "clients.json",
            "--gen",
            tmp_path / "gen.fevb",
            "--agg",
            "all",
        ]
    )
    assert code == 2
    assert "ustat requires" in capsys.readouterr().err


def test_prdc_subcommand(workspace, capsys):
    tmp, data = workspace
    code = run_cli(["prdc", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--k", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"all", "avg", "per_client"}
    from fedeval import Client, ClientSet, prdc_aggregate

    clients = ClientSet(
        [Client(id="c1", embeddings=data["c1"]), Client(id="c2", embeddings=data["c2"])]
    )
    assert out["all"] == prdc_aggregate(clients, data["gen"], k=3).all.to_json_dict()


def test_prdc_default_k_is_the_library_default(workspace, capsys):
    """Without ``--k`` both prdc forms use ``prdc.DEFAULT_K``."""
    from fedeval.prdc import DEFAULT_K

    tmp, _ = workspace
    for source in (["--clients", tmp / "clients.json"], ["--ref", tmp / "c1.fevb"]):
        args = ["prdc", *source, "--gen", tmp / "gen.fevb"]
        assert run_cli(args) == 0
        default = capsys.readouterr().out
        assert run_cli([*args, "--k", DEFAULT_K]) == 0
        assert capsys.readouterr().out == default


def test_stats_moments_and_pool(workspace, capsys):
    tmp, data = workspace
    assert run_cli(["stats", "--input", tmp / "c1.fevb"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single["n"] == 30
    assert run_cli(["stats", "--clients", tmp / "clients.json"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert pooled["n"] == 70


def test_stats_log_likelihood(workspace, capsys):
    tmp, _ = workspace
    code = run_cli(
        ["stats", "--clients", tmp / "clients.json", "--ll-model", tmp / "gen_moments.json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["avg"] - out["all"]) <= 1e-12 * max(1.0, abs(out["all"]))


def test_barycenter_subcommand(workspace, capsys):
    tmp, _ = workspace
    assert run_cli(["barycenter", "--clients", tmp / "clients.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] <= 1e-10 * np.linalg.norm(out["cov"])
    assert (
        run_cli(["barycenter", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb"]) == 0
    )
    dec = json.loads(capsys.readouterr().out)
    assert (
        run_cli(["fid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--agg", "avg"])
        == 0
    )
    assert dec["fid_avg"] == json.loads(capsys.readouterr().out)["fid_avg"]


def test_barycenter_lapack_failure_exit_2(workspace, capsys, monkeypatch):
    """numpy's LinAlgError is a ValueError, but it is a numerical failure."""
    tmp, _ = workspace

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert run_cli(["barycenter", "--clients", tmp / "clients.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fedeval: numerical failure: Eigenvalues did not converge")


@pytest.mark.filterwarnings("error")
def test_barycenter_singular_iterate_exit_2(tmp_path, capsys):
    """Two rank-1 clients on different lines have a singular barycenter: the
    iterate that turns singular ends the run with one error line and exit
    2, with or without a generator, not warnings and 1000 NaN iterations."""
    entries = []
    for i, cov in enumerate([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]]):
        (tmp_path / f"c{i}.json").write_text(json.dumps({"n": 2, "mean": [0.0, 0.0], "cov": cov}))
        entries.append({"id": f"c{i}", "moments": f"c{i}.json"})
    (tmp_path / "clients.json").write_text(json.dumps({"clients": entries}))
    for gen in ([], ["--gen", tmp_path / "c0.json"]):
        assert run_cli(["barycenter", "--clients", tmp_path / "clients.json", *gen]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "fedeval: numerical failure: barycenter iterate is singular after 6 iterations (residual "
        )
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--tol", "-1", "barycenter tol must be a finite number > 0, got -1.0"),
        ("--tol", "0", "barycenter tol must be a finite number > 0, got 0.0"),
        ("--tol", "nan", "barycenter tol must be a finite number > 0, got nan"),
        ("--tol", "inf", "barycenter tol must be a finite number > 0, got inf"),
        ("--max-iter", "0", "barycenter max_iter must be at least 1, got 0"),
        ("--max-iter", "-2", "barycenter max_iter must be at least 1, got -2"),
    ],
)
def test_barycenter_bad_tol_or_max_iter_exit_1(workspace, capsys, option, value, message):
    """A stopping rule that cannot be met is an input error, reported in
    one line before the iteration starts, with or without a generator."""
    tmp, _ = workspace
    for gen in ([], ["--gen", tmp / "gen.fevb"]):
        assert run_cli(["barycenter", "--clients", tmp / "clients.json", *gen, option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fedeval: error: {message}\n"


def test_non_finite_scores_exit_2(workspace, capsys):
    """A kernel sum or a distance that overflows is a numerical failure,
    with one error line and no warning, not a NaN score."""
    tmp, data = workspace
    (tmp / "k.json").write_text(json.dumps({"offset": 1e200}))
    args = ["kid", "--ref", tmp / "gen.fevb", "--gen", tmp / "gen.fevb", "--kernel", tmp / "k.json"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == "fedeval: numerical failure: kernel sum is not finite\n"
    write_embeddings(data["gen"] * 1e160, tmp / "huge.fevb")
    assert run_cli(["prdc", "--ref", tmp / "huge.fevb", "--gen", tmp / "gen.fevb"]) == 2
    assert capsys.readouterr().err == "fedeval: numerical failure: squared distance is not finite\n"


def test_non_finite_frechet_distance_exit_2(tmp_path, capsys):
    """A Fréchet distance that overflows is a numerical failure with one
    error line and no warning, not an infinite score."""
    for name, mean in (("ref", [1e308, 0.0]), ("gen", [0.0, 0.0])):
        save_stats(fedeval.GaussianStats(n=10, mean=mean, cov=np.eye(2)), tmp_path / f"{name}.json")
    assert run_cli(["fid", "--ref", tmp_path / "ref.json", "--gen", tmp_path / "gen.json"]) == 2
    assert capsys.readouterr().err == "fedeval: numerical failure: distance is not finite\n"


def test_non_finite_const_part_exit_2(tmp_path, capsys):
    """Client means 2e200 apart overflow the barycenter's constant part
    (the generator sits at the barycenter mean): one error line, exit 2."""
    entries = []
    for i, side in enumerate((-1.0, 1.0)):
        stats = fedeval.GaussianStats(n=4, mean=[side * 1e200, 0.0], cov=np.eye(2))
        save_stats(stats, tmp_path / f"c{i}.json")
        entries.append({"id": f"c{i}", "moments": f"c{i}.json"})
    (tmp_path / "clients.json").write_text(json.dumps({"clients": entries}))
    save_stats(fedeval.GaussianStats(n=4, mean=[0.0, 0.0], cov=np.eye(2)), tmp_path / "gen.json")
    args = ["barycenter", "--clients", tmp_path / "clients.json", "--gen", tmp_path / "gen.json"]
    assert run_cli(args) == 2
    assert capsys.readouterr() == ("", "fedeval: numerical failure: distance is not finite\n")


def test_counterexample_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(2)
    write_embeddings(rng.normal(size=(20, 3)) + np.array([1.0, 0, 0]), tmp_path / "a.fevb")
    write_embeddings(rng.normal(size=(20, 3)) - np.array([1.0, 0, 0]), tmp_path / "b.fevb")
    (tmp_path / "clients.json").write_text(
        json.dumps(
            {
                "clients": [
                    {"id": "a", "embeddings": "a.fevb"},
                    {"id": "b", "embeddings": "b.fevb"},
                ]
            }
        )
    )
    assert run_cli(["counterexample", "--clients", tmp_path / "clients.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["u"] > 0
    assert out["fid_all_hat"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_counterexample_search_non_finite_candidate_exits_1(tmp_path, monkeypatch, capsys):
    """A non-finite search candidate is an input error (exit 1), raised
    before any eigensolver sees it."""

    def nelder_mead(objective, simplex, maxfev, **tolerances):
        objective(np.full_like(simplex[:1], np.inf))

    monkeypatch.setattr("fedeval.counterexample._nelder_mead", nelder_mead)
    rng = np.random.default_rng(5)
    write_embeddings(rng.normal(size=(20, 3)) + [1.0, 0, 0], tmp_path / "a.fevb")
    write_embeddings(rng.normal(size=(20, 3)) - [1.0, 0, 0], tmp_path / "b.fevb")
    clients = [{"id": "a", "embeddings": "a.fevb"}, {"id": "b", "embeddings": "b.fevb"}]
    (tmp_path / "clients.json").write_text(json.dumps({"clients": clients}))
    assert run_cli(["counterexample", "--clients", tmp_path / "clients.json", "--search"]) == 1
    assert capsys.readouterr().err == "fedeval: error: non-finite entry in Gaussian parameters\n"


def test_sweep_toy_mixture_writes_deterministic_csv(tmp_path):
    args = [
        "sweep",
        "toy-mixture",
        "--grid",
        "0:1:0.5",
        "--n",
        "50",
        "--seed",
        "7",
        "--out",
        tmp_path / "a.csv",
    ]
    assert run_cli(args) == 0
    args[-1] = tmp_path / "b.csv"
    assert run_cli(args) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    header = a.decode().splitlines()[0]
    assert header.startswith("var_x,fd_avg_analytic,fd_all_analytic")
    assert len(a.decode().splitlines()) == 4  # header + grid points 0, 0.5, 1


@pytest.mark.parametrize("kid_n", ["0", "-3"])
def test_sweep_toy_mixture_rejects_non_positive_kid_n(tmp_path, capsys, kid_n):
    args = ["sweep", "toy-mixture", "--grid", "0:1:0.5", "--n", "50", "--kid-n", kid_n]
    assert run_cli(args + ["--out", tmp_path / "toy.csv"]) == 1
    assert "kid_n_per_client must be >= 1" in capsys.readouterr().err


def test_sweep_variance_limited(tmp_path):
    code = run_cli(
        [
            "sweep",
            "variance-limited",
            "--grid",
            "0:0.4:0.2",
            "--n",
            "30",
            "--k-clients",
            "4",
            "--seed",
            "1",
            "--out",
            tmp_path / "v.csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert lines[0] == "var,fid_avg,fid_all,kid_avg,kid_all"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "args, message",
    [
        (["--grid", "0:1:0.5", "--within-var", "-0.5"], "within-client variance must be >= 0"),
        (["--grid=-2:-1:0.5"], "variance grid values must be >= 0"),
        (["--grid", "0:1:0.5", "--k-clients", "-1"], "need at least 1 client, got -1"),
        (["--grid", "0:1:0.5", "--between-var", "nan"], "between-client variance must be finite, got nan"),
        (["--grid", "0:1:0.5", "--between-var", "inf"], "between-client variance must be finite, got inf"),
        (["--grid", "0:1:0.5", "--n", "0"], "need at least 1 sample per client (n), got 0"),
        (["--grid", "0:1:0.5", "--d", "0"], "dimension d must be >= 1, got 0"),
    ],
)
def test_sweep_variance_limited_rejects_bad_regime(capsys, args, message):
    """A negative or non-finite variance, client count, sample count or
    dimension is one input error line naming it, with no numpy warning
    before it."""
    assert run_cli(["sweep", "variance-limited", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fedeval: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "family",
    [
        ["toy-mixture", "--grid", "0:1:0.5", "--n", "40", "--seed", "7"],
        ["variance-limited", "--grid", "0:0.4:0.2", "--n", "30", "--k-clients", "4", "--seed", "1"],
    ],
)
def test_sweep_stdout_matches_out_file(tmp_path, capsysbinary, family):
    assert run_cli(["sweep", *family]) == 0
    stdout = capsysbinary.readouterr().out
    assert run_cli(["sweep", *family, "--out", tmp_path / "s.csv"]) == 0
    assert stdout == (tmp_path / "s.csv").read_bytes()
    assert stdout.count(b"\n") == 4


def test_simulate_round_scenario(tmp_path, capsys):
    scenario = {
        "name": "demo",
        "kind": "round",
        "mode": "moments",
        "metrics": ["fid_avg", "fid_all"],
        "seed": 5,
        "clients": [
            {"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20},
            {"id": "c2", "mean": [3.0, 0.0], "cov": 1.0, "n": 20},
        ],
        "generators": [
            {"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30}
        ],
    }
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    code = run_cli(
        [
            "simulate",
            "--scenario",
            tmp_path / "s.json",
            "--out-csv",
            tmp_path / "rows.csv",
            "--out-trace",
            tmp_path / "trace.json",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"][0]["generator"] == "g1"
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["messages"][0]["kind"] == "GenRefBroadcast"
    assert trace["total_payload_bytes"] > 0


def test_simulate_collapse_scenario(tmp_path, capsys):
    from fedeval import default_collapse_scenario

    scenario = default_collapse_scenario(seed=0).to_json_dict()
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    code = run_cli(["simulate", "--scenario", tmp_path / "s.json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["detections"]["kid_avg"] is True
    assert out["detections"]["fid_avg"] is False


def small_scenario(**fields):
    """A valid round scenario with one client and two generators, then ``fields``."""
    scenario = {
        "name": "small",
        "kind": "round",
        "metrics": ["fid_avg"],
        "clients": [{"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20}],
        "generators": [
            {"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30},
            {"id": "g2", "kind": "point", "point": [0.0, 0.0], "n": 30},
        ],
    }
    scenario.update(fields)
    return {key: value for key, value in scenario.items() if value is not _DROP}


_DROP = object()  # a small_scenario field value that removes the field


def _without(kind, key):
    """The first of small_scenario's ``kind`` specs, without ``key``."""
    spec = dict(small_scenario()[kind][0])
    del spec[key]
    return {kind: [spec]}


MALFORMED_SCENARIOS = {
    "clients-missing": ({"clients": _DROP}, "scenario has no field 'clients'"),
    "generators-missing": ({"generators": _DROP}, "scenario has no field 'generators'"),
    **{
        f"client-{key}-missing": (_without("clients", key), f"scenario client has no field {key!r}")
        for key in ("id", "mean", "cov", "n")
    },
    **{
        f"generator-{key}-missing": (
            _without("generators", key), f"scenario generator has no field {key!r}"
        )
        for key in ("id", "n")
    },
    "collapse_step-missing": (
        {"kind": "collapse"},
        "collapse scenario needs an integer collapse_step, got None",
    ),
    "collapse_step-null": (
        {"kind": "collapse", "collapse_step": None},
        "collapse scenario needs an integer collapse_step, got None",
    ),
    "collapse_step-string": (
        {"kind": "collapse", "collapse_step": "3"},
        "collapse scenario needs an integer collapse_step, got '3'",
    ),
    "metrics-string": (
        {"metrics": "fid_avg"},
        "metrics must be a list of metric names, got 'fid_avg'",
    ),
    "seed-fraction": ({"seed": 1.5}, "scenario seed must be an integer >= 0, got 1.5"),
    "seed-null": ({"seed": None}, "scenario seed must be an integer >= 0, got None"),
    "seed-string": ({"seed": "x"}, "scenario seed must be an integer >= 0, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_field_exit_1(tmp_path, capsys, case):
    """A malformed scenario-level field is one input error line and exit 1."""
    fields, message = MALFORMED_SCENARIOS[case]
    (tmp_path / "s.json").write_text(json.dumps(small_scenario(**fields)))
    assert run_cli(["simulate", "--scenario", tmp_path / "s.json"]) == 1
    assert capsys.readouterr().err == f"fedeval: error: {message}\n"


def _client_field(**fields):
    return {"clients": [{"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20, **fields}]}


def _generator_field(**fields):
    spec = {"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30, **fields}
    return {"generators": [spec]}


MALFORMED_SPECS = {
    "n-null": (_client_field(n=None), 1, "sample count n must be an integer >= 1, got None"),
    "n-string": (_client_field(n="20"), 1, "sample count n must be an integer >= 1, got '20'"),
    "n-fraction": (_generator_field(n=2.5), 1, "sample count n must be an integer >= 1, got 2.5"),
    "n-zero": (_generator_field(n=0), 1, "sample count n must be an integer >= 1, got 0"),
    "seed-string": (
        _client_field(seed="x"), 1, "spec seed must be null or an integer >= 0, got 'x'"
    ),
    "seed-bool": (
        _generator_field(seed=True), 1, "spec seed must be null or an integer >= 0, got True"
    ),
    "empty-mean": (_client_field(mean=[]), 1, "Gaussian spec mean must have at least one entry"),
    "dimension-mismatch": (
        _client_field(cov=[[1.0]]), 1, "mean dimension 2 does not match covariance (1, 1)"
    ),
    "nan-cov": (
        _client_field(cov=[[float("nan")] * 2] * 2),
        1,
        "non-finite entry in Gaussian parameters",
    ),
    "nan-cov-lapack": (
        _generator_field(mean=[0.0] * 3, cov=[[float("nan")] * 3] * 3),
        1,
        "non-finite entry in Gaussian parameters",
    ),
    "nan-point": (
        _generator_field(kind="point", point=[float("nan"), 0.0]),
        1,
        "non-finite entry in generator point",
    ),
    "string-jitter": (
        _generator_field(kind="point", point=[0.0, 0.0], jitter="x"),
        1,
        "point jitter must be a finite number, got 'x'",
    ),
    "asymmetric-cov": (
        _client_field(cov=[[1.0, 0.5], [0.0, 1.0]]), 2, "covariance is not symmetric"
    ),
    "kernel-blocks-generator-dimension": (
        {"mode": "kernel_blocks", "metrics": ["kid_avg"], **_generator_field(mean=[1.5, 0.0, 0])},
        1,
        "dimension mismatch: 2 vs 3",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_fails_when_built(tmp_path, capsys, case):
    """A malformed client or generator spec is one error line, exit 1 for
    bad input and 2 for a covariance that fails a PSD check, never a
    traceback."""
    fields, code, message = MALFORMED_SPECS[case]
    (tmp_path / "s.json").write_text(json.dumps(small_scenario(**fields)))
    assert run_cli(["simulate", "--scenario", tmp_path / "s.json"]) == code
    prefix = "fedeval: error: " if code == 1 else "fedeval: numerical failure: "
    assert capsys.readouterr().err == f"{prefix}{message}\n"


_LIST_OF_OBJECTS = "must be a list of JSON objects"
_NUMBERS = "must be a number or nested lists of numbers"
_HUGE = 10**400
_BEYOND = "has a number beyond float range"

MALFORMED_JSON_INPUTS = {
    "scenario-clients-object": (
        "scenario", small_scenario(clients={"id": "c"}), f"scenario clients {_LIST_OF_OBJECTS}"
    ),
    "scenario-clients-strings": (
        "scenario", small_scenario(clients=["c1"]), f"scenario clients {_LIST_OF_OBJECTS}"
    ),
    "scenario-generators-null": (
        "scenario", small_scenario(generators=None), f"scenario generators {_LIST_OF_OBJECTS}"
    ),
    "scenario-mean-object": (
        "scenario", small_scenario(**_client_field(mean={})), f"mean {_NUMBERS}"
    ),
    "scenario-cov-object": (
        "scenario", small_scenario(**_client_field(cov={})), f"covariance {_NUMBERS}"
    ),
    "scenario-cov-string": (
        "scenario",
        small_scenario(**_client_field(cov=[["x", 0.0], [0.0, 1.0]])),
        f"covariance {_NUMBERS}",
    ),
    "scenario-point-object": (
        "scenario",
        small_scenario(**_generator_field(kind="point", point={})),
        f"generator point {_NUMBERS}",
    ),
    "scenario-point-bool": (
        "scenario",
        small_scenario(**_generator_field(kind="point", point=[0.0, False])),
        "scenario generator field 'point' must hold numbers, not true or false",
    ),
    "scenario-cov-true": (
        "scenario",
        small_scenario(**_client_field(cov=True)),
        "scenario client field 'cov' must hold numbers, not true or false",
    ),
    "scenario-list": ("scenario", [], "scenario must be a JSON object"),
    "clients-object": ("clients", {"clients": {"id": "c"}}, f"clients {_LIST_OF_OBJECTS}"),
    "clients-strings": ("clients", {"clients": ["c1"]}, f"clients {_LIST_OF_OBJECTS}"),
    "clients-list": ("clients", [], "client set must be a JSON object"),
    "clients-missing": ("clients", {}, "client set has no field 'clients'"),
    "clients-id-missing": (
        "clients", {"clients": [{"embeddings": "c1.fevb"}]}, "client set entry has no field 'id'"
    ),
    "clients-moments-object": (
        "clients",
        {"clients": [{"id": "c1", "moments": {"a": 1}}]},
        "client set field 'moments' must be a file path, got {'a': 1}",
    ),
    "clients-moments-list": (
        "clients",
        {"clients": [{"id": "c1", "moments": ["m.json"]}]},
        "client set field 'moments' must be a file path, got ['m.json']",
    ),
    "clients-weight-string": (
        "clients",
        {"clients": [{"id": "c1", "embeddings": "c1.fevb", "weight": "x"}]},
        "client set field 'weight' must be a number, got 'x'",
    ),
    "clients-weight-nan": (
        "clients",
        {"clients": [{"id": "c1", "embeddings": "c1.fevb", "weight": float("nan")}]},
        "client weights must be finite",
    ),
    "moments-mean-missing": (
        "moments", {"n": 5, "cov": [[1.0, 0.0], [0.0, 1.0]]}, "moments has no field 'mean'"
    ),
    "moments-cov-string": (
        "moments", {"n": 5, "mean": [0.0, 0.0], "cov": [["x", 0.0], [0.0, 1.0]]}, f"covariance {_NUMBERS}"
    ),
    "moments-mean-object": (
        "moments", {"n": 5, "mean": {}, "cov": [[1.0, 0.0], [0.0, 1.0]]}, f"mean {_NUMBERS}"
    ),
    "moments-cov-object": (
        "moments", {"n": 5, "mean": [0.0, 0.0], "cov": {}}, f"covariance {_NUMBERS}"
    ),
    "moments-second-moment-object": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "second_moment": {}},
        f"second_moment {_NUMBERS}",
    ),
    "moments-second-moment-vector": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "second_moment": [1.0, 2.0, 3.0]},
        "second_moment shape (3,), expected (2, 2)",
    ),
    "moments-second-moment-scalar": (
        "moments",
        {"n": 5, "mean": [0.0], "cov": [[1.0]], "second_moment": 1.0},
        "second_moment shape (), expected (1, 1)",
    ),
    "moments-second-moment-row": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "second_moment": [1.0, 0.0]},
        "second_moment shape (2,), expected (2, 2)",
    ),
    # NaN is not ordered, so no consistency bound catches it
    "moments-second-moment-nan": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]],
         "second_moment": [[float("nan"), 0.0], [0.0, 1.0]]},
        "non-finite entry in moments field 'second_moment'",
    ),
    "moments-n-object": (
        "moments",
        {"n": {}, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be an integer >= 1, got {}",
    ),
    "moments-n-fraction": (
        "moments",
        {"n": 5.7, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be an integer >= 1, got 5.7",
    ),
    "moments-n-string": (
        "moments",
        {"n": "5", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be an integer >= 1, got '5'",
    ),
    "moments-n-bool": (
        "moments",
        {"n": True, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be an integer >= 1, got True",
    ),
    "moments-n-zero": (
        "moments",
        {"n": 0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be an integer >= 1, got 0",
    ),
    "moments-list": ("moments", [], "moments must be a JSON object"),
    # JSON true and false are no numbers, in an array or alone.
    "moments-bool-entries": (
        "moments",
        {"n": 5, "mean": [True, 0], "cov": [[True, False], [False, 1]]},
        "moments field 'mean' must hold numbers, not true or false",
    ),
    "moments-cov-bool-entry": (
        "moments",
        {"n": 5, "mean": [1, 0], "cov": [[1, 0], [0, False]]},
        "moments field 'cov' must hold numbers, not true or false",
    ),
    "moments-second-moment-bool": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "second_moment": True},
        "moments field 'second_moment' must hold numbers, not true or false",
    ),
    "rank-string-score": (
        "rank", ({"a": "x", "b": 1}, {"a": 1, "b": 2}), "score table values must be numbers"
    ),
    "rank-null-score": (
        "rank", ({"a": 1, "b": 2}, {"a": None, "b": 1}), "score table values must be numbers"
    ),
    # JSON true is no score, although Python counts it as the integer 1.
    "rank-bool-score": (
        "rank", ({"g1": True, "g2": 1.0}, {"g1": 1.0, "g2": 2.0}), "score table values must be numbers"
    ),
    "rank-nan-score": (
        "rank",
        ({"g1": float("nan"), "g2": 1.0, "g3": 2.0}, {"g1": 0.5, "g2": 1.0, "g3": 2.0}),
        "score table a has a NaN score for generator 'g1'",
    ),
    "rank-lists": ("rank", ([1], [1]), "score table must be a JSON object"),
    "rank-empty": ("rank", ({}, {}), "score tables are empty"),
    # A 401-digit JSON integer is beyond float range: one error line naming
    # the input kind and its field, not an OverflowError traceback.
    "moments-mean-huge": (
        "moments",
        {"n": 5, "mean": [_HUGE, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        f"moments field 'mean' {_BEYOND}",
    ),
    "moments-cov-huge": (
        "moments",
        {"n": 5, "mean": [0.0, 0.0], "cov": [[_HUGE, 0.0], [0.0, 1.0]]},
        f"moments field 'cov' {_BEYOND}",
    ),
    "moments-second-moment-huge": (
        "moments",
        {"n": 5, "mean": [0.0], "cov": [[1.0]], "second_moment": [[_HUGE]]},
        f"moments field 'second_moment' {_BEYOND}",
    ),
    "clients-weight-huge": (
        "clients",
        {"clients": [{"id": "c1", "embeddings": "c1.fevb", "weight": _HUGE}]},
        "client set field 'weight' is beyond float range",
    ),
    "scenario-mean-huge": (
        "scenario", small_scenario(**_client_field(mean=[_HUGE, 0.0])),
        f"scenario client field 'mean' {_BEYOND}",
    ),
    "scenario-scalar-cov-huge": (
        "scenario", small_scenario(**_generator_field(cov=_HUGE)),
        f"scenario generator field 'cov' {_BEYOND}",
    ),
    "scenario-point-huge": (
        "scenario", small_scenario(**_generator_field(kind="point", point=[0.0, _HUGE])),
        f"scenario generator field 'point' {_BEYOND}",
    ),
    "scenario-jitter-huge": (
        "scenario", small_scenario(**_generator_field(kind="point", point=[0.0, 0.0], jitter=_HUGE)),
        "scenario generator field 'jitter' is beyond float range",
    ),
    "scenario-threshold-huge": (
        "scenario", small_scenario(detection_threshold=_HUGE),
        "scenario field 'detection_threshold' is beyond float range",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON_INPUTS))
def test_malformed_json_input_exit_1(workspace, capsys, case):
    """A JSON input of the wrong structure (a scenario, a client set, a
    moments file or a pair of rank tables) is one input error line and
    exit 1, never a traceback."""
    kind, obj, message = MALFORMED_JSON_INPUTS[case]
    tmp, _ = workspace
    path, path_b = tmp / "input.json", tmp / "table_b.json"
    if kind == "rank":
        obj, table_b = obj
        path_b.write_text(json.dumps(table_b))
    path.write_text(json.dumps(obj))
    args = {
        "scenario": ["simulate", "--scenario", path],
        "clients": ["stats", "--clients", path],
        "moments": ["fid", "--ref", path, "--gen", tmp / "gen.fevb"],
        "rank": ["rank", "--table-a", path, "--table-b", path_b],
    }[kind]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"fedeval: error: {message}\n"


def test_huge_moments_count_in_client_set_exit_1(workspace, capsys):
    """A moments file's 401-digit ``n`` fails where the client set turns the
    sample counts into weights: one error line, not a traceback."""
    tmp, _ = workspace
    moments_file = {"n": _HUGE, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    (tmp / "huge.json").write_text(json.dumps(moments_file))
    clients = {"clients": [{"id": "a", "moments": "huge.json"}, {"id": "b", "embeddings": "c1.fevb"}]}
    (tmp / "huge_clients.json").write_text(json.dumps(clients))
    assert run_cli(["fid", "--clients", tmp / "huge_clients.json", "--gen", tmp / "gen.fevb"]) == 1
    assert capsys.readouterr().err == f"fedeval: error: moments field 'n' {_BEYOND}\n"


def test_non_psd_spec_fails_when_drawn(tmp_path, capsys):
    scenario = small_scenario(**_generator_field(cov=[[-1.0, 0.0], [0.0, 1.0]]))
    (tmp_path / "s.json").write_text(json.dumps(scenario))
    assert run_cli(["simulate", "--scenario", tmp_path / "s.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fedeval: numerical failure: matrix is not PSD: eigenvalue -1.000e+00")
    assert err.count("\n") == 1


def test_csv_cells_are_plain_numbers(tmp_path):
    # every score cell of a sweep or simulate CSV parses with float(); a numpy
    # scalar would print as np.float64(...)
    from fedeval import default_collapse_scenario

    clients = [
        {"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 20},
        {"id": "c2", "mean": [3.0, 0.0], "cov": 1.0, "n": 20},
    ]
    generators = [{"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 30}]
    scenarios = {
        "collapse": default_collapse_scenario(seed=0).to_json_dict(),
        "raw": {"kind": "round", "mode": "raw", "metrics": ["fid_avg", "fid_all", "kid_avg", "kid_all"]},
        "kernel_blocks": {"kind": "round", "mode": "kernel_blocks", "metrics": ["kid_avg", "kid_all"]},
    }
    calls = [
        ["sweep", "toy-mixture", "--grid", "0:1:0.5", "--n", "40", "--out", tmp_path / "toy.csv"],
        ["sweep", "variance-limited", "--grid", "0:0.4:0.2", "--n", "30", "--k-clients", "4",
         "--out", tmp_path / "variance.csv"],
    ]
    for name, scenario in scenarios.items():
        scenario.setdefault("clients", clients)
        scenario.setdefault("generators", generators)
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
        calls.append(["simulate", "--scenario", tmp_path / f"{name}.json",
                      "--out", tmp_path / f"{name}.out.json", "--out-csv", tmp_path / f"{name}.csv"])
    for call in calls:
        assert run_cli(call) == 0
    for csv in ("toy", "variance", *scenarios):
        header, *rows = (tmp_path / f"{csv}.csv").read_text().splitlines()
        columns = header.split(",")
        assert rows
        for row in rows:
            for column, cell in zip(columns, row.split(",")):
                if column != "generator":
                    float(cell)


def test_main_reuses_one_parser(workspace, tmp_path, monkeypatch):
    # the parser is built once per process, and a second call of the same
    # subcommand sees none of the first call's flags
    import subprocess
    import sys

    from fedeval import cli

    tmp, _ = workspace
    base = ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb"]
    runs = [base + ["--gap"], base + ["--agg", "avg"]]
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    for i, argv in enumerate(runs):
        assert run_cli(argv + ["--out", tmp_path / f"reused{i}.json"]) == 0
    cli._parser.cache_clear()
    assert len(builds) == 1
    src = str(Path(fedeval.__file__).resolve().parents[1])
    for i, argv in enumerate(runs):
        fresh = tmp_path / f"fresh{i}.json"
        child = "import sys; sys.path.insert(0, sys.argv[1]); from fedeval import cli; sys.exit(cli.main(sys.argv[2:]))"
        args = [sys.executable, "-c", child, src, *map(str, argv), "--out", str(fresh)]
        assert subprocess.run(args, timeout=120).returncode == 0
        assert (tmp_path / f"reused{i}.json").read_bytes() == fresh.read_bytes()
    assert "gap" not in json.loads((tmp_path / "reused1.json").read_text())


def test_rank_subcommand(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"g1": 195.04, "g2": 195.37}))
    (tmp_path / "b.json").write_text(json.dumps({"g1": 100.49, "g2": 190.93}))
    assert run_cli(["rank", "--table-a", tmp_path / "a.json", "--table-b", tmp_path / "b.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kendall_tau"] == 1.0
    assert out["argmin_a"] == "g1"


def test_json_outputs_byte_identical_on_rerun(workspace, tmp_path):
    tmp, _ = workspace
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--agg", "both"]
    assert run_cli(base + ["--out", out_a]) == 0
    assert run_cli(base + ["--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_unknown_flag_exit_1(workspace, capsys):
    tmp, _ = workspace
    assert run_cli(["fid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--frobnicate"]) == 1


def test_unknown_subcommand_exit_1(capsys):
    assert run_cli(["warp"]) == 1


def test_missing_file_exit_1(tmp_path, capsys):
    assert run_cli(["stats", "--input", tmp_path / "missing.fevb"]) == 1


def test_usage_error_without_inputs(capsys):
    assert run_cli(["stats"]) == 1
    assert "stats needs" in capsys.readouterr().err


def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("0:4:0.1")
    assert len(grid) == 41
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        parse_grid("0:4")
    with pytest.raises(ValueError):
        parse_grid("0:4:-1")
    # a non-finite endpoint or step would never reach stop
    for text in ("0:inf:1", "nan:1:1", "0:1:nan", "-inf:1:1", "0:1:inf", "a:1:1"):
        message = f"^grid start, stop and step must be finite numbers, got '{text}'$"
        with pytest.raises(ValueError, match=message):
            parse_grid(text)


def run_capped(args):
    """The CLI in a child process whose address space is capped at 1 GiB,
    so that an allocation too large for the host ends in a MemoryError
    whatever the host's overcommit policy.  BLAS runs on one thread, whose
    buffers fit under the cap on any number of cores."""
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(fedeval.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "fedeval.cli", *map(str, args)],
        capture_output=True, text=True, timeout=120, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )


@pytest.mark.parametrize("text", ["0:1:1e-300", "-1e308:1e308:1"])
def test_sweep_grid_with_too_many_points_exit_1(text):
    # refused before any point is built (building them would run out of
    # memory)
    proc = run_capped(["sweep", "toy-mixture", f"--grid={text}"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"fedeval: error: grid has more than 1000000 steps, got '{text}'\n"


def test_refused_allocation_is_one_error_line(tmp_path):
    # numpy's MemoryError for 10^15 or 10^12 samples is one line naming the
    # allocation and exit 1, never a traceback
    client = {"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 10**15}
    (tmp_path / "s.json").write_text(json.dumps(small_scenario(clients=[client])))
    calls = [
        (["simulate", "--scenario", tmp_path / "s.json"], "14.2 PiB"),
        (["sweep", "toy-mixture", "--grid", "0:1:0.5", "--n", "1000000000000"], "14.6 TiB"),
    ]
    for args, size in calls:
        proc = run_capped(args)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"fedeval: error: Unable to allocate {size} ")
        assert proc.stderr.count("\n") == 1


def test_every_operation_mapped_to_exactly_one_subcommand():
    import importlib

    parser = build_parser()
    subcommands = {
        a.dest: a.choices for a in parser._actions if hasattr(a, "choices") and a.choices
    }["command"]
    seen = {}
    for op, sub in OPERATION_SUBCOMMANDS.items():
        assert sub in subcommands, f"{op} mapped to unknown subcommand {sub}"
        module_name, func_name = op.split(".")
        module = importlib.import_module(f"fedeval.{module_name}")
        assert callable(getattr(module, func_name)), f"{op} does not resolve"
        assert op not in seen
        seen[op] = sub
    # the registry covers the complete public operation surface
    assert len(OPERATION_SUBCOMMANDS) == 25


@pytest.fixture
def inputs_dir(workspace):
    """The workspace, plus a score table for ``rank`` to compare against."""
    tmp, _ = workspace
    (tmp / "table_b.json").write_text(json.dumps({"g1": 2.0, "g2": 1.0, "g3": 3.0}))
    return tmp


def _input_args(kind, path, tmp):
    """The CLI call that reads ``path`` as an input of ``kind``, next to the
    files of ``inputs_dir``."""
    return {
        "scenario": ["simulate", "--scenario", path],
        "clients": ["stats", "--clients", path],
        "moments": ["fid", "--ref", path, "--gen", tmp / "gen.fevb"],
        "kernel": ["kid", "--clients", tmp / "clients.json", "--gen", tmp / "gen.fevb", "--kernel", path],
        "rank": ["rank", "--table-a", path, "--table-b", tmp / "table_b.json"],
    }[kind]


@pytest.mark.parametrize("kind", ["scenario", "clients", "moments", "kernel", "rank"])
def test_deeply_nested_json_input_is_one_error_line(inputs_dir, capsys, kind):
    """JSON nested deeper than the decoder can recurse is one input error
    line, not a RecursionError traceback."""
    tmp = inputs_dir
    path = tmp / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run_cli(_input_args(kind, path, tmp)) == 1
    assert capsys.readouterr().err == f"fedeval: error: {path}: JSON nested too deeply\n"


def test_symmetry_test_of_entries_near_float_max():
    """The symmetry test divides by at most 2**1023: an entry at or above
    2**1023 does not overflow the scale, a covariance symmetric within
    tolerance passes, and one that is not fails."""
    from fedeval import GaussianStats, NotPsdError
    from fedeval.statkit import SYMMETRY_RTOL, _far

    near = np.array([[1e308, 1e300], [1e300 * (1 + 1e-15), 1.0]])
    assert not _far(near, near.T, SYMMETRY_RTOL)
    assert GaussianStats(n=2, mean=[0.0, 0.0], cov=near).cov[0, 0] == 1e308
    assert _far(near, near.T, 1e-25)
    with pytest.raises(NotPsdError, match="^covariance is not symmetric$"):
        GaussianStats(n=2, mean=[0.0, 0.0], cov=[[1e308, 1e308], [0.0, 1.0]])


def test_asymmetric_covariance_near_float_max_exit_2(workspace, capsys):
    tmp, _ = workspace
    moments_file = {"n": 5, "mean": [0.0, 0.0], "cov": [[1e308, 1e308], [0.0, 1.0]]}
    (tmp / "big.json").write_text(json.dumps(moments_file))
    assert run_cli(["fid", "--ref", tmp / "big.json", "--gen", tmp / "gen.fevb"]) == 2
    assert capsys.readouterr().err == "fedeval: numerical failure: covariance is not symmetric\n"


_NON_FINITE_STATS = "fedeval: error: non-finite entry in Gaussian parameters\n"
_NON_FINITE_SAMPLES = "fedeval: error: non-finite entry in embedding matrix\n"
# Scenario fields whose samples or moments overflow, and the error line each
# gives: the moments of the samples (a covariance of 1e308 I is drawn from,
# and its samples' moments overflow), the scalar covariance times I and the
# jittered point.
OVERFLOWING_SCENARIOS = {
    "client-mean": (_client_field(mean=[1e308, 0.0]), _NON_FINITE_STATS),
    "generator-mean": (_generator_field(mean=[1e308, 0.0]), _NON_FINITE_STATS),
    "generator-point": (_generator_field(kind="point", point=[1e308, 0.0]), _NON_FINITE_STATS),
    "client-cov-infinity": (_client_field(cov=float("inf")), _NON_FINITE_STATS),
    "client-cov": (_client_field(cov=1e308), _NON_FINITE_STATS),
    "point-jitter": (
        _generator_field(kind="point", point=[0.0, 0.0], jitter=1e308), _NON_FINITE_SAMPLES
    ),
}


def _run_warnings_as_errors(args):
    """``run_cli(args)`` with every warning an exception (``python -W
    error``), and its exit code and stderr."""
    import contextlib
    import io
    import warnings

    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(args)
    return code, err.getvalue()


@pytest.mark.parametrize("case", sorted(OVERFLOWING_SCENARIOS))
def test_scenario_whose_statistics_overflow_warns_nothing(tmp_path, case):
    """A scenario value whose samples or moments overflow is the error line
    alone, with no RuntimeWarning before it."""
    fields, expected = OVERFLOWING_SCENARIOS[case]
    (tmp_path / "s.json").write_text(json.dumps(small_scenario(**fields)))
    assert _run_warnings_as_errors(["simulate", "--scenario", tmp_path / "s.json"]) == (1, expected)


def test_finite_inputs_whose_moments_overflow_warn_nothing(workspace):
    tmp, _ = workspace
    write_embeddings(np.full((4, 2), 1e308), tmp / "big.fevb")
    assert _run_warnings_as_errors(["stats", "--input", tmp / "big.fevb"]) == (1, _NON_FINITE_STATS)
    # mean mean^T overflows where second_moment is checked against it
    moments_file = {"n": 5, "mean": [1e308, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]],
                    "second_moment": [[1.0, 0.0], [0.0, 1.0]]}
    (tmp / "big.json").write_text(json.dumps(moments_file))
    args = ["fid", "--ref", tmp / "big.json", "--gen", tmp / "gen.fevb"]
    assert _run_warnings_as_errors(args) == (2, "fedeval: numerical failure: distance is not finite\n")


def test_non_finite_log_likelihood_exit_2(tmp_path):
    """A log-density that overflows is one error line and exit 2, with no
    warning, not -Infinity scores and exit 0."""
    for name, value in (("a", 1.0), ("b", 1e160)):
        (tmp_path / f"{name}.csv").write_text(f"{value},{value},{value}\n" * 4)
    entries = [{"id": name, "embeddings": f"{name}.csv"} for name in ("a", "b")]
    (tmp_path / "clients.json").write_text(json.dumps({"clients": entries}))
    save_stats(fedeval.GaussianStats(n=4, mean=np.zeros(3), cov=np.eye(3)), tmp_path / "model.json")
    args = ["stats", "--clients", tmp_path / "clients.json", "--ll-model", tmp_path / "model.json"]
    assert _run_warnings_as_errors(args) == (2, "fedeval: numerical failure: log-density is not finite\n")


KID_SCORES = [
    ["--ref", "ref.csv"],
    ["--clients", "clients.json", "--gap"],
    ["--clients", "clients.json", "--agg", "all"],
]


@pytest.mark.parametrize("scores", KID_SCORES)
def test_non_finite_kid_exit_2(tmp_path, monkeypatch, scores):
    """Kernel sums that are finite (degree 1, samples 1e154 and -1e154)
    but a score that overflows: one error line and exit 2, with no
    warning, not Infinity (and a NaN gap) with exit 0."""
    monkeypatch.chdir(tmp_path)
    kernel = {"kind": "polynomial", "degree": 1, "scale": 1.0, "offset": 0.0}
    Path("kernel.json").write_text(json.dumps(kernel))
    Path("ref.csv").write_text("1e154\n")
    Path("gen.csv").write_text("-1e154\n")
    entries = [{"id": name, "embeddings": "ref.csv"} for name in ("a", "b")]
    Path("clients.json").write_text(json.dumps({"clients": entries}))
    args = ["kid", "--gen", "gen.csv", "--kernel", "kernel.json", *scores]
    assert _run_warnings_as_errors(args) == (2, "fedeval: numerical failure: vstat MMD is not finite\n")


@pytest.mark.parametrize("subcommand", [["fid", "--agg", "all"], ["stats"], ["counterexample"]])
def test_overflowing_mixture_is_one_input_error(tmp_path, subcommand):
    """Two moments clients with means +-1e200 (d=3): the pool's between part
    overflows, and each subcommand that pools them gives the one error line
    of a non-finite Gaussian, exit 1, with no warning before it."""
    entries = []
    for i, side in enumerate((-1.0, 1.0)):
        stats = fedeval.GaussianStats(n=4, mean=np.full(3, side * 1e200), cov=np.eye(3))
        save_stats(stats, tmp_path / f"c{i}.json")
        entries.append({"id": f"c{i}", "moments": f"c{i}.json"})
    (tmp_path / "clients.json").write_text(json.dumps({"clients": entries}))
    save_stats(fedeval.GaussianStats(n=4, mean=np.zeros(3), cov=np.eye(3)), tmp_path / "gen.json")
    args = [*subcommand, "--clients", tmp_path / "clients.json"]
    if subcommand[0] == "fid":
        args += ["--gen", tmp_path / "gen.json"]
    expected = (1, "fedeval: error: non-finite entry in Gaussian parameters\n")
    assert _run_warnings_as_errors(args) == expected


def test_covariance_near_float_max_is_scored(workspace, capsys):
    """A valid covariance whose entries are near float max is symmetrized
    without overflow and scored."""
    tmp, _ = workspace
    ref = {"n": 5, "mean": [0.0, 0.0], "cov": [[1e308, 0.0], [0.0, 1.0]]}
    gen = {"n": 5, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    (tmp / "ref.json").write_text(json.dumps(ref))
    (tmp / "identity.json").write_text(json.dumps(gen))
    assert _run_warnings_as_errors(["fid", "--ref", tmp / "ref.json", "--gen", tmp / "identity.json"]) == (0, "")
    assert run_cli(["fid", "--ref", tmp / "ref.json", "--gen", tmp / "identity.json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1e308


# One valid input of each kind, each read by _input_args' call for its kind.
CONTRACT_INPUTS = {
    "scenario": {
        "name": "contract",
        "kind": "round",
        "mode": "raw",
        "metrics": ["fid_avg", "fid_all", "kid_avg"],
        "seed": 1,
        "detection_threshold": 2.0,
        "kernel": {"kind": "polynomial", "degree": 3, "scale": 0.5, "offset": 1.0},
        "clients": [
            {"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 6, "seed": 3},
            {"id": "c2", "mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 2.0]], "n": 5},
        ],
        "generators": [
            {"id": "g1", "kind": "gaussian", "mean": [1.5, 0.0], "cov": 1.0, "n": 7},
            {"id": "g2", "kind": "point", "point": [0.0, 0.0], "jitter": 0.1, "n": 7, "seed": 2},
        ],
    },
    "collapse-scenario": {
        "kind": "collapse",
        "collapse_step": 1,
        "kernel": {"kind": "rbf", "bandwidth": 1.0},
        "clients": [{"id": "c1", "mean": [0.0, 0.0], "cov": 1.0, "n": 6}],
        "generators": [
            {"id": "g1", "mean": [0.0, 0.0], "cov": 1.0, "n": 6},
            {"id": "g2", "kind": "point", "point": [0.0, 0.0], "n": 6},
        ],
    },
    "clients": {
        "clients": [
            {"id": "c1", "embeddings": "c1.fevb", "weight": 0.5},
            {"id": "c2", "moments": "gen_moments.json", "weight": 0.5},
        ]
    },
    "moments": {
        "n": 5,
        "mean": [0.0, 0.0],
        "cov": [[1.0, 0.0], [0.0, 1.0]],
        "second_moment": [[1.0, 0.0], [0.0, 1.0]],
    },
    "kernel": {"kind": "polynomial", "degree": 3, "scale": 0.5, "offset": 1.0},
    "rbf-kernel": {"kind": "rbf", "bandwidth": 1.0},
    "rank": {"g1": 1.0, "g2": 2.0, "g3": 3.0},
}
# What a mutation puts in place of a node; _DELETE removes an object's key.
_MUTANTS = [None, True, "x", 10**400, 1e308, float("inf"), float("nan"), [], [1.0], {}, {"a": 1}]
_DELETE = "<delete>"
# The fields that hold a number or an array of numbers; a JSON true in
# one, alone or at any depth, is refused naming the field.
_NUMBER_ARRAYS = {"mean", "cov", "point", "second_moment"}


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, path + (key,))


@st.composite
def one_node_mutations(draw):
    """(input kind, node path, new value): one node of a valid input,
    replaced by a value of another JSON type or out of range, or deleted."""
    kind = draw(st.sampled_from(sorted(CONTRACT_INPUTS)))
    path = draw(st.sampled_from(list(_nodes(CONTRACT_INPUTS[kind]))))
    deletable = bool(path) and isinstance(path[-1], str)
    return kind, path, draw(st.sampled_from(_MUTANTS + [_DELETE] * deletable))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value == _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=one_node_mutations())
@example(case=("scenario", ("clients", 0, "cov"), float("inf")))
@example(case=("scenario", ("generators", 1, "jitter"), 1e308))
@example(case=("moments", ("cov", 0, 1), 1e308))
@example(case=("moments", ("second_moment", 1, 1), 1e308))
@example(case=("moments", ("mean", 0), True))
@example(case=("scenario", ("clients", 0, "cov"), True))
def test_one_node_mutation_of_a_json_input_keeps_the_contract(inputs_dir, case):
    """Changing one node of a valid JSON input of any kind either leaves an
    input the CLI runs (exit 0, nothing on stderr) or is exactly one error
    line with exit 1 (input) or 2 (numerical failure); never a traceback
    and never a warning.  A JSON true in a number field is that field's
    input error."""
    kind, path, value = case
    tmp = inputs_dir
    (tmp / "input.json").write_text(json.dumps(_mutated(CONTRACT_INPUTS[kind], path, value)))
    code, err = _run_warnings_as_errors(_input_args(kind.split("-")[-1], tmp / "input.json", tmp))
    lines = err.splitlines()
    field = [key for key in path if isinstance(key, str)][-1:]
    if value is True and set(field) <= _NUMBER_ARRAYS and field:
        assert (code, len(lines)) == (1, 1)
        assert lines[0].endswith(f" field '{field[0]}' must hold numbers, not true or false")
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2)
        assert len(lines) == 1
        assert lines[0].startswith("fedeval: error: " if code == 1 else "fedeval: numerical failure: ")
