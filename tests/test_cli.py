"""Command-line interface: exit codes, determinism, and dispatch coverage."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

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

    def minimize(objective, theta, **kwargs):
        objective(np.full_like(theta, np.inf))

    # search_matched_pair imports minimize when called, so this patch holds.
    monkeypatch.setattr("scipy.optimize.minimize", minimize)
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
    return scenario


MALFORMED_SCENARIOS = {
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
    "scenario-point-object": (
        "scenario",
        small_scenario(**_generator_field(kind="point", point={})),
        f"generator point {_NUMBERS}",
    ),
    "scenario-list": ("scenario", [], "scenario must be a JSON object"),
    "clients-object": ("clients", {"clients": {"id": "c"}}, f"clients {_LIST_OF_OBJECTS}"),
    "clients-strings": ("clients", {"clients": ["c1"]}, f"clients {_LIST_OF_OBJECTS}"),
    "clients-list": ("clients", [], "client set must be a JSON object"),
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
    "moments-n-object": (
        "moments",
        {"n": {}, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "sample count n must be a number, got {}",
    ),
    "moments-list": ("moments", [], "moments must be a JSON object"),
    "rank-string-score": (
        "rank", ({"a": "x", "b": 1}, {"a": 1, "b": 2}), "score table values must be numbers"
    ),
    "rank-null-score": (
        "rank", ({"a": 1, "b": 2}, {"a": None, "b": 1}), "score table values must be numbers"
    ),
    "rank-lists": ("rank", ([1], [1]), "score table must be a JSON object"),
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
