"""The JSON form of every result record and of every JSON writer.

Each record's ``to_json_dict`` is pinned against a dict written out in
full: every field by name, arrays as nested lists, numpy scalars as
Python numbers and nested records as their own dicts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from fedeval import write_embeddings
from fedeval.cli import main
from fedeval.counterexample import CounterexampleReport
from fedeval.fedsim import (
    ClientSpec,
    GeneratorSpec,
    Message,
    ProtocolTrace,
    RankingComparison,
    Scenario,
    ScoreReport,
    TimelineResult,
    default_collapse_scenario,
    run_scenario,
    save_trace,
)
from fedeval.frechet import FrechetResult
from fedeval.kernelmmd import KernelSpec, MmdResult
from fedeval.prdc import PrdcAggregate, PrdcResult
from fedeval.statkit import (
    GaussianModel,
    GaussianStats,
    LogLikelihoodScores,
    json_text,
    moments,
    save_stats,
)

COV = [[2.0, 0.5], [0.5, 1.0]]
PRDC_A = {"precision": 0.5, "recall": 0.75, "density": 1.25, "coverage": 1.0}
PRDC_B = {"precision": 0.25, "recall": 0.5, "density": 0.75, "coverage": 0.5}


POLYNOMIAL = {"kind": "polynomial", "degree": 2, "scale": 0.5, "offset": 1.0, "bandwidth": None}
RBF = {"kind": "rbf", "degree": 3, "scale": None, "offset": 1.0, "bandwidth": 1.5}
CLIENT_SPEC = {"id": "c1", "mean": [0.5, -1.0], "cov": COV, "n": 20, "seed": 3}
GAUSSIAN_SPEC = {
    "id": "g1",
    "kind": "gaussian",
    "n": 30,
    "mean": [0.0, 1.0],
    "cov": [[2.0, 0.0], [0.0, 2.0]],
    "point": None,
    "jitter": 1e-6,
    "seed": None,
}
POINT_SPEC = {
    "id": "g2",
    "kind": "point",
    "n": 10,
    "mean": None,
    "cov": None,
    "point": [1.0, 2.0],
    "jitter": 0.5,
    "seed": 7,
}


def _specs():
    """The spec records: each kernel kind, a client, each generator kind."""
    return {
        "KernelSpec-polynomial": (KernelSpec(degree=2, scale=0.5), POLYNOMIAL),
        "KernelSpec-rbf": (KernelSpec(kind="rbf", bandwidth=1.5), RBF),
        "ClientSpec": (ClientSpec(id="c1", mean=[0.5, -1.0], cov=COV, n=20, seed=3), CLIENT_SPEC),
        "GeneratorSpec-gaussian": (
            GeneratorSpec(id="g1", kind="gaussian", n=30, mean=np.array([0.0, 1.0]), cov=2.0),
            GAUSSIAN_SPEC,
        ),
        "GeneratorSpec-point": (
            GeneratorSpec(id="g2", kind="point", n=10, point=[1.0, 2.0], jitter=0.5, seed=7),
            POINT_SPEC,
        ),
    }


def _records():
    """Each record type with a small fixed instance and its JSON dict."""
    g_hat = GaussianModel(mean=[0.0, 1.0], cov=COV)
    g_prime = GaussianModel(mean=np.array([0.5, 1.0]), cov=np.eye(2))
    specs = _specs()
    return {
        **specs,
        "Scenario": (
            Scenario(
                name="s",
                kind="round",
                clients=[specs["ClientSpec"][0]],
                generators=[specs["GeneratorSpec-gaussian"][0], specs["GeneratorSpec-point"][0]],
                metrics=("kid_avg", "kid_all"),
                mode="kernel_blocks",
                kernel=specs["KernelSpec-rbf"][0],
                seed=2,
            ),
            {
                "name": "s",
                "kind": "round",
                "clients": [CLIENT_SPEC],
                "generators": [GAUSSIAN_SPEC, POINT_SPEC],
                "metrics": ["kid_avg", "kid_all"],
                "mode": "kernel_blocks",
                "kernel": RBF,
                "seed": 2,
                "collapse_step": None,
                "detection_threshold": 2.0,
            },
        ),
        "GaussianStats": (
            GaussianStats(n=np.int64(5), mean=np.array([0.5, -1.0]), cov=np.array(COV)),
            {"n": 5, "mean": [0.5, -1.0], "cov": COV},
        ),
        "GaussianModel": (
            GaussianModel(mean=[1.0], cov=[[4.0]]),
            {"mean": [1.0], "cov": [[4.0]]},
        ),
        "LogLikelihoodScores": (
            LogLikelihoodScores(per_client=[-1.5, -2.25], avg=-1.875, all=-1.9),
            {"per_client": [-1.5, -2.25], "avg": -1.875, "all": -1.9},
        ),
        "FrechetResult": (
            FrechetResult(value=np.float64(3.5), mean_term=1.25, trace_term=2.25),
            {"value": 3.5, "mean_term": 1.25, "trace_term": 2.25},
        ),
        "MmdResult": (
            MmdResult(value=0.125, within_ref=1.5, within_gen=1.375, cross=1.375, estimator="ustat"),
            {
                "value": 0.125,
                "within_ref": 1.5,
                "within_gen": 1.375,
                "cross": 1.375,
                "estimator": "ustat",
            },
        ),
        "PrdcResult": (PrdcResult(**PRDC_A), PRDC_A),
        "PrdcAggregate": (
            PrdcAggregate(
                all=PrdcResult(**PRDC_A),
                avg=PrdcResult(**PRDC_B),
                per_client=[PrdcResult(**PRDC_B), PrdcResult(**PRDC_A)],
            ),
            {"all": PRDC_A, "avg": PRDC_B, "per_client": [PRDC_B, PRDC_A]},
        ),
        "ScoreReport": (
            ScoreReport(
                scores={"fid_avg": 2.0, "prdc_avg": PRDC_A},
                per_client={"fid": [1.0, 3.0], "prdc": [PRDC_A, PRDC_B]},
                client_ids=["c1", "c2"],
            ),
            {
                "scores": {"fid_avg": 2.0, "prdc_avg": PRDC_A},
                "per_client": {"fid": [1.0, 3.0], "prdc": [PRDC_A, PRDC_B]},
                "client_ids": ["c1", "c2"],
            },
        ),
        "TimelineResult": (
            TimelineResult(
                rows=[
                    {"step": 0, "generator": "g0", "fid_avg": 1.0},
                    {"step": 1, "generator": "g1", "fid_avg": 4.0},
                ],
                ratios={"fid_avg": 4.0},
                detections={"fid_avg": True},
                collapse_step=1,
            ),
            {
                "rows": [
                    {"step": 0, "generator": "g0", "fid_avg": 1.0},
                    {"step": 1, "generator": "g1", "fid_avg": 4.0},
                ],
                "ratios": {"fid_avg": 4.0},
                "detections": {"fid_avg": True},
                "collapse_step": 1,
            },
        ),
        "RankingComparison": (
            RankingComparison(
                table_a={"g1": 1.0, "g2": 2.0},
                table_b={"g1": 3.0, "g2": 2.5},
                kendall_tau=-1.0,
                concordant=0,
                discordant=1,
                argmin_a="g1",
                argmin_b="g2",
            ),
            {
                "table_a": {"g1": 1.0, "g2": 2.0},
                "table_b": {"g1": 3.0, "g2": 2.5},
                "kendall_tau": -1.0,
                "concordant": 0,
                "discordant": 1,
                "argmin_a": "g1",
                "argmin_b": "g2",
            },
        ),
        "CounterexampleReport": (
            CounterexampleReport(
                g_hat=g_hat,
                g_prime=g_prime,
                u=np.float64(0.25),
                beta=np.array([1.0, 0.0]),
                per_client_fid_hat=[1.0, 2.0],
                per_client_fid_prime=[1.5, 2.5],
                per_client_residuals=[0.5, 0.5],
                fid_all_hat=0.0,
                fid_all_prime=0.75,
                measured_gap=0.75,
                claimed_gap_lower_bound=0.5,
                converged=False,
                evaluations=7,
            ),
            {
                "g_hat": {"mean": [0.0, 1.0], "cov": COV},
                "g_prime": {"mean": [0.5, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                "u": 0.25,
                "beta": [1.0, 0.0],
                "per_client_fid_hat": [1.0, 2.0],
                "per_client_fid_prime": [1.5, 2.5],
                "per_client_residuals": [0.5, 0.5],
                "fid_all_hat": 0.0,
                "fid_all_prime": 0.75,
                "measured_gap": 0.75,
                "claimed_gap_lower_bound": 0.5,
                "converged": False,
                "evaluations": 7,
            },
        ),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_json_dict_is_its_fields(name):
    record, expected = _records()[name]
    got = record.to_json_dict()
    assert got == expected
    # Serializable as is, with the same text as the expected dict (a
    # numpy integer would not serialize; 5.0 would print unlike 5).
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _small_scenario(kind: str, kernel: KernelSpec | None) -> Scenario:
    clients = [
        ClientSpec(id=f"c{i}", mean=[2.0 * i, 0.0, -1.0], cov=1.0 + i, n=20 + 5 * i, seed=i)
        for i in range(3)
    ]
    generators = [
        GeneratorSpec(id=f"g{j}", kind="gaussian", n=30, mean=[1.0, 0.5 * j, 0.0], cov=2.0)
        for j in range(3)
    ] + [GeneratorSpec(id="gp", kind="point", n=30, point=[0.0, 0.0, 0.0])]
    if kind == "collapse":
        return Scenario(
            name="small-collapse", kind="collapse", clients=clients, generators=generators,
            kernel=kernel, collapse_step=3,
        )
    metrics = ["fid_avg", "fid_all", "kid_avg", "kid_all", "prdc_avg", "prdc_all"]
    return Scenario(
        name="small-round", kind="round", clients=clients, generators=generators,
        metrics=metrics, kernel=kernel, seed=4,
    )


ROUND_TRIP_SCENARIOS = {
    "round-polynomial": lambda: _small_scenario("round", KernelSpec(degree=2, offset=0.5)),
    "round-rbf": lambda: _small_scenario("round", KernelSpec(kind="rbf", bandwidth=2.0)),
    "round-default-kernel": lambda: _small_scenario("round", None),
    "collapse-polynomial": lambda: _small_scenario("collapse", KernelSpec(scale=0.25)),
    "collapse-rbf": lambda: default_collapse_scenario(seed=1),
}


def _outcome_text(outcome: dict) -> str:
    """A scenario run as text: its rows, and its trace or timeline result."""
    if outcome["kind"] == "collapse":
        return json_text({"rows": outcome["rows"], "result": outcome["result"].to_json_dict()})
    return json_text({"rows": outcome["rows"], "trace": outcome["trace"].to_json_dict()})


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_SCENARIOS))
def test_scenario_json_round_trip_runs_the_same(name):
    """A scenario read back from its JSON text is the same scenario: the
    same dict, rows and trace (or timeline) bytes."""
    scenario = ROUND_TRIP_SCENARIOS[name]()
    again = Scenario.from_json_dict(json.loads(json_text(scenario.to_json_dict())))
    assert again.to_json_dict() == scenario.to_json_dict()
    assert _outcome_text(run_scenario(again)) == _outcome_text(run_scenario(scenario))


def _json_form(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_every_writer_writes_one_json_form(tmp_path, capsys):
    """Moments files, protocol traces and CLI outputs all carry sorted
    keys, a 2-space indent and a trailing newline."""
    x = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, -1.0]])
    stats = moments(x)
    save_stats(stats, tmp_path / "stats.json")
    assert (tmp_path / "stats.json").read_text() == _json_form(stats.to_json_dict())

    trace = ProtocolTrace([Message("server", "*", "GenRefBroadcast", 2, {"generator": "raw"})])
    save_trace(trace, tmp_path / "trace.json")
    assert (tmp_path / "trace.json").read_text() == _json_form(trace.to_json_dict())

    write_embeddings(x, tmp_path / "x.fevb")
    assert main(["stats", "--input", str(tmp_path / "x.fevb")]) == 0
    assert capsys.readouterr().out == _json_form(stats.to_json_dict())
    assert main(["stats", "--input", str(tmp_path / "x.fevb"), "--out", str(tmp_path / "o.json")]) == 0
    assert (tmp_path / "o.json").read_text() == _json_form(stats.to_json_dict())
