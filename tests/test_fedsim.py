"""Protocol simulation, scenarios, sweeps, and ranking comparison."""

from __future__ import annotations

import numpy as np
import pytest

from fedeval import (
    CapabilityError,
    Client,
    ClientSet,
    ClientSpec,
    GaussianModel,
    GaussianStats,
    GeneratorSpec,
    KernelSpec,
    Scenario,
    compare_rankings,
    default_collapse_scenario,
    fedsim,
    fid_all,
    fid_avg,
    kernelmmd,
    log_likelihood_scores,
    mode_collapse_timeline,
    moments,
    prdc_aggregate,
    run_round,
    run_scenario,
    toy_mixture_sweep,
    variance_limited_sweep,
)
from fedeval.fedsim import write_score_csv
from fedeval.kernelmmd import kernel_stats

from conftest import random_raw_clients


def make_clients(rng, k=3, n=20, d=3, spread=2.0):
    return ClientSet(
        [
            Client(id=f"c{i}", embeddings=rng.normal(size=(n, d)) + spread * i)
            for i in range(k)
        ]
    )


# ---------------------------------------------------------------------------
# message arithmetic


def test_scores_mode_message_census(rng):
    clients = make_clients(rng, k=3)
    gen = rng.normal(size=(10, 3))
    _, trace = run_round(clients, gen, "scores", ["fid_avg"])
    kinds = [m.kind for m in trace.messages]
    assert kinds == ["GenRefBroadcast"] + ["ScoreReply"] * 3
    for reply in trace.messages[1:]:
        assert reply.payload_bytes == 8 + 16


def test_moments_mode_reply_bytes(rng):
    clients = make_clients(rng, k=2, d=2)
    gen = rng.normal(size=(10, 2))
    _, trace = run_round(clients, moments(gen), "moments", ["fid_all"])
    replies = [m for m in trace.messages if m.kind == "MomentsReply"]
    assert len(replies) == 2
    for reply in replies:
        assert reply.payload_bytes == (1 + 2 + 4) * 8 + 16  # n, mean, second moment


def test_raw_mode_reply_bytes(rng):
    clients = ClientSet([Client(id="c0", embeddings=rng.normal(size=(100, 2)))])
    gen = rng.normal(size=(10, 2))
    _, trace = run_round(clients, gen, "raw", ["fid_avg"])
    reply = [m for m in trace.messages if m.kind == "RawDataReply"][0]
    assert reply.payload_bytes == 200 * 8 + 16 == 1616


def test_kernel_blocks_message_census(rng):
    clients = make_clients(rng, k=3)
    gen = rng.normal(size=(10, 3))
    _, trace = run_round(clients, gen, "kernel_blocks", ["kid_avg", "kid_all"])
    kinds = [m.kind for m in trace.messages]
    # broadcast, 3 block replies, then per pair: raw exchange + pair reply
    assert kinds.count("KernelBlockReply") == 3 + 3
    assert kinds.count("RawDataReply") == 3
    block_replies = [m for m in trace.messages if m.kind == "KernelBlockReply"]
    assert {m.real_count for m in block_replies} == {3, 1}


def test_kernel_blocks_clamp_raises_like_the_library(rng, monkeypatch, tmp_path):
    # inflated client-generator sums drive the vstat score far below the
    # -VSTAT_CLAMP threshold, which KernelStats rejects with NumericalError
    import json

    from fedeval import cli, fedsim
    from fedeval.errors import NumericalError

    real_block_sums = fedsim.block_sums

    def inflated_cross_sums(spec, rows, cols=None):
        sums = real_block_sums(spec, rows, cols)
        return sums if cols is None else sums + 1e6

    monkeypatch.setattr(fedsim, "block_sums", inflated_cross_sums)
    clients = make_clients(rng, k=2)
    gen = rng.normal(size=(10, 3))
    for metrics in (["kid_avg"], ["kid_all"], ["kid_avg", "kid_all"]):
        with pytest.raises(NumericalError, match="below clamp threshold"):
            run_round(clients, gen, "kernel_blocks", metrics)

    scenario = {
        "name": "clamp",
        "kind": "round",
        "mode": "kernel_blocks",
        "metrics": ["kid_avg"],
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
    assert cli.main(["simulate", "--scenario", str(tmp_path / "s.json")]) == 2


def test_kernel_blocks_replies_carry_whole_gram_sums(rng):
    # every block that fits in one tile is summed exactly as the full Gram
    # matrix would be, so the messages (and --out-trace bytes) are unchanged
    from fedeval.kernelmmd import gram

    clients = make_clients(rng, k=3)
    gen = rng.normal(size=(10, 3))
    kernel = KernelSpec()
    _, trace = run_round(clients, gen, "kernel_blocks", ["kid_avg", "kid_all"], kernel=kernel)
    mats = {c.id: c.embeddings for c in clients}
    replies = [m for m in trace.messages if m.kind == "KernelBlockReply"]
    for m in replies:
        if "pair" in m.body:
            a, b = m.body["pair"]
            assert m.body["cross_sum"] == float(gram(kernel, mats[a], mats[b]).sum())
        else:
            x = mats[m.sender]
            assert m.body["within_sum"] == float(gram(kernel, x, x).sum())
            assert m.body["cross_generator_sum"] == float(gram(kernel, x, gen).sum())


def test_broadcast_counts_generator_reals(rng):
    clients = make_clients(rng, k=2, d=3)
    gen = rng.normal(size=(7, 3))
    _, trace = run_round(clients, gen, "raw", ["fid_avg"])
    assert trace.messages[0].real_count == 21
    _, trace = run_round(clients, moments(gen), "moments", ["fid_avg"])
    assert trace.messages[0].real_count == 1 + 3 + 9


# ---------------------------------------------------------------------------
# protocol / library equivalence


def _library_round(clients, gen, metrics, kid_stats, k_neighbors):
    """Scores and per-client values of the direct library calls; the kid
    family reads ``kid_stats``."""
    scores, per_client = {}, {}
    families = {m.split("_")[0] for m in metrics}
    gen_stats = moments(gen) if isinstance(gen, np.ndarray) else gen
    if "fid" in families:
        avg = fid_avg(clients, gen_stats)
        per_client["fid"] = [r.value for r in avg.per_client]
        scores.update(fid_avg=avg.value, fid_all=fid_all(clients, gen_stats).value)
    if "kid" in families:
        avg = kid_stats.kid_avg()
        per_client["kid"] = [r.value for r in avg.per_client]
        scores["kid_avg"] = avg.value
        if "kid_all" in metrics:
            scores["kid_all"] = kid_stats.kid_all()
    if "ll" in families:
        ll = log_likelihood_scores(clients, GaussianModel(mean=gen_stats.mean, cov=gen_stats.cov))
        per_client["ll"] = ll.per_client
        scores.update(ll_avg=ll.avg, ll_all=ll.all)
    if "prdc" in families:
        agg = prdc_aggregate(clients, gen, k=k_neighbors)
        per_client["prdc"] = [r.to_json_dict() for r in agg.per_client]
        scores.update(prdc_avg=agg.avg.to_json_dict(), prdc_all=agg.all.to_json_dict())
    return {m: scores[m] for m in metrics}, per_client


# Every metric each mode supports: for a raw generator, then for a moments
# generator (the log-likelihood scores need a Gaussian model).
MODE_METRICS = {
    "scores": (["fid_avg", "kid_avg", "prdc_avg"], ["fid_avg", "ll_avg"]),
    "moments": (["fid_avg", "fid_all"], ["fid_avg", "fid_all"]),
    "raw": (
        ["fid_avg", "fid_all", "kid_avg", "kid_all", "prdc_avg", "prdc_all"],
        ["fid_avg", "fid_all", "ll_avg", "ll_all"],
    ),
    "kernel_blocks": (["kid_avg", "kid_all"], None),
}


@pytest.mark.parametrize("mode", list(MODE_METRICS))
def test_round_matches_library(mode):
    # scores and raw rounds call the library on the clients' own arrays, so
    # every score and per-client value is exact: scores-mode kid is kid_avg's
    # statistic, raw-mode kid the one pass CLI `kid --agg both` takes.  The
    # moments round rebuilds each covariance from the second moment and the
    # kernel_blocks round sums per-block passes, so they agree to 1e-9.
    kernel = KernelSpec()
    k_neighbors = 3
    exact = mode in ("scores", "raw")
    for seed in range(8):
        rng = np.random.default_rng(seed + 200)
        clients = make_clients(rng, k=int(rng.integers(1, 5)), n=int(rng.integers(6, 25)))
        gen = rng.normal(size=(int(rng.integers(5, 20)), 3))
        kid_stats = kernel_stats(clients, gen, kernel, cross=mode != "scores")
        for generator, metrics in zip((gen, moments(gen)), MODE_METRICS[mode]):
            if metrics is None:
                continue
            report, _ = run_round(
                clients, generator, mode, metrics, kernel=kernel, k_neighbors=k_neighbors
            )
            scores, per_client = _library_round(clients, generator, metrics, kid_stats, k_neighbors)
            assert list(report.scores) == metrics
            assert list(report.per_client) == list(per_client)
            assert report.client_ids == clients.ids
            if exact:
                assert report.scores == scores, (mode, metrics)
                assert report.per_client == per_client, (mode, metrics)
                continue
            for metric in metrics:
                assert report.scores[metric] == pytest.approx(
                    scores[metric], rel=1e-9, abs=1e-12
                ), (mode, metric)
            for family, values in per_client.items():
                assert report.per_client[family] == pytest.approx(
                    values, rel=1e-9, abs=1e-12
                ), (mode, family)


def test_round_ll_and_prdc_in_raw_mode(rng):
    clients = make_clients(rng, k=3, n=15, d=2)
    gen = rng.normal(size=(12, 2))
    gen_stats = moments(gen)
    report, _ = run_round(clients, gen_stats, "raw", ["ll_avg", "ll_all", "fid_avg"])
    model = GaussianModel(mean=gen_stats.mean, cov=gen_stats.cov)
    ll = log_likelihood_scores(clients, model)
    assert report.scores["ll_avg"] == pytest.approx(ll.avg, rel=1e-12)
    assert report.scores["ll_all"] == pytest.approx(ll.all, rel=1e-12)

    from fedeval import prdc_aggregate

    report, _ = run_round(clients, gen, "raw", ["prdc_avg", "prdc_all"], k_neighbors=2)
    agg = prdc_aggregate(clients, gen, k=2)
    assert report.scores["prdc_avg"] == agg.avg.to_json_dict()
    assert report.scores["prdc_all"] == agg.all.to_json_dict()


# ---------------------------------------------------------------------------
# capability soundness


def test_scores_mode_rejects_all_aggregates(rng):
    clients = make_clients(rng)
    gen = rng.normal(size=(10, 3))
    for metric in ("fid_all", "kid_all", "ll_all", "prdc_all"):
        with pytest.raises(CapabilityError):
            run_round(clients, gen, "scores", [metric])


def test_moments_mode_rejects_kernel_scores(rng):
    clients = make_clients(rng)
    with pytest.raises(CapabilityError):
        run_round(clients, moments(rng.normal(size=(10, 3))), "moments", ["kid_avg"])


def test_kid_needs_raw_generator(rng):
    clients = make_clients(rng)
    gen_stats = moments(rng.normal(size=(10, 3)))
    with pytest.raises(CapabilityError, match="raw generator"):
        run_round(clients, gen_stats, "raw", ["kid_avg"])


def test_ll_needs_model_generator(rng):
    clients = make_clients(rng)
    gen = rng.normal(size=(10, 3))
    with pytest.raises(CapabilityError, match="model generator"):
        run_round(clients, gen, "raw", ["ll_avg"])


def test_unknown_metric_and_mode(rng):
    clients = make_clients(rng)
    gen = rng.normal(size=(10, 3))
    with pytest.raises(ValueError, match="unknown metric"):
        run_round(clients, gen, "raw", ["fid_median"])
    with pytest.raises(ValueError, match="unknown aggregation mode"):
        run_round(clients, gen, "telepathy", ["fid_avg"])


# ---------------------------------------------------------------------------
# byte monotonicity


def test_byte_totals_ordered_by_mode(rng):
    # n_i * d > d^2 + d + 1 so raw replies dominate moments replies
    for seed in range(5):
        inner = np.random.default_rng(seed + 400)
        d = int(inner.integers(2, 6))
        n = d * (d + 2)
        clients = ClientSet(
            [
                Client(id=f"c{i}", embeddings=inner.normal(size=(n, d)))
                for i in range(int(inner.integers(2, 6)))
            ]
        )
        gen = inner.normal(size=(15, d))
        _, scores_trace = run_round(clients, gen, "scores", ["fid_avg"])
        _, moments_trace = run_round(clients, gen, "moments", ["fid_avg"])
        _, raw_trace = run_round(clients, gen, "raw", ["fid_avg"])
        assert (
            scores_trace.total_payload_bytes
            < moments_trace.total_payload_bytes
            < raw_trace.total_payload_bytes
        )


# ---------------------------------------------------------------------------
# scenarios and timelines


def test_scenario_json_round_trip(tmp_path):
    scenario = default_collapse_scenario(seed=0)
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_json_dict()))
    from fedeval.fedsim import load_scenario

    loaded = load_scenario(path)
    assert loaded.kind == "collapse"
    assert loaded.collapse_step == 3
    assert len(loaded.clients) == 10
    assert loaded.kernel.kind == "rbf"


def test_scenario_regeneration_is_bit_reproducible():
    scenario = default_collapse_scenario(seed=0)
    clients_a, gens_a = scenario.materialize()
    clients_b, gens_b = scenario.materialize()
    for ca, cb in zip(clients_a, clients_b):
        assert ca.embeddings.tobytes() == cb.embeddings.tobytes()
    for ga, gb in zip(gens_a, gens_b):
        assert ga.tobytes() == gb.tobytes()


def test_collapse_timeline_detections_and_pinned_ratios():
    result = run_scenario(default_collapse_scenario(seed=0))["result"]
    assert result.detections["kid_avg"] is True
    assert result.detections["kid_all"] is True
    assert result.detections["fid_all"] is True
    assert result.ratios["kid_avg"] > 2.0
    assert result.ratios["kid_all"] > 2.0
    assert result.ratios["fid_all"] > 2.0
    # the avg frechet score fails to react to the collapse; value pinned
    # from the first run of the fixed seed-0 scenario
    assert result.detections["fid_avg"] is False
    assert result.ratios["fid_avg"] == pytest.approx(0.8517547368280065, rel=1e-9)


def test_collapse_at_step_zero_rejected(rng):
    clients = make_clients(rng)
    spec = GeneratorSpec(id="g", kind="gaussian", mean=np.zeros(3), cov=np.eye(3), n=10)
    with pytest.raises(ValueError, match="baseline"):
        mode_collapse_timeline(clients, [spec, spec], collapse_step=0)


def test_identical_generators_no_detection(rng):
    clients = make_clients(rng, k=3, n=30)
    spec = GeneratorSpec(
        id="g", kind="gaussian", mean=np.zeros(3), cov=np.eye(3), n=50, seed=5
    )
    result = mode_collapse_timeline(clients, [spec, spec, spec], collapse_step=1)
    assert not any(result.detections.values())


def test_timeline_needs_two_steps(rng):
    clients = make_clients(rng)
    spec = GeneratorSpec(id="g", kind="gaussian", mean=np.zeros(3), cov=np.eye(3), n=10)
    with pytest.raises(ValueError, match="2 steps"):
        mode_collapse_timeline(clients, [spec], collapse_step=1)


def test_point_generator_emits_jittered_point():
    spec = GeneratorSpec(id="g", kind="point", point=[3.0, -1.0], jitter=1e-6, n=50, seed=1)
    from fedeval.fedsim import materialize_generator

    samples = materialize_generator(spec)
    assert np.max(np.abs(samples - np.array([3.0, -1.0]))) < 1e-4


def test_round_scenario_produces_rows_and_trace(rng, tmp_path):
    scenario = Scenario(
        name="round-demo",
        kind="round",
        clients=[
            ClientSpec(id="c1", mean=[0.0, 0.0], cov=1.0, n=20),
            ClientSpec(id="c2", mean=[2.0, 0.0], cov=1.0, n=30),
        ],
        generators=[
            GeneratorSpec(id="g1", kind="gaussian", mean=[1.0, 0.0], cov=1.0, n=25),
            GeneratorSpec(id="g2", kind="gaussian", mean=[5.0, 0.0], cov=1.0, n=25),
        ],
        metrics=["fid_avg", "fid_all"],
        mode="raw",
        seed=3,
    )
    outcome = run_scenario(scenario)
    assert [r["generator"] for r in outcome["rows"]] == ["g1", "g2"]
    assert outcome["rows"][0]["fid_avg"] < outcome["rows"][1]["fid_avg"]
    assert outcome["trace"].total_payload_bytes > 0
    write_score_csv(outcome["rows"], tmp_path / "rows.csv")
    header = (tmp_path / "rows.csv").read_text().splitlines()[0]
    assert header == "generator,fid_avg,fid_all"


# ---------------------------------------------------------------------------
# toy mixture sweep


def test_toy_sweep_analytic_argmins_and_constants():
    grid = [round(0.1 * i, 10) for i in range(41)]
    rows = toy_mixture_sweep(grid, n_per_client=200, seed=0, kid_n_per_client=64)
    all_curve = [r["fd_all_analytic"] for r in rows]
    avg_curve = [r["fd_avg_analytic"] for r in rows]
    assert abs(grid[int(np.argmin(all_curve))] - 2.0) <= 1e-9
    assert abs(grid[int(np.argmin(avg_curve))] - 1.0) <= 1e-9
    assert min(all_curve) == pytest.approx(0.0, abs=1e-9)
    assert min(avg_curve) == pytest.approx(1.0, abs=1e-9)


def test_toy_sweep_kernel_gap_constant_over_grid():
    grid = [0.0, 0.5, 1.0, 2.0, 3.0]
    rows = toy_mixture_sweep(grid, n_per_client=300, seed=1, kid_n_per_client=128)
    gaps = [r["kd_avg_sampled"] - r["kd_all_sampled"] for r in rows]
    for gap in gaps[1:]:
        assert abs(gap - gaps[0]) <= 1e-9 * (1.0 + abs(gaps[0]))


def test_toy_sweep_reproducible():
    grid = [0.5, 1.5]
    first = toy_mixture_sweep(grid, n_per_client=100, seed=9)
    second = toy_mixture_sweep(grid, n_per_client=100, seed=9)
    assert first == second


def test_toy_sweep_validates_inputs():
    with pytest.raises(ValueError, match=">= 0"):
        toy_mixture_sweep([-1.0], n_per_client=10, seed=0)
    with pytest.raises(ValueError, match="2 samples"):
        toy_mixture_sweep([1.0], n_per_client=1, seed=0)


# ---------------------------------------------------------------------------
# variance-limited sweep


def test_variance_sweep_argmins_differ():
    grid = [round(0.1 * i, 10) for i in range(21)]
    rows = variance_limited_sweep(
        k_clients=20, within_var=0.05, between_var=1.0, generator_var_grid=grid, seed=0
    )
    fid_avg_curve = [r["fid_avg"] for r in rows]
    fid_all_curve = [r["fid_all"] for r in rows]
    assert int(np.argmin(fid_avg_curve)) != int(np.argmin(fid_all_curve))
    gaps = [r["kid_avg"] - r["kid_all"] for r in rows]
    for gap in gaps[1:]:
        assert abs(gap - gaps[0]) <= 1e-9 * (1.0 + abs(gaps[0]))


def test_variance_sweep_validates_regime():
    with pytest.raises(ValueError, match="must not exceed"):
        variance_limited_sweep(3, 2.0, 1.0, [0.5], seed=0)
    with pytest.raises(ValueError, match="empty"):
        variance_limited_sweep(3, 0.1, 1.0, [], seed=0)


def one_kernel_pass(n, m):
    """Gram elements of one pass over N pooled client samples and m generated
    ones, both under TILE: the client tile, the generator tile, the cross tile."""
    assert n < kernelmmd.TILE and m < kernelmmd.TILE
    return n * n + m * m + n * m


def test_sweep_rows_take_one_kernel_pass(gram_elements):
    """Both kernel scores of a row come from one pass; scoring kid_avg and
    kid_all separately adds sum n_i^2 + m^2 + N m elements per row."""
    k, n, m = 4, 30, 50
    for v in (0.0, 0.5, 2.0):
        gram_elements.clear()
        (row,) = variance_limited_sweep(k, 0.05, 1.0, [v], d=3, n_per_client=n, n_gen=m)
        assert sum(gram_elements) == one_kernel_pass(k * n, m)
    for v in (0.5, 1.0):
        gram_elements.clear()
        (row,) = toy_mixture_sweep([v], 200, kid_n_per_client=60)
        assert sum(gram_elements) == one_kernel_pass(2 * 60, 60)


def test_timeline_rows_take_one_kernel_pass(gram_elements, monkeypatch, rng):
    clients = make_clients(rng, k=3, n=40, d=3)
    starts = []
    real_materialize = fedsim.materialize_generator

    def materialize(spec, seed=None):
        starts.append(len(gram_elements))
        return real_materialize(spec, seed=seed)

    monkeypatch.setattr(fedsim, "materialize_generator", materialize)
    timeline = [
        GeneratorSpec(id="s0", kind="gaussian", mean=np.zeros(3), cov=np.eye(3), n=70),
        GeneratorSpec(id="s1", kind="gaussian", mean=np.ones(3), cov=np.eye(3), n=70),
        GeneratorSpec(id="s2", kind="point", point=np.zeros(3), n=70),
    ]
    result = mode_collapse_timeline(clients, timeline, 2, kernel=KernelSpec(kind="rbf"))
    bounds = starts + [len(gram_elements)]
    per_row = [sum(gram_elements[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert len(result.rows) == 3
    assert per_row == [one_kernel_pass(3 * 40, 70)] * 3


def test_homogeneous_clients_avg_equals_all(rng):
    # duplicated client data: the avg and all aggregations coincide exactly
    x = rng.normal(size=(40, 3))
    clients = ClientSet([Client(id=f"c{i}", embeddings=x) for i in range(4)])
    g = moments(rng.normal(size=(25, 3)))
    assert fid_avg(clients, g).value == pytest.approx(fid_all(clients, g).value, rel=1e-12)


# ---------------------------------------------------------------------------
# ranking comparison


def test_rankings_published_score_table_fixture():
    # two generators scored by six clients; the per-client differences are
    # all below 1.0 yet the pooled-reference scores differ by ~90
    client_scores_g1 = [281.76, 198.54, 212.00, 225.21, 129.14, 123.59]
    client_scores_g2 = [282.44, 199.24, 212.36, 226.21, 129.34, 122.61]
    assert np.mean(client_scores_g1) == pytest.approx(195.04, abs=5e-3)
    assert np.mean(client_scores_g2) == pytest.approx(195.37, abs=5e-3)

    avg_table = {"g1": 195.04, "g2": 195.37}
    all_table = {"g1": 100.49, "g2": 190.93}
    comparison = compare_rankings(avg_table, all_table)
    assert comparison.kendall_tau == 1.0
    assert comparison.argmin_a == "g1" and comparison.argmin_b == "g1"
    assert avg_table["g2"] - avg_table["g1"] == pytest.approx(0.33, abs=1e-9)
    assert all_table["g2"] - all_table["g1"] == pytest.approx(90.44, abs=1e-9)


def test_rankings_identical_tables():
    table = {"a": 1.0, "b": 2.0, "c": 3.0}
    assert compare_rankings(table, dict(table)).kendall_tau == 1.0


def test_rankings_full_reversal():
    table_a = {"a": 1.0, "b": 2.0, "c": 3.0}
    table_b = {"a": 3.0, "b": 2.0, "c": 1.0}
    comparison = compare_rankings(table_a, table_b)
    assert comparison.kendall_tau == -1.0
    assert comparison.concordant == 0
    assert comparison.discordant == 3
    assert comparison.argmin_a == "a"
    assert comparison.argmin_b == "c"


def test_rankings_tie_handling():
    table_a = {"a": 1.0, "b": 1.0 + 1e-13, "c": 3.0}  # a, b tied within 1e-12
    table_b = {"a": 1.0, "b": 2.0, "c": 3.0}
    comparison = compare_rankings(table_a, table_b)
    assert comparison.concordant == 2
    assert comparison.discordant == 0
    assert comparison.kendall_tau == pytest.approx(2.0 / np.sqrt(2.0 * 3.0))


def test_rankings_id_mismatch():
    with pytest.raises(ValueError, match="different generator ids"):
        compare_rankings({"a": 1.0}, {"b": 1.0})


def test_round_trace_deterministic(rng):
    clients = make_clients(rng, k=2)
    gen = np.random.default_rng(5).normal(size=(10, 3))
    report_a, trace_a = run_round(clients, gen, "raw", ["fid_avg", "kid_all"])
    report_b, trace_b = run_round(clients, gen, "raw", ["fid_avg", "kid_all"])
    assert report_a.scores == report_b.scores
    assert trace_a.to_json_dict() == trace_b.to_json_dict()
