"""Protocol simulation, scenarios, sweeps, and ranking comparison."""

from __future__ import annotations

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedeval import (
    CapabilityError,
    Client,
    ClientSet,
    ClientSpec,
    GaussianModel,
    GaussianStats,
    GeneratorSpec,
    KernelSpec,
    NotPsdError,
    NumericalError,
    Scenario,
    compare_rankings,
    default_collapse_scenario,
    fedsim,
    fid_all,
    fid_avg,
    log_likelihood_scores,
    mode_collapse_timeline,
    moments,
    prdc_aggregate,
    prdc_scores,
    run_round,
    run_scenario,
    statkit,
    tiles,
    toy_mixture_sweep,
    variance_limited_sweep,
)
from fedeval.fedsim import materialize_client, materialize_generator, write_score_csv
from fedeval.frechet import _clamp, _references, psd_sqrt
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
        assert reply.payload_bytes == (1 + 2 + 4) * 8 + 16  # n, mean, covariance


def test_moments_reply_writes_numpy_integer_n(rng, tmp_path):
    # GaussianStats accepts a numpy-integer n; the reply body carries an int
    clients = ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=np.int64(20 + i), mean=np.zeros(2), cov=np.eye(2)))
            for i in range(2)
        ]
    )
    _, trace = run_round(clients, moments(rng.normal(size=(10, 2))), "moments", ["fid_avg"])
    fedsim.save_trace(trace, tmp_path / "trace.json")
    replies = json.loads((tmp_path / "trace.json").read_text())["messages"][1:]
    assert [r["body"] for r in replies] == [{"n": 20}, {"n": 21}]
    assert all(type(m.body["n"]) is int for m in trace.messages[1:])


def test_scores_round_scores_no_pooled_samples(monkeypatch, rng):
    # a scores round's ll_avg takes each client's mean log-density alone
    clients = make_clients(rng, k=3, n=20)
    rows = []
    real_density = statkit.gaussian_log_density

    def density(x, model):
        rows.append(len(x))
        return real_density(x, model)

    monkeypatch.setattr(statkit, "gaussian_log_density", density)
    gen = moments(rng.normal(size=(30, 3)))
    report, _ = run_round(clients, gen, "scores", ["ll_avg"])
    assert rows == [20, 20, 20]
    model = GaussianModel(mean=gen.mean, cov=gen.cov)
    assert report.scores["ll_avg"] == log_likelihood_scores(clients, model).avg


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

    real_kernel_stats = fedsim.kernel_stats

    def inflated_gen_sums(*args, **kwargs):
        stats = real_kernel_stats(*args, **kwargs)
        stats.sums[:-1, -1] += 1e6
        stats.sums[-1, :-1] += 1e6
        return stats

    monkeypatch.setattr(fedsim, "kernel_stats", inflated_gen_sums)
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


def test_round_with_a_gaussian_model_generator(rng):
    # the broadcast carries the model's mean and covariance, d + d^2 reals,
    # and the log-likelihood scores read the model itself
    clients = make_clients(rng, k=3, n=15, d=3)
    a = rng.normal(size=(3, 5))
    model = GaussianModel(mean=rng.normal(size=3), cov=a @ a.T / 5 + 0.1 * np.eye(3))
    ll = log_likelihood_scores(clients, model)
    for mode, metrics in (("raw", ["ll_avg", "ll_all"]), ("scores", ["ll_avg"])):
        report, trace = run_round(clients, model, mode, metrics)
        assert trace.messages[0].body == {"generator": "model"}
        assert trace.messages[0].real_count == 3 + 9
        assert report.per_client["ll"] == ll.per_client
        assert report.scores == {m: getattr(ll, m[3:]) for m in metrics}


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
    if "prdc" in families and "prdc_all" in metrics:
        agg = prdc_aggregate(clients, gen, k=k_neighbors)
        per_client["prdc"] = [r.to_json_dict() for r in agg.per_client]
        scores.update(prdc_avg=agg.avg.to_json_dict(), prdc_all=agg.all.to_json_dict())
    elif "prdc" in families:
        # without the pooled score, each client runs prdc_scores on its own samples
        own = [prdc_scores(c.embeddings, gen, k=k_neighbors) for c in clients]
        per_client["prdc"] = [r.to_json_dict() for r in own]
        scores["prdc_avg"] = {
            key: float(clients.weights @ [getattr(r, key) for r in own])
            for key in ("precision", "recall", "density", "coverage")
        }
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
    # Every round calls the library on the clients' own statistics or
    # arrays, so every score and per-client value is exact: the moments
    # replies carry each client's own (n, mean, covariance), scores-mode kid
    # is kid_avg's statistic and scores-mode prdc each client's prdc_scores,
    # raw-mode kid the one pass CLI `kid --agg both` takes, and the
    # kernel_blocks replies carry that statistic's entries.
    kernel = KernelSpec()
    k_neighbors = 3
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
            assert report.scores == scores, (mode, metrics)
            assert report.per_client == per_client, (mode, metrics)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.lists(st.integers(0, 30), min_size=2, max_size=6),
    st.floats(0.0, 1e6),
)
def test_fid_scores_translation_invariant(seed, d, extras, shift):
    """A shift common to the clients and the generator moves fid_avg,
    fid_all and the moments round's scores only by roundoff, of order
    eps * (max|shift| + max|x|) * sqrt(max|C|) per dimension, with C the
    covariance of all unshifted samples.  Every covariance is well
    conditioned (at least 8 samples per dimension): the trace term's root
    amplifies a perturbation by the inverse root of the smallest
    eigenvalue, and a rank-deficient covariance makes it move with the
    square root of the perturbation."""
    rng = np.random.default_rng(seed)
    *sizes, m = (8 * d + e for e in extras)
    mats = [rng.normal(size=d) + rng.normal(size=(n, d)) for n in sizes]
    gen = rng.normal(size=d) + rng.normal(size=(m, d))
    offset = shift * rng.normal(size=d)

    def scores(offset):
        clients = ClientSet([Client(id=f"c{i}", embeddings=x + offset) for i, x in enumerate(mats)])
        g = moments(gen + offset)
        report, _ = run_round(clients, g, "moments", ["fid_avg", "fid_all"])
        library = [fid_avg(clients, g).value, fid_all(clients, g).value]
        return np.array(library + [report.scores["fid_avg"], report.scores["fid_all"]])

    x = np.concatenate(mats + [gen])
    scale = np.sqrt(np.abs(moments(x).cov).max())
    bound = 16 * np.finfo(float).eps * (np.abs(offset).max() + np.abs(x).max()) * scale * d
    assert np.abs(scores(offset) - scores(np.zeros(d))).max() <= bound


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


# ---------------------------------------------------------------------------
# materialization: stacked sampling roots against one psd_sqrt per spec,
# taken in the spec's turn (the oracle); malformed specs fail when built


def oracle_psd_sqrt(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = max(float(np.linalg.norm(a)), 1.0)
    if np.linalg.norm(a - a.T) > 1e-10 * scale:
        raise NotPsdError("matrix is not symmetric")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    b = (v * np.sqrt(_clamp(w, "matrix"))) @ v.T
    return (b + b.T) / 2.0


def oracle_draw(spec, seed):
    rng = np.random.default_rng(spec.seed if spec.seed is not None else seed)
    if getattr(spec, "kind", "gaussian") == "point":
        return spec.point + spec.jitter * rng.standard_normal((spec.n, spec.point.shape[0]))
    z = rng.standard_normal((spec.n, spec.mean.shape[0]))
    return spec.mean + z @ oracle_psd_sqrt(spec.cov)


def oracle_materialize(scenario):
    k = len(scenario.clients)
    seeds = fedsim._spawn_seeds(scenario.seed, k + len(scenario.generators))
    clients = ClientSet(
        [
            Client(id=spec.id, embeddings=oracle_draw(spec, seed))
            for spec, seed in zip(scenario.clients, seeds)
        ]
    )
    return clients, [oracle_draw(spec, seed) for spec, seed in zip(scenario.generators, seeds[k:])]


def _materialized(materialize, scenario):
    """Every sample's bytes, or the first error's type and message."""
    try:
        clients, generators = materialize(scenario)
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)
    return [c.embeddings.tobytes() for c in clients] + [g.tobytes() for g in generators]


FAULTS = {
    "negative-n": lambda rng, d: {"n": -1},
    "not-psd": lambda rng, d: {"cov": np.diag(np.r_[-rng.uniform(0.5, 2.0), np.ones(d - 1)])},
    "asymmetric": lambda rng, d: {"cov": np.eye(d) + np.triu(np.ones((d, d)), 1)},
    "not-square": lambda rng, d: {"cov": np.ones((d, d + 1))},
    "negative-n-not-psd": lambda rng, d: {"n": -1, "cov": np.diag(np.r_[-1.0, np.ones(d - 1)])},
    # psd_sqrt's eigh raises LinAlgError on this matrix.
    "non-finite": lambda rng, d: {"cov": np.full((d, d), np.nan)},
}


@st.composite
def gaussian_specs(draw, d, faults):
    """The fields of one Gaussian spec: a scalar, full-rank, rank-deficient
    or roundoff-indefinite covariance, perhaps not PSD."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scalar", "full", "deficient", "roundoff"]))
    if kind == "scalar":
        cov = draw(st.floats(0.0, 4.0))
    else:
        a = rng.normal(size=(d, d if kind != "deficient" else max(d - 1, 1)))
        cov = a @ a.T
        if kind == "roundoff" and d > 1:
            w, v = np.linalg.eigh(cov)
            cov = (v * np.r_[-1e-12 * w[-1], w[1:]]) @ v.T
            cov = (cov + cov.T) / 2.0
    fields = {"mean": rng.normal(size=d), "cov": cov, "n": int(rng.integers(2, 6))}
    if faults and draw(st.booleans()):
        # The one fault a spec accepts when it is built: it fails the draw.
        fields.update(FAULTS["not-psd"](rng, d))
    return fields


@st.composite
def scenarios(draw, faults=False):
    dims = st.integers(1, 5)
    d = draw(dims)
    clients = [
        ClientSpec(id=f"c{i}", **draw(gaussian_specs(d, faults)))
        for i in range(draw(st.integers(1, 4)))
    ]
    generators = []
    for j in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            fields = draw(gaussian_specs(draw(dims), faults))
            generators.append(GeneratorSpec(id=f"g{j}", kind="gaussian", **fields))
        else:
            point = np.arange(draw(dims), dtype=float)
            generators.append(GeneratorSpec(id=f"g{j}", kind="point", point=point, n=3))
    return Scenario(
        name="s", kind="round", clients=clients, generators=generators, seed=draw(st.integers(0, 99))
    )


MATERIALIZE = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@MATERIALIZE
@given(st.booleans().flatmap(scenarios))
def test_materialize_matches_per_spec_roots(scenario):
    """Scalar and full covariances, clients and generators of several
    dimensions, some covariances not PSD: the stacked roots draw the same
    bytes as one psd_sqrt per spec, or raise the first non-PSD spec's error."""
    assert _materialized(Scenario.materialize, scenario) == _materialized(
        oracle_materialize, scenario
    )


def _root_outcome(root_of, a):
    try:
        return root_of(a).tobytes()
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


@MATERIALIZE
@given(
    st.lists(st.tuples(st.integers(1, 5), st.sampled_from([None, *FAULTS])), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_stacked_roots_equal_psd_sqrt(cases, seed):
    """Full-rank and rank-deficient matrices of several sizes, some faulty:
    psd_sqrt gives the oracle's root, bit for bit, or raises its error; and
    where it gives a root of a covariance a spec accepts, the root from the
    stack of those covariances (one stack per size) is the same bits."""
    rng = np.random.default_rng(seed)
    mats = []
    for d, fault in cases:
        a = rng.normal(size=(d, int(rng.integers(1, d + 2))))
        mats.append(FAULTS[fault](rng, d).get("cov", a @ a.T) if fault else a @ a.T)
    by_size = {}
    for a in mats:
        outcome = _root_outcome(psd_sqrt, a)
        assert outcome == _root_outcome(oracle_psd_sqrt, a)
        try:
            model = GaussianModel(mean=np.zeros(len(a)), cov=a)
        except (ValueError, NumericalError):
            continue
        if isinstance(outcome, bytes):
            by_size.setdefault(len(a), []).append((model, outcome))
    for pairs in by_size.values():
        stacked = _references([model for model, _ in pairs]).roots
        assert [root.tobytes() for root in stacked] == [outcome for _, outcome in pairs]


@pytest.mark.parametrize(
    "faults, error, message",
    [
        (["negative-n", "not-psd"], ValueError, "sample count n must be an integer >= 1, got -1"),
        (["not-psd", "negative-n"], ValueError, "sample count n must be an integer >= 1, got -1"),
        (["not-square", "asymmetric"], ValueError, "covariance must be square, got shape (3, 4)"),
        (["asymmetric", "not-square"], NotPsdError, "covariance is not symmetric"),
        (["negative-n-not-psd"], ValueError, "sample count n must be an integer >= 1, got -1"),
        (["non-finite", "not-psd"], ValueError, "non-finite entry in Gaussian parameters"),
        (["not-psd", "non-finite"], ValueError, "non-finite entry in Gaussian parameters"),
        (["not-psd", "not-psd"], NotPsdError, "matrix is not PSD: eigenvalue -1.455e+00"),
    ],
)
def test_materialize_first_fault_wins(faults, error, message):
    """A malformed field fails when its spec is built, before any draw; of
    the specs that build, the first non-PSD one fails the draw, as the
    oracle's per-spec roots do."""

    def scenario():
        rng = np.random.default_rng(0)
        clients = [ClientSpec(id="ok", mean=np.zeros(3), cov=np.eye(3), n=4)]
        for i, fault in enumerate(faults):
            fields = {"mean": np.zeros(3), "cov": 2.0, "n": 4, **FAULTS[fault](rng, 3)}
            clients.append(ClientSpec(id=f"bad{i}", **fields))
        return Scenario(name="s", kind="round", clients=clients, generators=[])

    with pytest.raises(error) as info:
        scenario().materialize()
    assert str(info.value).startswith(message)
    if set(faults) == {"not-psd"}:
        assert _materialized(Scenario.materialize, scenario()) == _materialized(
            oracle_materialize, scenario()
        )


def test_materialize_solves_one_eigh_per_dimension(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    scenario = Scenario(
        name="s",
        kind="round",
        clients=[ClientSpec(id=f"c{i}", mean=np.zeros(3), cov=1.0 + i, n=4) for i in range(4)],
        generators=[
            GeneratorSpec(id="g0", kind="gaussian", mean=np.zeros(2), cov=np.eye(2), n=3),
            GeneratorSpec(id="g1", kind="point", point=np.zeros(3), n=3),
            GeneratorSpec(id="g2", kind="gaussian", mean=np.zeros(3), cov=0.5, n=3),
        ],
    )
    scenario.materialize()
    assert calls == [(5, 3, 3), (1, 2, 2)]


def test_seeded_specs_spawn_no_seeds(monkeypatch):
    """Specs that all carry their own seed draw from them, so no seed is
    spawned from the scenario's; one spec without a seed spawns the usual
    count, one per spec."""
    spawned = []

    def spawn(seed, count):
        spawned.append(count)
        return original(seed, count)

    original = fedsim._spawn_seeds
    monkeypatch.setattr(fedsim, "_spawn_seeds", spawn)

    def scenario(gen_seed):
        return Scenario(
            name="s",
            kind="round",
            clients=[ClientSpec(id=f"c{i}", mean=np.zeros(2), cov=1.0, n=4, seed=i) for i in range(3)],
            generators=[GeneratorSpec(id="g", kind="gaussian", mean=np.zeros(2), cov=1.0, n=5, seed=gen_seed)],
        )

    run_scenario(scenario(7))
    assert spawned == []
    run_scenario(scenario(None))
    assert spawned == [4]


def test_raw_round_computes_each_moments_once(monkeypatch, rng):
    """fid_avg and fid_all of a raw round share one list of client
    statistics: K client moments plus the generator's."""
    calls = []
    original = statkit.moments

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(statkit, "moments", counted)
    monkeypatch.setattr(fedsim, "moments", counted)
    clients = make_clients(rng, k=4)
    gen = rng.normal(size=(15, 3))
    report, _ = run_round(clients, gen, "raw", ["fid_avg", "fid_all"])
    assert calls == [(15, 3)] + [(20, 3)] * 4
    assert report.scores == {
        "fid_avg": fid_avg(clients, moments(gen)).value,
        "fid_all": fid_all(clients, moments(gen)).value,
    }


def test_single_spec_materializers_keep_signature_and_bytes():
    for fn in (materialize_client, materialize_generator):
        assert list(inspect.signature(fn).parameters) == ["spec", "seed"]
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    specs = [
        ClientSpec(id="c", mean=rng.normal(size=4), cov=a @ a.T, n=7, seed=3),
        ClientSpec(id="c", mean=rng.normal(size=2), cov=0.3, n=5),
    ]
    for spec in specs:
        got = materialize_client(spec, seed=11)
        assert got.embeddings.tobytes() == oracle_draw(spec, 11).tobytes()
    gens = [
        GeneratorSpec(id="g", kind="gaussian", mean=np.zeros(4), cov=a @ a.T, n=6),
        GeneratorSpec(id="g", kind="point", point=[1.0, 2.0], n=6, seed=2),
    ]
    for spec in gens:
        assert materialize_generator(spec, seed=5).tobytes() == oracle_draw(spec, 5).tobytes()


# ---------------------------------------------------------------------------
# timelines


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


def test_collapse_scenario_draws_each_spec_once(monkeypatch):
    """run_scenario draws a collapse scenario's clients, and the timeline
    draws each generator spec in its step: 5 generator draws for 5 specs."""
    drawn = []
    real_draw = fedsim._draw

    def draw(spec, seed, root):
        drawn.append(spec)
        return real_draw(spec, seed, root)

    monkeypatch.setattr(fedsim, "_draw", draw)
    scenario = default_collapse_scenario(seed=0)
    run_scenario(scenario)
    assert drawn == scenario.clients + scenario.generators


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
    for kid_n in (0, -3):
        with pytest.raises(ValueError, match="kid_n_per_client must be >= 1"):
            toy_mixture_sweep([1.0], n_per_client=10, seed=0, kid_n_per_client=kid_n)


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
    for within_var in (-0.5, math.nan):
        with pytest.raises(ValueError, match="within-client variance must be >= 0"):
            variance_limited_sweep(3, within_var, 1.0, [0.5], seed=0)
    with pytest.raises(ValueError, match="variance grid values must be >= 0"):
        variance_limited_sweep(3, 0.05, 1.0, [-2.0, -1.5, -1.0], seed=0)
    for k_clients in (0, -1):
        with pytest.raises(ValueError, match="need at least 1 client"):
            variance_limited_sweep(k_clients, 0.05, 1.0, [0.5], seed=0)
    for between_var in (math.nan, math.inf):
        with pytest.raises(ValueError, match="between-client variance must be finite"):
            variance_limited_sweep(3, 0.05, between_var, [0.5], seed=0)
    for n in (0, -2):
        with pytest.raises(ValueError, match=r"need at least 1 sample per client \(n\)"):
            variance_limited_sweep(3, 0.05, 1.0, [0.5], seed=0, n_per_client=n)
    with pytest.raises(ValueError, match="dimension d must be >= 1, got 0"):
        variance_limited_sweep(3, 0.05, 1.0, [0.5], seed=0, d=0)


def one_kernel_pass(sizes, m):
    """Gram elements of one pass over clients of ``sizes`` samples and m
    generated ones, all under TILE: one tile per client block pair on or
    above the diagonal, the generator tile and one client x generator tile
    per client."""
    n = sum(sizes)
    assert max(sizes) < tiles.TILE and m < tiles.TILE
    return (n * n + sum(s * s for s in sizes)) // 2 + m * m + n * m


def test_sweep_rows_take_one_kernel_pass(gram_elements):
    """Both kernel scores of a row come from one pass; scoring kid_avg and
    kid_all separately adds sum n_i^2 + m^2 + N m elements per row."""
    k, n, m = 4, 30, 50
    for v in (0.0, 0.5, 2.0):
        gram_elements.clear()
        (row,) = variance_limited_sweep(k, 0.05, 1.0, [v], d=3, n_per_client=n, n_gen=m)
        assert sum(gram_elements) == one_kernel_pass([n] * k, m)
    for v in (0.5, 1.0):
        gram_elements.clear()
        (row,) = toy_mixture_sweep([v], 200, kid_n_per_client=60)
        assert sum(gram_elements) == one_kernel_pass([60, 60], 60)


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
    assert per_row == [one_kernel_pass([40] * 3, 70)] * 3


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


def test_rankings_nan_rejected_infinity_ordered():
    with pytest.raises(ValueError, match="^score table b has a NaN score for generator 'g2'$"):
        compare_rankings({"g1": 1.0, "g2": 2.0}, {"g1": 1.0, "g2": np.float64("nan")})
    table_a = {"g1": -math.inf, "g2": 1.0, "g3": math.inf}
    comparison = compare_rankings(table_a, {"g1": 0.5, "g2": 1.0, "g3": 2.0})
    assert (comparison.kendall_tau, comparison.concordant, comparison.discordant) == (1.0, 3, 0)
    assert comparison.argmin_a == "g1"
    comparison = compare_rankings(table_a, {"g1": 3.0, "g2": 2.0, "g3": 1.0})
    assert (comparison.kendall_tau, comparison.discordant) == (-1.0, 3)


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_rankings_equal_infinities_tie(inf):
    """Two equal infinite scores are tied (``inf - inf`` is NaN, so a
    difference alone would leave the pair to the other table's order), and
    swapping the other table's order of the tied pair changes nothing."""
    table_a = {"g1": inf, "g2": inf, "g3": 1.0}
    results = [
        compare_rankings(table_a, {"g1": 2.0, "g2": 1.0, "g3": 0.0}),
        compare_rankings(table_a, {"g1": 1.0, "g2": 2.0, "g3": 0.0}),
    ]
    for comparison in results:
        assert comparison.concordant + comparison.discordant == 2
        assert abs(comparison.kendall_tau) == pytest.approx(2.0 / math.sqrt(2.0 * 3.0))
    assert results[0].kendall_tau == results[1].kendall_tau


def test_rankings_integer_beyond_float_range():
    """A 401-digit integer score is ordered against float scores exactly,
    with no OverflowError from a difference."""
    huge = 10**400
    comparison = compare_rankings(
        {"g1": huge, "g2": 1.0, "g3": 2.0}, {"g1": 3.0, "g2": 1.0, "g3": 2.0}
    )
    assert (comparison.kendall_tau, comparison.concordant, comparison.discordant) == (1.0, 3, 0)
    assert comparison.argmin_a == "g2"
    tied = compare_rankings({"g1": huge, "g2": huge, "g3": 2.0}, {"g1": 1.0, "g2": 2.0, "g3": 0.0})
    assert (tied.concordant, tied.discordant) == (2, 0)


def test_round_trace_deterministic(rng):
    clients = make_clients(rng, k=2)
    gen = np.random.default_rng(5).normal(size=(10, 3))
    report_a, trace_a = run_round(clients, gen, "raw", ["fid_avg", "kid_all"])
    report_b, trace_b = run_round(clients, gen, "raw", ["fid_avg", "kid_all"])
    assert report_a.scores == report_b.scores
    assert trace_a.to_json_dict() == trace_b.to_json_dict()
