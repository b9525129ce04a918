"""Ingestion, moments, pooling, and log-likelihood scoring."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedeval import (
    Client,
    ClientSet,
    GaussianModel,
    GaussianStats,
    NotPsdError,
    NumericalError,
    SampleCountError,
    ingest,
    log_likelihood_scores,
    moments,
    pool_moments,
    write_embeddings,
)
from fedeval import statkit
from fedeval.statkit import load_client_set, load_stats, save_stats

from conftest import random_raw_clients


# ---------------------------------------------------------------------------
# ingest / write


def test_csv_literal_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,0\n-1,0\n")
    x = ingest(path)
    assert x.tolist() == [[1.0, 0.0], [-1.0, 0.0]]


def test_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# dim x, dim y\n1,2\n\n3,4\n")
    assert ingest(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_header_not_first_line_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n# late header\n3,4\n")
    with pytest.raises(ValueError, match="malformed header"):
        ingest(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="dimension mismatch"):
        ingest(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\nnan,4\n")
    with pytest.raises(ValueError, match="non-finite"):
        ingest(path)


def test_binary_payload_size_mismatch(tmp_path):
    import struct

    path = tmp_path / "m.fevb"
    blob = b"FEVB" + bytes([1, 1]) + struct.pack("<II", 3, 2)
    blob += np.arange(5, dtype="<f8").tobytes()  # header says 6 values
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="payload size mismatch"):
        ingest(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "m.fevb"
    path.write_bytes(b"XXXX" + bytes(10))
    with pytest.raises(ValueError, match="bad magic"):
        ingest(path)


INGEST_ERRORS = {
    "truncated-header": (
        "m.fevb", b"FEVB" + bytes([1, 1]) + bytes(7), "{path}: truncated header"
    ),
    "unsupported-version": (
        "m.fevb", b"FEVB" + bytes([2, 1]) + bytes(8), "{path}: unsupported version 2"
    ),
    "unknown-dtype-code": (
        "m.fevb", b"FEVB" + bytes([1, 7]) + bytes(8), "{path}: unknown dtype code 7"
    ),
    "unparseable-csv-value": (
        "m.csv",
        b"1,2\n3,x\n",
        "{path}:2: unparseable value (could not convert string to float: 'x')",
    ),
    "csv-without-rows": ("m.csv", b"# dim x, dim y\n\n", "{path}: no data rows"),
}


@pytest.mark.parametrize("case", sorted(INGEST_ERRORS))
def test_ingest_error_texts(tmp_path, case):
    name, blob, message = INGEST_ERRORS[case]
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(ValueError) as info:
        ingest(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_binary_round_trip_bit_identical(tmp_path, rng, dtype):
    x = rng.normal(size=(7, 3)).astype(dtype).astype(np.float64)
    first = tmp_path / "a.fevb"
    second = tmp_path / "b.fevb"
    write_embeddings(x, first, dtype=dtype)
    y = ingest(first)
    np.testing.assert_array_equal(x, y)
    write_embeddings(y, second, dtype=dtype)
    assert first.read_bytes() == second.read_bytes()


def test_csv_round_trip_values(tmp_path, rng):
    x = rng.normal(size=(5, 4))
    path = tmp_path / "m.csv"
    write_embeddings(x, path, fmt="csv")
    np.testing.assert_array_equal(ingest(path), x)


# ---------------------------------------------------------------------------
# moments


def test_moments_population_two_points():
    stats = moments([[1.0, 0.0], [-1.0, 0.0]], estimator="population")
    np.testing.assert_array_equal(stats.mean, [0.0, 0.0])
    np.testing.assert_array_equal(stats.cov, np.diag([1.0, 0.0]))


def test_moments_unbiased_two_points():
    stats = moments([[1.0, 0.0], [-1.0, 0.0]], estimator="unbiased")
    np.testing.assert_array_equal(stats.cov, np.diag([2.0, 0.0]))


def test_moments_unbiased_needs_two_samples():
    with pytest.raises(SampleCountError):
        moments([[1.0, 2.0]], estimator="unbiased")


def test_moments_monte_carlo_sanity():
    x = np.random.default_rng(7).standard_normal((500, 2))
    stats = moments(x)
    assert np.max(np.abs(stats.mean)) < 0.2
    assert np.linalg.norm(stats.cov - np.eye(2)) < 0.3


# ---------------------------------------------------------------------------
# pooling


def toy_two_client_stats(n=10):
    eye = np.eye(2)
    return ClientSet(
        [
            Client(id="c1", stats=GaussianStats(n=n, mean=[1.0, 0.0], cov=eye)),
            Client(id="c2", stats=GaussianStats(n=n, mean=[-1.0, 0.0], cov=eye)),
        ]
    )


def test_pool_two_symmetric_clients():
    pooled = pool_moments(toy_two_client_stats())
    np.testing.assert_allclose(pooled.mean, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pooled.cov, np.diag([2.0, 1.0]), atol=1e-15)


def test_pool_identical_clients_is_identity(rng):
    mean = rng.normal(size=3)
    cov = np.eye(3) * 0.7
    clients = ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=5, mean=mean, cov=cov))
            for i in range(4)
        ]
    )
    pooled = pool_moments(clients)
    np.testing.assert_allclose(pooled.mean, mean, atol=1e-15)
    np.testing.assert_allclose(pooled.cov, cov, atol=1e-15)


def test_pool_matches_concatenation_for_fractional_weights(rng):
    # weights 0.2 / 0.3 / 0.5 realized exactly as sample counts 20 / 30 / 50,
    # so the weighted mixture equals the concatenated sample moments
    d = 4
    mats = [rng.normal(size=(n, d)) + rng.normal(size=d) for n in (20, 30, 50)]
    clients = ClientSet(
        [
            Client(id=f"c{i}", weight=w, embeddings=m)
            for i, (w, m) in enumerate(zip((0.2, 0.3, 0.5), mats))
        ]
    )
    pooled = pool_moments(clients)
    oracle = moments(np.concatenate(mats, axis=0))
    np.testing.assert_allclose(pooled.mean, oracle.mean, rtol=0, atol=1e-10)
    scale = np.linalg.norm(oracle.cov)
    assert np.linalg.norm(pooled.cov - oracle.cov) <= 1e-10 * scale


def test_pooling_identity_property():
    # natural weights + population covariances == pooled-sample moments
    for seed in range(30):
        rng = np.random.default_rng(seed)
        clients = random_raw_clients(rng, k_max=8, n_max=40, d_max=16)
        pooled = pool_moments(clients)
        oracle = moments(clients.pooled_embeddings())
        scale = max(np.linalg.norm(oracle.cov), 1e-12)
        assert np.linalg.norm(pooled.cov - oracle.cov) <= 1e-10 * scale
        assert np.linalg.norm(pooled.mean - oracle.mean) <= 1e-10 * max(
            np.linalg.norm(oracle.mean), 1.0
        )
        assert pooled.n == sum(c.n for c in clients)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
    st.integers(1, 8),
    st.floats(0.0, 1e6),
)
def test_pooling_hypothesis_property(seed, sizes, d, shift):
    """Natural weights: pool_moments equals moments of the concatenated
    samples.  Pooling centres the client means on the pooled mean, so a
    shift common to every client enters the covariance's roundoff only
    through the means, of order eps * max|x| against the spread's scale
    sqrt(max|C|); it never cancels the second moment against
    mean mean^T."""
    rng = np.random.default_rng(seed)
    center = shift * rng.normal(size=d)
    mats = [center + rng.normal(size=d) + rng.normal(size=(n, d)) for n in sizes]
    pooled = pool_moments(ClientSet([Client(id=f"c{i}", embeddings=m) for i, m in enumerate(mats)]))
    x = np.concatenate(mats)
    oracle = moments(x)
    eps = np.finfo(float).eps
    bound = 16 * eps * np.abs(x).max() * np.sqrt(np.abs(oracle.cov).max())
    assert np.abs(pooled.cov - oracle.cov).max() <= bound
    assert np.abs(pooled.mean - oracle.mean).max() <= 1e-14 * np.abs(x).max()
    assert pooled.n == x.shape[0]


def test_pool_moments_unbiased_on_raw_clients(rng):
    # each client's samples take the ddof=1 covariance, mixed with the
    # weights as the population ones are
    clients = random_raw_clients(rng, k_max=5, n_max=30, d=3, natural_weights=False)
    pooled = pool_moments(clients, estimator="unbiased")
    w = clients.weights
    means = np.stack([c.embeddings.mean(axis=0) for c in clients])
    covs = [np.cov(c.embeddings, rowvar=False, ddof=1) for c in clients]
    mean = w @ means
    centred = means - mean
    want = sum(w_i * c for w_i, c in zip(w, covs)) + (w * centred.T) @ centred
    np.testing.assert_allclose(pooled.mean, mean, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(pooled.cov, want, rtol=1e-12, atol=1e-13)
    assert pooled.n == sum(c.embeddings.shape[0] for c in clients)
    population = pool_moments(clients)
    assert not np.allclose(pooled.cov, population.cov, rtol=1e-6, atol=0)


def test_weights_must_sum_to_one():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="sum"):
        ClientSet(
            [
                Client(id="a", weight=0.5, stats=GaussianStats(n=2, mean=[0, 0], cov=eye)),
                Client(id="b", weight=0.6, stats=GaussianStats(n=2, mean=[0, 0], cov=eye)),
            ]
        )


def test_weights_all_or_none():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="all client weights"):
        ClientSet(
            [
                Client(id="a", weight=0.5, embeddings=np.zeros((2, 2))),
                Client(id="b", embeddings=np.zeros((2, 2))),
            ]
        )
    with pytest.raises(ValueError, match="nonnegative"):
        ClientSet(
            [
                Client(id="a", weight=-0.5, stats=GaussianStats(n=2, mean=[0, 0], cov=eye)),
                Client(id="b", weight=1.5, stats=GaussianStats(n=2, mean=[0, 0], cov=eye)),
            ]
        )


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="unique"):
        ClientSet(
            [
                Client(id="a", embeddings=np.zeros((2, 2))),
                Client(id="a", embeddings=np.ones((2, 2))),
            ]
        )


def test_clients_sorted_by_id():
    clients = ClientSet(
        [
            Client(id="b", embeddings=np.zeros((2, 2))),
            Client(id="a", embeddings=np.ones((3, 2))),
        ]
    )
    assert clients.ids == ["a", "b"]
    np.testing.assert_allclose(clients.weights, [0.6, 0.4])


def test_pooling_determinism(rng):
    clients = random_raw_clients(rng, k_max=5)
    first = pool_moments(clients)
    second = pool_moments(clients)
    assert first.mean.tobytes() == second.mean.tobytes()
    assert first.cov.tobytes() == second.cov.tobytes()


# ---------------------------------------------------------------------------
# Gaussian stats type


def test_stats_rejects_asymmetric_cov():
    with pytest.raises(NotPsdError):
        GaussianStats(n=3, mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])


def test_symmetry_checks_scale_huge_matrices(tmp_path):
    # a Frobenius norm of the raw matrix overflows above ~1.3e154; the checks
    # scale first, so a huge asymmetric matrix still fails them and a huge
    # symmetric one passes without an overflow warning
    from fedeval.frechet import psd_sqrt

    asymmetric = [[1e200, 1e190], [0.0, 1.0]]
    with pytest.raises(NotPsdError, match="covariance is not symmetric"):
        GaussianStats(n=3, mean=[0.0, 0.0], cov=asymmetric)
    with pytest.raises(NotPsdError, match="matrix is not symmetric"):
        psd_sqrt(asymmetric)
    path = tmp_path / "stats.json"
    obj = {"n": 3, "mean": [0.0, 0.0], "cov": [[1e200, 0.0], [0.0, 1.0]]}
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_stats(path).cov[0, 0] == 1e200
        path.write_text(json.dumps({**obj, "second_moment": [[1e200, 0.0], [0.0, 1.0]]}))
        assert load_stats(path).n == 3
        path.write_text(json.dumps({**obj, "second_moment": [[1e200, 1e195], [0.0, 1.0]]}))
        with pytest.raises(ValueError, match="second_moment"):
            load_stats(path)


def test_stats_json_round_trip(tmp_path, rng):
    cov = rng.normal(size=(3, 5))
    stats = GaussianStats(n=9, mean=rng.normal(size=3), cov=cov @ cov.T)
    path = tmp_path / "stats.json"
    save_stats(stats, path)
    loaded = load_stats(path)
    np.testing.assert_array_equal(loaded.mean, stats.mean)
    np.testing.assert_array_equal(loaded.cov, stats.cov)
    assert loaded.n == stats.n


def test_stats_json_second_moment_validated(tmp_path):
    obj = {
        "n": 2,
        "mean": [1.0, 0.0],
        "cov": [[1.0, 0.0], [0.0, 1.0]],
        "second_moment": [[5.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="second_moment"):
        load_stats(path)
    obj["second_moment"] = [[2.0, 0.0], [0.0, 1.0]]
    path.write_text(json.dumps(obj))
    assert load_stats(path).n == 2


def test_client_set_json_loading(tmp_path, rng):
    x = rng.normal(size=(6, 2))
    write_embeddings(x, tmp_path / "c1.fevb")
    save_stats(moments(x), tmp_path / "c2.json")
    (tmp_path / "clients.json").write_text(
        json.dumps(
            {
                "clients": [
                    {"id": "c1", "embeddings": "c1.fevb"},
                    {"id": "c2", "moments": "c2.json"},
                ]
            }
        )
    )
    clients = load_client_set(tmp_path / "clients.json")
    assert clients.ids == ["c1", "c2"]
    assert clients.clients[0].embeddings is not None
    assert clients.clients[1].stats is not None


# ---------------------------------------------------------------------------
# log-likelihood


def test_log_likelihood_standard_normal_closed_form():
    clients = ClientSet(
        [
            Client(id="a", embeddings=[[1.0]]),
            Client(id="b", embeddings=[[-1.0]]),
        ]
    )
    model = GaussianModel(mean=[0.0], cov=[[1.0]])
    scores = log_likelihood_scores(clients, model)
    expected = -0.5 - 0.5 * math.log(2.0 * math.pi)  # log phi(+-1)
    assert scores.per_client == pytest.approx([expected, expected], abs=1e-14)
    assert scores.avg == pytest.approx(expected, abs=1e-14)
    assert scores.all == pytest.approx(expected, abs=1e-14)


def test_log_likelihood_avg_equals_all_with_natural_weights():
    for seed in range(25):
        rng = np.random.default_rng(seed + 100)
        clients = random_raw_clients(rng, k_max=6, n_max=40, d_max=6)
        d = clients.dim
        a = rng.normal(size=(d, d + 3))
        model = GaussianModel(mean=rng.normal(size=d), cov=a @ a.T / (d + 3) + 0.1 * np.eye(d))
        scores = log_likelihood_scores(clients, model)
        assert abs(scores.avg - scores.all) <= 1e-12 * max(1.0, abs(scores.all))


def test_log_likelihood_scores_each_sample_once(monkeypatch):
    # one density call per client, pooled or not; ``all`` is the mean of
    # the concatenated per-client densities, bit for bit, one-sample
    # clients included
    rng = np.random.default_rng(1)
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(n, 3))) for i, n in enumerate((1, 4, 1, 7))]
    )
    model = GaussianModel(mean=rng.normal(size=3), cov=np.eye(3) + 0.1)
    densities = []
    real_density = statkit.gaussian_log_density

    def density(x, m):
        densities.append(real_density(x, m))
        return densities[-1]

    monkeypatch.setattr(statkit, "gaussian_log_density", density)
    scores = log_likelihood_scores(clients, model)
    assert [len(d) for d in densities] == [1, 4, 1, 7]
    assert scores.all == float(np.mean(np.concatenate(densities)))
    assert scores.per_client == [float(np.mean(d)) for d in densities]
    densities.clear()
    assert log_likelihood_scores(clients, model, pooled=False).all is None
    assert [len(d) for d in densities] == [1, 4, 1, 7]


def test_log_likelihood_overflow_raises():
    """A log-density that overflows, or a mean of finite ones that does, is
    a NumericalError naming it, with no warning, not an infinite score."""
    model = GaussianModel(mean=np.zeros(3), cov=np.eye(3))
    clients = ClientSet(
        [Client(id="a", embeddings=np.ones((4, 3))), Client(id="b", embeddings=np.full((4, 3), 1e160))]
    )
    with pytest.raises(NumericalError, match="^log-density is not finite$"):
        log_likelihood_scores(clients, model)
    # each row's density is about -7.4e307; three of them sum past float max
    far = ClientSet([Client(id="a", embeddings=np.full((3, 3), 7e153))])
    assert np.isfinite(statkit.gaussian_log_density(far.clients[0].embeddings, model)).all()
    with pytest.raises(NumericalError, match="^mean log-density is not finite$"):
        log_likelihood_scores(far, model)


def test_log_likelihood_degenerate_weight():
    clients = ClientSet(
        [
            Client(id="a", weight=1.0, embeddings=[[0.3], [0.1]]),
            Client(id="b", weight=0.0, embeddings=[[5.0]]),
        ]
    )
    model = GaussianModel(mean=[0.0], cov=[[1.0]])
    scores = log_likelihood_scores(clients, model)
    assert scores.avg == pytest.approx(scores.per_client[0], abs=0)


def test_log_likelihood_singular_model():
    clients = ClientSet([Client(id="a", embeddings=[[1.0, 2.0]])])
    model = GaussianModel(mean=[0.0, 0.0], cov=[[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPsdError):
        log_likelihood_scores(clients, model)


# ---------------------------------------------------------------------------
# _far's equal-input shortcut against the full scaled-norm formula


def far_oracle(a, b, rtol):
    """``_far`` as it was before equal inputs were answered by a comparison:
    the scaled Frobenius-norm test on every input."""
    big = max(float(np.abs(m).max(initial=0.0)) for m in (a, b))
    scale = math.ldexp(1.0, max(math.frexp(big)[1], 0)) if math.isfinite(big) else 1.0
    a, b = a / scale, b / scale
    return bool(np.linalg.norm(a - b) > rtol * max(float(np.linalg.norm(a)), 1.0 / scale))


_FAR_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)


@st.composite
def far_pairs(draw):
    """A square matrix and its transpose (symmetric or not), or a matrix and
    a copy with a few entries redrawn, with ordinary, huge, infinite and
    NaN entries."""
    d = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(_FAR_ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
    if draw(st.booleans()):
        if draw(st.booleans()):
            with np.errstate(invalid="ignore", over="ignore"):
                a = (a + a.T) / 2.0
        return a, a.T
    b = a.copy()
    for _ in range(draw(st.integers(0, 2))):
        b[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = draw(_FAR_ENTRIES)
    return a, b


@settings(max_examples=300, deadline=None)
@given(far_pairs(), st.sampled_from([statkit.SYMMETRY_RTOL, statkit.SECOND_MOMENT_RTOL, 0.5]))
def test_far_matches_scaled_norm_oracle(pair, rtol):
    a, b = pair
    with np.errstate(invalid="ignore", over="ignore"):
        assert statkit._far(a, b, rtol) == far_oracle(a, b, rtol)
