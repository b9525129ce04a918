"""k-NN manifold metrics: radii, the four scores, and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from fedeval import (
    Client,
    ClientSet,
    SampleCountError,
    knn_radii,
    prdc_aggregate,
    prdc_scores,
)
from fedeval.errors import NumericalError


# ---------------------------------------------------------------------------
# radii


def test_radii_on_a_line():
    radii = knn_radii([[0.0], [1.0], [3.0]], k=1)
    np.testing.assert_allclose(radii, [1.0, 1.0, 2.0], atol=1e-12)


def test_radii_identical_points():
    radii = knn_radii([[2.0], [2.0]], k=1)
    np.testing.assert_array_equal(radii, [0.0, 0.0])


def test_radii_need_more_than_k_samples():
    with pytest.raises(SampleCountError):
        knn_radii([[0.0], [1.0]], k=2)


def test_radii_second_neighbor(rng):
    x = rng.normal(size=(10, 3))
    r1 = knn_radii(x, k=1)
    r2 = knn_radii(x, k=2)
    assert (r2 >= r1).all()


# ---------------------------------------------------------------------------
# scores


def _brute_force_prdc(ref, gen, k):
    """Literal loop evaluation of the four ball-membership formulas."""
    ref = np.asarray(ref, dtype=float)
    gen = np.asarray(gen, dtype=float)

    def radius(x, i):
        dists = sorted(
            np.linalg.norm(x[i] - x[j]) for j in range(len(x)) if j != i
        )
        return dists[k - 1]

    ref_r = [radius(ref, i) for i in range(len(ref))]
    gen_r = [radius(gen, j) for j in range(len(gen))]
    inside_ref = [
        [np.linalg.norm(ref[i] - gen[j]) < ref_r[i] for j in range(len(gen))]
        for i in range(len(ref))
    ]
    inside_gen = [
        [np.linalg.norm(ref[i] - gen[j]) < gen_r[j] for j in range(len(gen))]
        for i in range(len(ref))
    ]
    precision = np.mean([any(col) for col in zip(*inside_ref)])
    recall = np.mean([any(row) for row in inside_gen])
    density = np.mean([sum(col) for col in zip(*inside_ref)]) / k
    coverage = np.mean([any(row) for row in inside_ref])
    return float(precision), float(recall), float(density), float(coverage)


def test_scores_hand_fixture_1d():
    ref = [[0.0], [1.0], [2.0]]
    gen = [[0.1], [10.0]]
    oracle = _brute_force_prdc(ref, gen, k=1)
    result = prdc_scores(ref, gen, k=1)
    assert (result.precision, result.recall, result.density, result.coverage) == oracle
    # frozen oracle values: gen radii are [9.9, 9.9]; the point 0.1 falls
    # strictly inside the balls of both 0 and 1
    assert result.precision == 0.5
    assert result.recall == 1.0
    assert result.density == 1.0
    assert result.coverage == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_scores_match_brute_force_on_random_instances():
    for seed in range(10):
        rng = np.random.default_rng(seed + 10)
        ref = rng.normal(size=(12, 2))
        gen = rng.normal(size=(9, 2)) + 0.3
        result = prdc_scores(ref, gen, k=2)
        oracle = _brute_force_prdc(ref, gen, k=2)
        assert (
            result.precision,
            result.recall,
            result.density,
            result.coverage,
        ) == pytest.approx(oracle, abs=1e-12)


def test_scores_identical_sets(rng):
    x = rng.normal(size=(20, 3))
    result = prdc_scores(x, x, k=3)
    assert result.precision == 1.0
    assert result.recall == 1.0
    assert result.coverage == 1.0
    assert result.density >= 1.0


def test_scores_disjoint_supports(rng):
    ref = rng.normal(size=(10, 2))
    gen = rng.normal(size=(10, 2)) + 1e6
    result = prdc_scores(ref, gen, k=2)
    assert result.precision == 0.0
    assert result.recall == 0.0
    assert result.density == 0.0
    assert result.coverage == 0.0


def test_scores_bounds_on_random_instances():
    for seed in range(20):
        rng = np.random.default_rng(seed + 30)
        ref = rng.normal(size=(int(rng.integers(8, 30)), 3))
        gen = rng.normal(size=(int(rng.integers(8, 30)), 3)) + rng.normal()
        r = prdc_scores(ref, gen, k=3)
        assert 0.0 <= r.precision <= 1.0
        assert 0.0 <= r.recall <= 1.0
        assert 0.0 <= r.coverage <= 1.0
        assert r.density >= 0.0


def test_adding_in_ball_sample_never_decreases_precision_or_coverage():
    for seed in range(10):
        rng = np.random.default_rng(seed + 50)
        ref = rng.normal(size=(15, 2))
        gen = rng.normal(size=(8, 2))
        base = prdc_scores(ref, gen, k=2)
        # duplicate a reference point as the new generated sample: it lies
        # strictly inside that point's own ball whenever the radius is > 0
        new_point = ref[int(rng.integers(len(ref)))]
        grown = np.vstack([gen, new_point])
        result = prdc_scores(ref, grown, k=2)
        assert result.precision * len(grown) >= base.precision * len(gen) - 1e-9
        assert result.coverage >= base.coverage - 1e-12


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_client(rng):
    x = rng.normal(size=(15, 2))
    gen = rng.normal(size=(10, 2))
    agg = prdc_aggregate(ClientSet([Client(id="only", embeddings=x)]), gen, k=2)
    direct = prdc_scores(x, gen, k=2)
    assert agg.all == direct
    assert agg.avg == direct
    assert agg.per_client == [direct]


def test_aggregate_duplicated_disjoint_clusters(rng):
    # generated set == pooled data of two far-apart clients; each generated
    # point coincides with a point of exactly one client
    a = rng.normal(size=(10, 2))
    b = rng.normal(size=(10, 2)) + 1e5
    clients = ClientSet([Client(id="a", embeddings=a), Client(id="b", embeddings=b)])
    gen = np.vstack([a, b])
    agg = prdc_aggregate(clients, gen, k=2)
    assert agg.all.precision == 1.0
    # per-client precision only credits the half of the generated set that
    # lies on that client's manifold
    assert agg.per_client[0].precision == 0.5
    assert agg.per_client[1].precision == 0.5
    assert agg.avg.precision == 0.5


def test_aggregate_weighted_mean(rng):
    clients = ClientSet(
        [
            Client(id="a", weight=0.25, embeddings=rng.normal(size=(12, 2))),
            Client(id="b", weight=0.75, embeddings=rng.normal(size=(12, 2)) + 0.5),
        ]
    )
    gen = rng.normal(size=(10, 2))
    agg = prdc_aggregate(clients, gen, k=2)
    expected = 0.25 * agg.per_client[0].recall + 0.75 * agg.per_client[1].recall
    assert agg.avg.recall == pytest.approx(expected, abs=1e-15)


def test_aggregate_requires_raw_embeddings(rng):
    from fedeval import GaussianStats

    clients = ClientSet(
        [Client(id="a", stats=GaussianStats(n=5, mean=[0.0], cov=[[1.0]]))]
    )
    with pytest.raises(ValueError, match="raw"):
        prdc_aggregate(clients, rng.normal(size=(8, 1)), k=2)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_non_finite_distances_raise(rng, scale):
    # squared norms overflow: the distances would be inf or NaN, and every
    # ball test silently false
    ref, gen = scale * rng.normal(size=(12, 3)), scale * rng.normal(size=(10, 3))
    with pytest.raises(NumericalError, match="^squared distance is not finite$"):
        prdc_scores(ref, gen, k=2)
    with pytest.raises(NumericalError, match="^squared distance is not finite$"):
        knn_radii(ref, k=2)


@pytest.mark.parametrize("k", [0, -3])
def test_k_below_one_rejected(rng, k):
    x, gen = rng.normal(size=(8, 2)), rng.normal(size=(6, 2))
    clients = ClientSet([Client(id="a", embeddings=x)])
    for call in (
        lambda: knn_radii(x, k=k),
        lambda: prdc_scores(x, gen, k=k),
        lambda: prdc_aggregate(clients, gen, k=k),
    ):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            call()


def test_dimension_mismatch_rejected(rng):
    x, gen = rng.normal(size=(8, 3)), rng.normal(size=(6, 2))
    clients = ClientSet([Client(id="a", embeddings=x), Client(id="b", embeddings=x + 1.0)])
    for call in (lambda: prdc_scores(x, gen, k=2), lambda: prdc_aggregate(clients, gen, k=2)):
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
            call()
