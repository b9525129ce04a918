"""Kernel evaluation, squared MMD, aggregation, and the constant-gap identity."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedeval import (
    Client,
    ClientSet,
    KernelSpec,
    SampleCountError,
    kernel_eval,
    kid_all,
    kid_avg,
    kid_constant_gap,
    mmd2,
)

from fedeval.errors import NumericalError
from fedeval.kernelmmd import KernelStats, kernel_stats

from conftest import random_raw_clients


def two_point_clients():
    return ClientSet(
        [Client(id="c1", embeddings=[[1.0]]), Client(id="c2", embeddings=[[-1.0]])]
    )


# ---------------------------------------------------------------------------
# kernels


def test_polynomial_kernel_defaults_1d():
    spec = KernelSpec()
    assert kernel_eval(spec, [1.0], [1.0]) == pytest.approx(8.0, abs=0)
    assert kernel_eval(spec, [1.0], [-1.0]) == pytest.approx(0.0, abs=0)


def test_polynomial_scale_defaults_to_inverse_dim():
    spec = KernelSpec()
    x = np.ones(4)
    # (4/4 + 1)^3 = 8
    assert kernel_eval(spec, x, x) == pytest.approx(8.0, abs=1e-12)


def test_rbf_kernel_at_zero_distance(rng):
    spec = KernelSpec(kind="rbf")
    x = rng.normal(size=5)
    assert kernel_eval(spec, x, x) == pytest.approx(1.0, abs=1e-12)


def test_rbf_bandwidth_default_sqrt_d():
    spec = KernelSpec(kind="rbf")
    x = np.zeros(4)
    y = np.full(4, 1.0)  # squared distance 4, sigma^2 = 4
    assert kernel_eval(spec, x, y) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval(KernelSpec(), [1.0], [1.0, 2.0])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="linear")
    with pytest.raises(ValueError):
        KernelSpec(degree=0)
    with pytest.raises(ValueError):
        KernelSpec(scale=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf", bandwidth=0.0)


@pytest.mark.parametrize("degree", [101, pytest.param(10**400, id="401-digits"), 1e300])
def test_polynomial_degree_bounded(degree):
    """A degree above the bound is refused when the spec is built; a
    401-digit one used to pass and then loop degree - 2 times per Gram stack."""
    with pytest.raises(ValueError, match=r"^polynomial degree must be at most 100$"):
        KernelSpec(degree=degree)
    assert KernelSpec(degree=100).degree == 100


def test_kernel_spec_json_round_trip():
    spec = KernelSpec.from_json_dict(
        {"kind": "polynomial", "degree": 3, "scale": None, "offset": 1}
    )
    assert spec.scale is None
    assert spec.resolved_scale(4) == pytest.approx(0.25)
    assert spec.to_json_dict()["degree"] == 3
    rbf = KernelSpec.from_json_dict({"kind": "rbf"})
    assert rbf.resolved_bandwidth(9) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# mmd2


def test_mmd2_hand_computed_blocks():
    # k(1,1) = k(-1,-1) = 8, k(1,-1) = 0, k(x,0) = 1
    r = mmd2(KernelSpec(), [[1.0], [-1.0]], [[0.0]])
    assert r.within_ref == pytest.approx(4.0, abs=0)
    assert r.within_gen == pytest.approx(1.0, abs=0)
    assert r.cross == pytest.approx(1.0, abs=0)
    assert r.value == pytest.approx(3.0, abs=0)


def test_mmd2_single_points():
    assert mmd2(KernelSpec(), [[1.0]], [[0.0]]).value == pytest.approx(7.0, abs=0)


def test_mmd2_identical_sets_vstat_zero(rng):
    x = rng.normal(size=(10, 3))
    assert mmd2(KernelSpec(), x, x).value == 0.0


def test_mmd2_value_is_block_combination(rng):
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(6, 2))
    r = mmd2(KernelSpec(), x, y)
    assert r.value == pytest.approx(r.within_ref + r.within_gen - 2 * r.cross, abs=1e-12)


def test_mmd2_ustat_requires_two_samples():
    with pytest.raises(SampleCountError, match="ustat requires"):
        mmd2(KernelSpec(), [[1.0]], [[0.0], [1.0]], estimator="ustat")


def _poly_feature_map(x, degree, scale, offset):
    """Explicit monomial feature map with multinomial coefficients."""
    d = x.shape[0]
    feats = []
    for powers in itertools.product(range(degree + 1), repeat=d + 1):
        if sum(powers) != degree:
            continue
        a0, rest = powers[0], powers[1:]
        coef = math.factorial(degree)
        for p in powers:
            coef //= math.factorial(p)
        weight = coef * offset**a0 * scale ** sum(rest)
        feats.append(math.sqrt(weight) * np.prod(x**np.array(rest)))
    return np.array(feats)


def test_mmd2_matches_explicit_feature_space(rng):
    # degree <= 2, d <= 3: the squared MMD equals the squared distance
    # between mean feature vectors in the explicit polynomial feature space
    for degree in (1, 2):
        for d in (1, 2, 3):
            x = rng.normal(size=(6, d))
            y = rng.normal(size=(5, d))
            spec = KernelSpec(degree=degree)
            scale = spec.resolved_scale(d)
            fx = np.stack([_poly_feature_map(row, degree, scale, spec.offset) for row in x])
            fy = np.stack([_poly_feature_map(row, degree, scale, spec.offset) for row in y])
            oracle = float(np.sum((fx.mean(axis=0) - fy.mean(axis=0)) ** 2))
            assert mmd2(spec, x, y).value == pytest.approx(oracle, abs=1e-10)


def test_ustat_vs_vstat_shrinking_difference(rng):
    for _ in range(10):
        n = int(rng.integers(8, 64))
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 3)) + 0.3
        spec = KernelSpec()
        v = mmd2(spec, x, y, estimator="vstat").value
        u = mmd2(spec, x, y, estimator="ustat").value
        assert abs(u - v) <= 60.0 / n


# ---------------------------------------------------------------------------
# aggregation


def test_kid_avg_hand_values():
    clients = two_point_clients()
    spec = KernelSpec()
    at_zero = kid_avg(clients, [[0.0]], spec)
    assert [r.value for r in at_zero.per_client] == pytest.approx([7.0, 7.0], abs=0)
    assert at_zero.value == pytest.approx(7.0, abs=0)
    at_two = kid_avg(clients, [[2.0]], spec)
    assert [r.value for r in at_two.per_client] == pytest.approx([79.0, 135.0], abs=0)
    assert at_two.value == pytest.approx(107.0, abs=0)


def test_kid_avg_zero_for_matching_single_client(rng):
    x = rng.normal(size=(9, 2))
    clients = ClientSet([Client(id="only", embeddings=x)])
    assert kid_avg(clients, x, KernelSpec()).value == 0.0


def test_kid_all_hand_values():
    clients = two_point_clients()
    spec = KernelSpec()
    assert kid_all(clients, [[0.0]], spec) == pytest.approx(3.0, abs=0)
    assert kid_all(clients, [[2.0]], spec) == pytest.approx(103.0, abs=0)


def test_kid_all_zero_for_pooled_generator(rng):
    clients = random_raw_clients(rng, k_max=4, n_max=20, d_max=3)
    value = kid_all(clients, clients.pooled_embeddings(), KernelSpec())
    assert value == pytest.approx(0.0, abs=1e-10)


def test_kid_all_equals_pooled_mmd_for_natural_weights(rng):
    for _ in range(10):
        clients = random_raw_clients(rng, k_max=5, n_max=30, d_max=5)
        gen = rng.normal(size=(12, clients.dim))
        spec = KernelSpec()
        blockwise = kid_all(clients, gen, spec)
        pooled = mmd2(spec, clients.pooled_embeddings(), gen).value
        assert blockwise == pytest.approx(pooled, rel=1e-9, abs=1e-12)


def test_kid_all_ustat_requires_natural_weights(rng):
    clients = random_raw_clients(rng, k_max=3, n_max=10, d_max=3, natural_weights=False)
    gen = rng.normal(size=(8, clients.dim))
    with pytest.raises(ValueError, match="n_i / n"):
        kid_all(clients, gen, KernelSpec(), estimator="ustat")


# ---------------------------------------------------------------------------
# constant gap


def test_constant_gap_hand_value():
    clients = two_point_clients()
    assert kid_constant_gap(clients, KernelSpec()) == pytest.approx(4.0, abs=0)


def test_constant_gap_single_client_is_zero(rng):
    clients = ClientSet([Client(id="only", embeddings=rng.normal(size=(7, 2)))])
    assert kid_constant_gap(clients, KernelSpec()) == pytest.approx(0.0, abs=1e-12)


def test_constant_gap_matches_hand_differences():
    clients = two_point_clients()
    spec = KernelSpec()
    gap = kid_constant_gap(clients, spec)
    assert kid_avg(clients, [[0.0]], spec).value - kid_all(clients, [[0.0]], spec) == pytest.approx(gap, abs=0)
    assert kid_avg(clients, [[2.0]], spec).value - kid_all(clients, [[2.0]], spec) == pytest.approx(gap, abs=0)


@pytest.mark.parametrize("kind", ["polynomial", "rbf"])
def test_constant_gap_property(kind):
    # the avg-all difference is the same for every generator, for any
    # client weights, under the plug-in estimator
    for seed in range(15):
        rng = np.random.default_rng(seed + 40)
        natural = bool(seed % 2)
        clients = random_raw_clients(
            rng, k_max=6, n_max=64, d_max=8, natural_weights=natural
        )
        spec = KernelSpec(kind=kind)
        gap = kid_constant_gap(clients, spec)
        for _ in range(3):
            gen = rng.normal(size=(int(rng.integers(2, 40)), clients.dim))
            diff = kid_avg(clients, gen, spec).value - kid_all(clients, gen, spec)
            assert abs(diff - gap) <= 1e-9 * (1.0 + abs(gap))


@st.composite
def gap_cases(draw):
    """K clients of random sizes with natural or explicit weights, a
    generator and a kernel kind; the samples come from one drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    clients = [
        Client(id=f"c{i}", embeddings=rng.normal(size=(n, d)) + 2.0 * rng.normal(size=d))
        for i, n in enumerate(sizes)
    ]
    if not draw(st.booleans()):
        w = rng.random(len(sizes)) + 0.1
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        for client, weight in zip(clients, w):
            client.weight = float(weight)
    gen = rng.normal(size=(draw(st.integers(1, 40)), d)) + rng.normal(size=d)
    return ClientSet(clients), gen, KernelSpec(kind=draw(st.sampled_from(["polynomial", "rbf"])))


@settings(max_examples=100, deadline=None)
@given(gap_cases())
def test_constant_gap_hypothesis_property(case):
    """Under vstat, kid_avg - kid_all equals the generator-free gap.  Each
    squared MMD cancels kernel means, so the roundoff scales with the
    largest mean kernel value; 1500 seeded draws measured at most 6.5e-16
    of it, and the bound is 1e-14 of it."""
    clients, gen, spec = case
    diff = kid_avg(clients, gen, spec).value - kid_all(clients, gen, spec)
    stats = kernel_stats(clients, gen, spec)
    k = len(clients)
    means = stats.sums / np.outer(stats.counts, stats.counts)
    scale = max(np.abs(means[:k, :k]).max(), abs(means[k, k]))
    assert abs(diff - kid_constant_gap(clients, spec)) <= 1e-14 * scale


def test_ranking_preserved_between_avg_and_all():
    from fedeval import compare_rankings

    for seed in range(10):
        rng = np.random.default_rng(seed + 60)
        clients = random_raw_clients(rng, k_max=5, n_max=40, d_max=6)
        spec = KernelSpec()
        table_avg = {}
        table_all = {}
        for g in range(4):
            gen = rng.normal(size=(20, clients.dim)) + 0.5 * g
            table_avg[f"g{g}"] = kid_avg(clients, gen, spec).value
            table_all[f"g{g}"] = kid_all(clients, gen, spec)
        assert compare_rankings(table_avg, table_all).kendall_tau == pytest.approx(1.0)


def test_ustat_does_not_satisfy_exact_gap(rng):
    # the unbiased estimator only satisfies the identity approximately
    clients = random_raw_clients(rng, k_max=4, n_max=30, d_max=4)
    min_n = min(c.n for c in clients)
    spec = KernelSpec()
    gap = kid_constant_gap(clients, spec)
    gen = rng.normal(size=(16, clients.dim))
    diff = (
        kid_avg(clients, gen, spec, estimator="ustat").value
        - kid_all(clients, gen, spec, estimator="ustat")
    )
    assert abs(diff - gap) <= 10.0 / min_n


def test_no_gram_cap():
    # scores are built from bounded tiles, so more than 20000 samples per
    # side (the size the old full-matrix path refused) are scored
    assert mmd2(KernelSpec(), np.zeros((20001, 1)), np.zeros((2, 1))).value == 0.0


@pytest.mark.parametrize("spec", [KernelSpec(offset=1e200), KernelSpec(offset=-1e200, degree=2)])
def test_non_finite_kernel_sum_raises(spec, rng):
    x = rng.normal(size=(10, 3))
    clients = ClientSet([Client(id="a", embeddings=x), Client(id="b", embeddings=x + 1.0)])
    for score in (lambda: mmd2(spec, x, x), lambda: kernel_stats(clients, x, spec)):
        with pytest.raises(NumericalError, match="^kernel sum is not finite$"):
            score()


def _one_client_stats(gen_sum: float):
    """Block sums 1 for the client and the cross pair, ``gen_sum`` for the
    generator: a plug-in score of ``gen_sum - 1`` on both paths."""
    return KernelStats(
        weights=np.ones(1),
        natural_weights=True,
        counts=np.array([1, 1]),
        sums=np.array([[1.0, 1.0], [1.0, gen_sum]]),
        traces=np.array([1.0, gen_sum]),
    )


def test_vstat_roundoff_below_zero_clamps_to_zero():
    # a plug-in score a hair below 0 (block sums 1, 1 - 3e-12 and a cross
    # sum of 1) is roundoff and reads 0; further below is an error
    from fedeval.errors import VSTAT_CLAMP, _cancelling

    stats = _one_client_stats(1.0 - 3e-12)
    result = stats.client_mmd2(0)
    assert result.within_ref + result.within_gen - 2.0 * result.cross < 0.0
    assert repr(result.value) == "0.0"
    assert repr(stats.kid_all()) == "0.0"
    assert repr(_cancelling(-VSTAT_CLAMP, VSTAT_CLAMP, "vstat MMD")) == "0.0"
    assert _cancelling(0.25, VSTAT_CLAMP, "vstat MMD") == 0.25
    with pytest.raises(NumericalError, match="below clamp threshold"):
        _cancelling(-2 * VSTAT_CLAMP, VSTAT_CLAMP, "vstat MMD")
    # the per-client and the pooled path give one text, the Python float's
    # repr (numpy 2 would write a numpy scalar as np.float64(...))
    stats = _one_client_stats(1.0 - 2e-6)
    message = "^vstat MMD -1\\.9999999998354667e-06 below clamp threshold$"
    for score in (lambda: stats.client_mmd2(0), stats.kid_all):
        with pytest.raises(NumericalError, match=message):
            score()


def test_non_finite_kernel_scores_raise():
    """Finite kernel sums whose scores overflow: a vstat value is refused
    by the cancelling-value rule, the ustat values, ``kid_avg`` and the gap
    by the finiteness rule, each without a warning (a ``RuntimeWarning``
    fails the suite)."""
    spec = KernelSpec(kind="polynomial", degree=1, scale=1.0, offset=0.0)
    x, gen = np.array([[1e154]]), np.array([[-1e154]])
    clients = ClientSet([Client(id="a", embeddings=x), Client(id="b", embeddings=x)])
    stats = kernel_stats(clients, gen, spec)
    for score in (lambda: mmd2(spec, x, gen), stats.kid_avg, stats.kid_all):
        with pytest.raises(NumericalError, match="^vstat MMD is not finite$"):
            score()
    with pytest.raises(NumericalError, match="^gap is not finite$"):
        stats.gap()
    # the off-diagonal kernel sum of two samples, total - trace, overflows
    shifted = KernelSpec(kind="polynomial", degree=1, scale=1.0, offset=-1e308)
    ref = np.sqrt(1.5e308) * np.eye(2)
    with pytest.raises(NumericalError, match="^ustat MMD is not finite$"):
        mmd2(shifted, ref, ref, "ustat")
    # finite per-client scores at the float limit, under weights that sum
    # to 1 + 5e-13 (within the client set's tolerance): their mean overflows
    top = np.finfo(float).max
    stats = KernelStats(
        weights=np.array([0.5, 0.5 + 5e-13]),
        natural_weights=False,
        counts=np.array([1, 1, 1]),
        sums=np.diag([top, top, 0.0]),
        traces=np.array([top, top, 0.0]),
    )
    assert stats.client_mmd2(0).value == stats.client_mmd2(1).value == top
    with pytest.raises(NumericalError, match="^kid_avg is not finite$"):
        stats.kid_avg()
    # finite block means sqrt(DBL_MAX)^2 (1 - 2e-16) under weights that sum
    # to 1 + 9e-13: the mixture term w b w of the pooled score and the gap
    # overflows
    x = np.array([[1.3407807929942594e154]])
    clients = ClientSet([Client(id="a", weight=0.5000000000009, embeddings=x),
                         Client(id="b", weight=0.5, embeddings=x)])
    with pytest.raises(NumericalError, match="^vstat MMD is not finite$"):
        kid_all(clients, np.zeros((1, 1)), spec)
    with pytest.raises(NumericalError, match="^gap is not finite$"):
        kid_constant_gap(clients, spec)


def test_pooled_scores_need_the_cross_client_blocks(rng):
    clients = random_raw_clients(rng, k_max=3, d=2)
    gen = rng.normal(size=(9, 2))
    stats = kernel_stats(clients, gen, cross=False)
    message = "^kernel statistic was built without cross-client blocks$"
    for score in (stats.kid_all, lambda: stats.kid_all("ustat"), stats.gap):
        with pytest.raises(ValueError, match=message):
            score()
    # the per-client scores do not read them
    assert stats.kid_avg().value == kernel_stats(clients, gen).kid_avg().value
