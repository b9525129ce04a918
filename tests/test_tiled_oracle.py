"""The tiled kernel and k-NN passes against the exact full-matrix computation.

The oracle below is the full-matrix code the tiled passes replaced: one
whole Gram matrix sliced into client block means, and k-NN radii from a
fully sorted distance matrix.  The tests shrink the tile side to 7 so
that ragged tiles and tiles spanning client boundaries both run.

Kernel scores must agree to 1e-9 relative to the largest kernel value.
PRDC results must be identical.  Exact distance ties (duplicate points)
are only decided the same way when the distances themselves are exact:
BLAS sums a dot product in an order that depends on the matrix shape,
so on real-valued duplicates the old and new paths may round a tie
apart.  Tie cases therefore use points on a small integer grid, where
every squared distance is an exact small integer; the real-valued cases
carry no duplicates.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedeval import Client, ClientSet, KernelSpec, kernelmmd, prdc
from fedeval.errors import NumericalError, SampleCountError

SMALL_TILE = 7
REL = 1e-9

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@contextmanager
def small_tiles(side=SMALL_TILE):
    saved = kernelmmd.TILE
    kernelmmd.TILE = side
    try:
        yield
    finally:
        kernelmmd.TILE = saved


# ---------------------------------------------------------------------------
# oracle: the full-matrix computation


def oracle_gram(spec, x, y):
    d = x.shape[1]
    if spec.kind == "polynomial":
        return (spec.resolved_scale(d) * (x @ y.T) + spec.offset) ** spec.degree
    sq = np.sum(x**2, axis=1)[:, None] + np.sum(y**2, axis=1)[None, :] - 2.0 * (x @ y.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * spec.resolved_bandwidth(d) ** 2))


def oracle_within(k, estimator, label):
    n = k.shape[0]
    if estimator == "vstat":
        return float(k.mean())
    if n < 2:
        raise SampleCountError(f"ustat requires >= 2 samples in {label}")
    return float((k.sum() - np.trace(k)) / (n * (n - 1)))


def oracle_clamp(value):
    if value < 0.0:
        if value < -kernelmmd.VSTAT_CLAMP:
            raise NumericalError(f"vstat MMD {value!r} below clamp threshold")
        value = 0.0
    return value


def oracle_mmd2(spec, ref, gen, estimator):
    within_ref = oracle_within(oracle_gram(spec, ref, ref), estimator, "ref")
    within_gen = oracle_within(oracle_gram(spec, gen, gen), estimator, "gen")
    value = within_ref + within_gen - 2.0 * float(oracle_gram(spec, ref, gen).mean())
    return oracle_clamp(value) if estimator == "vstat" else value


def oracle_block_means(spec, mats, gen):
    pooled = np.concatenate(mats, axis=0)
    offsets = np.cumsum([0] + [m.shape[0] for m in mats])
    full = oracle_gram(spec, pooled, pooled)
    k = len(mats)
    b = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            b[i, j] = full[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]].mean()
    cross = oracle_gram(spec, pooled, gen)
    b_gen = np.array([cross[offsets[i] : offsets[i + 1], :].mean() for i in range(k)])
    return b, b_gen, float(oracle_gram(spec, gen, gen).mean())


def oracle_kid_all(spec, clients, gen, estimator):
    mats = [c.embeddings for c in clients]
    if estimator == "ustat":
        if not clients.has_natural_weights():
            raise ValueError("ustat pooled score requires weights n_i / n")
        return oracle_mmd2(spec, np.concatenate(mats), gen, "ustat")
    w = clients.weights
    b, b_gen, gen_gen = oracle_block_means(spec, mats, gen)
    return oracle_clamp(float(w @ b @ w) + gen_gen - 2.0 * float(w @ b_gen))


def oracle_gap(spec, clients, gen):
    w = clients.weights
    b, _, _ = oracle_block_means(spec, [c.embeddings for c in clients], gen)
    mix_mix = float(w @ b @ w)
    return float(sum(w[i] * (mix_mix + b[i, i] - 2.0 * float(w @ b[:, i])) for i in range(len(w))))


def oracle_distances(x, y):
    sq = np.sum(x**2, axis=1)[:, None] + np.sum(y**2, axis=1)[None, :] - 2.0 * (x @ y.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


def oracle_radii(x, k):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x.shape[0] <= k:
        raise SampleCountError(f"k-NN radii require more than k={k} samples, got {x.shape[0]}")
    dists = oracle_distances(x, x)
    np.fill_diagonal(dists, np.inf)
    return np.sort(dists, axis=1)[:, k - 1]


def oracle_prdc(ref, gen, k):
    ref_radii = oracle_radii(ref, k)
    gen_radii = oracle_radii(gen, k)
    dists = oracle_distances(ref, gen)
    in_ref = dists < ref_radii[:, None]
    in_gen = dists < gen_radii[None, :]
    return prdc.PrdcResult(
        precision=float(in_ref.any(axis=0).mean()),
        recall=float(in_gen.any(axis=1).mean()),
        density=float(in_ref.sum(axis=0).mean() / k),
        coverage=float(in_ref.any(axis=1).mean()),
    )


def oracle_prdc_aggregate(clients, gen, k):
    per_client = [oracle_prdc(c.embeddings, gen, k) for c in clients]
    w = clients.weights
    avg = prdc.PrdcResult(
        **{
            key: float(w @ [getattr(r, key) for r in per_client])
            for key in ("precision", "recall", "density", "coverage")
        }
    )
    pooled = np.concatenate([c.embeddings for c in clients])
    return prdc.PrdcAggregate(all=oracle_prdc(pooled, gen, k), avg=avg, per_client=per_client)


# ---------------------------------------------------------------------------
# instances


@st.composite
def instances(draw, min_n=1, max_n=13, max_clients=4):
    """Clients and a generator set, on an integer grid (with duplicate points
    and exact distance ties) or real-valued (without duplicates)."""
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(min_n, max_n), min_size=1, max_size=max_clients))
    m = draw(st.integers(min_n, max_n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mats = [rng.integers(-2, 3, size=(n, d)).astype(np.float64) for n in sizes]
        gen = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    else:
        mats = [rng.normal(size=(n, d)) + rng.normal(size=d) for n in sizes]
        gen = 1.3 * rng.normal(size=(m, d))
    natural = draw(st.booleans())
    if natural:
        weights = [None] * len(sizes)
    else:
        w = rng.random(len(sizes)) + 0.1
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        weights = [float(v) for v in w]
    clients = ClientSet(
        [Client(id=f"c{i}", weight=wi, embeddings=x) for i, (wi, x) in enumerate(zip(weights, mats))]
    )
    return clients, gen


def outcome(fn):
    try:
        return fn()
    except (ValueError, NumericalError) as exc:
        return exc


def assert_same(got, want, scale):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    assert abs(got - want) <= REL * max(abs(got), abs(want), scale), (got, want)


# ---------------------------------------------------------------------------
# kernel scores


@SETTINGS
@given(
    instances(),
    st.sampled_from(["polynomial", "rbf"]),
    st.sampled_from(["vstat", "ustat"]),
)
def test_kernel_scores_match_full_matrix_oracle(case, kind, estimator):
    clients, gen = case
    spec = KernelSpec(kind=kind)
    pooled = np.concatenate([c.embeddings for c in clients] + [gen])
    scale = float(np.abs(oracle_gram(spec, pooled, pooled)).max())

    with small_tiles():
        avg = outcome(lambda: kernelmmd.kid_avg(clients, gen, spec, estimator=estimator))
        pooled_score = outcome(lambda: kernelmmd.kid_all(clients, gen, spec, estimator=estimator))
        gap = kernelmmd.kid_constant_gap(clients, spec)
        stats = kernelmmd.kernel_stats(clients, gen, spec)

    def oracle_avg():
        values = [oracle_mmd2(spec, c.embeddings, gen, estimator) for c in clients]
        return float(clients.weights @ values), values

    want_avg = outcome(oracle_avg)
    if isinstance(want_avg, Exception):
        assert_same(avg, want_avg, scale)
        assert_same(outcome(lambda: stats.kid_avg(estimator)), want_avg, scale)
    else:
        assert_same(avg.value, want_avg[0], scale)
        assert_same(stats.kid_avg(estimator).value, want_avg[0], scale)
        for got, want in zip(avg.per_client, want_avg[1]):
            assert_same(got.value, want, scale)
    want_all = outcome(lambda: oracle_kid_all(spec, clients, gen, estimator))
    assert_same(pooled_score, want_all, scale)
    assert_same(outcome(lambda: stats.kid_all(estimator)), want_all, scale)
    want_gap = oracle_gap(spec, clients, gen)
    assert_same(gap, want_gap, scale)
    assert_same(stats.gap(), want_gap, scale)


@SETTINGS
@given(instances(max_clients=1), st.sampled_from(["vstat", "ustat"]))
def test_mmd2_matches_full_matrix_oracle(case, estimator):
    clients, gen = case
    ref = clients.clients[0].embeddings
    spec = KernelSpec()
    scale = float(np.abs(oracle_gram(spec, np.concatenate([ref, gen]), np.concatenate([ref, gen]))).max())
    with small_tiles():
        got = outcome(lambda: kernelmmd.mmd2(spec, ref, gen, estimator=estimator).value)
    assert_same(got, outcome(lambda: oracle_mmd2(spec, ref, gen, estimator)), scale)


def test_kid_avg_computes_no_cross_client_blocks(gram_elements, rng):
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(20 + i, 3))) for i in range(5)]
    )
    gen = rng.normal(size=(30, 3))
    kernelmmd.kid_avg(clients, gen)
    sizes = np.array([c.n for c in clients])
    assert sum(gram_elements) == int((sizes**2).sum() + sizes.sum() * 30 + 30**2)
    gram_elements.clear()
    kernelmmd.kid_all(clients, gen)
    assert sum(gram_elements) == int(sizes.sum() ** 2 + sizes.sum() * 30 + 30**2)


# ---------------------------------------------------------------------------
# k-NN radii and PRDC


@SETTINGS
@given(instances(min_n=4), st.integers(1, 3))
def test_prdc_matches_full_matrix_oracle(case, k):
    clients, gen = case
    with small_tiles():
        got = prdc.prdc_aggregate(clients, gen, k=k)
        single = prdc.prdc_scores(clients.clients[0].embeddings, gen, k=k)
        radii = prdc.knn_radii(gen, k)
    assert got == oracle_prdc_aggregate(clients, gen, k)
    assert single == oracle_prdc(clients.clients[0].embeddings, gen, k)
    np.testing.assert_allclose(radii, oracle_radii(gen, k), rtol=1e-12, atol=0)


@SETTINGS
@given(instances(min_n=1, max_n=5), st.integers(1, 4))
def test_prdc_sample_count_errors_match_oracle(case, k):
    clients, gen = case

    def oracle():
        return oracle_prdc_aggregate(clients, gen, k)

    def tiled():
        with small_tiles():
            return prdc.prdc_aggregate(clients, gen, k=k)

    want = outcome(oracle)
    got = outcome(tiled)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


def test_radii_ties_on_duplicates():
    x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [3.0]] * 3)
    with small_tiles():
        for k in (1, 2, 5, 8):
            np.testing.assert_array_equal(prdc.knn_radii(x, k), oracle_radii(x, k))


@pytest.mark.parametrize("tile", [1, 2, 7, 512])
def test_block_sums_independent_of_tile(tile, rng):
    rows = [rng.normal(size=(n, 3)) for n in (5, 1, 9)]
    cols = [rng.normal(size=(n, 3)) for n in (4, 11)]
    spec = KernelSpec()
    want = np.array([[oracle_gram(spec, x, y).sum() for y in cols] for x in rows])
    want_self = np.array([[oracle_gram(spec, x, y).sum() for y in rows] for x in rows])
    with small_tiles(tile):
        got = kernelmmd.block_sums(spec, rows, cols)
        got_self = kernelmmd.block_sums(spec, rows)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(got_self, want_self, rtol=1e-12)


# ---------------------------------------------------------------------------
# polynomial power by repeated products, rbf expansion


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_polynomial_gram_within_ulps_of_pow(degree, rng):
    # only the power step differs from the libm pow: the repeated products
    # round degree - 1 times, each by at most half an ulp
    for d, scale, offset in ((5, None, 1.0), (64, None, 1.0), (3, 0.7, -0.3)):
        x = rng.normal(size=(40, d))
        y = 2.0 * rng.normal(size=(30, d))
        spec = KernelSpec(degree=degree, scale=scale, offset=offset)
        want = (spec.resolved_scale(d) * (x @ y.T) + offset) ** degree
        got = kernelmmd.gram(spec, x, y)
        np.testing.assert_array_max_ulp(got, want, maxulp=max(1, 2 * (degree - 1)))
        if degree <= 2:
            # x ** 1 and x ** 2 are a copy and a square: no rounding differs
            assert np.array_equal(got, want)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_polynomial_gram_exact_on_small_integers(degree, rng):
    x = rng.integers(-3, 4, size=(25, 4))
    y = rng.integers(-3, 4, size=(20, 4))
    xy = x @ y.T
    # int64 arithmetic, exact; scale None resolves to 1/4, so
    # (xy / 4 + 2) ** degree == (xy + 8) ** degree / 4 ** degree
    for scale, want in ((1.0, (xy + 2) ** degree), (None, (xy + 8) ** degree / 4**degree)):
        spec = KernelSpec(degree=degree, scale=scale, offset=2.0)
        got = kernelmmd.gram(spec, x.astype(np.float64), y.astype(np.float64))
        np.testing.assert_array_equal(got, want)


def test_polynomial_gram_degree_one_is_the_affine_map(rng):
    x, y = rng.normal(size=(33, 7)), rng.normal(size=(21, 7))
    spec = KernelSpec(degree=1, scale=0.37, offset=1.5)
    want = 0.37 * (x @ y.T) + 1.5
    assert kernelmmd.gram(spec, x, y).tobytes() == want.tobytes()


@pytest.mark.parametrize("bandwidth", [None, 0.8])
def test_rbf_gram_bit_identical_to_oracle_expansion(bandwidth, rng):
    spec = KernelSpec(kind="rbf", bandwidth=bandwidth)
    for d in (1, 6, 64):
        x = rng.normal(size=(37, d))
        y = np.concatenate([rng.normal(size=(19, d)), x[:5]])  # exact duplicates too
        assert kernelmmd.gram(spec, x, y).tobytes() == oracle_gram(spec, x, y).tobytes()


# ---------------------------------------------------------------------------
# k-NN radii selected on squared distances

SQUARED = st.one_of(
    st.floats(min_value=-4.0, max_value=1e6),
    st.sampled_from([-0.0, 0.0, np.inf, -1e-300, -2.0, 1.0, 4.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.lists(
            st.lists(SQUARED, min_size=rows, max_size=rows), min_size=1, max_size=24
        )
    ),
    st.integers(1, 6),
)
def test_deferred_clip_and_sqrt_are_exact(columns, chunk):
    # k-th smallest of sqrt(clip(a, 0)) == sqrt(clip(k-th smallest of a, 0)),
    # bit for bit, through the same merge and final step the radii pass uses
    a = np.array(columns).T.copy()
    rows, n = a.shape
    for k in range(1, n + 1):
        want = np.sort(np.sqrt(np.clip(a, 0.0, None)), axis=1)[:, k - 1]
        best = np.full((rows, k), np.inf)
        for c0 in range(0, n, chunk):
            prdc._merge_nearest(best, 0, a[:, c0 : c0 + chunk])
        got = prdc._distances(best[:, k - 1].copy())
        assert got.tobytes() == want.tobytes()
        kth = np.partition(a, k - 1, axis=1)[:, k - 1]
        assert got.tobytes() == np.sqrt(np.maximum(kth, 0.0)).tobytes()


def test_radii_on_real_valued_duplicates(rng):
    # duplicated real-valued rows, whose expanded squared distance rounds
    # below 0 about a third of the time before the clip
    v = rng.normal(size=(64, 16)) * rng.uniform(0.1, 10.0, size=(64, 1))
    x = np.repeat(v, 2, axis=0)
    norms = kernelmmd._row_norms(x)
    sq = kernelmmd._squared_distances(x, x, norms, norms)
    pair = sq[np.arange(0, 128, 2), np.arange(1, 128, 2)]
    assert (pair < 0).any()
    clipped = np.repeat(pair <= 0, 2)
    radii = prdc.knn_radii(x, 1)
    # +0.0, never -0.0 or NaN
    assert radii[clipped].tobytes() == np.zeros(clipped.sum()).tobytes()
    for k in (1, 2, 3):
        assert prdc.knn_radii(x, k).tobytes() == oracle_radii(x, k).tobytes()
        with small_tiles():
            assert prdc.knn_radii(x, k).tobytes() == oracle_radii(x, k).tobytes()
