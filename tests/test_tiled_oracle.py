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

import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedeval import Client, ClientSet, KernelSpec, errors, kernelmmd, prdc, tiles
from fedeval.errors import NumericalError, SampleCountError
from fedeval.fedsim import METRIC_KEYS, run_round

SMALL_TILE = 7
REL = 1e-9

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@contextmanager
def small_tiles(side=SMALL_TILE):
    saved = tiles.TILE
    tiles.TILE = side
    try:
        yield
    finally:
        tiles.TILE = saved


def test_small_tiles_shrinks_the_engine_tile(rng):
    # the properties below run at the small side only if the engine reads
    # it: a 20-row self pair is 6 tiles of 7 on and above the diagonal, and
    # no other module holds a TILE of its own for a test to set
    blocks = [rng.normal(size=(20, 2))]
    with small_tiles():
        units, _ = tiles._schedule(blocks, [(0, 0)])
    assert len(units) == 6
    assert len(tiles._schedule(blocks, [(0, 0)])[0]) == 1
    assert not hasattr(kernelmmd, "TILE") and not hasattr(prdc, "TILE")


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
        if value < -errors.VSTAT_CLAMP:
            raise NumericalError(f"vstat MMD {float(value)!r} below clamp threshold")
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


def test_kid_avg_computes_no_cross_client_blocks(gram_elements, rng, monkeypatch):
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(20 + i, 3))) for i in range(5)]
    )
    gen = rng.normal(size=(30, 3))
    schedules = []
    real_schedule = tiles._schedule

    def counting_schedule(blocks, pairs):
        schedules.append(pairs)
        return real_schedule(blocks, pairs)

    monkeypatch.setattr(tiles, "_schedule", counting_schedule)
    kernelmmd.kid_avg(clients, gen)
    sizes = np.array([c.n for c in clients])
    assert sum(gram_elements) == int((sizes**2).sum() + sizes.sum() * 30 + 30**2)
    gram_elements.clear()
    kernelmmd.kid_all(clients, gen)
    # each block pair under TILE is one tile: the self blocks and one
    # triangle of the cross-client blocks
    pairs = (sizes.sum() ** 2 + (sizes**2).sum()) // 2
    assert sum(gram_elements) == int(pairs + sizes.sum() * 30 + 30**2)
    # one pass each, the generator as block 5: its self pair and the five
    # client-generator pairs, then also the ten cross-client pairs
    assert [len(p) for p in schedules] == [6 + 5, 6 + 5 + 10]
    schedules.clear()
    kernelmmd.kernel_stats(clients, gen)
    assert len(schedules) == 1


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
    mats = [rng.normal(size=(n, 3)) for n in (5, 1, 9)]
    gen = rng.normal(size=(11, 3))
    clients = ClientSet([Client(id=f"c{i}", embeddings=x) for i, x in enumerate(mats)])
    spec = KernelSpec()
    with small_tiles(tile):
        stats = kernelmmd.kernel_stats(clients, gen, spec)
    blocks = [*mats, gen]
    want = np.array([[oracle_gram(spec, x, y).sum() for y in blocks] for x in blocks])
    want_traces = [np.trace(oracle_gram(spec, x, x)) for x in blocks]
    np.testing.assert_allclose(stats.sums, want, rtol=1e-12)
    np.testing.assert_allclose(stats.traces, want_traces, rtol=1e-12)
    assert stats.counts.tolist() == [5, 1, 9, 11]


@SETTINGS
@given(instances(), st.sampled_from(["polynomial", "rbf"]), st.booleans())
def test_client_scores_bit_identical_to_mmd2(case, kind, cross):
    # every block pair is tiled on its own, so a client's score does not
    # depend on the other clients or on whether cross-client blocks are built
    clients, gen = case
    spec = KernelSpec(kind=kind)
    with small_tiles():
        stats = kernelmmd.kernel_stats(clients, gen, spec, cross=cross)
        for i, client in enumerate(clients):
            for estimator in ("vstat", "ustat"):
                got = outcome(lambda: stats.client_mmd2(i, estimator))
                want = outcome(lambda: kernelmmd.mmd2(spec, client.embeddings, gen, estimator))
                if isinstance(want, Exception):
                    assert type(got) is type(want) and str(got) == str(want)
                else:
                    assert got == want, (i, estimator)


# ---------------------------------------------------------------------------
# stacked block pairs against the per-pair tile loop


def tile_bounds(n_rows, n_cols, symmetric, side):
    """``(r0, r1, c0, c1)`` of the side x side tiles covering an n_rows x
    n_cols matrix, row tile by row tile; ``symmetric`` keeps those on or
    above the diagonal."""
    for r0 in range(0, n_rows, side):
        for c0 in range(r0 if symmetric else 0, n_cols, side):
            yield r0, min(r0 + side, n_rows), c0, min(c0 + side, n_cols)


def per_pair_tiled_sums(spec, blocks, pairs):
    """The per-pair tile loop the stacked pass replaced: every block pair on
    its own tile grid, one ``gram`` call per tile."""
    sums = np.full((len(blocks), len(blocks)), np.nan)
    traces = np.zeros(len(blocks))
    for p, q in pairs:
        total = 0.0
        x, y = blocks[p], blocks[q]
        for r0, r1, c0, c1 in tile_bounds(x.shape[0], y.shape[0], q == p, tiles.TILE):
            tile = kernelmmd.gram(spec, x[r0:r1], y[c0:c1])
            part = tile.sum()
            total += part
            if q != p:
                continue
            if c0 != r0:
                total += part
            else:
                traces[p] += np.diagonal(tile).sum()
        sums[p, q] = sums[q, p] = total
    return sums, traces


@contextmanager
def per_pair_sums():
    saved = kernelmmd._tiled_sums
    kernelmmd._tiled_sums = per_pair_tiled_sums
    try:
        yield
    finally:
        kernelmmd._tiled_sums = saved


def assert_same_stats(got, want):
    """Every ``KernelStats`` field has the same bits."""
    for name in ("weights", "natural_weights", "counts", "sums", "traces"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def size_pool_clients(draw, min_n, max_n, max_clients):
    """Up to ``max_clients`` clients whose sizes come from a pool of at most
    three, so that equal-size blocks stack, and a generator set."""
    k = draw(st.integers(1, max_clients))
    pool = draw(st.lists(st.integers(min_n, max_n), min_size=1, max_size=3))
    # from d ~ 16 BLAS rounds a self block's x x^T (syrk) unlike x y^T (gemm)
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.normal(size=(int(rng.choice(pool)), d)) + rng.normal(size=d) for _ in range(k)]
    gen = 1.3 * rng.normal(size=(draw(st.integers(min_n, max_n)), d))
    weights = [None] * k
    if draw(st.booleans()):
        w = rng.random(k) + 0.1
        weights = [float(v) for v in w / w.sum()]
    clients = ClientSet(
        [Client(id=f"c{i:02d}", weight=wi, embeddings=x) for i, (wi, x) in enumerate(zip(weights, mats))]
    )
    return clients, gen


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([4, 6, 8]).flatmap(
        lambda tile: st.tuples(st.just(tile), size_pool_clients(1, 2 * tile + 2, 60))
    ),
    st.sampled_from(["polynomial", "rbf"]),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_stacked_block_sums_bit_identical_to_per_pair_tiles(
    case, kind, degree, cross, with_gen, data
):
    # block sizes on both sides of the two-per-tile threshold and of the tile
    # side; then any subset of the block pairs, in any order
    tile, (clients, gen) = case
    spec = KernelSpec(kind=kind, degree=degree) if kind == "polynomial" else KernelSpec(kind=kind)
    blocks = [*clients.client_embeddings(), gen]
    all_pairs = [(p, q) for p in range(len(blocks)) for q in range(p, len(blocks))]
    pairs = data.draw(st.permutations(all_pairs))[: data.draw(st.integers(1, len(all_pairs)))]
    gen = gen if with_gen else None
    with small_tiles(tile):
        got = kernelmmd.kernel_stats(clients, gen, spec, cross=cross)
        got_sums = kernelmmd._tiled_sums(spec, blocks, pairs)
        with per_pair_sums():
            want = kernelmmd.kernel_stats(clients, gen, spec, cross=cross)
        want_sums = per_pair_tiled_sums(spec, blocks, pairs)
    assert_same_stats(got, want)
    for a, b in zip(got_sums, want_sums):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["polynomial", "rbf"])
def test_stacked_block_sums_at_tile_side(kind, rng):
    # at TILE = 256: 181 x 181 self blocks fit twice in a tile, 182 x 182
    # once; 128 x 256 pairs twice, 129 x 256 once; 257 rows span two tiles
    sizes = (181, 181, 182, 182, 128, 129, 256, 257, 3, 3)
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(n, 40))) for i, n in enumerate(sizes)]
    )
    gen = rng.normal(size=(256, 40))
    spec = KernelSpec(kind=kind)
    for cross in (True, False):
        got = kernelmmd.kernel_stats(clients, gen, spec, cross=cross)
        with per_pair_sums():
            want = kernelmmd.kernel_stats(clients, gen, spec, cross=cross)
        assert_same_stats(got, want)


def test_many_small_pairs_take_few_stacked_calls(gram_elements, rng):
    # K=50 clients of 20 samples: 1 275 block pairs in 1 + ceil(1225 / 163)
    # stacked calls of at most TILE^2 elements, the same elements in all
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(20, 8))) for i in range(50)]
    )
    kernelmmd.kernel_stats(clients, cross=True)
    assert len(gram_elements) == 1 + 8
    assert max(gram_elements) <= tiles.TILE**2
    assert sum(gram_elements) == 1275 * 20 * 20


@SETTINGS
@given(
    size_pool_clients(4, 20, 30),
    st.integers(1, 3),
    st.sampled_from([8, 16, tiles.TILE]),
)
def test_scores_round_prdc_is_each_clients_prdc_scores(case, k, tile):
    # a scores round scores each client on its own samples, stacked or not,
    # with the bits of the prdc_scores call the client runs
    clients, gen = case
    with small_tiles(tile):
        report, _ = run_round(clients, gen, "scores", ["prdc_avg"], k_neighbors=k)
        own = [prdc.prdc_scores(c.embeddings, gen, k=k) for c in clients]
    assert report.per_client["prdc"] == [r.to_json_dict() for r in own]
    w = clients.weights
    assert report.scores["prdc_avg"] == {
        key: float(w @ [getattr(r, key) for r in own])
        for key in ("precision", "recall", "density", "coverage")
    }


@pytest.mark.parametrize("tile, sizes, m", [(256, (20, 20, 20, 25), 30), (24, (20, 20, 22), 23)])
def test_scores_round_evaluates_no_cross_client_distance(distance_elements, rng, tile, sizes, m):
    """Each client's radii (n_i^2), the generator's radii (m^2) and each
    client's ball tests (n_i m): stacked (tile 256) or one client at a time
    (tile 24, where no pair fits twice), no cross-client distance."""
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(n, 3))) for i, n in enumerate(sizes)]
    )
    gen = rng.normal(size=(m, 3))
    with small_tiles(tile):
        run_round(clients, gen, "scores", ["prdc_avg"])
    n = np.array(sizes)
    assert sum(distance_elements) == int((n**2).sum() + m * m + n.sum() * m)


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
    norms = tiles._row_norms(x)
    sq = tiles._squared_distances(x, x, norms, norms)
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


# ---------------------------------------------------------------------------
# the client-block tile engine


@st.composite
def copying_instances(draw, max_clients=4):
    """Clients on both sides of the small tile side and a generator set that
    copies some client samples: the memorisation PRDC exists to detect,
    which puts ball tests on exact distance ties."""
    d = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(4, 3 * SMALL_TILE), min_size=1, max_size=max_clients))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mats = [rng.integers(-2, 3, size=(n, d)).astype(np.float64) for n in sizes]
    else:
        mats = [rng.normal(size=(n, d)) + rng.normal(size=d) for n in sizes]
    pooled = np.concatenate(mats)
    copies = pooled[rng.choice(len(pooled), size=draw(st.integers(1, len(pooled))))]
    gen = np.concatenate([copies, 1.3 * rng.normal(size=(draw(st.integers(0, 12)), d))])
    if len(gen) < 4:
        gen = np.concatenate([gen, rng.normal(size=(4, d))])
    rng.shuffle(gen)
    return ClientSet([Client(id=f"c{i}", embeddings=x) for i, x in enumerate(mats)]), gen


@contextmanager
def recorded_radii():
    """Every radius array the PRDC pass computes, in order: each client's,
    the generator's, then each client's pooled ones."""
    saved, radii = prdc._radius, []

    def recording(best):
        radii.append(saved(best))
        return radii[-1]

    prdc._radius = recording
    try:
        yield radii
    finally:
        prdc._radius = saved


@SETTINGS
@given(copying_instances(), st.integers(1, 3))
def test_prdc_aggregate_per_client_is_prdc_scores(case, k):
    # each client's radii and ball tests come from its own block pairs, so
    # the pooled pass scores it bit for bit as prdc_scores does, with or
    # without the pooled radii
    clients, gen = case
    with small_tiles():
        pooled = prdc.prdc_aggregate(clients, gen, k=k)
        own = prdc.prdc_aggregate(clients, gen, k=k, pooled=False)
        alone = [prdc.prdc_scores(c.embeddings, gen, k=k) for c in clients]
    assert pooled.per_client == alone
    assert own.per_client == alone
    assert pooled.avg == own.avg


@SETTINGS
@given(copying_instances(), st.integers(1, 3))
def test_prdc_aggregate_radii_are_knn_radii(case, k):
    clients, gen = case
    sets = [*(c.embeddings for c in clients), gen]
    with small_tiles():
        with recorded_radii() as radii:
            prdc.prdc_aggregate(clients, gen, k=k)
        want = [prdc.knn_radii(x, k) for x in sets]
    assert [r.tobytes() for r in radii[: len(sets)]] == [r.tobytes() for r in want]
    if len(clients) > 1:
        # the pooled radii on the integer grid, where every distance is exact
        pooled = np.concatenate(radii[len(sets) :])
        if all((x == np.round(x)).all() for x in sets):
            assert pooled.tobytes() == oracle_radii(np.concatenate(sets[:-1]), k).tobytes()


@SETTINGS
@given(copying_instances(), st.integers(1, 3), st.sampled_from(["polynomial", "rbf"]), st.data())
def test_client_scores_independent_of_other_clients(case, k, kind, data):
    # a client's KID and PRDC scores do not change when other clients are
    # added, removed or renamed (which reorders them)
    clients, gen = case
    mats = [c.embeddings for c in clients]
    keep = data.draw(st.permutations(range(len(mats))))[: data.draw(st.integers(1, len(mats)))]
    extra = [Client(id="r9", embeddings=gen[: data.draw(st.integers(4, len(gen)))] + 0.5)]
    renamed = ClientSet(
        [Client(id=f"r{j}", embeddings=mats[i]) for j, i in enumerate(keep)]
        + (extra if data.draw(st.booleans()) else [])
    )
    spec = KernelSpec(kind=kind)
    with small_tiles():
        before = prdc.prdc_aggregate(clients, gen, k=k).per_client
        after = prdc.prdc_aggregate(renamed, gen, k=k).per_client
        kid_before = kernelmmd.kernel_stats(clients, gen, spec)
        kid_after = kernelmmd.kernel_stats(renamed, gen, spec)
    for j, i in enumerate(keep):
        assert after[j] == before[i]
        for estimator in ("vstat", "ustat"):
            got = outcome(lambda: kid_after.client_mmd2(j, estimator))
            want = outcome(lambda: kid_before.client_mmd2(i, estimator))
            assert repr(got) == repr(want)


@contextmanager
def unstacked():
    saved = tiles._stack_depth
    tiles._stack_depth = lambda n_rows, n_cols, dim: 1
    try:
        yield
    finally:
        tiles._stack_depth = saved


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([4, 6, 8]).flatmap(
        lambda tile: st.tuples(st.just(tile), size_pool_clients(5, 2 * tile + 2, 16))
    ),
    st.sampled_from(["polynomial", "rbf"]),
    st.integers(1, 4),
)
def test_stacked_units_bit_identical_to_depth_one(case, kind, k):
    # numpy runs one BLAS product per stacked tile, so a unit has the same
    # bits in a stack as alone: every kernel sum and every PRDC result
    tile, (clients, gen) = case
    spec = KernelSpec(kind=kind)
    with small_tiles(tile):
        got = kernelmmd.kernel_stats(clients, gen, spec)
        got_prdc = prdc.prdc_aggregate(clients, gen, k=k)
        with unstacked():
            want = kernelmmd.kernel_stats(clients, gen, spec)
            want_prdc = prdc.prdc_aggregate(clients, gen, k=k)
    assert_same_stats(got, want)
    assert got_prdc.to_json_dict() == want_prdc.to_json_dict()


def test_stacks_copy_at_most_a_tile_of_inputs(rng):
    # the thin remainder tiles along a long block have equal shapes; a stack
    # of them holds at most TILE^2 input elements, not a copy of the block
    d = 4
    blocks = [rng.normal(size=(8 * 40, d)), rng.normal(size=(9, d))]
    with small_tiles(8):
        _, stacks = tiles._schedule(blocks, [(0, 1), (1, 1)])
    assert {(n_rows, n_cols) for _, n_rows, n_cols, _ in stacks} >= {(8, 8), (8, 1)}
    for members, n_rows, n_cols, _ in stacks:
        assert len(members) == 1 or len(members) * (n_rows + n_cols) * d <= 8 * 8
        assert len(members) * n_rows * n_cols <= 8 * 8


def tile_triangle(n, tile):
    """U(n): the distance elements of a set's self pair, the tiles on and
    above the diagonal of its own TILE grid."""
    sides = [min(tile, n - s) for s in range(0, n, tile)]
    return (n * n + sum(s * s for s in sides)) // 2


@pytest.mark.parametrize(
    "tile, sizes, m, k",
    [(256, (200,) * 6, 320, 5), (7, (6, 9, 16, 16), 11, 3), (7, (9,), 15, 2)],
)
def test_prdc_pass_distance_elements(distance_elements, rng, tile, sizes, m, k):
    """Each set's self pair once (U(n) elements), each cross-client pair once
    and each client x generator pair once: at kernel-knn size (6 clients of
    200, 320 generated samples) 1 310 016 elements."""
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(n, 3))) for i, n in enumerate(sizes)]
    )
    gen = rng.normal(size=(m, 3))
    with small_tiles(tile):
        prdc.prdc_aggregate(clients, gen, k=k)
    n = np.array(sizes)
    cross = (n.sum() ** 2 - (n**2).sum()) // 2
    want = sum(tile_triangle(v, tile) for v in sizes) + cross + n.sum() * m + tile_triangle(m, tile)
    assert sum(distance_elements) == want
    assert tile != 256 or want == 1_310_016


def test_memory_bounded_by_tiles_and_radii(rng):
    """Neither pass copies the samples: the tracemalloc peak of the PRDC
    pass is bounded by the k smallest kept per row (N k) plus a few tiles,
    and the kernel pass's by a few tiles, both below the N d of one pooled
    copy."""
    k, n, d, m = prdc.DEFAULT_K, 5000, 64, 500
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(n, d))) for i in range(4)]
    )
    gen = rng.normal(size=(m, d))
    big = 4 * n
    tile = tiles.TILE**2
    for run, bound in (
        (lambda: prdc.prdc_aggregate(clients, gen, k=k), 8 * (4 * big * k + 8 * tile)),
        (lambda: kernelmmd.kernel_stats(clients, gen), 8 * 8 * tile),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound < 8 * big * d, (peak, bound)


# ---------------------------------------------------------------------------
# the passes on two threads


@contextmanager
def two_way(open_):
    """The two-way gate forced open (the calling and the pool thread take
    the stacks of a pass of two or more) or forced shut."""
    with pytest.MonkeyPatch.context() as mp:
        if open_:
            mp.setattr(tiles, "_TWO_WAY_MIN", 0)
            mp.setenv("OPENBLAS_NUM_THREADS", "1")
            mp.setattr(tiles, "_usable_cpus", lambda: 2)
        else:
            mp.setattr(tiles, "_TWO_WAY_MIN", math.inf)
        yield


def every_output(clients, gen, spec, k):
    """Every kernel and PRDC output over ``clients`` and ``gen``, errors
    included, as exact text: each ``KernelStats`` field with and without
    the cross-client pairs and the generator, both ``PrdcAggregate``
    forms, ``knn_radii``, ``prdc_scores`` and ``mmd2`` of the first client."""
    first = clients.clients[0].embeddings
    out = []
    for cross in (True, False):
        for g in (gen, None):
            stats = kernelmmd.kernel_stats(clients, g, spec, cross=cross)
            out.append([np.asarray(getattr(stats, f)).tobytes() for f in STATS_FIELDS])
    out.append(outcome(lambda: prdc.prdc_aggregate(clients, gen, k=k)))
    out.append(outcome(lambda: prdc.prdc_aggregate(clients, gen, k=k, pooled=False)))
    out.append(outcome(lambda: prdc.knn_radii(gen, k).tobytes()))
    out.append(outcome(lambda: prdc.prdc_scores(first, gen, k=k)))
    for estimator in ("vstat", "ustat"):
        out.append(outcome(lambda: kernelmmd.mmd2(spec, first, gen, estimator)))
    return [repr(o) for o in out]


STATS_FIELDS = ("weights", "natural_weights", "counts", "sums", "traces")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(1, 600), min_size=1, max_size=6),
    st.integers(1, 600),
    st.integers(1, 40),
    st.sampled_from(["polynomial", "rbf"]),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_two_way_passes_bit_identical_to_serial(sizes, m, d, kind, k, natural, seed):
    # blocks on both sides of the 256-row tile edge; every output, error
    # text included, the same with the gate forced open and forced shut
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(n, d)) + rng.normal(size=d) for n in sizes]
    gen = 1.3 * rng.normal(size=(m, d))
    weights = [None] * len(sizes)
    if not natural:
        w = rng.random(len(sizes)) + 0.1
        weights = [float(v) for v in w / w.sum()]
    clients = ClientSet(
        [Client(id=f"c{i}", weight=w, embeddings=x) for i, (w, x) in enumerate(zip(weights, mats))]
    )
    spec = KernelSpec(kind=kind)
    with two_way(False):
        want = every_output(clients, gen, spec, k)
    with two_way(True):
        got = every_output(clients, gen, spec, k)
    assert got == want


def non_finite_calls(rng, huge):
    """Six 300-sample clients, client ``huge`` of magnitude 1e160, whose
    squared distances and kernel sums overflow, and the calls that see it."""
    mats = [rng.normal(size=(300, 4)) for _ in range(6)]
    mats[huge] = mats[huge] * 1e160
    clients = ClientSet([Client(id=f"c{i}", embeddings=x) for i, x in enumerate(mats)])
    gen = rng.normal(size=(300, 4))
    return [
        lambda: kernelmmd.kernel_stats(clients, gen),
        lambda: kernelmmd.kernel_stats(clients, gen, cross=False),
        lambda: kernelmmd.kernel_stats(clients, gen, KernelSpec(kind="rbf")),
        lambda: prdc.prdc_aggregate(clients, gen),
        lambda: prdc.prdc_aggregate(clients, gen, pooled=False),
        lambda: prdc.knn_radii(np.concatenate(mats), 5),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("huge", [0, 5])
def test_two_way_non_finite_errors_match_serial(huge, rng):
    # the overflow lands in stacks either thread may take; each call raises
    # the serial path's NumericalError, and no RuntimeWarning escapes
    # either thread
    for i, call in enumerate(non_finite_calls(rng, huge)):
        with two_way(False):
            want = outcome(call)
        with two_way(True):
            got = outcome(call)
        assert isinstance(want, NumericalError), (i, want)
        assert repr(got) == repr(want), i


def test_two_way_pass_done_when_the_call_returns_or_raises(monkeypatch, rng):
    # the pool thread is slowed down; each call still returns or raises
    # only after both workers have left the pass, a worker being on it
    # from the first stack it takes to the end of its step
    running = []
    real = tiles._work_on

    def tracked(step, feed, *args):
        token = object()

        def counted(taken, *rest):
            def stacks():
                for stack in taken:
                    if token not in running:
                        running.append(token)
                    if threading.current_thread() is not threading.main_thread():
                        time.sleep(0.02)
                    yield stack

            try:
                step(stacks(), *rest)
            finally:
                if token in running:
                    running.remove(token)

        return real(counted, feed, *args)

    monkeypatch.setattr(tiles, "_work_on", tracked)
    clients = ClientSet([Client(id=f"c{i}", embeddings=rng.normal(size=(60, 3))) for i in range(3)])
    gen = rng.normal(size=(50, 3))
    with two_way(True):
        kernelmmd.kernel_stats(clients, gen)
        assert running == []
        prdc.prdc_aggregate(clients, gen)
        assert running == []
        for call in non_finite_calls(rng, 0):
            with pytest.raises(NumericalError):
                call()
            assert running == []


def one_unit_stacks(count):
    """``count`` one-unit stacks of one element each, stack i of unit i."""
    return [([i], 1, 1, False) for i in range(count)]


@pytest.mark.parametrize(
    "slow, fails, want",
    [
        (2, {2, 5}, "stack 2"),  # 5 fails on the other thread while 2 runs
        (5, {2, 5}, "stack 2"),
        (None, {5}, "stack 5"),
        (0, {7}, "stack 7"),
    ],
)
def test_two_way_raises_the_earliest_failing_stacks_error(slow, fails, want):
    # the calling thread's error, or else the pool thread's; each stack
    # runs at most once, and no worker is left on the pass when the call
    # raises
    stacks = one_unit_stacks(8)
    ran, running = [], []

    def step(taken, work, own):
        running.append(threading.current_thread())
        try:
            for stack in taken:
                unit = stack[0][0]
                time.sleep(0.05 if unit == slow else 0.001)
                ran.append(unit)
                if unit in fails:
                    raise ValueError(f"stack {unit}")
        finally:
            running.remove(threading.current_thread())

    with two_way(True), pytest.raises(ValueError, match=want):
        tiles._run_pass(step, stacks, 1)
    assert running == []
    assert len(ran) == len(set(ran))


def test_two_way_pass_runs_every_stack_once_on_two_threads():
    # each worker's state is made on the calling thread, and the pass
    # returns the states, the calling thread's first
    stacks = one_unit_stacks(40)
    made, used = [], {}

    def state(worker):
        made.append((worker, threading.current_thread()))
        return []

    def step(taken, work, own):
        for stack in taken:
            time.sleep(0.001)
            own.append(stack[0][0])
            used[id(own)] = threading.current_thread()

    with two_way(True):
        mine = tiles._run_pass(step, stacks, 1, state)
    caller = threading.current_thread()
    assert made == [(0, caller), (1, caller)]
    assert sorted(mine[0] + mine[1]) == list(range(40))
    # the calling thread takes a run from the front, the pool thread the
    # rest from the back
    assert mine[0] == list(range(len(mine[0])))
    assert mine[1] == list(range(39, len(mine[0]) - 1, -1))
    if mine[1]:
        assert used[id(mine[1])] is not caller


def test_two_way_gate_needs_two_stacks_and_the_tile_elements(rng):
    blocks = [rng.normal(size=(n, 3)) for n in (600, 300, 90, 40)]
    _, stacks = tiles._schedule(blocks, [(p, q) for p in range(4) for q in range(p, 4)])
    with two_way(True):
        assert tiles._workers(stacks) == 2
        assert tiles._workers(stacks[:1]) == 1
    with two_way(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiles, "_TWO_WAY_MIN", sum(map(tiles._elements, stacks)))
        assert tiles._workers(stacks) == 2
        assert tiles._workers(stacks[1:]) == 1
    with two_way(False):
        assert tiles._workers(stacks) == 1


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool thread yet; one the test creates is shut down after it."""
    monkeypatch.setattr(tiles, "_POOL", None)
    yield
    if tiles._POOL is not None:
        tiles._POOL[1].put(None)


@pytest.fixture
def pinned(monkeypatch):
    """BLAS pinned to one thread, on two usable CPUs."""
    for name in tiles._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(tiles.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return monkeypatch


def kernel_knn_sized(rng):
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(200, 64))) for i in range(6)]
    )
    return clients, rng.normal(size=(320, 64))


def test_fed_protocol_sized_round_stays_serial(fresh_pool, pinned, rng):
    # 12 clients of 40 samples, d=8, 100 generated samples: no pass reaches
    # the gate, so no pool thread is made
    clients = ClientSet(
        [Client(id=f"c{i}", embeddings=rng.normal(size=(40, 8))) for i in range(12)]
    )
    gen = rng.normal(size=(100, 8))
    run_round(clients, gen, "raw", sorted(k for k in METRIC_KEYS if k.startswith(("kid", "prdc"))))
    kernelmmd.kernel_stats(clients, gen)
    prdc.prdc_aggregate(clients, gen)
    assert tiles._POOL is None


def test_kernel_knn_sized_pass_takes_the_pool(fresh_pool, pinned, rng):
    clients, gen = kernel_knn_sized(rng)
    kernelmmd.kernel_stats(clients, gen)
    assert tiles._POOL is not None
    assert "fedeval-tiles" in [t.name for t in threading.enumerate()]


def test_two_way_pass_does_not_wait_for_a_busy_pool_thread(fresh_pool, rng):
    # the pool thread is held on another call: the calling thread runs every
    # stack itself and returns with the serial bits, not waiting for it
    import queue

    clients = ClientSet([Client(id=f"c{i}", embeddings=rng.normal(size=(90, 5))) for i in range(4)])
    gen = rng.normal(size=(70, 5))
    spec = KernelSpec(kind="rbf")
    with two_way(False):
        want = every_output(clients, gen, spec, 3)
    release, done = threading.Event(), queue.SimpleQueue()
    safety = threading.Timer(60, release.set)
    safety.start()
    try:
        with two_way(True):
            tiles._pool().put((release.wait, done))
            got = every_output(clients, gen, spec, 3)
            returned_first = not release.is_set()
    finally:
        release.set()
        safety.cancel()
    assert done.get(timeout=60) is True
    assert returned_first
    assert got == want


@pytest.mark.parametrize(
    "env, cpus",
    [
        ({}, {0, 1}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {0, 1}),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, {0, 1}),
        ({"OPENBLAS_NUM_THREADS": "1"}, {0}),
    ],
)
def test_gate_shut_unless_blas_pinned_on_two_cpus(fresh_pool, pinned, rng, env, cpus):
    pinned.delenv("OPENBLAS_NUM_THREADS")
    for name, value in env.items():
        pinned.setenv(name, value)
    pinned.setattr(tiles.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    clients, gen = kernel_knn_sized(rng)
    kernelmmd.kernel_stats(clients, gen)
    prdc.prdc_aggregate(clients, gen)
    assert tiles._POOL is None


@pytest.mark.parametrize(
    "env, pinned_",
    [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "8"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "8"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "1"}, False),
        ({}, False),
    ],
)
def test_blas_pinned_reads_openblas_variables_in_order(monkeypatch, env, pinned_):
    for name in tiles._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert tiles._blas_pinned() is pinned_


def test_memory_bounded_on_the_two_way_path(rng):
    with two_way(True):
        test_memory_bounded_by_tiles_and_radii(rng)


def test_two_way_callers_on_more_threads_than_cores(rng):
    # three callers share the one pool thread under a short switch
    # interval, each pass's stacks split as the threads get to them; every
    # result keeps the serial bits
    clients = ClientSet([Client(id=f"c{i}", embeddings=rng.normal(size=(90, 5))) for i in range(4)])
    gen = rng.normal(size=(70, 5))
    spec = KernelSpec(kind="rbf")
    with two_way(False):
        want = every_output(clients, gen, spec, 3)
    results, saved = [], sys.getswitchinterval()

    def call_three_times():
        results.extend(every_output(clients, gen, spec, 3) for _ in range(3))

    with two_way(True):
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call_three_times) for _ in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(saved)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [want] * 9
