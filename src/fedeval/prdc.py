"""Precision, recall, density, and coverage over k-NN manifolds.

All four metrics place a ball of radius "distance to the k-th nearest
neighbor" around each sample and test strict containment:

* precision -- fraction of generated samples inside any reference ball,
* recall    -- fraction of reference samples inside any generated ball,
* density   -- mean number of reference balls covering a generated
  sample, divided by k,
* coverage  -- fraction of reference balls containing at least one
  generated sample.

Nearest neighbors are exact.  Distances are taken in square tiles of
``kernelmmd.TILE`` rows and columns, so memory does not grow with the
sample count: each row keeps its k smallest squared distances so far,
unclipped, merged tile by tile with ``np.partition``.  Only the k-th
value kept is clipped at 0 and square-rooted.  Both steps are
non-decreasing, so they commute with taking the k-th smallest and the
radius has the same bits as selecting among clipped, rooted distances.
Row norms are computed once per sample array, not once per tile.  Ties
in neighbor distance resolve to the same radius value regardless of
index order.  The ball tests compare clipped, rooted distances with the
radii.  ``prdc_aggregate`` reads the pooled radii, every client's radii
(its diagonal blocks) and every ball test (row blocks of one pooled x
generated pass) from a single pass over the pooled samples;
``prdc_scores`` is the same pass over one client.  Without the pooled
score (``pooled=False``, a scores round) each client is scored by that
one-client pass alone, so no pooled radius or cross-client distance is
built; equal-size clients whose own and generator blocks each fit at
least twice in one tile are scored in stacks of at most TILE^2 elements
per block, with the bits of their own ``prdc_scores`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SampleCountError
from .kernelmmd import _row_norms, _squared_distances, _stack_depth, _tiles
from .statkit import ClientSet, _JsonFields, as_embeddings

DEFAULT_K = 5


@dataclass
class PrdcResult(_JsonFields):
    precision: float
    recall: float
    density: float
    coverage: float


def _stack(mats: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row-stack sample blocks; block ``p`` is rows ``bounds[p]:bounds[p + 1]``."""
    bounds = np.cumsum([0] + [m.shape[0] for m in mats])
    return (mats[0] if len(mats) == 1 else np.concatenate(mats, axis=0)), bounds


def _segments(bounds: np.ndarray, lo: int, hi: int) -> tuple[int, int, np.ndarray]:
    """Blocks ``first:last`` that meet rows ``lo:hi``, and where each starts
    within that range."""
    first = int(np.searchsorted(bounds, lo, side="right")) - 1
    last = int(np.searchsorted(bounds, hi, side="left"))
    return first, last, np.maximum(bounds[first:last], lo) - lo


def _check_knn(k: int, counts) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for n in counts:
        if n <= k:
            raise SampleCountError(f"k-NN radii require more than k={k} samples, got {n}")


def _check_blocks(mats: list[np.ndarray], gen: np.ndarray, k: int) -> None:
    """The first block's dimension against the generator's, then every set
    large enough for k-NN radii: the first block, the generator, the rest."""
    if mats[0].shape[1] != gen.shape[1]:
        raise ValueError(f"dimension mismatch: {mats[0].shape[1]} vs {gen.shape[1]}")
    _check_knn(k, [mats[0].shape[0], gen.shape[0], *(x.shape[0] for x in mats[1:])])


def _distances(sq: np.ndarray) -> np.ndarray:
    """Euclidean distances from squared ones, clipped at 0 first (in place)."""
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq, out=sq)


def _merge_nearest(best: np.ndarray, lo: int, dists: np.ndarray) -> None:
    """Fold a block of distances into the k smallest kept for rows ``lo..``."""
    k = best.shape[1]
    rows = slice(lo, lo + dists.shape[0])
    pool = np.concatenate([best[rows], dists], axis=1)
    pool.partition(k - 1, axis=1)
    best[rows] = pool[:, :k]


def _radii(x: np.ndarray, k: int, partitions: list[np.ndarray]) -> list[np.ndarray]:
    """k-th nearest-neighbor distance (self excluded) of every row of ``x``
    among the rows of its own block, for each partition of the rows.

    A partition is a list of block bounds: rows ``bounds[p]:bounds[p + 1]``
    form block ``p``, and ``[0, n]`` is the whole set.  The k smallest
    squared distances are kept unclipped; only the k-th is clipped and
    rooted, which gives the same bits as selecting among the distances,
    since both steps are non-decreasing.
    """
    n = x.shape[0]
    x_sq = _row_norms(x)
    best = [np.full((n, k), np.inf) for _ in partitions]
    for r0, r1, c0, c1 in _tiles(n, n, symmetric=True):
        dists = _squared_distances(x[r0:r1], x[c0:c1], x_sq[r0:r1], x_sq[c0:c1])
        if c0 == r0:
            np.fill_diagonal(dists, np.inf)
        for bounds, kept in zip(partitions, best):
            p, p_end, _ = _segments(bounds, r0, r1)
            q, q_end, _ = _segments(bounds, c0, c1)
            for b in range(max(p, q), min(p_end, q_end)):
                a0, a1 = max(bounds[b], r0), min(bounds[b + 1], r1)
                b0, b1 = max(bounds[b], c0), min(bounds[b + 1], c1)
                block = dists[a0 - r0 : a1 - r0, b0 - c0 : b1 - c0]
                _merge_nearest(kept, a0, block)
                if c0 != r0:
                    _merge_nearest(kept, b0, block.T)
    return [_distances(kept[:, k - 1]) for kept in best]


def knn_radii(x, k: int) -> np.ndarray:
    """Distance from each sample to its k-th nearest neighbor (self excluded)."""
    x = as_embeddings(x)
    _check_knn(k, [x.shape[0]])
    return _radii(x, k, [np.array([0, x.shape[0]])])[0]


def _ball_scores(ref, gen, gen_radii, k, partitions) -> list[list[PrdcResult]]:
    """Scores of ``gen`` against sets of ``ref`` rows, from one pass over the
    ref x gen distance tiles.

    Each partition is ``(radii, bounds)``: ref row ``i`` carries a ball of
    radius ``radii[i]``, and rows ``bounds[p]:bounds[p + 1]`` form reference
    set ``p``.  Returns one list of results per partition.
    """
    n, m = ref.shape[0], gen.shape[0]
    # ref balls of each set that contain each generated sample
    covers = [np.zeros((len(b) - 1, m), dtype=np.int64) for _, b in partitions]
    # ref balls that contain any generated sample
    covered = [np.zeros(n, dtype=bool) for _ in partitions]
    # ref samples inside any generated ball
    recalled = np.zeros(n, dtype=bool)
    ref_sq, gen_sq = _row_norms(ref), _row_norms(gen)
    for r0, r1, c0, c1 in _tiles(n, m, symmetric=False):
        sq = _squared_distances(ref[r0:r1], gen[c0:c1], ref_sq[r0:r1], gen_sq[c0:c1])
        dists = _distances(sq)
        recalled[r0:r1] |= (dists < gen_radii[None, c0:c1]).any(axis=1)
        for (radii, bounds), cover, hit in zip(partitions, covers, covered):
            inside = dists < radii[r0:r1, None]
            hit[r0:r1] |= inside.any(axis=1)
            p, p_end, starts = _segments(bounds, r0, r1)
            cover[p:p_end, c0:c1] += np.add.reduceat(inside, starts, axis=0, dtype=np.int64)
    results = []
    for (_, bounds), cover, hit in zip(partitions, covers, covered):
        sets = []
        for p in range(len(bounds) - 1):
            rows = slice(bounds[p], bounds[p + 1])
            sets.append(_result(cover[p], recalled[rows], hit[rows], k))
        results.append(sets)
    return results


def _result(cover, recalled, covered, k: int) -> PrdcResult:
    """The metrics of one reference set: ``cover`` counts its balls around
    each generated sample, ``recalled`` marks its samples inside a
    generated ball and ``covered`` its balls holding a generated sample."""
    return PrdcResult(
        precision=float((cover > 0).mean()),
        recall=float(recalled.mean()),
        density=float(cover.mean() / k),
        coverage=float(covered.mean()),
    )


def _scores(mats: list[np.ndarray], gen: np.ndarray, k: int):
    """Scores of ``gen`` against the stacked sample blocks ``mats`` and
    against each block, from one pass; one block is scored only as a whole.

    Returns ``(pooled, per_block)``.
    """
    _check_blocks(mats, gen, k)
    pooled, bounds = _stack(mats)
    partitions = [bounds[[0, -1]]] + ([bounds] if len(mats) > 1 else [])
    radii = _radii(pooled, k, partitions)
    gen_radii = knn_radii(gen, k)
    results = _ball_scores(pooled, gen, gen_radii, k, list(zip(radii, partitions)))
    return results[0][0], results[-1]


def _stacked_scores(xs: np.ndarray, gen: np.ndarray, gen_radii: np.ndarray, k: int):
    """``prdc_scores`` of each block of a stack of equal-size blocks that,
    with its generator block, fits in one tile: the same distances, radii
    and ball counts, from one stacked call each."""
    x_sq = _row_norms(xs)
    own = _squared_distances(xs, xs, x_sq, x_sq)
    rows = np.arange(xs.shape[1])
    own[:, rows, rows] = np.inf
    radii = _distances(np.partition(own, k - 1, axis=-1)[..., k - 1])
    dists = _distances(_squared_distances(xs, gen, x_sq, _row_norms(gen)))
    recalled = (dists < gen_radii).any(axis=-1)
    inside = dists < radii[..., None]
    covers = inside.sum(axis=1, dtype=np.int64)
    covered = inside.any(axis=-1)
    return [_result(*sets, k) for sets in zip(covers, recalled, covered)]


def _own_scores(mats: list[np.ndarray], gen: np.ndarray, k: int) -> list[PrdcResult]:
    """Each block's ``prdc_scores`` against ``gen``, from its own one-block
    pass: no pooled radii or ball tests are built, and the generator radii
    are taken once.

    Equal-size blocks whose self and generator blocks each fit at least
    twice in one tile are scored together, in stacks of at most TILE^2
    elements per block pair; every other block runs the one-block pass.
    """
    _check_blocks(mats, gen, k)
    gen_radii = knn_radii(gen, k)
    m = gen.shape[0]
    results: list = [None] * len(mats)
    stacks: dict[int, list[int]] = {}
    for i, x in enumerate(mats):
        n = x.shape[0]
        if _stack_depth(n, n) and _stack_depth(n, m):
            stacks.setdefault(n, []).append(i)
            continue
        whole = [np.array([0, n])]
        radii = _radii(x, k, whole)
        results[i] = _ball_scores(x, gen, gen_radii, k, list(zip(radii, whole)))[0][0]
    for n, members in stacks.items():
        depth = min(_stack_depth(n, n), _stack_depth(n, m))
        for s in range(0, len(members), depth):
            chunk = members[s : s + depth]
            scores = _stacked_scores(np.stack([mats[i] for i in chunk]), gen, gen_radii, k)
            for i, result in zip(chunk, scores):
                results[i] = result
    return results


def prdc_scores(ref, gen, k: int = DEFAULT_K) -> PrdcResult:
    """All four manifold metrics for a generated set against a reference set."""
    return _scores([as_embeddings(ref)], as_embeddings(gen), k)[0]


@dataclass
class PrdcAggregate(_JsonFields):
    all: PrdcResult | None
    avg: PrdcResult
    per_client: list[PrdcResult]


def prdc_aggregate(
    clients: ClientSet, gen, k: int = DEFAULT_K, pooled: bool = True
) -> PrdcAggregate:
    """Pooled-reference scores plus the weighted mean of per-client scores.

    ``pooled=False`` scores each client on its own data alone, as a client
    holding only its samples runs ``prdc_scores``: no pooled radii or
    pooled ball tests are built, and ``all`` is None.
    """
    gen = as_embeddings(gen)
    mats = clients.client_embeddings()
    if pooled:
        all_, per_client = _scores(mats, gen, k)
    else:
        all_, per_client = None, _own_scores(mats, gen, k)
    w = clients.weights
    avg = PrdcResult(
        precision=float(w @ [r.precision for r in per_client]),
        recall=float(w @ [r.recall for r in per_client]),
        density=float(w @ [r.density for r in per_client]),
        coverage=float(w @ [r.coverage for r in per_client]),
    )
    return PrdcAggregate(all=all_, avg=avg, per_client=per_client)
