"""Precision, recall, density, and coverage over k-NN manifolds.

All four metrics place a ball of radius "distance to the k-th nearest
neighbor" around each sample and test strict containment:

* precision -- fraction of generated samples inside any reference ball,
* recall    -- fraction of reference samples inside any generated ball,
* density   -- mean number of reference balls covering a generated
  sample, divided by k,
* coverage  -- fraction of reference balls containing at least one
  generated sample.

Nearest neighbors are exact.  Distances are taken on the tile engine's
work units (``tiles``): every pair of sample sets is tiled on its own
grid of ``tiles.TILE`` rows and columns from the sets' first rows, so
memory does not grow with the sample count and a set's distances do not
depend on the other sets.  Each row keeps its k smallest squared
distances so far, unclipped; only the k-th is clipped at 0 and
square-rooted.  Both steps are non-decreasing, so the radius has the
same bits as selecting among clipped, rooted distances, and ties resolve
to the same value regardless of index order.  The ball tests compare
clipped, rooted distances with the radii.

``prdc_aggregate`` runs one pass.  Each client's self pair and the
generator's give their own radii, bit for bit those of ``knn_radii``.
The pooled radii start from the clients' k smallest and take in only
the cross-client pairs.  One walk over the client x generator pairs
tests every distance against the generator, client and pooled radii,
so each client's scores are its own ``prdc_scores``.  Without the pooled
score (``pooled=False``, a scores round) no cross-client distance is
taken.  No pooled copy of the samples is made.

Each walk runs as a pass of ``tiles._run_pass``, which may give it a
second worker with state of its own; the caller merges that state in by
a k-smallest merge, an integer add and an OR, all order-free, so every
radius and score has the one-thread walk's bits.  A stack whose squared
distances are not finite raises ``NumericalError``.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from . import tiles
from .errors import NumericalError, SampleCountError
from .statkit import ClientSet, _JsonFields, _weighted_mean, as_embeddings

DEFAULT_K = 5


@dataclass
class PrdcResult(_JsonFields):
    precision: float
    recall: float
    density: float
    coverage: float


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


def _merge_nearest(best: np.ndarray, lo: int, *dists: np.ndarray) -> None:
    """Fold blocks of distances into the k smallest kept for rows ``lo..``."""
    k = best.shape[1]
    rows = slice(lo, lo + dists[0].shape[0])
    pool = np.concatenate([best[rows], *dists], axis=1)
    pool.partition(k - 1, axis=1)
    best[rows] = pool[:, :k]


def _smallest(sq: np.ndarray, k: int) -> np.ndarray:
    """The k smallest entries of each row of each tile of a stack (all of a
    row that has at most k), in an array of their own; ``sq`` is
    partitioned in place."""
    if sq.shape[-1] > k:
        sq.partition(k - 1, axis=-1)
    return sq[..., :k].copy()


def _tile_distances(blocks, norms, units, stack, work) -> tuple[np.ndarray, list]:
    """Unclipped squared distances of a stack of units, in the ``result``
    buffer of ``work``, and its units.  A distance that is not finite raises
    ``NumericalError``."""
    chosen, x, y = tiles._operands(blocks, units, stack, work)
    sq = tiles._squared_distances(x, y, *tiles._operands(norms, units, stack)[1:], work)
    if not np.isfinite(sq.max()):
        raise NumericalError("squared distance is not finite")
    return sq, chosen


def _nearest_walk(blocks, norms, units, k, taken, work, best) -> None:
    """Merge the squared distances of the stacks ``taken`` by one worker of
    a pass into the k smallest kept per row in ``best``, one entry per
    block."""
    held: dict[tuple, list] = {}
    size = 0

    def merge_held():
        for (owner, lo), found in held.items():
            _merge_nearest(best[owner], lo, *found)
        held.clear()

    for stack in taken:
        sq, chosen = _tile_distances(blocks, norms, units, stack, work)
        if stack[3]:
            diagonal = np.arange(stack[1])
            sq[:, diagonal, diagonal] = np.inf
        else:
            columns = tiles._take(work.product, (len(chosen), stack[2], stack[1]))
            np.copyto(columns, np.swapaxes(sq, 1, 2))
            near = _smallest(columns, k)
            for (_, q, _, c0), cols in zip(chosen, near):
                held.setdefault((q, c0), []).append(cols)
            size += near.size
        near = _smallest(sq, k)
        for (p, _, r0, _), rows in zip(chosen, near):
            held.setdefault((p, r0), []).append(rows)
        size += near.size
        if size >= tiles.TILE**2 // 4:
            merge_held()
            size = 0
    merge_held()


def _nearest(blocks, norms, best, pairs, k: int) -> None:
    """Merge the squared distances of block pairs into the k smallest kept
    per row: pair ``(p, q)``'s rows go to ``best[p]`` and its columns to
    ``best[q]``; a self pair leaves out each row's distance to itself.

    Each stack of units is cut to the k smallest per tile row and per tile
    column by one stacked partition each.  These are held per owner row
    range, about TILE^2 / 4 of them at most, and each range then takes them
    in with one merge.  Only values are kept, so the k smallest do not
    depend on the stacking or on the order of the merges.  So a second
    worker's stacks merge into rows of its own, which join ``best`` once
    the pass is over.
    """
    units, stacks = tiles._schedule(blocks, pairs)

    def state(worker):
        return best if worker == 0 else [np.full((b.shape[0], k), np.inf) for b in blocks]

    walk = functools.partial(_nearest_walk, blocks, norms, units, k)
    for own in tiles._run_pass(walk, stacks, blocks[0].shape[-1], state)[1:]:
        for rows, found in zip(best, own):
            _merge_nearest(rows, 0, found)


def _radius(best: np.ndarray) -> np.ndarray:
    """Each row's k-th nearest-neighbor distance from its k smallest
    squared distances."""
    return _distances(best[:, -1].copy())


def knn_radii(x, k: int) -> np.ndarray:
    """Distance from each sample to its k-th nearest neighbor (self excluded)."""
    x = as_embeddings(x)
    _check_knn(k, [x.shape[0]])
    best = np.full((x.shape[0], k), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        _nearest([x], [tiles._row_norms(x)], [best], [(0, 0)], k)
    return _radius(best)


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


def _tallies(n: int, m: int, g: int, sets: int):
    """Zeroed ball tests of ``sets`` sets of radii of ``n`` samples in ``g``
    blocks: the balls of each block (then of the union) around each
    generated sample; per set, the samples (in union order) whose ball
    holds one; the samples inside a generated ball."""
    cover = np.zeros((g + sets - 1, m), dtype=np.int64)
    return cover, np.zeros((sets, n), dtype=bool), np.zeros(n, dtype=bool)


def _balls_walk(blocks, norms, units, radii, starts, taken, work, tallies) -> None:
    """Add the ball tests of the block x generator stacks ``taken`` by one
    worker of a pass to ``tallies`` (``_tallies``), counts and flags, which
    do not depend on the order the stacks are visited in; block ``p``'s
    samples start at ``starts[p]`` of the union."""
    cover, covered, recalled = tallies
    for stack in taken:
        sq, chosen = _tile_distances(blocks, norms, units, stack, work)
        dists = _distances(sq)
        n_rows, n_cols = stack[1], stack[2]
        rows = [slice(starts[p] + r0, starts[p] + r0 + n_rows) for p, _, r0, _ in chosen]
        inside = tiles._take(work.mask, dists.shape)
        np.less(dists, tiles._gather(radii[0], chosen, 1, n_cols)[:, None, :], out=inside)
        for row, hit in zip(rows, inside.any(axis=2)):
            recalled[row] |= hit
        for s, set_radii in enumerate(radii):
            np.less(dists, tiles._gather(set_radii, chosen, 0, n_rows)[..., None], out=inside)
            counts = inside.sum(axis=1, dtype=np.int64)
            for (p, _, _, c0), row, count, hit in zip(chosen, rows, counts, inside.any(axis=2)):
                cover[-1 if s else p, c0 : c0 + n_cols] += count
                covered[s, row] |= hit


def _scores(mats: list[np.ndarray], gen: np.ndarray, k: int, pooled: bool):
    """Scores of ``gen`` against each block of ``mats`` and, when ``pooled``,
    against their union, from one pass over the block pairs.

    Every set's k smallest squared distances come from its self pair; the
    union's start from the blocks' and take in the cross-block pairs.  One
    walk over the block x generator pairs then tests every distance
    against the generator radii and each set of block radii.
    Returns ``(union, per_block)``, ``union`` None unless ``pooled``; one
    block is its own union.
    """
    _check_blocks(mats, gen, k)
    blocks, g, m = [*mats, gen], len(mats), gen.shape[0]
    starts = np.cumsum([0, *(x.shape[0] for x in mats)]).tolist()
    best = [np.full((b.shape[0], k), np.inf) for b in blocks]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [tiles._row_norms(b) for b in blocks]
        _nearest(blocks, norms, best, [(p, p) for p in range(g + 1)], k)
        radii = [[_radius(b) for b in best]]
        if pooled and g > 1:
            # the union's k smallest: the blocks' own, then the cross pairs
            _nearest(blocks, norms, best, [(p, q) for p in range(g) for q in range(p + 1, g)], k)
            radii.append([_radius(b) for b in best[:g]])
        units, stacks = tiles._schedule(blocks, [(p, g) for p in range(g)])
        walk = functools.partial(_balls_walk, blocks, norms, units, radii, starts)
        tallies, *more = tiles._run_pass(
            walk, stacks, blocks[0].shape[-1], lambda worker: _tallies(starts[-1], m, g, len(radii))
        )
    for extra in more:
        for total, add in zip(tallies, extra):
            total += add  # counts add; a bool += is an OR
    cover, covered, recalled = tallies
    per_block = [
        _result(cover[p], recalled[lo:hi], covered[0, lo:hi], k)
        for p, (lo, hi) in enumerate(zip(starts, starts[1:]))
    ]
    if not pooled:
        return None, per_block
    if g == 1:
        return per_block[0], per_block
    return _result(cover[-1], recalled, covered[1], k), per_block


def prdc_scores(ref, gen, k: int = DEFAULT_K) -> PrdcResult:
    """All four manifold metrics for a generated set against a reference set."""
    return _scores([as_embeddings(ref)], as_embeddings(gen), k, pooled=False)[1][0]


@dataclass
class PrdcAggregate(_JsonFields):
    all: PrdcResult | None
    avg: PrdcResult
    per_client: list[PrdcResult]


def prdc_aggregate(
    clients: ClientSet, gen, k: int = DEFAULT_K, pooled: bool = True
) -> PrdcAggregate:
    """Pooled-reference scores plus the weighted mean of per-client scores.

    Each client's scores are its own ``prdc_scores``, bit for bit.
    ``pooled=False`` builds no pooled radii or pooled ball tests, as a
    scores round, where each client holds only its samples; ``all`` is
    then None.
    """
    gen = as_embeddings(gen)
    all_, per_client = _scores(clients.client_embeddings(), gen, k, pooled)
    columns = zip(*map(astuple, per_client))
    avg = PrdcResult(*(_weighted_mean(clients.weights, c, "prdc_avg") for c in columns))
    return PrdcAggregate(all=all_, avg=avg, per_client=per_client)


# A squared distance |x|^2 + |y|^2 - 2 x.y between rows whose squared norms
# are at most this is finite: |2 x.y| <= |x|^2 + |y|^2, so it is at most
# DBL_MAX / 4, with room for the roundoff of the norms and the product.
_NORM_BOUND = np.finfo(np.float64).max / 16


def _check_aggregate(clients: ClientSet, gen, k: int = DEFAULT_K, pooled: bool = True) -> None:
    """Raise what ``prdc_aggregate(clients, gen, k, pooled)`` raises, in its
    order, and compute no score when none of its squared distances can
    overflow: every row's squared norm is at most ``_NORM_BOUND``.
    Otherwise it runs ``prdc_aggregate`` for its error, if any."""
    gen = as_embeddings(gen)
    mats = clients.client_embeddings()
    _check_blocks(mats, gen, k)
    with np.errstate(over="ignore"):
        largest = max(tiles._row_norms(x).max() for x in [*mats, gen])
    if not largest <= _NORM_BOUND:
        prdc_aggregate(clients, gen, k, pooled)
