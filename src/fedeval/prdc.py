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
generated pass) from a single pass over the pooled samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SampleCountError
from .kernelmmd import _row_norms, _squared_distances, _tiles
from .statkit import ClientSet, as_embeddings

DEFAULT_K = 5


@dataclass
class PrdcResult:
    precision: float
    recall: float
    density: float
    coverage: float

    def to_json_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "density": self.density,
            "coverage": self.coverage,
        }


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


def _check_dims(ref: np.ndarray, gen: np.ndarray) -> None:
    if ref.shape[1] != gen.shape[1]:
        raise ValueError(f"dimension mismatch: {ref.shape[1]} vs {gen.shape[1]}")


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


def _radii(x: np.ndarray, k: int, bounds: np.ndarray | None = None):
    """k-th nearest-neighbor distance (self excluded) of every row of ``x``.

    Returns ``(pooled, own)``: the radius over all rows and, when block
    ``bounds`` are given, over the rows of the row's own block (else None).
    The k smallest squared distances are kept unclipped; only the k-th is
    clipped and rooted, which gives the same bits as selecting among the
    distances, since both steps are non-decreasing.
    """
    n = x.shape[0]
    x_sq = _row_norms(x)
    pooled = np.full((n, k), np.inf)
    own = None if bounds is None else np.full((n, k), np.inf)
    for r0, r1, c0, c1 in _tiles(n, n, symmetric=True):
        dists = _squared_distances(x[r0:r1], x[c0:c1], x_sq[r0:r1], x_sq[c0:c1])
        if c0 == r0:
            np.fill_diagonal(dists, np.inf)
        _merge_nearest(pooled, r0, dists)
        if c0 != r0:
            _merge_nearest(pooled, c0, dists.T)
        if own is None:
            continue
        p, p_end, _ = _segments(bounds, r0, r1)
        q, q_end, _ = _segments(bounds, c0, c1)
        for b in range(max(p, q), min(p_end, q_end)):
            a0, a1 = max(bounds[b], r0), min(bounds[b + 1], r1)
            b0, b1 = max(bounds[b], c0), min(bounds[b + 1], c1)
            block = dists[a0 - r0 : a1 - r0, b0 - c0 : b1 - c0]
            _merge_nearest(own, a0, block)
            if c0 != r0:
                _merge_nearest(own, b0, block.T)
    return _distances(pooled[:, k - 1]), None if own is None else _distances(own[:, k - 1])


def knn_radii(x, k: int) -> np.ndarray:
    """Distance from each sample to its k-th nearest neighbor (self excluded)."""
    x = as_embeddings(x)
    _check_knn(k, [x.shape[0]])
    return _radii(x, k)[0]


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
            sets.append(
                PrdcResult(
                    precision=float((cover[p] > 0).mean()),
                    recall=float(recalled[rows].mean()),
                    density=float(cover[p].mean() / k),
                    coverage=float(hit[rows].mean()),
                )
            )
        results.append(sets)
    return results


def prdc_scores(ref, gen, k: int = DEFAULT_K) -> PrdcResult:
    """All four manifold metrics for a generated set against a reference set."""
    ref = as_embeddings(ref)
    gen = as_embeddings(gen)
    _check_dims(ref, gen)
    _check_knn(k, [ref.shape[0], gen.shape[0]])
    ref_radii = _radii(ref, k)[0]
    gen_radii = _radii(gen, k)[0]
    bounds = np.array([0, ref.shape[0]])
    return _ball_scores(ref, gen, gen_radii, k, [(ref_radii, bounds)])[0][0]


@dataclass
class PrdcAggregate:
    all: PrdcResult
    avg: PrdcResult
    per_client: list[PrdcResult]

    def to_json_dict(self) -> dict:
        return {
            "all": self.all.to_json_dict(),
            "avg": self.avg.to_json_dict(),
            "per_client": [r.to_json_dict() for r in self.per_client],
        }


def prdc_aggregate(clients: ClientSet, gen, k: int = DEFAULT_K) -> PrdcAggregate:
    """Pooled-reference scores plus the weighted mean of per-client scores."""
    gen = as_embeddings(gen)
    mats = clients.client_embeddings()
    _check_dims(mats[0], gen)
    counts = [x.shape[0] for x in mats]
    _check_knn(k, [counts[0], gen.shape[0], *counts[1:]])
    pooled, bounds = _stack(mats)
    pooled_radii, client_radii = _radii(pooled, k, bounds)
    gen_radii = knn_radii(gen, k)
    (all_,), per_client = _ball_scores(
        pooled,
        gen,
        gen_radii,
        k,
        [(pooled_radii, np.array([0, pooled.shape[0]])), (client_radii, bounds)],
    )
    w = clients.weights
    avg = PrdcResult(
        precision=float(w @ [r.precision for r in per_client]),
        recall=float(w @ [r.recall for r in per_client]),
        density=float(w @ [r.density for r in per_client]),
        coverage=float(w @ [r.coverage for r in per_client]),
    )
    return PrdcAggregate(all=all_, avg=avg, per_client=per_client)
