"""Kernel squared-MMD scores, their avg/all aggregations, and the
generator-independent gap between the two.

For any kernel, the squared MMD between two sample sets is the squared
RKHS distance between their mean feature embeddings.  Because that
space is a Hilbert space, the weighted mean of per-client scores equals
the score against the pooled mixture plus a constant that does not
depend on the generator:

    avg(G) = all(G) + sum_i w_i MMD^2(mixture, client_i)

The identity is exact for the plug-in (``vstat``) estimator, which is
therefore the default; the unbiased ``ustat`` estimator is provided for
parity with standard tooling but satisfies the identity only
approximately.

Every score is a function of one sufficient statistic (``KernelStats``,
five fields): the kernel sums between the blocks of K weighted clients
and the generator set, which is block K, and each block's diagonal sum,
which ``ustat`` removes.  It is computed exactly (no block subsampling)
in one pass of the tile engine (``tiles``) over the block pairs, so
memory does not grow with the sample count and there is no cap on it;
the aggregations are then O(K^2) algebra on the sums.  A block sum
depends only on its two sample sets: a client's score is bit for bit
``mmd2(client, gen)`` whether or not the cross-client pairs are listed,
and the protocol simulator's kernel_blocks round sends this statistic's
entries.  A kernel sum that is not finite raises ``NumericalError``.

The polynomial kernel scales and offsets the ``x @ y.T`` product in
place and takes the power by repeated products, not by a ``pow`` per
element; the products round ``degree - 1`` times, so a score can differ
from ``(s x.y + o) ** degree`` in its last bits (degrees 1 and 2 are
exact).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tiles
from .errors import NumericalError, SampleCountError
from .statkit import ClientSet, _is_real, _JsonFields, _read_json, _real, as_embeddings

VSTAT_CLAMP = 1e-10
# Largest polynomial kernel degree; each degree above 2 is one more pass
# over every Gram tile.
MAX_DEGREE = 100


@dataclass
class KernelSpec(_JsonFields):
    """Kernel configuration.

    ``polynomial``: ``(scale * <x, y> + offset) ** degree`` with
    ``scale`` defaulting to ``1/d`` at evaluation time.
    ``rbf``: ``exp(-||x - y||^2 / (2 sigma^2))`` with ``sigma``
    defaulting to ``sqrt(d)``; a given ``sigma`` must have a square in
    float range (a positive normal float), as the Gram matrix divides by it.
    """

    kind: str = "polynomial"
    degree: int = 3
    scale: float | None = None
    offset: float = 1.0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial":
            if not (_is_real(self.degree) and self.degree >= 1 and self.degree % 1 == 0):
                raise ValueError(f"polynomial degree must be an integer >= 1, got {self.degree!r}")
            if self.degree > MAX_DEGREE:
                raise ValueError(f"polynomial degree must be at most {MAX_DEGREE}")
            self.degree = int(self.degree)
            if self.scale is not None:
                message = f"kernel scale must be positive, got {self.scale!r}"
                _real(self.scale, "kernel spec field 'scale'", message, lambda x: x > 0)
            message = f"kernel offset must be a number, got {self.offset!r}"
            _real(self.offset, "kernel spec field 'offset'", message)
        if self.kind == "rbf" and self.bandwidth is not None:
            message = f"rbf bandwidth must be positive, got {self.bandwidth!r}"
            where = "kernel spec field 'bandwidth'"
            bandwidth = _real(self.bandwidth, where, message, lambda x: x > 0)
            if not sys.float_info.min <= bandwidth * bandwidth < math.inf:
                raise ValueError(
                    f"kernel spec field 'bandwidth' has a square outside float range, "
                    f"got {self.bandwidth!r}"
                )

    def resolved_scale(self, dim: int) -> float:
        return self.scale if self.scale is not None else 1.0 / dim

    def resolved_bandwidth(self, dim: int) -> float:
        return self.bandwidth if self.bandwidth is not None else float(np.sqrt(dim))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KernelSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {obj!r}")
        kind = obj.get("kind", cls.kind)
        # Each kind reads only its own fields: an rbf spec ignores the
        # polynomial ones, and a polynomial spec the bandwidth.
        keys = ("degree", "scale", "offset") if kind == "polynomial" else ("bandwidth",)
        return cls(kind=kind, **{key: obj[key] for key in keys if key in obj})


def load_kernel_spec(path) -> KernelSpec:
    return KernelSpec.from_json_dict(_read_json(path))


def gram(spec: KernelSpec, x, y) -> np.ndarray:
    """Full kernel Gram matrix between the rows of ``x`` and ``y``."""
    x = as_embeddings(x)
    y = as_embeddings(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return _gram(spec, x, y)


def _gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray, work=None) -> np.ndarray:
    """Gram matrix of validated samples, or of each block pair of two equal-
    length stacks of blocks: numpy's stacked ``matmul`` evaluates each block
    pair as the matrix product of that pair alone.  With a ``tiles._Work``
    every temporary, the result included, is one of its buffers."""
    d = x.shape[-1]
    if spec.kind == "polynomial":
        product, result = (None, None) if work is None else (work.product, work.result)
        shape = (*x.shape[:-1], y.shape[-2])
        base = np.matmul(x, np.swapaxes(y, -1, -2), out=tiles._take(product, shape))
        base *= spec.resolved_scale(d)
        base += spec.offset
        if spec.degree == 1:
            return base
        power = np.multiply(base, base, out=tiles._take(result, shape))
        for _ in range(spec.degree - 2):
            power *= base
        return power
    sigma = spec.resolved_bandwidth(d)
    sq = tiles._squared_distances(x, y, tiles._row_norms(x), tiles._row_norms(y), work)
    np.clip(sq, 0.0, None, out=sq)
    # -sq / (2 sigma^2) in place: IEEE division rounds symmetrically in sign
    sq /= -(2.0 * sigma**2)
    return np.exp(sq, out=sq)


def _tiled_sums(spec, blocks, pairs):
    """Kernel sums over pairs ``(p, q)`` of blocks of validated samples (a
    self pair when ``q == p``), set at ``[p, q]`` and ``[q, p]`` of a matrix
    that is NaN elsewhere, and the diagonal sum of each listed self pair.

    The pairs' tiles are ``tiles._schedule``'s units: a stack is one
    ``_gram`` call, a unit's sum the flat sum of its slice and a diagonal
    unit's trace the diagonal of its slice.  A pair's sum adds its units'
    sums in row-major tile order, an off-diagonal tile of a self pair twice,
    so it does not depend on the other blocks, on the stacking or on which
    worker (``tiles._run_pass``) took its units.  A sum that is not finite
    raises ``NumericalError``.
    """
    units, stacks = tiles._schedule(blocks, pairs)
    parts = np.empty(len(units))
    diagonals = np.zeros(len(units))

    def run(taken, work, _):
        for stack in taken:
            members = stack[0]
            grams = _gram(spec, *tiles._operands(blocks, units, stack, work)[1:], work)
            parts[members] = grams.reshape(len(members), -1).sum(axis=1)
            if stack[3]:
                diagonals[members] = np.diagonal(grams, axis1=1, axis2=2).sum(axis=1)

    tiles._run_pass(run, stacks, blocks[0].shape[-1])
    if not (np.isfinite(parts).all() and np.isfinite(diagonals).all()):
        raise NumericalError("kernel sum is not finite")
    sums = np.full((len(blocks), len(blocks)), np.nan)
    traces = np.zeros(len(blocks))
    totals: dict[tuple, float] = {}
    for (p, q, r0, c0), part, trace in zip(units, parts.tolist(), diagonals.tolist()):
        total = totals.get((p, q), 0.0) + part
        if q == p:
            if c0 != r0:
                total += part
            else:
                traces[p] += trace
        totals[p, q] = total
    for (p, q), total in totals.items():
        sums[p, q] = sums[q, p] = total
    return sums, traces


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Kernel value for a single pair of vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    return float(gram(spec, x[None, :], y[None, :])[0, 0])


@dataclass
class MmdResult(_JsonFields):
    """Squared MMD with its three kernel-mean blocks."""

    value: float
    within_ref: float
    within_gen: float
    cross: float
    estimator: str


def _check_estimator(estimator: str) -> None:
    if estimator not in ("vstat", "ustat"):
        raise ValueError(f"unknown estimator {estimator!r}")


def _within_mean(total: float, trace: float, n: int, estimator: str, label: str) -> float:
    if estimator == "vstat":
        return float(total / (n * n))
    if n < 2:
        raise SampleCountError(f"ustat requires >= 2 samples in {label}")
    return float((total - trace) / (n * (n - 1)))


def _clamp_vstat(value: float) -> float:
    if value < 0.0:
        if value < -VSTAT_CLAMP:
            raise NumericalError(f"vstat MMD {value!r} below clamp threshold")
        value = 0.0
    return value


def _mmd_result(within_ref, within_gen, cross, estimator) -> MmdResult:
    value = within_ref + within_gen - 2.0 * cross
    if estimator == "vstat":
        value = _clamp_vstat(value)
    return MmdResult(
        value=value,
        within_ref=within_ref,
        within_gen=within_gen,
        cross=cross,
        estimator=estimator,
    )


@dataclass
class KidAvgResult:
    """Weighted mean of per-client squared-MMD scores."""

    value: float
    per_client: list[MmdResult]


@dataclass
class KernelStats:
    """Kernel block sums of K weighted clients and one generator set, block K.

    Every kernel score is O(K^2) algebra on these numbers.  ``sums[i, j]``
    is the kernel sum between blocks ``i`` and ``j`` of ``counts[i]`` and
    ``counts[j]`` samples; built without cross-client blocks, only the
    diagonal and block K's row and column are set (the rest is NaN).
    ``traces[i]`` is the diagonal of block ``i``'s self block, which the
    ``ustat`` estimator leaves out.  Without a generator there is no block K.
    """

    weights: np.ndarray
    natural_weights: bool
    counts: np.ndarray
    sums: np.ndarray
    traces: np.ndarray

    def client_mmd2(self, i: int, estimator: str = "vstat") -> MmdResult:
        """Squared MMD between client ``i`` and the generator set."""
        _check_estimator(estimator)
        k = len(self.weights)
        n, m = self.counts[i], self.counts[k]
        return _mmd_result(
            _within_mean(self.sums[i, i], self.traces[i], n, estimator, "ref"),
            _within_mean(self.sums[k, k], self.traces[k], m, estimator, "gen"),
            float(self.sums[i, k] / (n * m)),
            estimator,
        )

    def kid_avg(self, estimator: str = "vstat") -> KidAvgResult:
        per_client = [self.client_mmd2(i, estimator) for i in range(len(self.weights))]
        values = np.array([r.value for r in per_client])
        return KidAvgResult(value=float(self.weights @ values), per_client=per_client)

    def _cross_sums(self) -> np.ndarray:
        sums = np.ascontiguousarray(self.sums[: len(self.weights), : len(self.weights)])
        if np.isnan(sums).any():
            raise ValueError("kernel statistic was built without cross-client blocks")
        return sums

    def kid_all(self, estimator: str = "vstat") -> float:
        k = len(self.weights)
        counts, m = self.counts[:k], self.counts[k]
        # contiguous, so that a reduction over it adds in the same order
        gen_sums = np.ascontiguousarray(self.sums[:k, k])
        if estimator == "ustat":
            if not self.natural_weights:
                raise ValueError("ustat pooled score requires weights n_i / n")
            n = int(counts.sum())
            return _mmd_result(
                _within_mean(self._cross_sums().sum(), self.traces[:k].sum(), n, estimator, "ref"),
                _within_mean(self.sums[k, k], self.traces[k], m, estimator, "gen"),
                float(gen_sums.sum() / (n * m)),
                estimator,
            ).value
        _check_estimator(estimator)
        w = self.weights
        b = self._cross_sums() / np.outer(counts, counts)
        b_gen = gen_sums / (counts * m)
        gen_gen = self.sums[k, k] / m**2
        return float(_clamp_vstat(float(w @ b @ w) + gen_gen - 2.0 * float(w @ b_gen)))

    def gap(self) -> float:
        """Weighted mean squared MMD between the client mixture and each client."""
        w = self.weights
        counts = self.counts[: len(w)]
        b = self._cross_sums() / np.outer(counts, counts)
        mix_mix = float(w @ b @ w)
        gap = 0.0
        for i, w_i in enumerate(w):
            gap += w_i * (mix_mix + b[i, i] - 2.0 * float(w @ b[:, i]))
        return float(gap)


def _kernel_stats(spec, mats, gen, cross, weights, natural_weights) -> KernelStats:
    """The statistic of validated client matrices and generator samples, in
    one pass; ``cross=False`` leaves the cross-client pairs out."""
    if gen is not None and gen.shape[1] != mats[0].shape[1]:
        raise ValueError(f"dimension mismatch: {mats[0].shape[1]} vs {gen.shape[1]}")
    blocks = mats if gen is None else [*mats, gen]
    n, k = len(blocks), len(mats)
    pairs = [(p, q) for p in range(n) for q in range(p, n) if cross or q in (p, k)]
    sums, traces = _tiled_sums(spec, blocks, pairs)
    return KernelStats(
        weights=weights,
        natural_weights=natural_weights,
        counts=np.array([b.shape[0] for b in blocks]),
        sums=sums,
        traces=traces,
    )


def kernel_stats(
    clients: ClientSet, gen=None, spec: KernelSpec | None = None, cross: bool = True
) -> KernelStats:
    """Block-sum statistic of ``clients`` (and ``gen``) in one tiled pass
    over the block pairs.

    ``cross=False`` skips the cross-client blocks, which only the pooled
    score and the gap need; the per-client scores never do, and they are
    the same bits either way.
    """
    gen = None if gen is None else as_embeddings(gen)
    return _kernel_stats(
        spec or KernelSpec(),
        clients.client_embeddings(),
        gen,
        cross,
        clients.weights,
        clients.has_natural_weights(),
    )


def mmd2(spec: KernelSpec, ref, gen, estimator: str = "vstat") -> MmdResult:
    """Squared MMD between two sample sets.

    ``vstat`` is the plug-in estimator (all pairs, diagonal included);
    ``ustat`` excludes the diagonal in the within blocks and is the
    standard unbiased estimator.
    """
    _check_estimator(estimator)
    ref = as_embeddings(ref)
    gen = as_embeddings(gen)
    stats = _kernel_stats(spec, [ref], gen, False, np.ones(1), True)
    return stats.client_mmd2(0, estimator)


def kid_avg(
    clients: ClientSet, gen, spec: KernelSpec | None = None, estimator: str = "vstat"
) -> KidAvgResult:
    """Weighted mean of per-client scores against ``gen`` (clients in id order)."""
    _check_estimator(estimator)
    return kernel_stats(clients, gen, spec, cross=False).kid_avg(estimator)


def kid_all(
    clients: ClientSet, gen, spec: KernelSpec | None = None, estimator: str = "vstat"
) -> float:
    """Squared MMD between the weighted client mixture and ``gen``.

    For ``vstat`` the score is computed in the weighted mean-embedding
    form, which reduces to the plug-in MMD of the concatenated samples
    when the weights are the sample-count fractions.  ``ustat`` is only
    defined for sample-count weights and is the unbiased MMD of the
    concatenated samples.
    """
    _check_estimator(estimator)
    return kernel_stats(clients, gen, spec).kid_all(estimator)


def kid_constant_gap(clients: ClientSet, spec: KernelSpec | None = None) -> float:
    """Weighted mean squared MMD between the client mixture and each client.

    This is the generator-independent offset between the avg and all
    aggregations: for every generator, ``avg - all`` equals this value
    under the plug-in estimator.
    """
    return kernel_stats(clients, None, spec).gap()
