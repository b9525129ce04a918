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

Every score is a function of one sufficient statistic (``KernelStats``):
the K x K matrix of client block sums, the K client-generator sums and
the generator-generator sum, plus the diagonal sums ``ustat`` removes.
It is computed exactly (no block subsampling) in one pass over the
block pairs, each in square Gram tiles of side ``TILE``, so memory does
not grow with the sample count and there is no cap on it; the
aggregations are then O(K^2) algebra on the sums.  Each block pair is
tiled on its own grid from its blocks' first rows, so a block sum
depends only on its two sample sets: a client's score is bit for bit
``mmd2(client, gen)`` whether or not the cross-client blocks are built,
and the protocol simulator's kernel_blocks round sends this statistic's
entries.  The price is one ``gram`` call per block pair, which many
tiny clients pay in call overhead.

The polynomial kernel scales and offsets the ``x @ y.T`` product in
place and takes the power by repeated products, not by a ``pow`` per
element; the products round ``degree - 1`` times, so a score can differ
from ``(s x.y + o) ** degree`` in its last bits (degrees 1 and 2 are
exact).  ``TILE = 256`` was measured, not assumed: at d=64 with one BLAS
thread, a kid + prdc evaluation of six 200-sample clients against 320
generated samples ran fastest at 256 among 128, 256, 384, 512 and 1024.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SampleCountError
from .statkit import ClientSet, _JsonFields, as_embeddings

VSTAT_CLAMP = 1e-10
# Side of the square tiles of every kernel and distance pass: no larger
# kernel or distance matrix is ever held, so memory does not grow with N.
TILE = 256


def _is_real(value) -> bool:
    """A real number, and not a bool (which Python counts as an integer)."""
    real = (int, float, np.integer, np.floating)
    return isinstance(value, real) and not isinstance(value, bool)


@dataclass
class KernelSpec:
    """Kernel configuration.

    ``polynomial``: ``(scale * <x, y> + offset) ** degree`` with
    ``scale`` defaulting to ``1/d`` at evaluation time.
    ``rbf``: ``exp(-||x - y||^2 / (2 sigma^2))`` with ``sigma``
    defaulting to ``sqrt(d)``.
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
            self.degree = int(self.degree)
            if self.scale is not None and not (_is_real(self.scale) and self.scale > 0):
                raise ValueError(f"kernel scale must be positive, got {self.scale!r}")
            if not _is_real(self.offset):
                raise ValueError(f"kernel offset must be a number, got {self.offset!r}")
        if self.kind == "rbf" and self.bandwidth is not None:
            if not (_is_real(self.bandwidth) and self.bandwidth > 0):
                raise ValueError(f"rbf bandwidth must be positive, got {self.bandwidth!r}")

    def resolved_scale(self, dim: int) -> float:
        return self.scale if self.scale is not None else 1.0 / dim

    def resolved_bandwidth(self, dim: int) -> float:
        return self.bandwidth if self.bandwidth is not None else float(np.sqrt(dim))

    def to_json_dict(self) -> dict:
        if self.kind == "polynomial":
            return {
                "kind": "polynomial",
                "degree": self.degree,
                "scale": self.scale,
                "offset": self.offset,
            }
        return {"kind": "rbf", "bandwidth": self.bandwidth}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KernelSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {obj!r}")
        kind = obj.get("kind", "polynomial")
        if kind == "polynomial":
            return cls(
                kind="polynomial",
                degree=obj.get("degree", 3),
                scale=obj.get("scale"),
                offset=obj.get("offset", 1.0),
            )
        return cls(kind=kind, bandwidth=obj.get("bandwidth"))


def load_kernel_spec(path) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return KernelSpec.from_json_dict(json.load(fh))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return np.sum(x**2, axis=1)


def _squared_distances(
    x: np.ndarray, y: np.ndarray, x_sq: np.ndarray, y_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances |x|^2 + |y|^2 - 2 x.y from the row norms
    ``x_sq`` and ``y_sq``, not clipped: roundoff can leave them below 0."""
    sq = x_sq[:, None] + y_sq[None, :]
    cross = x @ y.T
    cross *= 2.0
    sq -= cross
    return sq


def gram(spec: KernelSpec, x, y) -> np.ndarray:
    """Full kernel Gram matrix between the rows of ``x`` and ``y``."""
    x = as_embeddings(x)
    y = as_embeddings(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    d = x.shape[1]
    if spec.kind == "polynomial":
        base = x @ y.T
        base *= spec.resolved_scale(d)
        base += spec.offset
        if spec.degree == 1:
            return base
        power = base * base
        for _ in range(spec.degree - 2):
            power *= base
        return power
    sigma = spec.resolved_bandwidth(d)
    sq = _squared_distances(x, y, _row_norms(x), _row_norms(y))
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * sigma**2))


def _tiles(n_rows: int, n_cols: int, symmetric: bool):
    """``(r0, r1, c0, c1)`` of the TILE x TILE tiles covering an n_rows x n_cols
    matrix, row tile by row tile; ``symmetric`` keeps those on or above the
    diagonal."""
    for r0 in range(0, n_rows, TILE):
        for c0 in range(r0 if symmetric else 0, n_cols, TILE):
            yield r0, min(r0 + TILE, n_rows), c0, min(c0 + TILE, n_cols)


def _tiled_sums(spec, xs, ys=None, cross=True):
    """Kernel sums over (row block, column block) pairs of validated samples,
    plus the diagonal sums of each row block when the blocks are paired with
    themselves (``ys`` None).

    Each pair is tiled on its own TILE grid from the blocks' first rows and
    its tile sums are added in row-major tile order, so a block pair's sum
    does not depend on the other blocks; a self block evaluates the tiles on
    or above its diagonal and adds each off-diagonal tile's sum twice.
    ``cross=False`` visits only the self pairs and leaves the other sums NaN.
    """
    symmetric = ys is None
    cols = xs if symmetric else ys
    sums = np.full((len(xs), len(cols)), np.nan)
    traces = np.zeros(len(xs)) if symmetric else None
    for p, x in enumerate(xs):
        if not symmetric:
            qs = range(len(cols))
        else:
            qs = range(p, len(cols)) if cross else (p,)
        for q in qs:
            self_block = symmetric and q == p
            total = 0.0
            for r0, r1, c0, c1 in _tiles(x.shape[0], cols[q].shape[0], self_block):
                tile = gram(spec, x[r0:r1], cols[q][c0:c1])
                part = tile.sum()
                total += part
                if not self_block:
                    continue
                if c0 != r0:
                    total += part
                else:
                    traces[p] += np.diagonal(tile).sum()
            sums[p, q] = total
            if symmetric:
                sums[q, p] = total
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
    """Kernel block sums of K weighted clients and one generator set.

    Every kernel score is O(K^2) algebra on these numbers.  ``sums[i, j]``
    is the kernel sum between clients ``i`` and ``j``; when the statistic
    is built without cross-client blocks only the diagonal is set (the
    rest is NaN).  ``traces[i]`` is the diagonal of client ``i``'s self
    block, which the ``ustat`` estimator leaves out.  The ``gen_*`` fields
    are unset when no generator set was given.
    """

    weights: np.ndarray
    natural_weights: bool
    counts: np.ndarray
    sums: np.ndarray
    traces: np.ndarray
    gen_count: int = 0
    gen_sums: np.ndarray | None = None
    gen_sum: float = 0.0
    gen_trace: float = 0.0

    def client_mmd2(self, i: int, estimator: str = "vstat") -> MmdResult:
        """Squared MMD between client ``i`` and the generator set."""
        _check_estimator(estimator)
        n, m = self.counts[i], self.gen_count
        return _mmd_result(
            _within_mean(self.sums[i, i], self.traces[i], n, estimator, "ref"),
            _within_mean(self.gen_sum, self.gen_trace, m, estimator, "gen"),
            float(self.gen_sums[i] / (n * m)),
            estimator,
        )

    def kid_avg(self, estimator: str = "vstat") -> KidAvgResult:
        per_client = [self.client_mmd2(i, estimator) for i in range(len(self.counts))]
        values = np.array([r.value for r in per_client])
        return KidAvgResult(value=float(self.weights @ values), per_client=per_client)

    def _cross_sums(self) -> np.ndarray:
        if np.isnan(self.sums).any():
            raise ValueError("kernel statistic was built without cross-client blocks")
        return self.sums

    def kid_all(self, estimator: str = "vstat") -> float:
        if estimator == "ustat":
            if not self.natural_weights:
                raise ValueError("ustat pooled score requires weights n_i / n")
            n, m = int(self.counts.sum()), self.gen_count
            return _mmd_result(
                _within_mean(self._cross_sums().sum(), self.traces.sum(), n, estimator, "ref"),
                _within_mean(self.gen_sum, self.gen_trace, m, estimator, "gen"),
                float(self.gen_sums.sum() / (n * m)),
                estimator,
            ).value
        _check_estimator(estimator)
        w = self.weights
        b = self._cross_sums() / np.outer(self.counts, self.counts)
        b_gen = self.gen_sums / (self.counts * self.gen_count)
        gen_gen = self.gen_sum / self.gen_count**2
        return float(_clamp_vstat(float(w @ b @ w) + gen_gen - 2.0 * float(w @ b_gen)))

    def gap(self) -> float:
        """Weighted mean squared MMD between the client mixture and each client."""
        w = self.weights
        b = self._cross_sums() / np.outer(self.counts, self.counts)
        mix_mix = float(w @ b @ w)
        gap = 0.0
        for i, w_i in enumerate(w):
            gap += w_i * (mix_mix + b[i, i] - 2.0 * float(w @ b[:, i]))
        return float(gap)


def _kernel_stats(spec, mats, gen, cross, weights, natural_weights) -> KernelStats:
    """The statistic of validated client matrices and generator samples."""
    sums, traces = _tiled_sums(spec, mats, cross=cross)
    stats = KernelStats(
        weights=weights,
        natural_weights=natural_weights,
        counts=np.array([m.shape[0] for m in mats]),
        sums=sums,
        traces=traces,
    )
    if gen is not None:
        stats.gen_count = gen.shape[0]
        gen_sum, gen_trace = _tiled_sums(spec, [gen])
        stats.gen_sum, stats.gen_trace = gen_sum[0, 0], gen_trace[0]
        stats.gen_sums = _tiled_sums(spec, mats, [gen])[0][:, 0]
    return stats


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
