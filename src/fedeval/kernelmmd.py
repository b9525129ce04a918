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
in one pass over the block pairs, each in square Gram tiles of side
``TILE``, so memory does not grow with the sample count and there is no
cap on it; the aggregations are then O(K^2) algebra on the sums.

The pass runs on one scheduler (``_schedule``) over one list of blocks
and a list of block pairs, which the k-NN radii and ball tests of
``prdc`` share.  A work unit is one tile of one block pair; each pair is
tiled on its own grid from its blocks' first rows, so a block sum
depends only on its two sample sets: a client's score is bit for bit
``mmd2(client, gen)`` whether or not the cross-client pairs are listed,
and the protocol simulator's kernel_blocks round sends this statistic's
entries.  Units of equal shape go in stacks of at most TILE^2 elements,
one stacked ``matmul`` each; numpy runs one BLAS product per stacked
tile, so a unit has the same bits in a stack as alone.  Many tiny
clients thus pay a few calls, not one per pair (K=50 clients of 20
samples, d=8: 1 275 pairs in 9 calls).  A kernel sum that is not finite
raises ``NumericalError``.

Each worker of a pass writes every tile temporary into one set of
buffers (``_Work``) that the calling thread allocates once per pass, so
no stack allocates a tile-sized array.  A pass runs on two threads
(``_workers``) when all of these hold: it holds at least ``_TWO_WAY_MIN``
= 4 TILE^2 tile elements, so every pass of many tiny calls stays serial;
BLAS is pinned to one thread, that is the first of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
that is set (OpenBLAS's order) says 1; and at least two CPUs are usable
(``os.sched_getaffinity``).  A multi-threaded BLAS already spreads each
product over the cores, where a second caller only contends.  The
calling thread and one pool thread, created on first use, then take the
pass's stacks one at a time from one ``_Feed``, the calling thread from
the front and the pool thread from the back.  Neither waits for the
other to start: when the second CPU is busy elsewhere or the pool thread
wakes late, the calling thread runs more of the stacks, and the pass
ends once the two have met and the pool thread has finished the stack
it holds.  A late pool thread so delays a pass by at most about one
stack; a fixed split into halves waits for the slower half, and on a
shared host ran up to a quarter slower than serial.  The bits do not
change: a stack is the same ``_gram`` call on either thread, each stack
writes its units' sums at their own indices, and the pairs' sums are
added in unit order after the pass.  ``prdc`` runs its k-NN and
ball-test walks the same way.  If a stack fails, the call raises once no
worker is left on the pass, with the error of the earliest stack that
failed, so the error is the serial path's.

The polynomial kernel scales and offsets the ``x @ y.T`` product in
place and takes the power by repeated products, not by a ``pow`` per
element; the products round ``degree - 1`` times, so a score can differ
from ``(s x.y + o) ** degree`` in its last bits (degrees 1 and 2 are
exact).  ``TILE = 256`` was measured, not assumed: at d=64 with one BLAS
thread, a kid + prdc evaluation of six 200-sample clients against 320
generated samples ran fastest at 256 among 128, 256, 384, 512 and 1024.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SampleCountError
from .statkit import ClientSet, _is_real, _JsonFields, _real, as_embeddings

VSTAT_CLAMP = 1e-10
# Side of the square tiles of every kernel and distance pass: no larger
# kernel or distance matrix is ever held, so memory does not grow with N.
TILE = 256
# Largest polynomial kernel degree; each degree above 2 is one more pass
# over every Gram tile.
MAX_DEGREE = 100
# Fewest tile elements a pass holds before it runs on two threads: every
# pass of a round of 12 clients of 40 samples, d=8, against 100 generated
# samples (at most ~183 k) stays serial; every pass of 6 clients of 200
# against 320 (from ~326 k) does not.
_TWO_WAY_MIN = 4 * TILE * TILE
# The variables OpenBLAS reads its thread count from, in its order.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
            if self.scale is not None and not (
                _is_real(self.scale) and _real(self.scale, "kernel spec field 'scale'") > 0
            ):
                raise ValueError(f"kernel scale must be positive, got {self.scale!r}")
            if not _is_real(self.offset):
                raise ValueError(f"kernel offset must be a number, got {self.offset!r}")
            _real(self.offset, "kernel spec field 'offset'")
        if self.kind == "rbf" and self.bandwidth is not None:
            if not (
                _is_real(self.bandwidth)
                and _real(self.bandwidth, "kernel spec field 'bandwidth'") > 0
            ):
                raise ValueError(f"rbf bandwidth must be positive, got {self.bandwidth!r}")
            try:
                square = float(self.bandwidth) ** 2
            except OverflowError:
                square = math.inf
            if not sys.float_info.min <= square < math.inf:
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


def _take(buffer, shape):
    """The leading elements of a flat work buffer as an array of ``shape``;
    None (a fresh array from the ``out=`` it is passed to) without one."""
    return None if buffer is None else buffer[: math.prod(shape)].reshape(shape)


def _row_norms(x: np.ndarray, buffer=None) -> np.ndarray:
    """Squared Euclidean norm of every row (of every block of a stack), the
    squares taken in ``buffer`` when one is given."""
    return np.sum(np.square(x, out=_take(buffer, x.shape)), axis=-1)


def _squared_distances(
    x: np.ndarray, y: np.ndarray, x_sq: np.ndarray, y_sq: np.ndarray, work=None
) -> np.ndarray:
    """Squared Euclidean distances |x|^2 + |y|^2 - 2 x.y from the row norms
    ``x_sq`` and ``y_sq``, not clipped: roundoff can leave them below 0.
    Stacks of blocks are paired block by block.  With a ``_Work`` they are
    its ``result``, the product taken first, in its ``product``."""
    product, result = (None, None) if work is None else (work.product, work.result)
    shape = (*x.shape[:-1], y.shape[-2])
    cross = np.matmul(x, np.swapaxes(y, -1, -2), out=_take(product, shape))
    cross *= 2.0
    sq = np.add(x_sq[..., :, None], y_sq[..., None, :], out=_take(result, shape))
    sq -= cross
    return sq


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
    pair as the matrix product of that pair alone.  With a ``_Work`` every
    temporary, the result included, is one of its buffers."""
    d = x.shape[-1]
    if spec.kind == "polynomial":
        product, result = (None, None) if work is None else (work.product, work.result)
        shape = (*x.shape[:-1], y.shape[-2])
        base = np.matmul(x, np.swapaxes(y, -1, -2), out=_take(product, shape))
        base *= spec.resolved_scale(d)
        base += spec.offset
        if spec.degree == 1:
            return base
        power = np.multiply(base, base, out=_take(result, shape))
        for _ in range(spec.degree - 2):
            power *= base
        return power
    sigma = spec.resolved_bandwidth(d)
    squares = None if work is None else work.product
    sq = _squared_distances(x, y, _row_norms(x, squares), _row_norms(y, squares), work)
    np.clip(sq, 0.0, None, out=sq)
    # -sq / (2 sigma^2) in place: IEEE division rounds symmetrically in sign
    sq /= -(2.0 * sigma**2)
    return np.exp(sq, out=sq)


def _stack_depth(n_rows: int, n_cols: int, dim: int) -> int:
    """How many n_rows x n_cols units of ``dim``-column samples one stacked
    call holds: as many as keep both its result and its stacked inputs
    within TILE^2 elements, and at least one.  The input bound keeps a stack
    of thin tiles along a long block from copying that block."""
    result = TILE * TILE // (n_rows * n_cols)
    inputs = TILE * TILE // ((n_rows + n_cols) * dim)
    return max(1, min(result, inputs))


def _schedule(blocks, pairs):
    """The work units of block pairs, and their stacks.

    ``pairs`` lists ``(p, q)``: row block ``blocks[p]`` against column block
    ``blocks[q]``, a self pair when ``q == p``.  Each pair is tiled on its
    own TILE grid from its blocks' first rows (a self pair on and above its
    diagonal), and each tile is one unit ``(p, q, r0, c0)``, listed pair by
    pair in row-major tile order.  Units of equal shape whose tiles are all
    diagonal tiles of self pairs, or all not, form stacks of ``_stack_depth``
    units.  Returns the units and the stacks, each
    ``(members, n_rows, n_cols, diagonal)`` with ``members`` its unit indices.
    """
    units = []
    groups: dict[tuple, list[int]] = {}
    for p, q in pairs:
        n_rows, n_cols = blocks[p].shape[0], blocks[q].shape[0]
        for r0 in range(0, n_rows, TILE):
            rows = min(TILE, n_rows - r0)
            for c0 in range(r0 if q == p else 0, n_cols, TILE):
                key = (rows, min(TILE, n_cols - c0), q == p and c0 == r0)
                groups.setdefault(key, []).append(len(units))
                units.append((p, q, r0, c0))
    dim = blocks[0].shape[-1]
    stacks = []
    for (n_rows, n_cols, diagonal), members in groups.items():
        depth = _stack_depth(n_rows, n_cols, dim)
        for s in range(0, len(members), depth):
            stacks.append((members[s : s + depth], n_rows, n_cols, diagonal))
    return units, stacks


def _gather(blocks, units, side: int, length: int, buffer=None) -> np.ndarray:
    """The ``length`` rows each unit of a stack reads from its row (``side``
    0) or column (``side`` 1) block, stacked (into ``buffer`` when one is
    given); one unit's rows are a view."""
    rows = [blocks[u[side]][u[side + 2] : u[side + 2] + length] for u in units]
    if len(rows) == 1:
        return rows[0][None]
    flat = _take(buffer, (len(rows) * length, *rows[0].shape[1:]))
    return np.concatenate(rows, out=flat).reshape(len(rows), *rows[0].shape)


def _operands(blocks, units, stack, work=None):
    """A stack's units and its stacked row and column operands, gathered
    into the ``result`` buffer of a ``_Work`` when one is given.  A stack of
    diagonal tiles has one array on both sides, as in a self block's own
    product, so BLAS takes the same symmetric (syrk) product."""
    members, n_rows, n_cols, diagonal = stack
    chosen = [units[i] for i in members]
    buffer = None if work is None else work.result
    x = _gather(blocks, chosen, 0, n_rows, buffer)
    if diagonal:
        return chosen, x, x
    rest = None if buffer is None else buffer[x.size :]
    return chosen, x, _gather(blocks, chosen, 1, n_cols, rest)


def _elements(stack) -> int:
    """Tile elements of a stack: its units times their rows and columns."""
    members, n_rows, n_cols, _ = stack
    return len(members) * n_rows * n_cols


class _Work:
    """One worker's tile temporaries for one pass, allocated by the calling
    thread before the pass and reused by every stack through ``out=``.
    ``product`` takes a stack's matrix product (and before it, with
    ``squares``, its operands' squares); ``result`` takes its stacked
    operands (a one-unit stack reads views) and, once the product is
    taken, its result; with ``mask``, a bool buffer of its largest stack."""

    def __init__(self, stacks, dim: int, mask: bool = False, squares: bool = False):
        size = max(_elements(s) for s in stacks)
        operands = max(
            (len(m) * (n_rows + n_cols) * dim for m, n_rows, n_cols, _ in stacks if len(m) > 1),
            default=0,
        )
        squared = max(len(m) * max(n_rows, n_cols) * dim for m, n_rows, n_cols, _ in stacks)
        self.product = np.empty(max(size, squared if squares else 0))
        self.result = np.empty(max(size, operands))
        self.mask = np.empty(size, dtype=bool) if mask else None


def _blas_pinned() -> bool:
    """Whether BLAS runs on one thread: the first of OpenBLAS's thread
    variables that is set says 1."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name)
        if value is not None:
            return value.strip() == "1"
    return False


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(stacks) -> int:
    """How many threads run a pass: 2 when it holds at least
    ``_TWO_WAY_MIN`` tile elements in two or more stacks, BLAS is pinned to
    one thread and at least two CPUs are usable, else 1.  A multi-threaded
    BLAS already spreads each product over the cores, and a second caller
    would only contend."""
    if len(stacks) < 2 or sum(map(_elements, stacks)) < _TWO_WAY_MIN:
        return 1
    return 2 if _blas_pinned() and _usable_cpus() >= 2 else 1


class _Feed:
    """A pass's stacks, handed out one at a time: the calling thread takes
    them from the front, the pool thread from the back, until the two
    meet.  A worker that runs late (its CPU busy, or its thread not yet
    woken) so takes fewer stacks instead of holding up the pass, and each
    worker's stacks stay one contiguous run.  ``stop_at(i)`` hands out no
    stack from ``i`` on (``close`` none at all); a pool thread that had not
    ``join``-ed before ``close`` never touches the pass."""

    def __init__(self, stacks):
        self._stacks = stacks
        self._front, self._back, self._limit = 0, len(stacks), len(stacks)
        self._lock = threading.Lock()
        self._joined = False

    def join(self) -> bool:
        """Whether the pool thread may work on the pass (it is not closed)."""
        with self._lock:
            self._joined = self._limit > 0
            return self._joined

    def stop_at(self, index: int) -> None:
        """Hand out no stack from ``index`` on."""
        with self._lock:
            self._limit = min(self._limit, max(index, 0))

    def close(self) -> bool:
        """Hand out no more stacks; whether the pool thread had joined."""
        with self._lock:
            self._limit = 0
            return self._joined

    def take(self, taken: list, back: bool = False):
        """The stacks a worker takes from the front (or the ``back``), the
        index of each in ``taken[0]``."""
        while True:
            with self._lock:
                end = min(self._back, self._limit)
                if self._front >= end:
                    return
                if back:
                    index = self._back = end - 1
                else:
                    index = self._front
                    self._front += 1
            taken[0] = index
            yield self._stacks[index]


# The pool thread's process id and the queue it takes calls from, made on
# first use (again after a fork, which leaves the parent's thread behind).
_POOL = None
_POOL_LOCK = threading.Lock()


def _serve(calls) -> None:
    """The pool thread: run each ``(call, done)`` it takes and put what the
    call returns on ``done``; stop at a None."""
    while (item := calls.get()) is not None:
        call, done = item
        done.put(call())
        # let go of the call's buffers before waiting for the next one
        del item, call, done


def _pool():
    """The queue of the one pool thread of this process."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            import queue

            calls = queue.SimpleQueue()
            worker = threading.Thread(target=_serve, args=(calls,), name="fedeval-tiles", daemon=True)
            worker.start()
            _POOL = (os.getpid(), calls)
        return _POOL[1]


def _work_on(step, feed: _Feed, back: bool, *args):
    """Run ``step(stacks, *args)`` on the stacks this worker takes from
    ``feed`` (from its back with ``back``).  Returns None, or on an error
    stops the feed at the stack that failed and returns ``(index, error)``,
    ``index`` that of the last stack taken (-1 for none)."""
    taken = [-1]
    try:
        # numpy keeps its error state per context (numpy 2) or per thread
        # (numpy 1.24), so the pool thread does not see the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            step(feed.take(taken, back), *args)
    except BaseException as exc:  # raised by the caller once the pass is over
        feed.stop_at(taken[0])
        return taken[0], exc
    return None


def _pool_side(step, feed: _Feed, *args):
    """The pool thread's share of a pass, none if the pass is over first."""
    return _work_on(step, feed, True, *args) if feed.join() else None


def _run_pass(step, stacks, workers: int, dim: int, *per_worker, mask=False, squares=False):
    """Run ``step(stacks, work, *args)`` over a pass's stacks on ``workers``
    (``_workers``) threads.  Each worker passes an iterator of the stacks it
    takes from one ``_Feed``, a ``_Work`` for the pass (``dim``, ``mask`` and
    ``squares`` as there) allocated here on the calling thread, and its
    entries of ``per_worker`` (one list per argument, one entry per worker).
    The calling thread is the first worker, the pool thread the second.
    Returns once no worker is left on the pass.  If a step raised, raises
    the error of the earliest stack that failed, the serial walk's error: a
    failure at stack i stops the feed there, and every stack before i is
    still run.
    """
    args = [
        (_Work(stacks, dim, mask, squares), *(arg[i] for arg in per_worker))
        for i in range(workers)
    ]
    if workers == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            return step(iter(stacks), *args[0])
    import queue  # with the pool thread, not with the package

    feed, done, failed = _Feed(stacks), queue.SimpleQueue(), []
    _pool().put((functools.partial(_pool_side, step, feed, *args[1]), done))
    try:
        failed.append(_work_on(step, feed, False, *args[0]))
    finally:
        if feed.close():
            failed.append(done.get())
    first = min(filter(None, failed), default=None, key=lambda f: f[0])
    if first is not None:
        raise first[1]


def _tiled_sums(spec, blocks, pairs):
    """Kernel sums over pairs ``(p, q)`` of blocks of validated samples (a
    self pair when ``q == p``), set at ``[p, q]`` and ``[q, p]`` of a matrix
    that is NaN elsewhere, and the diagonal sum of each listed self pair.

    The pairs' tiles are ``_schedule``'s units: a stack is one ``_gram``
    call, a unit's sum the flat sum of its slice and a diagonal unit's trace
    the diagonal of its slice.  A pair's sum adds its units' sums in
    row-major tile order, an off-diagonal tile of a self pair twice, so it
    does not depend on the other blocks, on the stacking or on which
    worker (``_run_pass``) took its units.  A sum that is not finite raises
    ``NumericalError``.
    """
    units, stacks = _schedule(blocks, pairs)
    parts = np.empty(len(units))
    diagonals = np.zeros(len(units))

    def run(taken, work):
        for stack in taken:
            members = stack[0]
            tiles = _gram(spec, *_operands(blocks, units, stack, work)[1:], work)
            parts[members] = tiles.reshape(len(members), -1).sum(axis=1)
            if stack[3]:
                diagonals[members] = np.diagonal(tiles, axis1=1, axis2=2).sum(axis=1)

    _run_pass(run, stacks, _workers(stacks), blocks[0].shape[-1], squares=spec.kind == "rbf")
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
