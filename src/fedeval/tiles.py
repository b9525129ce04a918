"""The tile engine: every kernel and k-NN pass over pairs of sample sets.

``kernelmmd``'s kernel sums and ``prdc``'s k-NN radii and ball tests are
passes over a list of blocks (sample sets) and a list of block pairs.
``_schedule`` tiles each pair on its own grid of square tiles of side
``TILE`` from its blocks' first rows (a self pair on and above its
diagonal), so no larger kernel or distance matrix is ever held, memory
does not grow with the sample count, and a pair's results depend only on
its two sample sets: a client's kernel sum is bit for bit
``mmd2(client, gen)``'s whether or not the cross-client pairs are
listed.  A work unit is one tile of one pair.  Units of equal shape go
in stacks of at most TILE^2 elements, one stacked ``matmul`` each; numpy
runs one BLAS product per stacked tile, so a unit has the same bits in a
stack as alone.  Many tiny clients thus pay a few calls, not one per
pair (K=50 clients of 20 samples, d=8: 1 275 pairs in 9 calls).

``_run_pass`` runs a step over a pass's stacks.  Each worker writes
every tile temporary into one set of buffers (``_Work``), and keeps its
results in one state that ``state(worker)`` makes; the calling thread
allocates both for every worker before the pass, so no stack allocates
a tile-sized array and the pool thread's state lives in the calling
thread's memory.  Each worker takes the stacks one at a time from one
``_Feed``, the calling thread from the front.  A pass has one worker,
the calling thread, unless all of these hold (``_workers``): it holds at
least ``_TWO_WAY_MIN`` = 4 TILE^2 tile elements, so every pass of many
tiny calls stays on one thread; BLAS is pinned to one thread, that is
the first of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` that is set (OpenBLAS's order) says 1; and at least
two CPUs are usable (``os.sched_getaffinity``).  A multi-threaded BLAS
already spreads each product over the cores, where a second caller only
contends.  Then one pool thread, created on first use, also takes
stacks, from the back of the feed.  Neither waits for the other to
start: when the second CPU is busy elsewhere or the pool thread wakes
late, the calling thread runs more of the stacks, and the pass ends once
the two have met and the pool thread, if it took a stack, has finished
its step.  A late pool thread so delays a pass by at most about one
stack; a fixed split into halves waits for the slower half, and on a
shared host ran up to a quarter slower than serial.  The bits do not
change as long as each step's results do not depend on which worker
took which stacks: the kernel pass writes each unit's sum at its own
index, and the k-NN and ball-test walks merge the pool thread's state
into the caller's by order-free k-smallest merges, integer adds and ORs.

A worker whose step raises closes the feed, so neither worker takes
another stack; the call raises once no worker is left on the pass, with
the calling thread's error, or else the pool thread's.  The one error a
walk raises is ``prdc``'s "squared distance is not finite" (kernel sums
are checked after the pass), so which stack failed does not show in it.

``TILE = 256`` was measured, not assumed: at d=64 with one BLAS thread,
a kid + prdc evaluation of six 200-sample clients against 320 generated
samples ran fastest at 256 among 128, 256, 384, 512 and 1024.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

# Side of the square tiles of every kernel and distance pass: no larger
# kernel or distance matrix is ever held, so memory does not grow with N.
TILE = 256
# Fewest tile elements a pass holds before it runs on two threads: every
# pass of a round of 12 clients of 40 samples, d=8, against 100 generated
# samples (at most ~183 k) stays on one thread; every pass of 6 clients of
# 200 against 320 (from ~326 k) does not.
_TWO_WAY_MIN = 4 * TILE * TILE
# The variables OpenBLAS reads its thread count from, in its order.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _take(buffer, shape):
    """The leading elements of a flat work buffer as an array of ``shape``;
    None (a fresh array from the ``out=`` it is passed to) without one."""
    return None if buffer is None else buffer[: math.prod(shape)].reshape(shape)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row (of every block of a stack)."""
    return np.sum(np.square(x), axis=-1)


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
    ``product`` takes a stack's matrix product; ``result`` takes its stacked
    operands (a one-unit stack reads views) and, once the product is taken,
    its result; ``mask`` is a bool buffer of its largest stack."""

    def __init__(self, stacks, dim: int):
        size = max(_elements(s) for s in stacks)
        operands = max(
            (len(m) * (n_rows + n_cols) * dim for m, n_rows, n_cols, _ in stacks if len(m) > 1),
            default=0,
        )
        self.product = np.empty(size)
        self.result = np.empty(max(size, operands))
        self.mask = np.empty(size, dtype=bool)


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
    one thread and at least two CPUs are usable, else 1."""
    if len(stacks) < 2 or sum(map(_elements, stacks)) < _TWO_WAY_MIN:
        return 1
    return 2 if _blas_pinned() and _usable_cpus() >= 2 else 1


class _Feed:
    """A pass's stacks, handed out one at a time: the calling thread takes
    them from the front, the pool thread from the back, until the two meet
    or the feed is closed.  A worker that runs late (its CPU busy, or its
    thread not yet woken) so takes fewer stacks instead of holding up the
    pass, and each worker's stacks stay one contiguous run."""

    def __init__(self, stacks):
        self._stacks = stacks
        self._front, self._back = 0, len(stacks)
        self._lock = threading.Lock()

    def close(self) -> bool:
        """Hand out no more stacks (the front moves past the end); whether
        the pool thread took any."""
        with self._lock:
            self._front = len(self._stacks)
            return self._back < len(self._stacks)

    def take(self, back: bool = False):
        """The stacks a worker takes from the front (or the ``back``)."""
        while True:
            with self._lock:
                if self._front >= self._back:
                    return
                if back:
                    self._back -= 1
                    index = self._back
                else:
                    index = self._front
                    self._front += 1
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


def _work_on(step, feed: _Feed, back: bool, work: _Work, own):
    """Run ``step(stacks, work, own)`` on the stacks this worker takes from
    ``feed`` (from its back with ``back``).  Returns None, or on an error
    closes the feed and returns the error."""
    try:
        # numpy keeps its error state per context (numpy 2) or per thread
        # (numpy 1.24), so the pool thread does not see the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            step(feed.take(back), work, own)
    except BaseException as exc:  # raised by the caller once the pass is over
        feed.close()
        return exc
    return None


def _run_pass(step, stacks, dim: int, state=lambda worker: None) -> list:
    """Run ``step(stacks, work, own)`` over a pass's stacks on ``_workers``
    threads: the calling thread, and with two the pool thread.  Each worker
    passes an iterator of the stacks it takes from one ``_Feed``, a
    ``_Work(stacks, dim)`` and its own state ``state(worker)``, both made
    here on the calling thread (worker 0 is the calling thread).  The pool
    thread is on the pass from the first stack it takes, and the call
    returns once no worker is left on it.  A step that raises closes the
    feed, and the call then raises the calling thread's error, or else the
    pool thread's.  Returns the workers' states, the calling thread's first.
    """
    args = [(_Work(stacks, dim), state(worker)) for worker in range(_workers(stacks))]
    feed = _Feed(stacks)
    for extra in args[1:]:
        import queue  # with the pool thread, not with the package

        done = queue.SimpleQueue()
        _pool().put((functools.partial(_work_on, step, feed, True, *extra), done))
    errors = [_work_on(step, feed, False, *args[0])]
    if feed.close():  # the pool thread took a stack: wait until it is done
        errors.append(done.get())
    for error in filter(None, errors):
        raise error
    return [own for _, own in args]
