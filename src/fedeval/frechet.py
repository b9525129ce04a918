"""Gaussian 2-Wasserstein distances, their avg/all aggregations, and the
covariance barycenter.

The squared distance between Gaussian surrogates ``(mean_a, cov_a)`` and
``(mean_b, cov_b)`` is

    ||mean_a - mean_b||^2 + Tr(cov_a + cov_b - 2 (cov_a^1/2 cov_b cov_a^1/2)^1/2)

The trace cross term is always evaluated through the symmetric product
``A^1/2 B A^1/2``, never through the non-symmetric ``(A B)^1/2``; the
traces coincide and symmetric eigensolvers are stable on rank-deficient
covariances.  The cross term needs only the eigenvalues of that product,
and it is symmetric in ``A`` and ``B``, so the rooted side ``A^1/2``
(the one full eigendecomposition) is whichever side has fewer distinct
matrices.  Every distance is scored through one path: references are
stacked (:class:`_References`, their roots from one stacked ``eigh``)
and a Gaussian, or a stack of them, is scored against the references
with one stacked ``eigvalsh`` (:func:`_distances`).  numpy solves a
stack matrix by matrix, so a row does not depend on the rows stacked
with it.

Which side is rooted:

- a single pair (:func:`frechet_distance`) roots its first argument;
- ``fid_avg`` and ``fid_all`` root the generator once and score the K
  clients, then the pool, as a stack of targets (:func:`_against`); the
  avg decomposition shares that root between its barycenter part and
  the aggregate;
- the counterexample search roots its K clients and the pool, since it
  scores many candidate generators against them;
- a scenario draws its Gaussian specs' samples with the roots of their
  stack.

The generator-rooted path falls back to rooting the clients, as a
single pair would, when the generator's root is rejected, a client's
covariance has no Cholesky factor (a singular one included), the
dimensions differ or a row fails a check; so every error is raised with
the text, and in the order, of the client-rooted scoring.

The barycenter is the fixed point of ``C = M(C)``, found from the plain
image ``F(C) = C^-1/2 M(C)^2 C^-1/2`` with Anderson (type-II) mixing
over the images of the last three iterates (Walker & Ni 2011).  Two
safeguards fall back to the plain step: a mixed iterate that is not
positive definite is dropped, and a residual that does not decrease
clears the history.  The iteration runs on the range of the clients'
weighted mean covariance (its eigenvectors above 1e-12 of its largest
eigenvalue), so clients that share a null direction give a nonsingular
iterate; an iterate that turns singular inside that range ends the
solve with a :class:`ConvergenceError`.  Each map evaluation takes one
``eigh`` of the iterate, for both ``C^1/2`` and ``C^-1/2``, and roots
the K inner products ``C^1/2 C_i C^1/2``: each client slot keeps the
eigenvectors of its last inner ``eigh`` and refines the root in that
basis with a few Newton corrections (Higham 2008, ch. 6), gated by a
backward-error test, and solves with ``eigh`` again only when the
refinement declines.  The mixing history holds six matrices of the
iterate's size and the slots K more (201 MB and 134 MB at K = 4,
d = 2048).  The avg decomposition's constant part, the centre's
weighted mean distance to the K clients, is
``sum_i w_i (||m - m_i||^2 + Tr C_i) + Tr C - 2 Tr M(C)`` at the
returned iterate ``C``: the trace is linear, so the weighted cross
terms of the centre and the clients sum to ``Tr M(C)``, and no
eigensolve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VALUE_CLAMP, ConvergenceError, NotPsdError, NumericalError
from .errors import _below_floor, _cancelling, _cancelling_rows, _eigenvalue_floor, _finite
from .statkit import (
    SYMMETRY_RTOL,
    ClientSet,
    _far,
    _JsonFields,
    _mixture_moments,
    _symmetrized,
    pool_moments,
)

# The barycenter iterates on the eigenvectors of the weighted mean whose
# eigenvalues exceed this fraction of the largest; a shared null direction
# comes back from eigh at about eps * lambda_max.
_RANGE_REL = 1e-12
# Anderson history of the barycenter iteration: pairs kept besides the newest.
_ANDERSON_DEPTH = 2
# A residual difference this close to the span of the earlier ones
# (relative to its norm) adds only roundoff to the mixing and is dropped.
_MIX_DROP = 1e-8
_EPS = np.finfo(float).eps
# A refined inner root is accepted when ||A - X^2||_F is within this many
# eps * sqrt(d) * ||A||_F, the order of eigh's own backward error.
_REFINE_BACKWARD = 4.0
# Corrections a refined inner root may take before its slot solves again.
_REFINE_STEPS = 3


def _clamped_eigh(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix, its eigenvalues through the
    floor (:func:`~fedeval.errors._eigenvalue_floor`)."""
    w, v = np.linalg.eigh(a)
    return _eigenvalue_floor(w, what), v


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD square root ``V diag(sqrt(w)) V^T`` from clamped eigenpairs, stacked or not."""
    return _symmetrized((v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2))


def _symmetric(a) -> np.ndarray:
    """``a`` as a float matrix, checked square and symmetric within
    ``1e-10 * ||a||_F``, then symmetrized."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if _far(a, a.T, SYMMETRY_RTOL):
        raise NotPsdError("matrix is not symmetric")
    return _symmetrized(a)


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Requires symmetry within ``1e-10 * ||a||_F`` and eigenvalues above
    ``-EIGENVALUE_CLAMP_REL * lambda_max`` (clamped to zero when
    negative; :mod:`fedeval.errors` holds the rule).
    """
    return _root(*_clamped_eigh(_symmetric(a), "matrix"))


@dataclass
class FrechetResult(_JsonFields):
    """Squared Gaussian 2-Wasserstein distance, split into its two terms."""

    value: float
    mean_term: float
    trace_term: float


@dataclass
class _References:
    """Gaussian references stacked along the leading axis: means, roots
    ``A_i^1/2``, traces ``Tr A_i`` and the eigenvalues each root was taken
    from.  Which rows' eigenvalues the floor rejects is found once,
    when the stack is built; the error is raised when the row is scored
    (or by :meth:`check_roots`)."""

    means: np.ndarray
    roots: np.ndarray
    traces: np.ndarray
    spectra: np.ndarray
    rejected: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rejected = _below_floor(self.spectra)

    def __getitem__(self, rows: slice) -> "_References":
        return _References(
            self.means[rows], self.roots[rows], self.traces[rows], self.spectra[rows]
        )

    def check_roots(self) -> None:
        """Raise the first rejected root's :class:`NotPsdError`, if any."""
        if self.rejected.any():
            _eigenvalue_floor(self.spectra[np.argmax(self.rejected)], "matrix")


def _references(refs: list) -> _References:
    """Stack Gaussian statistics, their roots from one ``eigh``.  Their
    covariances are symmetric, as :class:`GaussianStats` and the scenario
    specs validate."""
    covs = np.stack([r.cov for r in refs])
    w, v = np.linalg.eigh(_symmetrized(covs))
    # A trace of finite entries can overflow, as can a root's eigenvalues;
    # the scores and the draws that use them reject both.
    with np.errstate(over="ignore"):
        traces = np.trace(covs, axis1=1, axis2=2)
    roots = _root(np.clip(w, 0.0, None), v)
    means = np.stack([r.mean for r in refs])
    return _References(means, roots, traces, w)


def _distances(refs: _References, mean: np.ndarray, cov: np.ndarray):
    """Squared distances from every reference to ``(mean, cov)``: one
    Gaussian, or a stack that broadcasts against the references.

    One ``eigvalsh`` takes every product.  Returns the ``(value,
    mean_term, trace_term)`` arrays.  A product or a value that overflows
    is a :class:`NumericalError`, not a warning.
    """
    if refs.means.shape[-1] != mean.shape[-1]:
        raise ValueError(f"dimension mismatch: {refs.means.shape[-1]} vs {mean.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        inner = refs.roots @ cov @ refs.roots
        w = np.linalg.eigvalsh(_symmetrized(inner))
        cross = np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)
        mean_term = ((refs.means - mean) ** 2).sum(axis=-1)
        trace_term = (refs.traces + np.trace(cov, axis1=-2, axis2=-1)) - 2.0 * cross
        value = mean_term + trace_term
    # Every check of every row in one boolean.
    passed, clamped = _cancelling_rows(value, VALUE_CLAMP)
    passed &= np.isfinite(inner).all(axis=(-2, -1)) & ~_below_floor(w)
    if refs.rejected.any() or not passed.all():
        # The first failing row (in C order over a stack of targets) raises
        # its first failing check: its root, its product, then its value.
        d = w.shape[-1]
        spectra = np.broadcast_to(refs.spectra, w.shape).reshape(-1, d)
        rows = zip(spectra, inner.reshape(-1, d, d), w.reshape(-1, d), value.reshape(-1))
        for spectrum, product, row, v in rows:
            _eigenvalue_floor(spectrum, "matrix")
            _finite(product, "covariance product")
            _eigenvalue_floor(row, "covariance product")
            _cancelling(v, VALUE_CLAMP, "distance")
    return clamped, mean_term, trace_term


def _positive_definite(covs: np.ndarray) -> bool:
    """Whether every covariance of a stack has a Cholesky factor.  Then each
    one's eigenvalues are at worst roundoff below 0, far inside the clamp
    of the eigenvalue floor, so rooting it would pass."""
    try:
        np.linalg.cholesky(_symmetrized(covs))
    except np.linalg.LinAlgError:
        return False
    return True


def _against(gen: _References, g, targets: list, refs: _References | None = None):
    """The :func:`_distances` rows of each of ``targets`` (Gaussian
    statistics) against ``g``, rooted on ``g``: ``gen`` is ``g``'s one-row
    stack, so one root serves every target.

    The cross term is symmetric, so the rows are the targets' distances.
    They are rooted on the targets instead (``refs``, or the targets'
    stack), as :func:`frechet_distance` would root them, when ``g``'s root
    is rejected, a target fails :func:`_positive_definite` (a singular one
    included), the dimensions differ or a row fails a check.  That path
    raises each error it raises for the targets' own roots, in its order.
    """
    means = np.stack([t.mean for t in targets])
    covs = np.stack([t.cov for t in targets])
    rootable = not gen.rejected.any() and gen.means.shape[-1] == means.shape[-1]
    if rootable and _positive_definite(covs):
        try:
            return _distances(gen, means, covs)
        except NumericalError:
            pass
    return _distances(_references(targets) if refs is None else refs, g.mean, g.cov)


def _results(rows) -> list[FrechetResult]:
    """One :class:`FrechetResult` per row of :func:`_distances`."""
    return [FrechetResult(*row) for row in zip(*(x.tolist() for x in rows))]


def frechet_distance(a, b) -> FrechetResult:
    """Squared 2-Wasserstein distance between two Gaussian surrogates.

    ``a`` and ``b`` are anything with ``mean`` and ``cov`` attributes
    (:class:`GaussianStats` or :class:`GaussianModel`); ``a`` is the
    reference side, whose covariance root is taken.  Values in
    ``[-VALUE_CLAMP, 0)`` are clamped to zero (:mod:`fedeval.errors`
    holds the rule).
    """
    return _results(_distances(_references([a]), b.mean, b.cov))[0]


def fid_all(clients: ClientSet, g) -> FrechetResult:
    """Distance between the pooled (mixture) reference moments and ``g``."""
    return _fid(clients, g, avg=False)[1]


@dataclass
class FidAvgResult:
    """Weighted mean of per-client distances, with the per-client breakdown."""

    value: float
    per_client: list[FrechetResult]


def fid_avg(clients: ClientSet, g) -> FidAvgResult:
    """Weighted mean of per-client distances to ``g`` (clients in id order)."""
    return _fid(clients, g, pooled=False)[0]


def _avg(clients: ClientSet, rows) -> FidAvgResult:
    return FidAvgResult(value=float(clients.weights @ rows[0]), per_client=_results(rows))


def _fid(clients: ClientSet, g, avg: bool = True, pooled: bool = True):
    """``(fid_avg, fid_all)`` of ``g``, each ``None`` unless asked for, with
    ``g`` rooted once for both (:func:`_against`).  The clients are scored
    first, then the pool, the order their errors raise in."""
    gen = _references([g])
    result = pool = None
    if avg:
        result = _avg(clients, _against(gen, g, clients.stats_list()))
    if pooled:
        pool = _results(_against(gen, g, [pool_moments(clients)]))[0]
    return result, pool


@dataclass
class BarycenterSolution:
    """Fixed point of the weighted covariance-barycenter equation."""

    mean: np.ndarray
    cov: np.ndarray
    iterations: int
    residual: float
    residual_history: list[float] = field(default_factory=list, repr=False)


def _refined_root(a: np.ndarray) -> np.ndarray | None:
    """The principal square root ``X`` of a symmetric ``a`` that is close to
    diagonal (an inner product in the basis of its slot's last ``eigh``),
    or ``None`` when it declines.

    With ``s = sqrt(diag(a))``, the start is ``X = diag(s) + O`` with
    ``O = offdiag(a) / (s_j + s_k)``, and each correction is
    ``X += (a - X^2) / (s_j + s_k)``: Newton's step for ``X^2 = a``
    (Higham 2008, ch. 6) with ``X`` taken as ``diag(s)`` in its Sylvester
    equation.  After at most ``_REFINE_STEPS`` (3) corrections, ``X`` is
    accepted when the residual ``||a - X^2||_F`` is within the bound
    ``_REFINE_BACKWARD * eps * sqrt(d) * ||a||_F`` (4 eps sqrt(d) ||a||_F,
    the order of ``eigh``'s own backward error) and ``X`` is strictly
    diagonally dominant by a margin ``m`` (the least
    ``X_jj - sum_{k != j} |X_jk|``) with ``m^2`` above the bound plus the
    residual.  Then ``X`` is positive definite (Gershgorin), so the
    principal root of ``X^2``; it is within ``||a - X^2||_F / m`` of the
    root of ``a`` (Frobenius norm); and the smallest eigenvalue of ``a``
    exceeds the bound, so a singular or non-PSD ``a`` is never accepted.
    An ``a`` whose iterate moved too far from the basis
    (:func:`_unreachable`) is declined before any correction; so is an
    ``a`` with a diagonal entry that is not positive or an entry that is
    not finite.
    """
    diagonal = np.diagonal(a)
    # A norm or a start that overflows declines below; eigh takes such an a.
    with np.errstate(over="ignore"):
        bound = _REFINE_BACKWARD * _EPS * np.sqrt(len(a)) * np.linalg.norm(a)
        if not (float(diagonal.min()) > 0.0 and bound < np.inf):
            return None
        s = np.sqrt(diagonal)
        inv = 1.0 / (s[:, None] + s)
        x = a * inv
        np.fill_diagonal(x, 0.0)
        if _unreachable(float(np.linalg.norm(x)), float(s.min()), bound):
            return None
    np.fill_diagonal(x, s)
    r = a - x @ x
    residual = float(np.linalg.norm(r))
    for _ in range(_REFINE_STEPS):
        if residual <= bound:
            break
        r *= inv
        x += r
        r = a - x @ x
        residual = float(np.linalg.norm(r))
    margin = float((2.0 * np.diagonal(x) - np.abs(x).sum(axis=1)).min())
    if not (residual <= bound and margin > 0.0 and margin * margin > bound + residual):
        return None
    return x


def _unreachable(off: float, s_min: float, bound: float) -> bool:
    """Whether :func:`_refined_root`'s corrections cannot bring the residual
    within ``bound`` from a start with ``||O||_F = off``.  The start's
    residual is ``-O^2`` and a correction shrinks the residual by about
    ``rho = ||O||_F / min(s)``, so the limit is ``||O||_F^2 rho^3`` (three
    corrections) above the bound, or ``rho`` not below 1."""
    rho = off / s_min
    return not (rho < 1.0 and off * off * rho**_REFINE_STEPS <= bound)


def _far_from_basis(root: np.ndarray, c_i: np.ndarray, u: np.ndarray, scale: float) -> bool:
    """Whether ``A = (C^1/2 U)^T C_i (C^1/2 U)`` is certain to be declined by
    :func:`_refined_root` before any correction, judged from its first
    column alone (four matrix-vector products, where forming ``A`` takes
    three matrix products).

    ``scale`` is ``||C||_2 ||C_i||_F``, which bounds both ``||A||_F`` and
    every ``s_j^2 = A_jj``.  With ``s_0 = sqrt(A_00)`` and
    ``t = sqrt(scale)``, ``||O||_F >= ||A_{1:,0}|| / (s_0 + t)``, ``s_0``
    is at least ``min(s)`` and the bound is at most
    ``4 eps sqrt(d) scale``; so when :func:`_unreachable` holds for these,
    or ``A_00`` is not positive, the refinement's own test declines too.
    """
    col = u.T @ (root @ (c_i @ (root @ u[:, 0])))
    if not col[0] > 0.0:
        return True
    s0 = float(np.sqrt(col[0]))
    with np.errstate(over="ignore"):
        low = float(np.linalg.norm(col[1:])) / (s0 + float(np.sqrt(scale)))
    return _unreachable(low, s0, _REFINE_BACKWARD * _EPS * np.sqrt(len(u)) * scale)


def _barycenter_map(root: np.ndarray, covs: np.ndarray, weights: np.ndarray, bases: list, scales):
    """``M(C) = sum_i w_i (C^1/2 C_i C^1/2)^1/2``, given the iterate's root
    ``C^1/2``.

    ``bases`` holds each client slot's eigenvectors ``U_i`` from its last
    ``eigh`` (``None`` before the first), and ``scales`` each slot's
    ``||C||_2 ||C_i||_F``.  A slot first refines its inner root in that
    basis (:func:`_refined_root` of ``(C^1/2 U_i)^T C_i (C^1/2 U_i)``, the
    root then ``U_i X U_i^T``), unless :func:`_far_from_basis` shows the
    refinement would decline; if it declines, the slot solves the inner
    product with a clamped ``eigh``, as the plain map does, and keeps the
    new eigenvectors.
    """
    acc = np.zeros_like(root)
    for i, (w_i, c_i) in enumerate(zip(weights, covs)):
        u = bases[i]
        x = None
        if u is not None and not _far_from_basis(root, c_i, u, scales[i]):
            p = root @ u
            x = _refined_root(_symmetrized(p.T @ c_i @ p))
        if x is None:
            inner = _symmetrized(root @ c_i @ root)
            ew, u = _clamped_eigh(inner, "barycenter inner product")
            bases[i] = u
            acc = acc + w_i * ((u * np.sqrt(ew)) @ u.T)
        else:
            acc = acc + w_i * (u @ x @ u.T)
    return _symmetrized(acc)


def _anderson_step(pairs: list) -> np.ndarray:
    """Anderson (type-II) mixing of ``(F(C) - C, F(C))`` pairs, oldest first.

    With ``f`` and ``F`` the newest pair, ``gamma`` minimizes
    ``||f - sum_j gamma_j (f - f_j)||_F`` over the older pairs ``j``, and
    the step is ``F - sum_j gamma_j (F - F_j)``.  Modified Gram-Schmidt
    orthonormalizes the residual differences and applies each of its
    combinations to the image differences too, so the step is ``F``
    minus ``(q . f) u`` over the orthonormal ``q`` and their ``u``.  A
    difference within ``_MIX_DROP`` of the span before it is dropped.
    Only dot products are taken: LAPACK's least-squares routine would page
    about 0.3 MB of library code into the process for a 2x2 problem.
    """
    f, image = pairs[-1]
    basis = []
    for f_j, image_j in pairs[:-1]:
        q, u = f - f_j, image - image_j
        size = np.linalg.norm(q)
        for q_i, u_i in basis:
            c = np.vdot(q_i, q)
            q, u = q - c * q_i, u - c * u_i
        norm = np.linalg.norm(q)
        if norm > _MIX_DROP * size:
            basis.append((q / norm, u / norm))
    step = image.copy()
    for q, u in basis:
        step -= np.vdot(q, f) * u
    return _symmetrized(step)


def _next_iterate(pairs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next iterate and its eigenpairs: the Anderson step if it is
    positive definite, else the newest plain image, with ``pairs`` cut to
    that image's pair."""
    if len(pairs) > 1:
        step = _anderson_step(pairs)
        w, v = np.linalg.eigh(step)
        if float(w[0]) > 0.0:
            return step, w, v
        del pairs[:-1]
    image = pairs[-1][1]
    return (image, *_clamped_eigh(image, "matrix"))


def barycenter(clients: ClientSet, tol: float = 1e-10, max_iter: int = 1000) -> BarycenterSolution:
    """Weighted 2-Wasserstein barycenter of the clients' Gaussian surrogates.

    The mean is the weighted mean of client means.  The covariance is
    the fixed point of ``C = M(C)`` with
    ``M(C) = sum_i w_i (C^1/2 C_i C^1/2)^1/2``, started from the weighted
    arithmetic mean ``W``.  The plain step is the image
    ``F(C) = C^-1/2 M(C)^2 C^-1/2``; each step is instead Anderson's
    mixing of the last ``_ANDERSON_DEPTH + 1`` (2 + 1) iterates' images,
    with two safeguards: a mixed iterate whose smallest eigenvalue is not
    positive is dropped for the plain image, and a map whose residual
    does not decrease cuts the history to its own pair, so the next step
    is plain.  Both roots of an iterate come from one
    eigendecomposition.  Each inner root ``(C^1/2 C_i C^1/2)^1/2`` is
    refined from the eigenvectors of its client's last inner ``eigh``
    (:func:`_refined_root`: a few corrections, each one matrix product,
    accepted only within the order of ``eigh``'s backward error) and
    solved by ``eigh`` only when that declines, so a map evaluation takes
    one ``eigh`` of the iterate and between 0 and K of the inner
    products.  An iterate that turns singular (its smallest eigenvalue
    clamps to 0; the barycenter loses rank inside the range below) has no
    ``C^-1/2`` for the next step, and raises :class:`ConvergenceError`
    with that iterate and its defect at once.

    The iteration runs on the range of ``W``, which holds the barycenter
    (the null space of ``W`` is the one all clients share): on the
    eigenvectors ``Q`` of ``W`` whose eigenvalues exceed
    ``_RANGE_REL * lambda_max`` (1e-12), with clients ``Q^T C_i Q``, and
    the result is ``Q B Q^T``.  A full-rank ``W`` is iterated as it is.
    The history holds ``2 * (_ANDERSON_DEPTH + 1)`` = 6 matrices of the
    iterate's size, 201 MB at d = 2048 (one matrix is 33.5 MB), and a
    mixed step needs about as many again while it runs; the K stored
    inner bases add K more (134 MB at K = 4, d = 2048).

    Convergence is declared when the fixed-point defect
    ``||C - M(C)||_F`` drops below ``tol * ||C||_F``; ``tol`` must be
    finite and > 0 and ``max_iter`` (the number of map evaluations) at
    least 1, or a ``ValueError`` is raised before the first iterate.  A
    :class:`ConvergenceError` carries the last iterate whose map was
    evaluated, and its defect.
    """
    return _barycenter(clients, tol, max_iter)[0]


def _barycenter(clients: ClientSet, tol: float, max_iter: int):
    """:func:`barycenter`, with the returned iterate's root, its clamped
    eigenvalues (padded with zeros to the clients' dimension) and
    ``Tr M(C)``, the trace of its map."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"barycenter tol must be a finite number > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"barycenter max_iter must be at least 1, got {max_iter!r}")
    stats = clients.stats_list()
    weights = clients.weights
    mean, cov, _ = _mixture_moments(stats, weights)
    covs = np.stack([s.cov for s in stats])
    # The start's eigendecomposition finds the range and is the first iterate's.
    w, v = _clamped_eigh(cov, "matrix")
    kept = w > _RANGE_REL * w[-1]
    basis = None
    if kept.any() and not kept.all():
        basis = v[:, kept]
        covs = _symmetrized(np.swapaxes(basis, 0, 1) @ covs @ basis)
        w, v = w[kept], np.eye(basis.shape[1])
        cov = np.diag(w)

    def lift(b: np.ndarray) -> np.ndarray:
        if basis is None:
            return b
        return _symmetrized(basis @ b @ basis.T)

    history: list[float] = []
    pairs: list = []  # (F(C) - C, F(C)) of the last iterates, oldest first
    bases: list = [None] * len(covs)  # each inner product's last eigenvectors
    norms = np.linalg.norm(covs, axis=(1, 2))
    for iteration in range(max_iter):
        if iteration:
            cov, w, v = _next_iterate(pairs)
        root = _root(w, v)
        m = _barycenter_map(root, covs, weights, bases, w[-1] * norms)
        residual = float(np.linalg.norm(cov - m))
        history.append(residual)
        if residual <= tol * max(float(np.linalg.norm(cov)), np.finfo(float).tiny):
            return BarycenterSolution(
                mean=mean,
                cov=lift(cov),
                iterations=iteration,
                residual=residual,
                residual_history=history,
            ), lift(root), np.concatenate([np.zeros(len(mean) - len(w)), w]), np.trace(m)
        if not float(w[0]) > 0.0:
            raise ConvergenceError(
                f"barycenter iterate is singular after {iteration + 1} iterations "
                f"(residual {residual:.3e})",
                last_cov=lift(cov),
                residual=residual,
                iterations=iteration + 1,
            )
        inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
        image = _symmetrized(inv_sqrt @ (m @ m) @ inv_sqrt)
        if iteration and residual >= history[-2]:
            pairs.clear()
        pairs = pairs[-_ANDERSON_DEPTH:] + [(image - cov, image)]

    raise ConvergenceError(
        f"barycenter did not converge in {max_iter} iterations (residual {residual:.3e})",
        last_cov=lift(cov),
        residual=residual,
        iterations=max_iter,
    )


@dataclass
class DecompositionResult:
    """Split of the avg aggregate into a barycenter distance plus a constant.

    ``barycenter_part`` is the distance from the barycenter surrogate to
    the generator; ``const_part`` is the weighted mean distance from the
    barycenter to the clients and does not depend on the generator;
    ``avg`` is the avg aggregate itself, as :func:`fid_avg` scores it.
    With ``T(A, B) = Tr((A^1/2 B A^1/2)^1/2)``, barycenter mean ``m`` and
    covariance ``C``, client means ``m_i`` and covariances ``C_i`` and
    generator covariance ``G``, the trace is linear, so
    ``sum_i w_i T(C, C_i) = Tr M(C)`` and

        const_part = sum_i w_i (||m - m_i||^2 + Tr C_i) + Tr C - 2 Tr M(C),

    which needs no eigensolve.  The avg aggregate equals

        barycenter_part + const_part + 2 [T(C, G) - sum_i w_i T(C_i, G)]

    (the mean terms cancel, and the fixed-point equation gives
    ``Tr M(C) = Tr C``).  The remainder vanishes when the client and
    generator covariances all commute; otherwise the two-term sum
    deviates from the aggregate, which is why the aggregate is measured,
    never assumed.
    """

    barycenter_part: float
    const_part: float
    solution: BarycenterSolution
    avg: FidAvgResult


def fid_avg_decomposition(
    clients: ClientSet, g, tol: float = 1e-10, max_iter: int = 1000
) -> DecompositionResult:
    """Evaluate the barycenter-centered split of the avg aggregate for ``g``,
    and the aggregate.

    The generator is rooted once, for ``barycenter_part`` and the
    aggregate (:func:`_against`).  ``const_part`` is
    ``sum_i w_i (||m - m_i||^2 + Tr C_i) + Tr C - 2 Tr M(C)``, with
    ``Tr M(C)`` from the map the solver evaluated at the ``C`` it
    returns, so no eigensolve is needed.  It is checked as a distance is,
    by the cancelling-value rule with ``VALUE_CLAMP``.  The
    errors raise in this order: the barycenter's, ``barycenter_part``'s,
    ``const_part``'s, then the aggregate's.
    """
    solution, root, w, trace_map = _barycenter(clients, tol, max_iter)
    trace = np.trace(solution.cov)
    center = _References(solution.mean[None], root[None], trace[None], w[None])
    gen = _references([g])
    barycenter_part = float(_against(gen, g, [solution], center)[0][0])
    stats = clients.stats_list()
    with np.errstate(over="ignore", invalid="ignore"):
        spread = [((s.mean - solution.mean) ** 2).sum() + np.trace(s.cov) for s in stats]
        const = clients.weights @ spread + trace - 2.0 * trace_map
    return DecompositionResult(
        barycenter_part=barycenter_part,
        const_part=_cancelling(const, VALUE_CLAMP, "distance"),
        solution=solution,
        avg=_avg(clients, _against(gen, g, stats)),
    )
