"""Gaussian 2-Wasserstein distances, their avg/all aggregations, and the
covariance barycenter.

The squared distance between Gaussian surrogates ``(mean_a, cov_a)`` and
``(mean_b, cov_b)`` is

    ||mean_a - mean_b||^2 + Tr(cov_a + cov_b - 2 (cov_a^1/2 cov_b cov_a^1/2)^1/2)

The trace cross term is always evaluated through the symmetric product
``A^1/2 B A^1/2``, never through the non-symmetric ``(A B)^1/2``; the
traces coincide and symmetric eigensolvers are stable on rank-deficient
covariances.  The cross term needs only the eigenvalues of that product;
the reference side's root ``A^1/2`` is the one full eigendecomposition.
Every distance is scored through one path: references are stacked
(:class:`_References`, their roots from one stacked ``eigh``) and a
Gaussian is scored against the whole stack with one stacked ``eigvalsh``
(:func:`_distances`).  A single pair is a one-row stack; ``fid_avg``
stacks the K clients, the counterexample search adds the pool, and a
scenario draws its Gaussian specs' samples with the roots of their
stack.  numpy solves a stack matrix by matrix, so a row does not depend
on the rows stacked with it.

The barycenter is the fixed point of ``C = M(C)``, found from the plain
image ``F(C) = C^-1/2 M(C)^2 C^-1/2`` with Anderson (type-II) mixing
over the images of the last three iterates (Walker & Ni 2011).  Two
safeguards fall back to the plain step: a mixed iterate that is not
positive definite is dropped, and a residual that does not decrease
clears the history.  The iteration runs on the range of the clients'
weighted mean covariance (its eigenvectors above 1e-12 of its largest
eigenvalue), so clients that share a null direction give a nonsingular
iterate.  It takes both ``C^1/2`` and ``C^-1/2`` of each iterate from a
single eigendecomposition, and the mixing history holds six matrices of
the iterate's size (201 MB at d = 2048); the avg decomposition scores
the converged iterate, with that root, against the K clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NotPsdError, NumericalError
from .statkit import SYMMETRY_RTOL, ClientSet, _far, _JsonFields, _mixture_moments, pool_moments

EIGENVALUE_CLAMP_REL = 1e-8
VALUE_CLAMP = 1e-8
# The barycenter iterates on the eigenvectors of the weighted mean whose
# eigenvalues exceed this fraction of the largest; a shared null direction
# comes back from eigh at about eps * lambda_max.
_RANGE_REL = 1e-12
# Anderson history of the barycenter iteration: pairs kept besides the newest.
_ANDERSON_DEPTH = 2
# A residual difference this close to the span of the earlier ones
# (relative to its norm) adds only roundoff to the mixing and is dropped.
_MIX_DROP = 1e-8


def _clamp(w: np.ndarray, what: str) -> np.ndarray:
    """Clamp ascending eigenvalues of a symmetric PSD matrix at 0.

    Eigenvalues in ``[-1e-8 * lambda_max, 0)`` are treated as roundoff
    and clamped; anything lower fails the PSD check.
    """
    lam_max = max(float(w[-1]), 0.0)
    floor = -EIGENVALUE_CLAMP_REL * lam_max
    if float(w[0]) < floor:
        raise NotPsdError(
            f"{what} is not PSD: eigenvalue {w[0]:.3e} below clamp threshold {floor:.3e}"
        )
    return np.clip(w, 0.0, None)


def _below_clamp(w: np.ndarray) -> np.ndarray:
    """Which rows of ascending eigenvalues :func:`_clamp` would reject."""
    return w[..., 0] < -EIGENVALUE_CLAMP_REL * np.maximum(w[..., -1], 0.0)


def _clamped_eigh(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix, clamping tiny negatives to 0."""
    w, v = np.linalg.eigh(a)
    return _clamp(w, what), v


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD square root ``V diag(sqrt(w)) V^T`` from clamped eigenpairs, stacked or not."""
    b = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return (b + np.swapaxes(b, -1, -2)) / 2.0


def _symmetric(a) -> np.ndarray:
    """``a`` as a float matrix, checked square and symmetric within
    ``1e-10 * ||a||_F``, then symmetrized."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if _far(a, a.T, SYMMETRY_RTOL):
        raise NotPsdError("matrix is not symmetric")
    return (a + a.T) / 2.0


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Requires symmetry within ``1e-10 * ||a||_F`` and eigenvalues above
    ``-1e-8 * lambda_max`` (clamped to zero when negative).
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
    from.  Which rows' eigenvalues :func:`_clamp` rejects is found once,
    when the stack is built; the error is raised when the row is scored
    (or by :meth:`check_roots`)."""

    means: np.ndarray
    roots: np.ndarray
    traces: np.ndarray
    spectra: np.ndarray
    rejected: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rejected = _below_clamp(self.spectra)

    def __getitem__(self, rows: slice) -> "_References":
        return _References(
            self.means[rows], self.roots[rows], self.traces[rows], self.spectra[rows]
        )

    def check_roots(self) -> None:
        """Raise the first rejected root's :class:`NotPsdError`, if any."""
        if self.rejected.any():
            _clamp(self.spectra[np.argmax(self.rejected)], "matrix")


def _references(refs: list) -> _References:
    """Stack Gaussian statistics, their roots from one ``eigh``.  Their
    covariances are symmetric, as :class:`GaussianStats` and the scenario
    specs validate."""
    covs = np.stack([r.cov for r in refs])
    # Finite entries whose sum overflows give a non-finite root or trace,
    # which the scores and the draws that use them reject.
    with np.errstate(over="ignore"):
        w, v = np.linalg.eigh((covs + np.swapaxes(covs, 1, 2)) / 2.0)
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
        mean_term = ((refs.means - mean) ** 2).sum(axis=-1)
        inner = refs.roots @ cov @ refs.roots
        w = np.linalg.eigvalsh((inner + np.swapaxes(inner, -1, -2)) / 2.0)
        cross = np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)
        trace_term = (refs.traces + np.trace(cov, axis1=-2, axis2=-1)) - 2.0 * cross
        value = mean_term + trace_term
    finite = np.isfinite(inner).all(axis=(-2, -1))
    # Every check of every row in one boolean; a value that is NaN fails both bounds.
    passed = (value >= -VALUE_CLAMP) & (value < np.inf) & finite & ~_below_clamp(w)
    if refs.rejected.any() or not passed.all():
        # The first failing row (in C order over a stack of targets) raises
        # its first failing check: its root, its product, then its value.
        d = w.shape[-1]
        spectra = np.broadcast_to(refs.spectra, w.shape).reshape(-1, d)
        rows = zip(spectra, w.reshape(-1, d), finite.reshape(-1), value.reshape(-1))
        for spectrum, row, row_finite, v in rows:
            _clamp(spectrum, "matrix")
            if not row_finite:
                raise NumericalError("covariance product is not finite")
            _clamp(row, "covariance product")
            if not np.isfinite(v):
                raise NumericalError("distance is not finite")
            if v < -VALUE_CLAMP:
                raise NumericalError(f"distance {float(v)!r} below clamp threshold")
    return np.where(value < 0.0, 0.0, value), mean_term, trace_term


def _results(rows) -> list[FrechetResult]:
    """One :class:`FrechetResult` per row of :func:`_distances`."""
    return [FrechetResult(*row) for row in zip(*(x.tolist() for x in rows))]


def frechet_distance(a, b) -> FrechetResult:
    """Squared 2-Wasserstein distance between two Gaussian surrogates.

    ``a`` and ``b`` are anything with ``mean`` and ``cov`` attributes
    (:class:`GaussianStats` or :class:`GaussianModel`); ``a`` is the
    reference side, whose covariance root is taken.  Values in
    ``[-1e-8, 0)`` are clamped to zero.
    """
    return _results(_distances(_references([a]), b.mean, b.cov))[0]


def fid_all(clients: ClientSet, g) -> FrechetResult:
    """Distance between the pooled (mixture) reference moments and ``g``."""
    return frechet_distance(pool_moments(clients), g)


@dataclass
class FidAvgResult:
    """Weighted mean of per-client distances, with the per-client breakdown."""

    value: float
    per_client: list[FrechetResult]


def fid_avg(clients: ClientSet, g) -> FidAvgResult:
    """Weighted mean of per-client distances to ``g`` (clients in id order)."""
    rows = _distances(_references(clients.stats_list()), g.mean, g.cov)
    return FidAvgResult(value=float(clients.weights @ rows[0]), per_client=_results(rows))


@dataclass
class BarycenterSolution:
    """Fixed point of the weighted covariance-barycenter equation."""

    mean: np.ndarray
    cov: np.ndarray
    iterations: int
    residual: float
    residual_history: list[float] = field(default_factory=list, repr=False)


def _barycenter_map(root: np.ndarray, covs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i (C^1/2 C_i C^1/2)^1/2, given the iterate's root C^1/2."""
    acc = np.zeros_like(root)
    for w_i, c_i in zip(weights, covs):
        inner = root @ c_i @ root
        inner = (inner + inner.T) / 2.0
        ew, ev = _clamped_eigh(inner, "barycenter inner product")
        acc = acc + w_i * ((ev * np.sqrt(ew)) @ ev.T)
    return (acc + acc.T) / 2.0


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
    return (step + step.T) / 2.0


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
    eigendecomposition.

    The iteration runs on the range of ``W``, which holds the barycenter
    (the null space of ``W`` is the one all clients share): on the
    eigenvectors ``Q`` of ``W`` whose eigenvalues exceed
    ``_RANGE_REL * lambda_max`` (1e-12), with clients ``Q^T C_i Q``, and
    the result is ``Q B Q^T``.  A full-rank ``W`` is iterated as it is.
    The history holds ``2 * (_ANDERSON_DEPTH + 1)`` = 6 matrices of the
    iterate's size, 201 MB at d = 2048 (one matrix is 33.5 MB), and a
    mixed step needs about as many again while it runs.

    Convergence is declared when the fixed-point defect
    ``||C - M(C)||_F`` drops below ``tol * ||C||_F``; ``tol`` must be
    finite and > 0 and ``max_iter`` (the number of map evaluations) at
    least 1, or a ``ValueError`` is raised before the first iterate.  A
    :class:`ConvergenceError` carries the last iterate whose map was
    evaluated, and its defect.
    """
    return _barycenter(clients, tol, max_iter)[0]


def _barycenter(
    clients: ClientSet, tol: float, max_iter: int
) -> tuple[BarycenterSolution, np.ndarray, np.ndarray]:
    """:func:`barycenter`, with the returned iterate's root and clamped eigenvalues."""
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
        covs = np.swapaxes(basis, 0, 1) @ covs @ basis
        covs = (covs + np.swapaxes(covs, 1, 2)) / 2.0
        w, v = w[kept], np.eye(basis.shape[1])
        cov = np.diag(w)

    def lift(b: np.ndarray) -> np.ndarray:
        if basis is None:
            return b
        b = basis @ b @ basis.T
        return (b + b.T) / 2.0

    history: list[float] = []
    pairs: list = []  # (F(C) - C, F(C)) of the last iterates, oldest first
    for iteration in range(max_iter):
        if iteration:
            cov, w, v = _next_iterate(pairs)
        root = _root(w, v)
        m = _barycenter_map(root, covs, weights)
        residual = float(np.linalg.norm(cov - m))
        history.append(residual)
        if residual <= tol * max(float(np.linalg.norm(cov)), np.finfo(float).tiny):
            spectrum = np.concatenate([np.zeros(len(mean) - len(w)), w])
            return BarycenterSolution(
                mean=mean,
                cov=lift(cov),
                iterations=iteration,
                residual=residual,
                residual_history=history,
            ), lift(root), spectrum
        inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
        image = inv_sqrt @ (m @ m) @ inv_sqrt
        image = (image + image.T) / 2.0
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
    barycenter to the clients and does not depend on the generator.  With
    ``T(A, B) = Tr((A^1/2 B A^1/2)^1/2)``, barycenter covariance ``C``,
    client covariances ``C_i`` and generator covariance ``G``, the avg
    aggregate equals

        barycenter_part + const_part + 2 [T(C, G) - sum_i w_i T(C_i, G)]

    (the mean terms cancel, and the fixed-point equation gives
    ``sum_i w_i T(C, C_i) = Tr C``).  The remainder vanishes when the
    client and generator covariances all commute; otherwise the two-term
    sum deviates from the aggregate, which is why the aggregate is
    measured, never assumed.
    """

    barycenter_part: float
    const_part: float
    solution: BarycenterSolution


def fid_avg_decomposition(
    clients: ClientSet, g, tol: float = 1e-10, max_iter: int = 1000
) -> DecompositionResult:
    """Evaluate the barycenter-centered split of the avg aggregate for ``g``."""
    solution, root, w = _barycenter(clients, tol, max_iter)
    # One reference, the centre, against the generator and then the K clients.
    center = _References(solution.mean[None], root[None], np.trace(solution.cov)[None], w[None])
    barycenter_part = float(_distances(center, g.mean, g.cov)[0][0])
    stats = clients.stats_list()
    means, covs = np.stack([s.mean for s in stats]), np.stack([s.cov for s in stats])
    const_part = float(clients.weights @ _distances(center, means, covs)[0])
    return DecompositionResult(
        barycenter_part=barycenter_part, const_part=const_part, solution=solution
    )
