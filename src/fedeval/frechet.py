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
on the rows stacked with it.  The barycenter iteration takes both
``C^1/2`` and ``C^-1/2`` of each iterate from a single
eigendecomposition; the avg decomposition scores the converged iterate,
with that root, against the K clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NotPsdError, NumericalError
from .statkit import ClientSet, _JsonFields, pool_moments

EIGENVALUE_CLAMP_REL = 1e-8
SYMMETRY_RTOL = 1e-10
VALUE_CLAMP = 1e-8


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
    scale = max(float(np.linalg.norm(a)), 1.0)
    if np.linalg.norm(a - a.T) > SYMMETRY_RTOL * scale:
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
    from, PSD-checked when the row is scored."""

    means: np.ndarray
    roots: np.ndarray
    traces: np.ndarray
    spectra: np.ndarray

    def __getitem__(self, rows: slice) -> "_References":
        return _References(
            self.means[rows], self.roots[rows], self.traces[rows], self.spectra[rows]
        )


def _references(refs: list) -> _References:
    """Stack Gaussian statistics, their roots from one ``eigh``.  Their
    covariances are symmetric, as :class:`GaussianStats` and the scenario
    specs validate."""
    covs = np.stack([r.cov for r in refs])
    w, v = np.linalg.eigh((covs + np.swapaxes(covs, 1, 2)) / 2.0)
    roots = _root(np.clip(w, 0.0, None), v)
    means = np.stack([r.mean for r in refs])
    return _References(means, roots, np.trace(covs, axis1=1, axis2=2), w)


def _distances(refs: _References, mean: np.ndarray, cov: np.ndarray):
    """Squared distances from every reference to ``(mean, cov)``: one
    Gaussian, or a stack that broadcasts against the references.

    One ``eigvalsh`` takes every product.  Returns the ``(value,
    mean_term, trace_term)`` arrays.
    """
    if refs.means.shape[-1] != mean.shape[-1]:
        raise ValueError(f"dimension mismatch: {refs.means.shape[-1]} vs {mean.shape[-1]}")
    mean_term = np.sum((refs.means - mean) ** 2, axis=-1)
    inner = refs.roots @ cov @ refs.roots
    w = np.linalg.eigvalsh((inner + np.swapaxes(inner, -1, -2)) / 2.0)
    cross = np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=-1)
    trace_term = (refs.traces + np.trace(cov, axis1=-2, axis2=-1)) - 2.0 * cross
    value = mean_term + trace_term
    if (_below_clamp(refs.spectra) | _below_clamp(w) | (value < -VALUE_CLAMP)).any():
        # The first failing row (in C order over a stack of targets) raises
        # its first failing check: its root, its product, then its value.
        d = w.shape[-1]
        spectra = np.broadcast_to(refs.spectra, w.shape).reshape(-1, d)
        for spectrum, row, v in zip(spectra, w.reshape(-1, d), value.reshape(-1)):
            _clamp(spectrum, "matrix")
            _clamp(row, "covariance product")
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


def barycenter(clients: ClientSet, tol: float = 1e-10, max_iter: int = 1000) -> BarycenterSolution:
    """Weighted 2-Wasserstein barycenter of the clients' Gaussian surrogates.

    The mean is the weighted mean of client means.  The covariance is
    the fixed point of ``C = sum_i w_i (C^1/2 C_i C^1/2)^1/2``, found by
    the iteration ``C_next = C^-1/2 M(C)^2 C^-1/2`` with
    ``M(C) = sum_i w_i (C^1/2 C_i C^1/2)^1/2``, started from the
    weighted arithmetic mean.  Both roots of an iterate come from one
    eigendecomposition.  Singular iterates are regularized with
    ``1e-12 * Tr(C)/d`` on the diagonal before ``C^-1/2`` is taken.
    Convergence is declared when the fixed-point defect drops below
    ``tol * ||C||_F``.
    """
    return _barycenter(clients, tol, max_iter)[0]


def _barycenter(
    clients: ClientSet, tol: float, max_iter: int
) -> tuple[BarycenterSolution, np.ndarray, np.ndarray]:
    """:func:`barycenter`, with the returned iterate's root and clamped eigenvalues."""
    stats = clients.stats_list()
    weights = clients.weights
    d = clients.dim
    mean = weights @ np.stack([s.mean for s in stats])
    covs = np.stack([s.cov for s in stats])
    cov = np.einsum("i,ijk->jk", weights, covs)
    cov = (cov + cov.T) / 2.0

    history: list[float] = []
    for iteration in range(max_iter):
        # Every iterate is exactly symmetric, so this is psd_sqrt's eigh.
        w, v = _clamped_eigh(cov, "matrix")
        root = _root(w, v)
        m = _barycenter_map(root, covs, weights)
        residual = float(np.linalg.norm(cov - m))
        history.append(residual)
        if residual <= tol * max(float(np.linalg.norm(cov)), np.finfo(float).tiny):
            return BarycenterSolution(
                mean=mean,
                cov=cov,
                iterations=iteration,
                residual=residual,
                residual_history=history,
            ), root, w
        if float(w[0]) <= 0.0:
            eps = 1e-12 * float(np.trace(cov)) / d
            cov = cov + eps * np.eye(d)
            w, v = _clamped_eigh(cov, "regularized barycenter iterate")
        inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
        cov = inv_sqrt @ (m @ m) @ inv_sqrt
        cov = (cov + cov.T) / 2.0

    m = _barycenter_map(psd_sqrt(cov), covs, weights)
    residual = float(np.linalg.norm(cov - m))
    raise ConvergenceError(
        f"barycenter did not converge in {max_iter} iterations (residual {residual:.3e})",
        last_cov=cov,
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
