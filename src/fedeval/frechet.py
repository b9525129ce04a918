"""Gaussian 2-Wasserstein distances, their avg/all aggregations, and the
covariance barycenter.

The squared distance between Gaussian surrogates ``(mean_a, cov_a)`` and
``(mean_b, cov_b)`` is

    ||mean_a - mean_b||^2 + Tr(cov_a + cov_b - 2 (cov_a^1/2 cov_b cov_a^1/2)^1/2)

The trace cross term is always evaluated through the symmetric product
``A^1/2 B A^1/2``, never through the non-symmetric ``(A B)^1/2``; the
traces coincide and symmetric eigensolvers are stable on rank-deficient
covariances.  The cross term needs only the eigenvalues of that product
(one ``eigvalsh``); the reference side's root ``A^1/2`` is the one full
eigendecomposition, computed once per reference and reused against
every covariance it is compared with (the barycenter centre in the avg
decomposition, the clients and the pool in the counterexample search).
The barycenter iteration takes both ``C^1/2`` and ``C^-1/2`` of each
iterate from a single eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NotPsdError, NumericalError
from .statkit import ClientSet, GaussianModel, GaussianStats, pool_moments

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


def _clamped_eigh(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix, clamping tiny negatives to 0."""
    w, v = np.linalg.eigh(a)
    return _clamp(w, what), v


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD square root ``V diag(sqrt(w)) V^T`` from clamped eigenpairs."""
    b = (v * np.sqrt(w)) @ v.T
    return (b + b.T) / 2.0


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Requires symmetry within ``1e-10 * ||a||_F`` and eigenvalues above
    ``-1e-8 * lambda_max`` (clamped to zero when negative).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = max(float(np.linalg.norm(a)), 1.0)
    if np.linalg.norm(a - a.T) > SYMMETRY_RTOL * scale:
        raise NotPsdError("matrix is not symmetric")
    return _root(*_clamped_eigh((a + a.T) / 2.0, "matrix"))


def _trace_cross_term(root_a: np.ndarray, cov_b: np.ndarray) -> float:
    """Tr((A^1/2 B A^1/2)^1/2) for symmetric PSD B, given the root A^1/2."""
    inner = root_a @ cov_b @ root_a
    inner = (inner + inner.T) / 2.0
    w = _clamp(np.linalg.eigvalsh(inner), "covariance product")
    return float(np.sum(np.sqrt(w)))


@dataclass
class FrechetResult:
    """Squared Gaussian 2-Wasserstein distance, split into its two terms."""

    value: float
    mean_term: float
    trace_term: float

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "mean_term": self.mean_term,
            "trace_term": self.trace_term,
        }


def _check_dims(a, b) -> None:
    if a.mean.shape[0] != b.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: {a.mean.shape[0]} vs {b.mean.shape[0]}"
        )


def _distance(a, root_a: np.ndarray, b) -> FrechetResult:
    """:func:`frechet_distance` with the reference root ``a.cov^1/2`` given."""
    _check_dims(a, b)
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    cross = _trace_cross_term(root_a, b.cov)
    trace_term = float(np.trace(a.cov) + np.trace(b.cov)) - 2.0 * cross
    value = mean_term + trace_term
    if value < 0.0:
        if value < -VALUE_CLAMP:
            raise NumericalError(f"distance {value!r} below clamp threshold")
        value = 0.0
    return FrechetResult(value=value, mean_term=mean_term, trace_term=trace_term)


def frechet_distance(a, b) -> FrechetResult:
    """Squared 2-Wasserstein distance between two Gaussian surrogates.

    ``a`` and ``b`` are anything with ``mean`` and ``cov`` attributes
    (:class:`GaussianStats` or :class:`GaussianModel`); ``a`` is the
    reference side, whose covariance root is taken.  Values in
    ``[-1e-8, 0)`` are clamped to zero.
    """
    _check_dims(a, b)
    return _distance(a, psd_sqrt(a.cov), b)


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
    per_client = [frechet_distance(s, g) for s in clients.stats_list()]
    values = np.array([r.value for r in per_client])
    return FidAvgResult(value=float(clients.weights @ values), per_client=per_client)


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
        m = _barycenter_map(_root(w, v), covs, weights)
        residual = float(np.linalg.norm(cov - m))
        history.append(residual)
        if residual <= tol * max(float(np.linalg.norm(cov)), np.finfo(float).tiny):
            return BarycenterSolution(
                mean=mean,
                cov=cov,
                iterations=iteration,
                residual=residual,
                residual_history=history,
            )
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
    solution = barycenter(clients, tol=tol, max_iter=max_iter)
    center = GaussianModel(mean=solution.mean, cov=solution.cov)
    root = psd_sqrt(center.cov)
    barycenter_part = _distance(center, root, g).value
    per_client = np.array(
        [_distance(center, root, s).value for s in clients.stats_list()]
    )
    const_part = float(clients.weights @ per_client)
    return DecompositionResult(
        barycenter_part=barycenter_part, const_part=const_part, solution=solution
    )
