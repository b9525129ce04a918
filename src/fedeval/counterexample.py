"""Construct and measure matched-score generator pairs.

Given heterogeneous clients, build two Gaussian generators that are
intended to receive identical per-client distance scores while their
scores against the pooled reference differ:

* ``g_hat``  -- the pooled-moment Gaussian (zero distance to the pooled
  reference by construction);
* ``g_prime`` -- mean shifted by ``sqrt(u)`` along a unit direction
  ``beta`` orthogonal to every client mean, covariance equal to the
  weighted mean of client covariances, where ``u`` is the trace of the
  between-client mean spread.

Every reported number is obtained by direct distance evaluation, never
by assuming the construction works: per-client residuals quantify how
far the two generators actually are from sharing scores (on generic
instances they do not share them exactly), and the measured pooled-score
gap is reported next to the nominal lower bound ``2u``.

:func:`search_matched_pair` additionally runs a derivative-free search
for a generator that matches ``g_hat``'s per-client scores numerically
while keeping the pooled-score gap as large as possible.

This is the only module that uses scipy (``null_space`` and
Nelder–Mead), and it imports scipy inside the two functions that need
it, on purpose: the package and the CLI load this module, and a
module-level import would make every subcommand pay scipy's start-up
time and memory.  ``tests/test_imports.py`` checks that no other
subcommand loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .frechet import _clamp, _distances, _references
from .statkit import ClientSet, GaussianModel, _JsonFields, _check_finite, pool_moments

DEGENERATE_U_TOL = 1e-10
SIGN_FIX_TOL = 1e-12
RESIDUAL_TARGET = 1e-6


@dataclass
class CounterexampleReport(_JsonFields):
    """Everything measured about a matched-score generator pair."""

    g_hat: GaussianModel
    g_prime: GaussianModel
    u: float
    beta: np.ndarray
    per_client_fid_hat: list[float]
    per_client_fid_prime: list[float]
    per_client_residuals: list[float]
    fid_all_hat: float
    fid_all_prime: float
    measured_gap: float
    claimed_gap_lower_bound: float
    converged: bool = True
    evaluations: int = 0


def _mean_complement_basis(means: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of span{client means}."""
    from scipy.linalg import null_space

    basis = null_space(means)
    if basis.size == 0:
        raise ValueError(
            "no orthogonal direction: client means span the embedding space"
        )
    for col in range(basis.shape[1]):
        v = basis[:, col]
        idx = np.flatnonzero(np.abs(v) > SIGN_FIX_TOL)
        if idx.size and v[idx[0]] < 0:
            basis[:, col] = -v
    return basis


def _spread_trace(means: np.ndarray, weights: np.ndarray) -> float:
    """Trace of the weighted between-client mean spread."""
    mean_hat = weights @ means
    return float(weights @ np.sum(means**2, axis=1) - np.sum(mean_hat**2))


def _starting_simplex(x0: np.ndarray) -> np.ndarray:
    """scipy's default Nelder–Mead starting simplex around ``x0``: ``x0``,
    then ``x0`` with coordinate k scaled by ``1 + 0.05``, or set to
    ``0.00025`` where it is 0."""
    n = x0.shape[0]
    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    return simplex


def _client_and_pool_references(clients: ClientSet):
    """The pooled statistic and the reference stack (the clients, then the
    pool), each root PSD-checked in that order before any scoring."""
    pooled = pool_moments(clients)
    refs = _references(clients.stats_list() + [pooled])
    for spectrum in refs.spectra:
        _clamp(spectrum, "matrix")
    return pooled, refs


def _measure(refs, g_hat, g_prime, u, beta, converged=True, evaluations=0):
    # Clients against both generators, then the pool: the order errors raise in.
    clients, pool = refs[:-1], refs[-1:]
    hat = _distances(clients, g_hat.mean, g_hat.cov)[0].tolist()
    prime = _distances(clients, g_prime.mean, g_prime.cov)[0].tolist()
    residuals = [abs(a - b) for a, b in zip(prime, hat)]
    fid_all_hat = float(_distances(pool, g_hat.mean, g_hat.cov)[0][0])
    fid_all_prime = float(_distances(pool, g_prime.mean, g_prime.cov)[0][0])
    return CounterexampleReport(
        g_hat=g_hat,
        g_prime=g_prime,
        u=u,
        beta=beta,
        per_client_fid_hat=hat,
        per_client_fid_prime=prime,
        per_client_residuals=residuals,
        fid_all_hat=fid_all_hat,
        fid_all_prime=fid_all_prime,
        measured_gap=fid_all_prime - fid_all_hat,
        claimed_gap_lower_bound=2.0 * u,
        converged=converged,
        evaluations=evaluations,
    )


def construct(clients: ClientSet) -> CounterexampleReport:
    """Build the analytic generator pair and measure every claim about it.

    Requires fewer clients than embedding dimensions (so an orthogonal
    mean direction exists) and at least two distinct client means (so
    the spread ``u`` is positive).
    """
    stats = clients.stats_list()
    means = np.stack([s.mean for s in stats])
    k, d = means.shape
    if k >= d:
        raise ValueError(
            f"no orthogonal direction: need fewer clients ({k}) than dimensions ({d})"
        )
    weights = clients.weights
    u = _spread_trace(means, weights)
    if u <= DEGENERATE_U_TOL:
        raise ValueError("u = 0, construction degenerate: client means coincide")
    beta = _mean_complement_basis(means)[:, 0]
    pooled, refs = _client_and_pool_references(clients)
    g_hat = GaussianModel(mean=pooled.mean, cov=pooled.cov)
    cov_prime = np.einsum("i,ijk->jk", weights, np.stack([s.cov for s in stats]))
    cov_prime = (cov_prime + cov_prime.T) / 2.0
    g_prime = GaussianModel(mean=pooled.mean + np.sqrt(u) * beta, cov=cov_prime)
    return _measure(refs, g_hat, g_prime, u, beta)


def search_matched_pair(
    clients: ClientSet, seed: int = 0, budget: int = 10000
) -> CounterexampleReport:
    """Search for a generator matching the pooled-moment generator's
    per-client scores while maximizing the pooled-score gap.

    The candidate mean moves in the affine space "pooled mean plus the
    complement of span{client means}" and the covariance is
    parameterized through its lower-triangular factor, so candidates
    stay PSD.  Per-client score mismatches are driven to zero through an
    escalating quadratic penalty while the pooled-score gap enters the
    objective with a negative sign.  Deterministic for a fixed seed; if
    the budget runs out before the per-client residual sum reaches
    1e-6, the best iterate is returned flagged as not converged.

    Each stage starts from scipy's default simplex, built here and passed
    as ``initial_simplex``.  The vertices scipy evaluates first are scored
    in one stacked call before the stage runs, and its calls for exactly
    those vertices (matched by their bytes) are answered from that table;
    numpy solves a stack one matrix at a time, so every value is the one
    the per-candidate path gives.
    """
    from scipy.optimize import minimize

    stats = clients.stats_list()
    means = np.stack([s.mean for s in stats])
    k, d = means.shape
    if k >= d:
        raise ValueError(
            f"no orthogonal direction: need fewer clients ({k}) than dimensions ({d})"
        )
    weights = clients.weights
    u = _spread_trace(means, weights)
    if k >= 2 and u <= DEGENERATE_U_TOL:
        raise ValueError("u = 0, construction degenerate: client means coincide")
    basis = _mean_complement_basis(means)
    m_free = basis.shape[1]
    pooled, refs = _client_and_pool_references(clients)
    g_hat = GaussianModel(mean=pooled.mean, cov=pooled.cov)
    scores = _distances(refs, g_hat.mean, g_hat.cov)[0]
    targets, fid_all_hat = scores[:-1], float(scores[-1])

    tril = np.tril_indices(d)
    chol0 = np.linalg.cholesky(pooled.cov + 1e-9 * np.eye(d))
    rng = np.random.default_rng(seed)
    theta = np.concatenate([1e-3 * rng.standard_normal(m_free), chol0[tril]])

    evaluations = 0

    def candidate(theta):
        # Symmetric PSD by construction: only the finite check is needed.
        mean = pooled.mean + basis @ theta[:m_free]
        chol = np.zeros((d, d))
        chol[tril] = theta[m_free:]
        cov = chol @ chol.T
        _check_finite(mean, cov)
        return mean, cov

    def residuals_and_gap(scores):
        # Scores of one candidate against the K clients, then the pool.
        return scores[:-1] - targets, float(scores[-1]) - fid_all_hat

    def prescore(simplex):
        # The vertices' scores from one _distances call (one eigvalsh over
        # every vertex and reference), in the order scipy evaluates them.
        # If a vertex fails, nothing is prescored: the live path then
        # raises the first failure in the order it always did.
        try:
            means, covs = zip(*(candidate(t) for t in simplex))
            rows = _distances(refs, np.stack(means)[:, None], np.stack(covs)[:, None])[0]
        except (ValueError, NumericalError):
            return []
        return [(t.tobytes(), scores) for t, scores in zip(simplex, rows)]

    stages = [1e2, 1e4, 1e6, 1e8]
    per_stage = max(budget // len(stages), 1)
    for penalty in stages:
        simplex = _starting_simplex(theta)
        scored = prescore(simplex[:per_stage])

        def objective(t):
            nonlocal evaluations
            evaluations += 1
            if scored and scored[0][0] == t.tobytes():
                scores = scored.pop(0)[1]
            else:
                scores = _distances(refs, *candidate(t))[0]
            r, gap = residuals_and_gap(scores)
            return penalty * float(r @ r) - abs(gap)

        result = minimize(
            objective,
            theta,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxfev": per_stage,
                "xatol": 1e-12,
                "fatol": 1e-14,
                "adaptive": True,
            },
        )
        theta = result.x

    best = GaussianModel(*candidate(theta))
    residuals, _ = residuals_and_gap(_distances(refs, best.mean, best.cov)[0])
    converged = bool(np.sum(np.abs(residuals)) <= RESIDUAL_TARGET)
    return _measure(
        refs,
        g_hat,
        best,
        u,
        basis[:, 0],
        converged=converged,
        evaluations=evaluations,
    )
