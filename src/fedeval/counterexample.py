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
while keeping the pooled-score gap as large as possible, with the
adaptive Nelder–Mead simplex method of :func:`_nelder_mead`.  The module
needs numpy alone: the complement of the client means comes from
numpy's SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frechet import _distances, _references
from .statkit import (
    ClientSet,
    GaussianModel,
    _JsonFields,
    _check_finite,
    _mixture_moments,
    pool_moments,
)

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
    """Orthonormal basis (columns) of the complement of span{client means}:
    the right singular vectors past the numerical rank, the count of
    singular values above ``s_max * eps * max(K, d)``, each signed so that
    its first entry above ``SIGN_FIX_TOL`` in magnitude is positive."""
    _, s, vh = np.linalg.svd(means, full_matrices=True)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(means.shape))
    # Columns of a C-ordered V, the layout scipy's null_space returns, so
    # products with the basis round as they always have.
    basis = np.ascontiguousarray(vh.T)[:, np.sum(s > tol, dtype=int):]
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


def _client_spread(clients: ClientSet):
    """The client means (fewer than the dimensions, else a ValueError), ``u = Tr B`` and ``W``."""
    stats = clients.stats_list()
    means = np.stack([s.mean for s in stats])
    k, d = means.shape
    if k >= d:
        raise ValueError(
            f"no orthogonal direction: need fewer clients ({k}) than dimensions ({d})"
        )
    _, within, between = _mixture_moments(stats, clients.weights)
    return means, float(np.trace(between)), within


def _starting_simplex(x0: np.ndarray) -> np.ndarray:
    """The usual Nelder–Mead starting simplex around ``x0``: ``x0``, then
    ``x0`` with coordinate k scaled by ``1 + 0.05``, or set to ``0.00025``
    where it is 0."""
    n = x0.shape[0]
    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    return simplex


class _BudgetSpent(Exception):
    """An evaluation was asked for after the last one the budget allows."""


def _nelder_mead(objective, simplex, maxfev, xatol, fatol) -> np.ndarray:
    """The best vertex found by the adaptive Nelder–Mead method (Gao & Han
    2012) from ``simplex``, its N+1 vertices in the rows.

    ``objective`` maps a stack of points (rows) to their values: first the
    ``min(N+1, maxfev)`` starting vertices, then one point per call.
    Stops after ``maxfev`` evaluations, or once every vertex is within
    ``xatol`` of the best one and every value within ``fatol`` of the best
    value.  This is scipy's ``minimize(..., method="Nelder-Mead")`` with
    ``initial_simplex``, ``maxfev``, ``xatol``, ``fatol`` and
    ``adaptive=True``, operation for operation, so it evaluates the same
    points and returns the same bits (the tests hold it to scipy).  The
    budget ends an iteration where it runs out: a shrink stops at the
    vertex it moved but may not evaluate, which keeps its old value.
    """
    sim = np.array(simplex, dtype=np.float64)
    n = sim.shape[1]
    # Expansion, contraction and shrink; the reflection coefficient is 1
    # and left out of the products below.
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    fsim = np.full(n + 1, np.inf)
    calls = min(n + 1, maxfev)
    fsim[:calls] = objective(sim[:calls])

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return objective(x[None])[0]

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    # Sorted twice, as scipy does: argsort is not stable, so the second
    # sort may reorder tied values.
    sim, fsim = by_value(*by_value(sim, fsim))

    while calls < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # Outside contraction.
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    # Inside contraction.
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0]


def _candidate_stack(thetas, center, basis, tril):
    """The search candidates of parameter rows ``thetas``: means ``center +
    basis @ theta[:m]`` over the ``m`` basis columns, covariances ``L @ L^T``
    with ``L`` lower-triangular, its ``tril`` entries ``theta[m:]``.  The
    stacked matrix-vector and ``L @ L^T`` products round as one row's do."""
    m, d = basis.shape[1], basis.shape[0]
    means = center + (basis @ thetas[:, :m, None])[..., 0]
    chol = np.zeros((len(thetas), d, d))
    chol[:, tril[0], tril[1]] = thetas[:, m:]
    return means, chol @ np.swapaxes(chol, 1, 2)


def _client_and_pool_references(clients: ClientSet):
    """The pooled statistic and the reference stack (the clients, then the
    pool), each root PSD-checked in that order before any scoring."""
    pooled = pool_moments(clients)
    refs = _references(clients.stats_list() + [pooled])
    refs.check_roots()
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
    means, u, within = _client_spread(clients)
    if u <= DEGENERATE_U_TOL:
        raise ValueError("u = 0, construction degenerate: client means coincide")
    beta = _mean_complement_basis(means)[:, 0]
    pooled, refs = _client_and_pool_references(clients)
    g_hat = GaussianModel(mean=pooled.mean, cov=pooled.cov)
    g_prime = GaussianModel(mean=pooled.mean + np.sqrt(u) * beta, cov=within)
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

    Each stage runs :func:`_nelder_mead` from the usual starting simplex
    around the last stage's result, and scores each stack of candidates
    it asks for (the starting vertices, then one point at a time) in one
    stacked call; numpy solves a stack one matrix at a time, so every
    value is the one a candidate scored alone gets.  ``budget`` must be at least 1.
    """
    if budget < 1:
        raise ValueError(f"search budget must be at least 1, got {budget}")
    means, u, _ = _client_spread(clients)
    k, d = means.shape
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

    def candidates(thetas):
        # Each finite-checked in order (symmetric PSD by construction); one
        # the check rejects raises after those before it are scored, the
        # order one candidate at a time gives.
        means, covs = _candidate_stack(thetas, pooled.mean, basis, tril)
        for i in range(len(thetas)):
            try:
                _check_finite(means[i], covs[i])
            except ValueError:
                if i:
                    _distances(refs, means[:i, None], covs[:i, None])
                raise
        return means[:, None], covs[:, None]

    stages = [1e2, 1e4, 1e6, 1e8]
    per_stage = max(budget // len(stages), 1)
    for penalty in stages:
        simplex = _starting_simplex(theta)

        def objective(thetas):
            # One _distances call (one eigvalsh) scores every candidate
            # against the K clients, then the pool.
            nonlocal evaluations
            evaluations += len(thetas)
            scores = _distances(refs, *candidates(thetas))[0]
            r = scores[:, :-1] - targets
            squares = (r[:, None, :] @ r[:, :, None]).ravel().tolist()
            # In Python floats, as one candidate's were: an overflow is inf, not a warning.
            return [
                penalty * q - abs(gap - fid_all_hat)
                for q, gap in zip(squares, scores[:, -1].tolist())
            ]

        theta = _nelder_mead(objective, simplex, per_stage, xatol=1e-12, fatol=1e-14)

    best = GaussianModel(*(x[0, 0] for x in candidates(theta[None])))
    residuals = _distances(refs, best.mean, best.cov)[0][:-1] - targets
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
