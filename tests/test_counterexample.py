"""Matched-score generator pair: analytic construction and numerical search.

The simplex loop scores each stage's starting vertices in one stacked
objective call and every later point as a one-row stack.
``oracle_search`` below is the per-candidate search this replaced, run on
scipy's Nelder–Mead, kept as the oracle: reports (their JSON bytes,
``evaluations`` included) and errors must be identical.  The in-repo
simplex loop and complement basis are also held to scipy directly.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedeval import (
    Client,
    ClientSet,
    GaussianModel,
    GaussianStats,
    NumericalError,
    construct,
    counterexample,
    frechet_distance,
    pool_moments,
    search_matched_pair,
)
from fedeval.frechet import _distances
from fedeval.statkit import _mixture_moments

from conftest import random_cov


def toy_3d_clients():
    eye = np.eye(3)
    return ClientSet(
        [
            Client(id="c1", stats=GaussianStats(n=10, mean=[1.0, 0.0, 0.0], cov=eye)),
            Client(id="c2", stats=GaussianStats(n=10, mean=[-1.0, 0.0, 0.0], cov=eye)),
        ]
    )


def test_construct_toy_report_values():
    report = construct(toy_3d_clients())
    assert report.u == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(report.g_hat.cov, np.diag([2.0, 1.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(report.g_prime.cov, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(report.g_hat.mean, np.zeros(3), atol=1e-12)

    per_hat = 4.0 - 2.0 * math.sqrt(2.0)
    assert report.per_client_fid_hat == pytest.approx([per_hat, per_hat], abs=1e-10)
    assert report.per_client_fid_prime == pytest.approx([2.0, 2.0], abs=1e-10)
    residual = 2.0 * math.sqrt(2.0) - 2.0  # ~0.828: the scores do NOT match
    assert report.per_client_residuals == pytest.approx([residual, residual], abs=1e-10)

    assert report.fid_all_hat == pytest.approx(0.0, abs=1e-10)
    assert report.fid_all_prime == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), abs=1e-10)
    assert report.measured_gap == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), abs=1e-10)
    # the nominal lower bound 2u = 2 exceeds the measured gap on this instance
    assert report.claimed_gap_lower_bound == pytest.approx(2.0, abs=1e-12)
    assert report.measured_gap < report.claimed_gap_lower_bound


def test_construct_beta_is_unit_and_orthogonal():
    report = construct(toy_3d_clients())
    assert np.linalg.norm(report.beta) == pytest.approx(1.0, abs=1e-12)
    assert abs(report.beta[0]) <= 1e-10  # orthogonal to both means (span of e1)
    # sign fixed: first nonzero entry positive
    nz = report.beta[np.abs(report.beta) > 1e-12]
    assert nz[0] > 0
    # mean of g_prime is the pooled mean shifted by sqrt(u) along beta
    np.testing.assert_allclose(
        report.g_prime.mean, math.sqrt(report.u) * report.beta, atol=1e-12
    )


def test_construct_beta_orthogonality_random_instances():
    for seed in range(10):
        rng = np.random.default_rng(seed + 80)
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, d))
        clients = ClientSet(
            [
                Client(
                    id=f"c{i}",
                    stats=GaussianStats(
                        n=int(rng.integers(2, 30)),
                        mean=rng.normal(size=d),
                        cov=random_cov(rng, d),
                    ),
                )
                for i in range(k)
            ]
        )
        report = construct(clients)
        assert np.linalg.norm(report.beta) == pytest.approx(1.0, abs=1e-12)
        for stats in clients.stats_list():
            assert abs(report.beta @ stats.mean) <= 1e-10


def test_construct_u_equals_pooled_minus_mean_cov_trace():
    for seed in range(10):
        rng = np.random.default_rng(seed + 90)
        d = 6
        k = int(rng.integers(2, 5))
        clients = ClientSet(
            [
                Client(
                    id=f"c{i}",
                    stats=GaussianStats(
                        n=int(rng.integers(2, 30)),
                        mean=rng.normal(size=d),
                        cov=random_cov(rng, d),
                    ),
                )
                for i in range(k)
            ]
        )
        report = construct(clients)
        stats = clients.stats_list()
        mean_cov = sum(w * s.cov for w, s in zip(clients.weights, stats))
        pooled = pool_moments(clients)
        assert report.u == pytest.approx(np.trace(pooled.cov - mean_cov), abs=1e-10)
        assert report.u > 0
        assert report.fid_all_hat == pytest.approx(0.0, abs=1e-10)


def test_report_is_reproduced_by_independent_distance_calls():
    clients = toy_3d_clients()
    report = construct(clients)
    pooled = pool_moments(clients)
    for stats, hat, prime in zip(
        clients.stats_list(), report.per_client_fid_hat, report.per_client_fid_prime
    ):
        assert frechet_distance(stats, report.g_hat).value == pytest.approx(hat, abs=1e-10)
        assert frechet_distance(stats, report.g_prime).value == pytest.approx(prime, abs=1e-10)
    assert frechet_distance(pooled, report.g_prime).value == pytest.approx(
        report.fid_all_prime, abs=1e-10
    )


def test_construct_too_many_clients():
    eye = np.eye(2)
    clients = ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=3, mean=[float(i), 0.0], cov=eye))
            for i in range(3)
        ]
    )
    with pytest.raises(ValueError, match="no orthogonal direction"):
        construct(clients)


def test_construct_identical_means_degenerate():
    eye = np.eye(3)
    clients = ClientSet(
        [
            Client(id="a", stats=GaussianStats(n=3, mean=[1.0, 0.0, 0.0], cov=eye)),
            Client(id="b", stats=GaussianStats(n=3, mean=[1.0, 0.0, 0.0], cov=2 * eye)),
        ]
    )
    with pytest.raises(ValueError, match="degenerate"):
        construct(clients)


def test_report_json_round_trip():
    report = construct(toy_3d_clients())
    obj = report.to_json_dict()
    assert obj["u"] == pytest.approx(1.0)
    assert len(obj["beta"]) == 3
    assert obj["converged"] is True


# ---------------------------------------------------------------------------
# search


def test_search_finds_matched_pair_with_gap_on_toy():
    report = search_matched_pair(toy_3d_clients(), seed=0, budget=10000)
    assert report.converged
    assert sum(report.per_client_residuals) <= 1e-6
    assert abs(report.measured_gap) > 0.1
    # regression pin: the search lands on the extremal matched pair, whose
    # gap is 4 * (3 - 2 sqrt(2)) ~ 0.686
    assert report.measured_gap == pytest.approx(0.6862915092021272, abs=1e-6)


def test_search_single_client_has_no_gap():
    clients = ClientSet(
        [Client(id="only", stats=GaussianStats(n=5, mean=[1.0, 0.0, 0.0], cov=np.eye(3)))]
    )
    report = search_matched_pair(clients, seed=0, budget=4000)
    assert abs(report.measured_gap) <= 1e-6


def test_search_identical_means_rejected():
    eye = np.eye(3)
    clients = ClientSet(
        [
            Client(id="a", stats=GaussianStats(n=3, mean=[0.5, 0.0, 0.0], cov=eye)),
            Client(id="b", stats=GaussianStats(n=3, mean=[0.5, 0.0, 0.0], cov=eye)),
        ]
    )
    with pytest.raises(ValueError, match="degenerate"):
        search_matched_pair(clients, seed=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_search_budget_below_one_rejected(budget):
    with pytest.raises(ValueError, match=f"^search budget must be at least 1, got {budget}$"):
        search_matched_pair(toy_3d_clients(), budget=budget)


def test_search_deterministic_given_seed():
    first = search_matched_pair(toy_3d_clients(), seed=3, budget=2000)
    second = search_matched_pair(toy_3d_clients(), seed=3, budget=2000)
    assert first.measured_gap == second.measured_gap
    assert first.per_client_residuals == second.per_client_residuals


# ---------------------------------------------------------------------------
# oracle: one candidate per objective evaluation, scipy's default simplex


def oracle_search(clients, seed=0, budget=10000):
    """The search as it was before the starting simplices were stacked.
    The finite check is looked up at call time, so a test can make it fail
    on a chosen candidate for both searches alike."""
    from scipy.optimize import minimize

    stats = clients.stats_list()
    means = np.stack([s.mean for s in stats])
    k, d = means.shape
    if k >= d:
        raise ValueError(
            f"no orthogonal direction: need fewer clients ({k}) than dimensions ({d})"
        )
    weights = clients.weights
    u = float(np.trace(_mixture_moments(stats, weights)[2]))
    if k >= 2 and u <= counterexample.DEGENERATE_U_TOL:
        raise ValueError("u = 0, construction degenerate: client means coincide")
    basis = counterexample._mean_complement_basis(means)
    m_free = basis.shape[1]
    pooled, refs = counterexample._client_and_pool_references(clients)
    g_hat = GaussianModel(mean=pooled.mean, cov=pooled.cov)
    scores = _distances(refs, g_hat.mean, g_hat.cov)[0]
    targets, fid_all_hat = scores[:-1], float(scores[-1])

    tril = np.tril_indices(d)
    chol0 = np.linalg.cholesky(pooled.cov + 1e-9 * np.eye(d))
    rng = np.random.default_rng(seed)
    theta = np.concatenate([1e-3 * rng.standard_normal(m_free), chol0[tril]])
    evaluations = 0

    def candidate(theta):
        mean = pooled.mean + basis @ theta[:m_free]
        chol = np.zeros((d, d))
        chol[tril] = theta[m_free:]
        cov = chol @ chol.T
        counterexample._check_finite(mean, cov)
        return mean, cov

    def residuals_and_gap(mean, cov):
        scores = _distances(refs, mean, cov)[0]
        return scores[:-1] - targets, float(scores[-1]) - fid_all_hat

    per_stage = max(budget // 4, 1)
    for penalty in [1e2, 1e4, 1e6, 1e8]:

        def objective(t):
            nonlocal evaluations
            evaluations += 1
            r, gap = residuals_and_gap(*candidate(t))
            return penalty * float(r @ r) - abs(gap)

        options = {"maxfev": per_stage, "xatol": 1e-12, "fatol": 1e-14, "adaptive": True}
        theta = minimize(objective, theta, method="Nelder-Mead", options=options).x

    best = GaussianModel(*candidate(theta))
    residuals, _ = residuals_and_gap(best.mean, best.cov)
    converged = bool(np.sum(np.abs(residuals)) <= counterexample.RESIDUAL_TARGET)
    return counterexample._measure(
        refs, g_hat, best, u, basis[:, 0], converged=converged, evaluations=evaluations
    )


def _search_instance(k, d, seed, scale):
    """K random full-rank clients in d dimensions, covariances and squared
    means of order ``scale``."""
    rng = np.random.default_rng(seed)
    return ClientSet(
        [
            Client(
                id=f"c{i}",
                stats=GaussianStats(
                    n=10, mean=math.sqrt(scale) * rng.normal(size=d), cov=scale * random_cov(rng, d)
                ),
            )
            for i in range(k)
        ]
    )


def _outcome(search, clients, seed, budget, poison):
    """The report's JSON, or the error's type and message.  With ``poison``
    set, the finite check rejects every candidate whose ``cov[0, 0]`` exceeds
    the pool's by more than that fraction."""
    real_check = counterexample._check_finite
    limit = None if poison is None else (1.0 + poison) * pool_moments(clients).cov[0, 0]

    def check(mean, cov):
        if limit is not None and cov[0, 0] > limit:
            raise ValueError("non-finite entry in Gaussian parameters")
        real_check(mean, cov)

    with mock.patch.object(counterexample, "_check_finite", check):
        try:
            report = search(clients, seed=seed, budget=budget)
        except (ValueError, NumericalError) as exc:
            return type(exc), str(exc)
    return json.dumps(report.to_json_dict()).encode()


@st.composite
def search_cases(draw):
    k = draw(st.integers(1, 3))
    d = draw(st.integers(k + 1, 6))
    # N search coordinates: the free mean directions and the Cholesky factor.
    n_params = (d - k) + d * (d + 1) // 2
    return {
        "clients": _search_instance(
            k, d, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1.0, 1e10, 1e14]))
        ),
        "seed": draw(st.integers(0, 2**16)),
        "budget": draw(st.integers(1, 4 * (n_params + 1) + 8)),
        "poison": draw(st.none() | st.floats(0.0, 0.2)),
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(search_cases())
@example({"clients": _search_instance(1, 2, 0, 1.0), "seed": 0, "budget": 1, "poison": None})
@example({"clients": _search_instance(3, 6, 1, 1.0), "seed": 2, "budget": 120, "poison": None})
@example({"clients": _search_instance(2, 4, 3, 1.0), "seed": 1, "budget": 60, "poison": 0.05})
def test_search_matches_per_candidate_oracle(case):
    """Budgets below and above N+1 per stage, K from 1 to 3, d up to 6,
    small and large scales (where the value clamp can fire on a vertex),
    and candidates the finite check rejects: the same report bytes and
    evaluation count, or the same error."""
    args = case["clients"], case["seed"], case["budget"], case["poison"]
    assert _outcome(search_matched_pair, *args) == _outcome(oracle_search, *args)


def test_search_stacked_first_call_failure_raises_like_the_oracle():
    """A stage's first objective call scores its starting vertices as one
    stack, and a failure in it is the oracle's error in the oracle's order.
    Here the first stage's x0 vertex is scored below the value clamp
    against the pool."""
    failed_calls = []

    def recording(refs, mean, cov):
        try:
            return _distances(refs, mean, cov)
        except NumericalError as exc:
            failed_calls.append((len(mean), str(exc)))
            raise

    clients = _search_instance(2, 4, 16, 1e12)
    with mock.patch.object(counterexample, "_distances", recording):
        got = _outcome(search_matched_pair, clients, 3, 40, None)
        # N = 2 free mean directions + 10 Cholesky entries; the budget
        # allows 10 evaluations per stage, all of them starting vertices.
        assert failed_calls == [(10, got[1])]
        assert got == _outcome(oracle_search, clients, 3, 40, None)
        assert got[0] is NumericalError
        # The finite check rejects vertex 3 (its Cholesky factor's [0, 0]
        # entry scaled by 1.05), so the call scores vertices 0 to 2 and
        # raises x0's error, as the oracle does.
        failed_calls.clear()
        assert _outcome(search_matched_pair, clients, 3, 40, 0.05) == got
        assert failed_calls == [(3, got[1])]
    assert _outcome(oracle_search, clients, 3, 40, 0.05) == got


# ---------------------------------------------------------------------------
# oracle: scipy's Nelder–Mead and null_space, which the module replaces


def scipy_nelder_mead(objective, simplex, maxfev, xatol, fatol):
    """scipy's method on a stacked objective, one point per call."""
    from scipy.optimize import minimize

    options = {
        "initial_simplex": simplex, "maxfev": maxfev, "xatol": xatol, "fatol": fatol,
        "adaptive": True,
    }
    return minimize(
        lambda x: objective(x[None])[0], simplex[0], method="Nelder-Mead", options=options
    ).x


def _run_simplex(minimizer, values, simplex, maxfev, xatol=1e-12, fatol=1e-14):
    """The returned vertex's bytes and the bytes of every evaluated point.
    ``values`` maps a point and the evaluation's index to its value, so a
    drawn sequence of values can steer the method through every branch.

    The points each objective call receives are counted too: the module's
    loop must score the starting vertices the budget allows,
    ``min(N+1, maxfev)`` of them, in its first call and one point in each
    later call."""
    points, sizes = [], []

    def objective(xs):
        sizes.append(len(xs))
        out = []
        for x in xs:
            points.append(x.tobytes())
            out.append(values(x, len(points) - 1))
        return out

    # Values of inf make the convergence test subtract inf from inf.
    with np.errstate(invalid="ignore"):
        x = minimizer(objective, simplex.copy(), maxfev, xatol=xatol, fatol=fatol)
    if minimizer is counterexample._nelder_mead:
        assert sizes == [min(len(simplex), maxfev)] + [1] * (len(sizes) - 1)
    return x.tobytes(), points


@st.composite
def simplex_problems(draw):
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.normal(size=n) * (rng.random(n) < 0.8)  # some coordinates 0
    if draw(st.booleans()):
        simplex = counterexample._starting_simplex(x0)
    else:
        simplex = x0 + draw(st.sampled_from([1e-6, 1.0])) * rng.normal(size=(n + 1, n))
    centre, scale = rng.normal(size=n), rng.uniform(0.1, 10.0, size=n)
    kind = draw(st.sampled_from(["quadratic", "plateaus", "wall", "constant", "sequence"]))
    sequence = draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, np.inf]) | st.floats(-5, 5), min_size=1)
    )

    def values(x, i):
        q = float(scale @ (x - centre) ** 2)
        if kind == "quadratic":
            return q
        if kind == "plateaus":  # ties: contractions fail and the simplex shrinks
            return float(np.floor(4.0 * q))
        if kind == "wall":
            return np.inf if x[0] > centre[0] else q
        if kind == "constant":  # every iteration shrinks
            return 1.0
        return sequence[i % len(sequence)]

    return {"values": values, "simplex": simplex, "maxfev": draw(st.integers(1, 12 * (n + 1)))}


@settings(max_examples=150, deadline=None)
@given(simplex_problems())
def test_nelder_mead_matches_scipy(problem):
    """N from 1 to 30, budgets below and above N+1 (ending wherever they
    end, shrinks included), objectives with ties and inf: the same points
    evaluated in the same order and the same returned bits as scipy."""
    args = problem["values"], problem["simplex"], problem["maxfev"]
    assert _run_simplex(counterexample._nelder_mead, *args) == _run_simplex(scipy_nelder_mead, *args)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_nelder_mead_budget_ends_mid_shrink(n):
    """On a constant objective each iteration evaluates the reflection,
    the inside contraction and then the N shrunk vertices, so these budgets
    run out inside a shrink, at a vertex moved but not evaluated."""
    simplex = counterexample._starting_simplex(np.linspace(-1.0, 1.0, n))
    shrink_starts = [n + 1 + it * (n + 2) + 2 for it in range(3)]
    for maxfev in [s + j for s in shrink_starts for j in range(n)]:
        new = _run_simplex(counterexample._nelder_mead, lambda x, i: 1.0, simplex, maxfev)
        assert len(new[1]) == maxfev
        assert new == _run_simplex(scipy_nelder_mead, lambda x, i: 1.0, simplex, maxfev)


def oracle_complement_basis(means):
    """scipy's null space of the means, then the module's sign fix."""
    from scipy.linalg import null_space

    basis = null_space(means)
    if basis.size == 0:
        raise ValueError("no orthogonal direction: client means span the embedding space")
    for col in range(basis.shape[1]):
        v = basis[:, col]
        idx = np.flatnonzero(np.abs(v) > counterexample.SIGN_FIX_TOL)
        if idx.size and v[idx[0]] < 0:
            basis[:, col] = -v
    return basis


@st.composite
def client_means(draw):
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, d + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "low-rank", "repeated", "axes", "zero", "near"]))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    if kind == "generic":
        means = rng.normal(size=(k, d))
    elif kind == "low-rank":
        r = draw(st.integers(1, k))
        means = rng.normal(size=(k, r)) @ rng.normal(size=(r, d))
    elif kind == "repeated":
        means = np.repeat(rng.normal(size=(1, d)), k, axis=0) * rng.integers(-2, 3, size=(k, 1))
    elif kind == "axes":  # the benchmark's clients: scaled coordinate axes
        means = np.zeros((k, d))
        means[np.arange(min(k, d)), np.arange(min(k, d))] = rng.uniform(1.0, 2.0, min(k, d))
    elif kind == "zero":
        means = np.zeros((k, d))
    else:  # a row within a few ulps of the span of the others
        means = rng.normal(size=(k, d))
        means[-1] = means[0] * (1.0 + 1e-15) + 1e-17 * rng.normal(size=d)
    return scale * means


def _between_rank_rules(d):
    """d+1 means in d dimensions whose smallest singular value lies between
    ``eps * d`` and ``eps * (d+1)``: below the rank tolerance only when the
    tolerance scales with ``max(K, d)``."""
    means = np.zeros((d + 1, d))
    means[np.arange(d), np.arange(d)] = 1.0
    means[d - 1, d - 1] = np.finfo(float).eps * (d + 0.5)
    return means


@settings(max_examples=300, deadline=None)
@given(client_means())
@example(_between_rank_rules(4))
def test_mean_complement_basis_matches_null_space(means):
    """Full-rank, rank-deficient, repeated, zero and nearly dependent
    means at three scales: the same basis as scipy's null space, bit for
    bit and in the same memory layout, or the same error."""

    def outcome(basis_of):
        try:
            basis = basis_of(means.copy())
        except ValueError as exc:
            return str(exc)
        return basis.shape, basis.strides, basis.tobytes()

    assert outcome(counterexample._mean_complement_basis) == outcome(oracle_complement_basis)


# ---------------------------------------------------------------------------
# the stacked candidates against one candidate at a time


@st.composite
def candidate_stacks(draw):
    """A complement basis of K random means in d dimensions, a centre and a
    stack of search parameter rows of mixed magnitudes."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(k + 1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = counterexample._mean_complement_basis(rng.normal(size=(k, d)))
    n_params = basis.shape[1] + d * (d + 1) // 2
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    thetas = scale * rng.normal(size=(draw(st.integers(1, n_params + 1)), n_params))
    return thetas, rng.normal(size=d), basis


@settings(max_examples=100, deadline=None)
@given(candidate_stacks())
def test_candidate_stack_bit_identical_to_per_candidate(case):
    """Stacked means ``basis @ theta`` and covariances ``L @ L^T`` equal the
    per-candidate products the search used to take, bit for bit."""
    thetas, center, basis = case
    d, m = basis.shape
    tril = np.tril_indices(d)
    means, covs = counterexample._candidate_stack(thetas, center, basis, tril)
    for theta, mean, cov in zip(thetas, means, covs):
        chol = np.zeros((d, d))
        chol[tril] = theta[m:]
        assert (center + basis @ theta[:m]).tobytes() == mean.tobytes()
        assert (chol @ chol.T).tobytes() == cov.tobytes()
