"""The Gaussian (FID-formula) path against its two-eigendecomposition oracle.

The oracle below is the code the single-root path replaced: a trace
cross term that takes a full ``eigh`` of both ``A`` and
``A^1/2 B A^1/2``, and a barycenter iteration that decomposes every
iterate twice (once for ``C^1/2``, once for ``C^-1/2``).

The cross term must agree to 1e-12 relative to ``Tr A + Tr B`` on
full-rank pairs.  On rank-deficient pairs the product has zero
eigenvalues, which both ``eigh`` and ``eigvalsh`` return as roundoff of
order ``eps * ||A|| ||B||``; the square root in the trace turns that
into ``sqrt(eps)``-sized noise, which both paths carry, so those pairs
get that term on top of the 1e-12.  The barycenter must be bit-identical.
The eigensolver call counts of each entry point are pinned exactly.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedeval import (
    Client,
    ClientSet,
    ConvergenceError,
    GaussianStats,
    NotPsdError,
    barycenter,
    counterexample,
    fid_all,
    fid_avg,
    fid_avg_decomposition,
    frechet,
    frechet_distance,
    psd_sqrt,
)

from conftest import random_cov, random_stats_clients

EPS = np.finfo(float).eps
REL = 1e-12

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# oracle: two full eigendecompositions per cross term and per iterate


def oracle_clamped_eigh(a, what):
    w, v = np.linalg.eigh(a)
    lam_max = max(float(w[-1]), 0.0)
    floor = -frechet.EIGENVALUE_CLAMP_REL * lam_max
    if float(w[0]) < floor:
        raise NotPsdError(
            f"{what} is not PSD: eigenvalue {w[0]:.3e} below clamp threshold {floor:.3e}"
        )
    return np.clip(w, 0.0, None), v


def oracle_psd_sqrt(a):
    w, v = oracle_clamped_eigh((a + a.T) / 2.0, "matrix")
    b = (v * np.sqrt(w)) @ v.T
    return (b + b.T) / 2.0


def oracle_trace_cross_term(cov_a, cov_b):
    s = oracle_psd_sqrt(cov_a)
    inner = s @ cov_b @ s
    inner = (inner + inner.T) / 2.0
    w, _ = oracle_clamped_eigh(inner, "covariance product")
    return float(np.sum(np.sqrt(w)))


def oracle_barycenter_map(cov, covs, weights):
    s = oracle_psd_sqrt(cov)
    acc = np.zeros_like(cov)
    for w_i, c_i in zip(weights, covs):
        inner = s @ c_i @ s
        inner = (inner + inner.T) / 2.0
        ew, ev = oracle_clamped_eigh(inner, "barycenter inner product")
        acc = acc + w_i * ((ev * np.sqrt(ew)) @ ev.T)
    return (acc + acc.T) / 2.0


def oracle_barycenter(clients, tol, max_iter):
    stats = clients.stats_list()
    weights = clients.weights
    d = clients.dim
    mean = weights @ np.stack([s.mean for s in stats])
    covs = np.stack([s.cov for s in stats])
    cov = np.einsum("i,ijk->jk", weights, covs)
    cov = (cov + cov.T) / 2.0
    history = []
    for iteration in range(max_iter):
        m = oracle_barycenter_map(cov, covs, weights)
        residual = float(np.linalg.norm(cov - m))
        history.append(residual)
        if residual <= tol * max(float(np.linalg.norm(cov)), np.finfo(float).tiny):
            return SimpleNamespace(
                mean=mean, cov=cov, iterations=iteration, residual=residual,
                residual_history=history,
            )
        w, v = oracle_clamped_eigh(cov, "barycenter iterate")
        if float(w[0]) <= 0.0:
            eps = 1e-12 * float(np.trace(cov)) / d
            cov = cov + eps * np.eye(d)
            w, v = oracle_clamped_eigh(cov, "regularized barycenter iterate")
        inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
        cov = inv_sqrt @ (m @ m) @ inv_sqrt
        cov = (cov + cov.T) / 2.0
    m = oracle_barycenter_map(cov, covs, weights)
    residual = float(np.linalg.norm(cov - m))
    raise ConvergenceError(
        f"barycenter did not converge in {max_iter} iterations (residual {residual:.3e})",
        last_cov=cov,
        residual=residual,
        iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# instances


def _psd(rng, d, cols, scale):
    x = rng.normal(size=(d, cols)) * scale
    a = x @ x.T
    return (a + a.T) / 2.0


@st.composite
def psd_pairs(draw, deficient):
    """(A, B) with d <= 8; full rank, or at least one of them rank-deficient."""
    d = draw(st.integers(1, 8))
    if deficient:
        ra, rb = draw(st.integers(0, d - 1)), draw(st.integers(0, d))
        if draw(st.booleans()):
            ra, rb = rb, ra
    else:
        ra = rb = d + 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sa, sb = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    return _psd(rng, d, ra, sa), _psd(rng, d, rb, sb)


def tolerance(a, b, deficient):
    tol = REL * float(np.trace(a) + np.trace(b))
    if deficient:
        # Zero eigenvalues of A^1/2 B A^1/2 come back as roundoff below
        # about d * eps * ||A|| ||B|| from either solver, and each enters
        # the trace through its square root.
        d = a.shape[0]
        lam = max(float(np.linalg.eigvalsh(a)[-1]), 0.0) * max(float(np.linalg.eigvalsh(b)[-1]), 0.0)
        tol += d * math.sqrt(2.0 * d * EPS * lam)
    return tol


@pytest.fixture
def eig_counts(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def cross_term(a, b):
    return frechet._trace_cross_term(psd_sqrt(a), b)


# ---------------------------------------------------------------------------
# cross term and its symmetry


@SETTINGS
@given(st.booleans().flatmap(lambda deficient: st.tuples(st.just(deficient), psd_pairs(deficient))))
def test_cross_term_matches_two_eigh_oracle(case):
    deficient, (a, b) = case
    got, want = cross_term(a, b), oracle_trace_cross_term(a, b)
    assert abs(got - want) <= tolerance(a, b, deficient), (got, want)


@SETTINGS
@given(st.booleans().flatmap(lambda deficient: st.tuples(st.just(deficient), psd_pairs(deficient))))
def test_trace_term_symmetric(case):
    """T(A, B) = T(B, A): the reference side's root may be either covariance."""
    deficient, (a, b) = case
    assert abs(cross_term(a, b) - cross_term(b, a)) <= tolerance(a, b, deficient)


def test_cross_term_clamp_thresholds_unchanged():
    eye = np.eye(2)
    with pytest.raises(NotPsdError, match="covariance product is not PSD"):
        cross_term(eye, np.diag([1.0, -0.5]))
    with pytest.raises(NotPsdError, match="covariance product is not PSD"):
        oracle_trace_cross_term(eye, np.diag([1.0, -0.5]))
    # Within the relative clamp: treated as roundoff on both paths.
    tiny = np.diag([1.0, -0.5e-8])
    assert cross_term(eye, tiny) == oracle_trace_cross_term(eye, tiny) == 1.0


# ---------------------------------------------------------------------------
# barycenter: one eigh per iterate, bit-identical to two


@st.composite
def barycenter_clients(draw):
    """Weighted stats clients; some share a null direction (singular iterates)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    singular = d > 1 and draw(st.booleans())
    w = rng.random(k) + 0.1
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    null = rng.normal(size=d)
    proj = np.eye(d) - np.outer(null, null) / float(null @ null)
    clients = []
    for i in range(k):
        cov = random_cov(rng, d)
        if singular:
            cov = proj @ cov @ proj
            cov = (cov + cov.T) / 2.0
        clients.append(
            Client(
                id=f"c{i}",
                weight=float(w[i]),
                stats=GaussianStats(n=10, mean=rng.normal(size=d), cov=cov),
            )
        )
    return ClientSet(clients)


def _outcome(solve, clients):
    try:
        s = solve(clients, 1e-10, 60)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc), exc.last_cov.tobytes(), exc.residual)
    except (NotPsdError, np.linalg.LinAlgError) as exc:
        # Clients sharing a null direction can drive an iterate's C^-1/2
        # to overflow; both paths must then fail the same way.
        return (type(exc).__name__, str(exc))
    return (
        "solution",
        s.mean.tobytes(),
        s.cov.tobytes(),
        s.iterations,
        s.residual,
        s.residual_history,
    )


@SETTINGS
@given(barycenter_clients())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_barycenter_bit_identical_to_two_eigh_iteration(clients):
    got = _outcome(lambda c, tol, it: barycenter(c, tol=tol, max_iter=it), clients)
    want = _outcome(oracle_barycenter, clients)
    assert got == want


def test_barycenter_regularized_branch_bit_identical(eig_counts):
    """Commuting covariances with a shared zero eigenvalue: every iterate is
    singular, so each non-final iterate is regularized and decomposed again."""
    clients = ClientSet(
        [
            Client(id="a", stats=GaussianStats(n=2, mean=[0, 0, 0], cov=np.diag([1.0, 4.0, 0.0]))),
            Client(id="b", stats=GaussianStats(n=2, mean=[1, 0, 0], cov=np.diag([9.0, 1.0, 0.0]))),
        ]
    )
    solution = barycenter(clients)
    it = solution.iterations
    assert it >= 1
    assert eig_counts["eigh"] == (it + 1) * 3 + it
    np.testing.assert_allclose(solution.cov, np.diag([4.0, 2.25, 0.0]), atol=1e-9)
    want = _outcome(oracle_barycenter, clients)
    assert _outcome(lambda c, tol, it: barycenter(c, tol=tol, max_iter=it), clients) == want


# ---------------------------------------------------------------------------
# eigensolver call counts


def _gen(rng, d):
    return GaussianStats(n=50, mean=rng.normal(size=d), cov=random_cov(rng, d))


def test_fid_call_counts(eig_counts, rng):
    clients = random_stats_clients(rng, k_max=6, d=5)
    k = len(clients)
    g = _gen(rng, 5)
    fid_avg(clients, g)
    assert eig_counts == {"eigh": k, "eigvalsh": k}
    fid_all(clients, g)
    frechet_distance(g, g)
    assert eig_counts == {"eigh": k + 2, "eigvalsh": k + 2}


def test_decomposition_call_counts(eig_counts, rng):
    for _ in range(3):
        clients = random_stats_clients(rng, d=4)
        k = len(clients)
        eig_counts.update(eigh=0, eigvalsh=0)
        it = fid_avg_decomposition(clients, _gen(rng, 4)).solution.iterations
        assert eig_counts == {"eigh": (it + 1) * (k + 1) + 1, "eigvalsh": k + 1}


def _search_clients():
    return ClientSet(
        [
            Client(
                id=f"c{i}",
                stats=GaussianStats(
                    n=20,
                    mean=np.eye(5)[i] * (i + 1.0),
                    cov=np.diag(np.linspace(0.5, 1.5, 5) * (i + 1.0)),
                ),
            )
            for i in range(3)
        ]
    )


def test_counterexample_objective_makes_no_eigh(eig_counts, monkeypatch):
    """Each objective evaluation costs K+1 eigvalsh against cached roots."""
    clients = _search_clients()
    k = len(clients)
    per_evaluation = []

    def one_evaluation(objective, theta, **kwargs):
        before = dict(eig_counts)
        objective(theta)
        per_evaluation.append({n: eig_counts[n] - before[n] for n in eig_counts})
        return SimpleNamespace(x=theta)

    monkeypatch.setattr(counterexample, "minimize", one_evaluation)
    counterexample.search_matched_pair(clients, budget=8)
    assert per_evaluation == [{"eigh": 0, "eigvalsh": k + 1}] * 4


def test_counterexample_search_roots_computed_once(eig_counts):
    clients = _search_clients()
    k = len(clients)
    report = counterexample.search_matched_pair(clients, seed=3, budget=120)
    # targets, every evaluation, the final residual check and the report
    assert eig_counts == {"eigh": k + 1, "eigvalsh": (k + 1) * (report.evaluations + 4)}
    eig_counts.update(eigh=0, eigvalsh=0)
    counterexample.construct(clients)
    assert eig_counts == {"eigh": k + 1, "eigvalsh": 2 * (k + 1)}
