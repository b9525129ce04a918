"""The Gaussian (FID-formula) path against its two-eigendecomposition oracle.

The oracle below is the code the single-root path replaced: a trace
cross term that takes a full ``eigh`` of both ``A`` and
``A^1/2 B A^1/2``, and the plain barycenter iteration, which decomposes
every iterate twice (once for ``C^1/2``, once for ``C^-1/2``).

The cross term must agree to 1e-12 relative to ``Tr A + Tr B`` on
full-rank pairs.  On rank-deficient pairs the product has zero
eigenvalues, which both ``eigh`` and ``eigvalsh`` return as roundoff of
order ``eps * ||A|| ||B||``; the square root in the trace turns that
into ``sqrt(eps)``-sized noise, which both paths carry, so those pairs
get that term on top of the 1e-12.  The accelerated barycenter must give
the oracle's mean bits and a covariance within ``PLAIN_REL`` (1e-8
relative) of the oracle's, and must converge where the oracle fails on
clients sharing a null direction; with every accelerated step rejected
it is the oracle, bit for bit.

The cross term is read off ``frechet_distance``'s trace term, so the
oracle checks the one scoring path every Gaussian score takes.  A stack
(one generator against K references, or one reference against K
targets, with one ``eigvalsh`` per stack) must be bit-identical to a
loop of one-row ``frechet_distance`` calls, and must raise the error
that loop raised first.  The aggregations root the generator: a row of
``fid_avg`` is ``frechet_distance(g, client)``, bit for bit, and where
a client fails Cholesky it is ``frechet_distance(client, g)``.  The
client-rooted scoring they replaced is kept below as an oracle: every
aggregation is within ``REL * (mean_term + Tr A + Tr B)`` of it (plus
the rank-deficient term), and raises exactly what it raises.  The
eigensolver counts of each entry point are pinned exactly, both in
matrices solved and in calls made.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedeval import (
    Client,
    ClientSet,
    ConvergenceError,
    GaussianModel,
    GaussianStats,
    NotPsdError,
    NumericalError,
    barycenter,
    counterexample,
    errors,
    fid_all,
    fid_avg,
    fid_avg_decomposition,
    frechet,
    frechet_distance,
    moments,
    pool_moments,
    write_embeddings,
)
from fedeval.cli import main
from fedeval.statkit import save_stats

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
    floor = -errors.EIGENVALUE_CLAMP_REL * lam_max
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
def eig_tally(monkeypatch):
    """Matrices solved and calls made by each eigensolver.  A stacked call
    on shape ``(..., d, d)`` solves ``prod(...)`` matrices in one call."""
    tally = {"matrices": {"eigh": 0, "eigvalsh": 0}, "calls": {"eigh": 0, "eigvalsh": 0}}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            tally["matrices"][_name] += math.prod(np.shape(a)[:-2])
            tally["calls"][_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return tally


@pytest.fixture
def eig_counts(eig_tally):
    """Matrices solved by each eigensolver."""
    return eig_tally["matrices"]


@pytest.fixture
def eig_calls(eig_tally):
    """Calls made to each eigensolver."""
    return eig_tally["calls"]


@pytest.fixture
def inner_roots(monkeypatch):
    """Inner roots of the barycenter map that were refined from their slot's
    last eigenbasis, refinements that declined, and attempts skipped
    because the basis was certainly too far (both then solved by eigh)."""
    tally = {"refined": 0, "declined": 0, "skipped": 0}
    refine, far = frechet._refined_root, frechet._far_from_basis

    def counted_refine(a):
        x = refine(a)
        tally["refined" if x is not None else "declined"] += 1
        return x

    def counted_far(*args):
        skip = far(*args)
        tally["skipped"] += skip
        return skip

    monkeypatch.setattr(frechet, "_refined_root", counted_refine)
    monkeypatch.setattr(frechet, "_far_from_basis", counted_far)
    return tally


def cross_term(a, b):
    """Tr((A^1/2 B A^1/2)^1/2), from the trace term Tr A + Tr B - 2 Tr(...)."""
    zero = np.zeros(len(a))
    r = frechet_distance(GaussianModel(mean=zero, cov=a), GaussianModel(mean=zero, cov=b))
    return (float(np.trace(a) + np.trace(b)) - r.trace_term) / 2.0


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
# barycenter: the accelerated, range-restricted solver against the plain
# two-eigh iteration


def _barycenter_instance(seed, k, d, singular, scale=1.0):
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 0.1
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    null = rng.normal(size=d)
    proj = np.eye(d) - np.outer(null, null) / float(null @ null)
    clients = []
    for i in range(k):
        cov = scale * random_cov(rng, d)
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


@st.composite
def barycenter_clients(draw):
    """Weighted stats clients; some share a null direction (singular iterates)."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    singular = d > 1 and draw(st.booleans())
    return _barycenter_instance(seed, k, d, singular)


def _bits(x):
    """Exact comparison key for a float, NaN included (NaN != NaN as floats)."""
    return np.float64(x).tobytes()


def _covs(clients):
    return np.stack([s.cov for s in clients.stats_list()])


def _relative(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def _assert_converged(solution, tol):
    assert solution.residual <= tol * np.linalg.norm(solution.cov)
    assert len(solution.residual_history) == solution.iterations + 1
    assert solution.residual_history[-1] == solution.residual


# The accelerated iterate differs from the plain one in its last digits:
# 4.8e-10 relative at worst over 400 full-rank draws (K 1-4, d 1-6).
PLAIN_REL = 1e-8


@SETTINGS
@given(barycenter_clients())
# Two rank-1 clients along one direction (covs ~ [[0.4559, 0.1156],
# [0.1156, 0.0293]] and [[0.1944, 0.0493], [0.0493, 0.0125]]): the plain
# iteration ends in ConvergenceError with residual nan; on the range of
# the weighted mean the problem is one-dimensional.
@example(_barycenter_instance(seed=1, k=2, d=2, singular=True))
@pytest.mark.filterwarnings("error")
def test_barycenter_matches_plain_iteration(clients):
    """Where the plain iteration converges, the solution has the same mean
    bits and a covariance within PLAIN_REL of it; where it fails (clients
    sharing a null direction), the solver converges."""
    tol = 1e-10
    got = barycenter(clients, tol=tol, max_iter=60)
    _assert_converged(got, tol)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = oracle_barycenter(clients, tol, 60)
    except (ConvergenceError, NotPsdError, np.linalg.LinAlgError):
        return
    assert got.mean.tobytes() == want.mean.tobytes()
    assert _relative(got.cov, want.cov) <= PLAIN_REL


@SETTINGS
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 8), st.floats(-3.0, 3.0)
)
@pytest.mark.filterwarnings("error")
def test_barycenter_converges_on_shared_null_clients(seed, k, d, log_scale):
    """Clients sharing a null direction: the solver converges, and the
    barycenter is a fixed point of the full-space map within
    ``d * sqrt(eps)`` relative.  The clients' null components are roundoff
    of order ``eps * lambda_max``, which the map's roots raise to
    ``sqrt(eps)``; the largest defect seen was 0.31 of the bound (3000
    draws).  No LinAlgError, NotPsdError or RuntimeWarning escapes."""
    clients = _barycenter_instance(seed, k, d, singular=True, scale=10.0**log_scale)
    solution = barycenter(clients)
    _assert_converged(solution, 1e-10)
    image = oracle_barycenter_map(solution.cov, _covs(clients), clients.weights)
    assert _relative(image, solution.cov) <= d * math.sqrt(EPS)


def test_barycenter_restricted_to_shared_range(eig_counts, inner_roots):
    """Commuting covariances with a shared zero eigenvalue: the solver
    iterates on the 2-dimensional range of the weighted mean.  The start's
    eigh (3x3) is the first iterate's, every later map takes one eigh of
    the (2x2) iterate, and each map roots K = 2 inner products: the first
    map solves both, the second refines both in the first map's bases."""
    clients = ClientSet(
        [
            Client(id="a", stats=GaussianStats(n=2, mean=[0, 0, 0], cov=np.diag([1.0, 4.0, 0.0]))),
            Client(id="b", stats=GaussianStats(n=2, mean=[1, 0, 0], cov=np.diag([9.0, 1.0, 0.0]))),
        ]
    )
    solution = barycenter(clients)
    it = solution.iterations
    assert it == 1
    solved = eig_counts["eigh"] - (it + 1)
    assert (solved, inner_roots["refined"]) == (2, 2)
    assert solved + inner_roots["refined"] == (it + 1) * 2
    np.testing.assert_allclose(solution.cov, np.diag([4.0, 2.25, 0.0]), atol=1e-9)
    _assert_converged(solution, 1e-10)


def _gauss_rank_clients(seed, k=8, d=56):
    """The benchmark's Gaussian clients in shape: one geometric spectrum
    (0.1 to 5), rotated per client by the exponential of a random skew
    matrix, equal weights."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.geomspace(0.1, 5.0, d)
    clients = []
    for i in range(k):
        skew = rng.standard_normal((d, d)) / math.sqrt(d)
        basis = scipy.linalg.expm(skew - skew.T) @ q
        cov = (basis * lam) @ basis.T
        stats = GaussianStats(n=384, mean=np.zeros(d), cov=(cov + cov.T) / 2.0)
        clients.append(Client(id=f"c{i}", stats=stats))
    return ClientSet(clients)


def test_barycenter_map_evaluations_on_benchmark_shaped_clients(eig_counts, inner_roots):
    clients = _gauss_rank_clients(0)
    k = len(clients)
    plain = oracle_barycenter(clients, 1e-10, 1000)
    assert plain.iterations + 1 == 14
    eig_counts.update(eigh=0, eigvalsh=0)
    solution = barycenter(clients)
    it = solution.iterations
    assert it + 1 <= 10
    _assert_converged(solution, 1e-10)
    assert _relative(solution.cov, plain.cov) <= PLAIN_REL
    # Each map: one eigh of the iterate, and K inner roots, each refined
    # from its slot's last eigenbasis or solved by one eigh.
    solved = eig_counts["eigh"] - (it + 1)
    assert solved + inner_roots["refined"] == (it + 1) * k
    assert (it, solved, inner_roots) == (9, 32, {"refined": 48, "declined": 8, "skipped": 16})
    assert eig_counts["eigvalsh"] == 0


@pytest.mark.filterwarnings("error")
def test_barycenter_rejected_step_falls_back_to_plain(eig_counts, monkeypatch, rng):
    """A mixed iterate with a negative eigenvalue is dropped for the plain
    image; with every one dropped, and every inner root solved again (its
    refinement declined), the solver is the plain iteration, bit for bit,
    at one more eigh per dropped step."""
    clients = random_stats_clients(rng, k_max=4, d=5)
    k = len(clients)
    dropped = []

    def overshoot(pairs):
        dropped.append(len(pairs))
        return -np.eye(5)

    monkeypatch.setattr(frechet, "_anderson_step", overshoot)
    monkeypatch.setattr(frechet, "_refined_root", lambda a: None)
    want = oracle_barycenter(clients, 1e-10, 1000)
    eig_counts.update(eigh=0, eigvalsh=0)
    got = barycenter(clients)
    assert dropped and all(n > 1 for n in dropped)
    assert eig_counts["eigh"] == (got.iterations + 1) * (k + 1) + len(dropped)
    assert (got.iterations, got.cov.tobytes(), _bits(got.residual)) == (
        want.iterations, want.cov.tobytes(), _bits(want.residual)
    )
    assert [_bits(r) for r in got.residual_history] == [_bits(r) for r in want.residual_history]


def _rank_one_clients():
    """Two rank-1 clients on different lines: their barycenter is singular
    inside the (full) range of their weighted mean."""
    covs = [np.diag([1.0, 0.0]), np.ones((2, 2))]
    return ClientSet(
        [Client(id=f"c{i}", stats=GaussianStats(n=2, mean=[0.0, 0.0], cov=c)) for i, c in enumerate(covs)]
    )


@pytest.mark.filterwarnings("error")
def test_barycenter_singular_iterate_is_one_convergence_error():
    """An iterate that turns singular has no C^-1/2 for its next step: the
    solver stops there with a ConvergenceError carrying that iterate,
    finite, and its defect, not a warning and NaN iterates."""
    clients = _rank_one_clients()
    for solve in (barycenter, lambda c: fid_avg_decomposition(c, clients.stats_list()[0])):
        with pytest.raises(ConvergenceError) as excinfo:
            solve(clients)
        err = excinfo.value
        assert str(err) == (
            f"barycenter iterate is singular after 6 iterations (residual {err.residual:.3e})"
        )
        assert err.iterations == 6
        assert np.isfinite(err.last_cov).all() and np.isfinite(err.residual)
        assert np.linalg.eigvalsh(err.last_cov)[0] <= 1e-8 * np.linalg.norm(err.last_cov)


def _perturbed_basis(rng, b, move):
    """Eigenvectors of ``b`` plus a random symmetric perturbation of
    relative size ``move``."""
    n = rng.normal(size=b.shape)
    n = (n + n.T) / 2.0
    scale = move * float(np.linalg.norm(b)) / max(float(np.linalg.norm(n)), EPS)
    return np.linalg.eigh(b + scale * n)[1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(-3.0, 3.0),
    st.floats(-16.0, 0.0),
    st.sampled_from(["definite", "singular", "indefinite"]),
)
@pytest.mark.filterwarnings("error")
def test_refined_root_within_its_bound_or_declined(seed, d, log_scale, log_move, kind):
    """A matrix in the eigenbasis of a perturbed copy of itself (the slot's
    last basis, an iterate ago): the refinement's root is within its
    stated bound of the eigh root, ``||a - X^2||_F / m`` with ``m`` the
    diagonal-dominance margin of ``X`` (plus the eigh root's own
    residual over ``m``, and roundoff), or the refinement declines.  A
    singular or indefinite matrix is always declined."""
    rng = np.random.default_rng(seed)
    b = _psd(rng, d, d + 3 if kind == "definite" else d - 1, 10.0 ** (log_scale / 2))
    if kind == "indefinite":
        b = b - 0.1 * float(np.linalg.eigvalsh(b)[-1] + 1.0) * np.eye(d)
    u = _perturbed_basis(rng, b, 10.0**log_move)
    a = frechet._symmetrized(u.T @ b @ u)
    x = frechet._refined_root(a)
    if x is None:
        return
    assert kind == "definite"
    bound = 4.0 * EPS * math.sqrt(d) * float(np.linalg.norm(a))
    residual = float(np.linalg.norm(a - x @ x))
    margin = float((2.0 * np.diagonal(x) - np.abs(x).sum(axis=1)).min())
    assert residual <= bound and margin * margin > bound + residual
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    eigh_residual = float(np.linalg.norm(a - root @ root))
    roundoff = d * EPS * float(np.linalg.norm(a)) / margin
    assert float(np.linalg.norm(x - root)) <= (residual + eigh_residual) / margin + roundoff


def test_refinement_declines_what_eigh_must_judge(inner_roots):
    """A non-PSD, a singular and a far-basis inner product are declined, so
    the map solves each with eigh: the non-PSD one raises the plain map's
    NotPsdError, text and all, and the others give the plain map's bits."""
    rng = np.random.default_rng(7)
    d = 4
    root = frechet.psd_sqrt(random_cov(rng, d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    far = np.linalg.qr(rng.normal(size=(d, d)))[0]
    indefinite, singular, definite = (
        (q * spectrum) @ q.T for spectrum in ([-1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    )
    near = np.linalg.eigh(root @ indefinite @ root)[1]
    others = [(singular, np.linalg.eigh(root @ singular @ root)[1]), (definite, far)]
    for cov, basis in [(indefinite, near), *others]:
        p = root @ basis
        assert frechet._refined_root(frechet._symmetrized(p.T @ cov @ p)) is None
    top = float(np.linalg.eigvalsh(root @ root)[-1])

    def scales(cov):
        return np.array([top * float(np.linalg.norm(cov))])

    with pytest.raises(NotPsdError) as plain:
        frechet._barycenter_map(root, indefinite[None], np.ones(1), [None], scales(indefinite))
    with pytest.raises(NotPsdError) as refined:
        frechet._barycenter_map(root, indefinite[None], np.ones(1), [near], scales(indefinite))
    assert str(refined.value) == str(plain.value)
    assert str(plain.value).startswith("barycenter inner product is not PSD: eigenvalue")
    for cov, basis in others:
        want = frechet._barycenter_map(root, cov[None], np.ones(1), [None], scales(cov))
        bases = [basis]
        got = frechet._barycenter_map(root, cov[None], np.ones(1), bases, scales(cov))
        assert got.tobytes() == want.tobytes()
        assert bases[0] is not basis
    assert inner_roots["refined"] == 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-3.0, 3.0), st.floats(-16.0, 0.0))
@pytest.mark.filterwarnings("error")
def test_far_basis_check_skips_only_what_refinement_declines(seed, d, log_scale, log_move):
    """The one-column check before forming the inner product skips an
    attempt only where the refinement would decline it anyway."""
    rng = np.random.default_rng(seed)
    c = _psd(rng, d, d + 3, 10.0 ** (log_scale / 2))
    root = frechet.psd_sqrt(_psd(rng, d, d + 3, 1.0))
    inner = root @ c @ root
    u = _perturbed_basis(rng, inner, 10.0**log_move)
    top = float(np.linalg.eigvalsh(root @ root)[-1])
    if frechet._far_from_basis(root, c, u, top * float(np.linalg.norm(c))):
        p = root @ u
        assert frechet._refined_root(frechet._symmetrized(p.T @ c @ p)) is None


@pytest.mark.filterwarnings("error")
def test_anderson_step_drops_a_repeated_residual():
    """A residual difference of zero spans nothing: it is dropped, not
    divided by, and the step is the newest plain image."""
    f = np.diag([1.0, -2.0])
    images = [np.eye(2), 3.0 * np.eye(2)]
    step = frechet._anderson_step([(f, images[0]), (f, images[1])])
    assert step.tobytes() == images[1].tobytes()


# ---------------------------------------------------------------------------
# stacked scoring: bit-identical to a loop of single pairs, same first error


@st.composite
def stacked_instances(draw):
    """K = 1..6 weighted clients of d = 1..40 (rows of 8 or more take numpy's
    pairwise sums), some sharing a null direction, and a full-rank generator."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 40))
    clients = _barycenter_instance(seed, draw(st.integers(1, 6)), d, d > 1 and draw(st.booleans()))
    return clients, _gen(np.random.default_rng([seed, 1]), d)


def _fields(values, mean_terms, trace_terms):
    return [
        (type(row[0]), *map(_bits, row)) for row in zip(values, mean_terms, trace_terms)
    ]


def _result_fields(results):
    return _fields(*zip(*((r.value, r.mean_term, r.trace_term) for r in results)))


def _attempt(score):
    try:
        return score()
    except (NotPsdError, NumericalError) as exc:
        return (type(exc).__name__, str(exc))


def _cholesky_passes(stats):
    """The orientation rule: every covariance has a Cholesky factor."""
    try:
        np.linalg.cholesky(np.stack([(s.cov + s.cov.T) / 2.0 for s in stats]))
    except np.linalg.LinAlgError:
        return False
    return True


@SETTINGS
@given(stacked_instances())
def test_stacked_distances_bit_identical_to_single_pairs(case):
    clients, g = case
    stats = clients.stats_list()
    # K references against one generator: the counterexample search.
    refs = frechet._references(stats)
    got = _attempt(lambda: _fields(*(x.tolist() for x in frechet._distances(refs, g.mean, g.cov))))
    want = _attempt(lambda: _result_fields([frechet_distance(s, g) for s in stats]))
    assert got == want
    # One reference against K targets: fid_avg's generator-rooted stack.
    center = frechet._references([g])
    means, covs = np.stack([s.mean for s in stats]), np.stack([s.cov for s in stats])
    got = _attempt(lambda: _fields(*(x.tolist() for x in frechet._distances(center, means, covs))))
    want = _attempt(lambda: _result_fields([frechet_distance(g, s) for s in stats]))
    assert got == want
    # fid_avg field for field against the per-client loop of its orientation:
    # rooted on the generator, or on the clients where one fails Cholesky.
    got = _attempt(lambda: fid_avg(clients, g))
    if _cholesky_passes(stats):
        want = _attempt(lambda: [frechet_distance(g, s) for s in stats])
    else:
        want = _attempt(lambda: [frechet_distance(s, g) for s in stats])
    if isinstance(want, list):
        assert _result_fields(got.per_client) == _result_fields(want)
        values = np.array([r.value for r in want])
        assert _bits(got.value) == _bits(float(clients.weights @ values))
    else:
        assert got == want


def test_stacked_value_clamp_matches_single_pairs():
    """A generator equal to client 0: its trace term comes out as -1.8e-15
    roundoff, and its distance is clamped to 0.0 as on the generator-rooted
    single pair."""
    rng = np.random.default_rng(0)
    same = GaussianStats(n=5, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    clients = ClientSet(
        [Client(id="c0", stats=same), Client(id="c1", stats=_gen(rng, 3))]
    )
    g = GaussianModel(mean=same.mean, cov=same.cov)
    got = fid_avg(clients, g).per_client
    assert got[0].value == 0.0 and got[0].trace_term < 0.0
    want = [frechet_distance(g, s) for s in clients.stats_list()]
    assert _result_fields(got) == _result_fields(want)


def _two_clients(cov_0, cov_1, means=None):
    means = means or [np.zeros(len(cov_0))] * 2
    return ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=4, mean=mean, cov=cov))
            for i, (mean, cov) in enumerate(zip(means, (cov_0, cov_1)))
        ]
    )


NOT_PSD = np.diag([1.0, -0.5])
MIXED_CASES = {
    # Client 0's product fails before client 1's own root is checked.
    "product-before-next-root": (
        (np.eye(2), NOT_PSD), NOT_PSD, NotPsdError,
        "covariance product is not PSD: eigenvalue -5.000e-01 below clamp threshold -1.000e-08",
    ),
    "root-before-own-product": (
        (NOT_PSD, np.eye(2)), NOT_PSD, NotPsdError,
        "matrix is not PSD: eigenvalue -5.000e-01 below clamp threshold -1.000e-08",
    ),
    # Client 1's root fails while every product and value passes.
    "root-alone": (
        (np.eye(2), NOT_PSD), np.eye(2), NotPsdError,
        "matrix is not PSD: eigenvalue -5.000e-01 below clamp threshold -1.000e-08",
    ),
    "dimension-mismatch": (
        (np.eye(2), NOT_PSD), np.eye(3), ValueError, "dimension mismatch: 2 vs 3",
    ),
}


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_fid_avg_raises_first_clients_first_failure(case):
    """The errors, in the parent's order: per client its root, its product
    with the generator, then its value."""
    covs, gen_cov, error, message = MIXED_CASES[case]
    g = GaussianModel(mean=np.zeros(len(gen_cov)), cov=gen_cov)
    with pytest.raises(error) as info:
        fid_avg(_two_clients(*covs), g)
    assert str(info.value) == message


def test_decomposition_raises_generator_failures():
    clients = _two_clients(np.eye(2), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError) as info:
        fid_avg_decomposition(clients, GaussianModel(mean=np.zeros(3), cov=np.eye(3)))
    assert str(info.value) == "dimension mismatch: 2 vs 3"
    with pytest.raises(NotPsdError) as info:
        fid_avg_decomposition(clients, GaussianModel(mean=np.zeros(2), cov=NOT_PSD))
    assert str(info.value) == (
        "covariance product is not PSD: eigenvalue -5.000e-01 below clamp threshold -1.457e-08"
    )


def test_decomposition_const_part_overflow_raises(eig_calls):
    """Client means 2e200 apart put const_part past float max while the
    generator, at the barycenter mean, keeps barycenter_part finite:
    const_part raises the distance's error before the aggregate is
    scored, and no warning."""
    clients = ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=4, mean=[side * 1e200, 0.0], cov=np.eye(2)))
            for i, side in enumerate((-1.0, 1.0))
        ]
    )
    with pytest.raises(NumericalError) as info:
        fid_avg_decomposition(clients, GaussianModel(mean=np.zeros(2), cov=np.eye(2)))
    assert str(info.value) == "distance is not finite"
    assert eig_calls["eigvalsh"] == 1


def test_distances_check_no_reference_spectrum(monkeypatch, rng):
    """The references' roots are PSD-checked once, when the stack is built:
    scoring tests only the products' eigenvalues, once per call."""
    clients = random_stats_clients(rng, k_max=5, d=4)
    refs = frechet._references(clients.stats_list())
    g = _gen(rng, 4)
    seen = []
    original = frechet._below_floor

    def recording(w):
        seen.append(w)
        return original(w)

    monkeypatch.setattr(frechet, "_below_floor", recording)
    for _ in range(3):
        frechet._distances(refs, g.mean, g.cov)
    assert len(seen) == 3
    assert not any(w is refs.spectra or np.shares_memory(w, refs.spectra) for w in seen)


@pytest.mark.parametrize("run", [counterexample.construct, counterexample.search_matched_pair])
def test_counterexample_checks_every_root_before_scoring(run):
    """Client 1's root fails; so would client 0's product with the (non-PSD)
    pool as generator, but every root is checked first."""
    clients = _two_clients(
        np.eye(3), np.diag([1.0, 1.0, -5.0]), means=[np.eye(3)[0], 2.0 * np.eye(3)[1]]
    )
    with pytest.raises(NotPsdError) as info:
        run(clients)
    assert str(info.value) == (
        "matrix is not PSD: eigenvalue -5.000e+00 below clamp threshold -1.000e-08"
    )


# ---------------------------------------------------------------------------
# generator-rooted aggregations against the client-rooted oracle


def oracle_fid_avg(clients, g):
    """fid_avg rooted on the clients: their roots from one stacked eigh."""
    rows = frechet._distances(frechet._references(clients.stats_list()), g.mean, g.cov)
    return float(clients.weights @ rows[0]), frechet._results(rows)


def oracle_fid_all(clients, g):
    """fid_all rooted on the pool."""
    return frechet_distance(pool_moments(clients), g)


def oracle_decomposition(clients, g):
    """The split rooted on the centre (the converged iterate's root): the
    centre against the generator, then against the K clients, one
    eigvalsh each; then the client-rooted aggregate."""
    solution, root, w, _ = frechet._barycenter(clients, 1e-10, 1000)
    center = frechet._References(
        solution.mean[None], root[None], np.trace(solution.cov)[None], w[None]
    )
    barycenter_part = frechet._results(frechet._distances(center, g.mean, g.cov))[0]
    stats = clients.stats_list()
    means, covs = np.stack([s.mean for s in stats]), np.stack([s.cov for s in stats])
    const = frechet._results(frechet._distances(center, means, covs))
    return solution, barycenter_part, const, oracle_fid_avg(clients, g)


# Everything a Gaussian score may raise; the two paths must raise alike.
_RAISED = (ValueError, ArithmeticError, NumericalError, np.linalg.LinAlgError, RuntimeWarning)
_BELOW_CLAMP = re.compile(r"distance (\S+) below clamp threshold")


@dataclass(frozen=True)
class Raised:
    kind: str
    text: str


def _outcome(score):
    try:
        return score()
    except _RAISED as exc:
        return Raised(type(exc).__name__, str(exc))


def _bound(a, b, deficient):
    """``REL * (mean_term + Tr A + Tr B)`` for the pair, plus the
    rank-deficient term (0 for a pair of two dimensions, which raises)."""
    if a.mean.shape != b.mean.shape:
        return 0.0
    return tolerance(a.cov, b.cov, deficient) + REL * float(((a.mean - b.mean) ** 2).sum())


def _same_outcome(got, want, bounds) -> bool:
    """Whether both paths returned.  An error of the oracle must be raised
    as it is, with one exception: a distance whose roundoff put it below
    the absolute value clamp, within ``bounds`` of 0, may pass on the
    other orientation (the clamp compares a cancelling difference with
    an absolute 1e-8, so its decision there is roundoff).  Nothing that
    passes on the oracle raises."""
    clamped = isinstance(want, Raised) and _BELOW_CLAMP.fullmatch(want.text)
    if clamped and not isinstance(got, Raised):
        assert abs(float(clamped[1])) <= max(bounds)
        return False
    if isinstance(want, Raised):
        assert got == want
        return False
    assert not isinstance(got, Raised), got
    return True


def _near(got, want, bound):
    """``got`` within ``bound`` of ``want``: the mean terms bit for bit,
    the trace terms and values within the bound."""
    assert _bits(got.mean_term) == _bits(want.mean_term)
    assert abs(got.trace_term - want.trace_term) <= bound, (got, want, bound)
    assert abs(got.value - want.value) <= bound, (got, want, bound)


def _weighted(clients, bounds, value):
    """The bound on a weighted mean of rows within ``bounds``: their
    weighted mean, plus the rounding of the mean itself."""
    return float(clients.weights @ np.array(bounds)) + 4 * EPS * abs(value)


def _not_psd(rng, d, scale):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = scale * np.linspace(-0.5, 1.0, d) if d > 1 else np.array([-scale])
    return (q * lam) @ q.T


def _mixed_case(name):
    covs, gen_cov, _, _ = MIXED_CASES[name]
    return _two_clients(*covs), GaussianModel(mean=np.zeros(len(gen_cov)), cov=gen_cov), True


# One of each named case, besides the drawn ones: a generator that is not
# PSD, a singular PSD client (no Cholesky factor), a generator from fewer
# samples than d, and clients sharing a null direction.
_NAMED_ROOTING_CASES = [
    (_two_clients(np.eye(2), np.diag([2.0, 1.0])), GaussianModel(mean=np.ones(2), cov=NOT_PSD), True),
    (_two_clients(np.eye(2), np.diag([1.0, 0.0])), GaussianModel(mean=np.ones(2), cov=np.eye(2)), True),
    (_two_clients(np.eye(3), np.diag([2.0, 1.0, 3.0])), moments(np.eye(3)[:2] * 2.0), True),
    (
        _two_clients(np.diag([1.0, 2.0, 0.0]), np.diag([3.0, 1.0, 0.0])),
        GaussianModel(mean=np.ones(3), cov=np.eye(3)),
        True,
    ),
]

# Two full-rank d = 2 clients drawn with _psd from seed 223, whose
# barycenter stops after 4 iterations with residual 1.5e-8.  There
# Tr C is about 63 bounds from sum_i w_i T(C, C_i) = Tr M(C), so a
# const_part that takes Tr C for that sum fails the bound.
_TRACE_SHORTCUT_CASE = (
    _two_clients(
        *[
            _psd(rng, 2, 5, 10 ** rng.uniform(-1, 1))
            for rng in [np.random.default_rng(223)]
            for _ in range(2)
        ]
    ),
    GaussianModel(mean=np.ones(2), cov=np.eye(2)),
    False,
)


@st.composite
def rooting_cases(draw):
    """``(clients, g, deficient)``: K = 1..4 weighted clients of d = 1..6,
    each full-rank or of rank 0..d-1, some sharing a null direction, and a
    generator that is full-rank, from fewer samples than d (so singular)
    or not PSD, each covariance scaled by 10**[-3, 3]; or one of
    MIXED_CASES.  ``deficient`` tells whether any covariance may be
    rank-deficient."""
    if draw(st.integers(0, 7)) == 0:
        return _mixed_case(draw(st.sampled_from(sorted(MIXED_CASES))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    shared = d > 1 and draw(st.booleans())
    null = rng.normal(size=d)
    proj = np.eye(d) - shared * np.outer(null, null) / float(null @ null)
    w = rng.random(k) + 0.1
    w[:] = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    deficient = shared
    clients = []
    for i in range(k):
        rank = draw(st.integers(0, d - 1)) if draw(st.integers(0, 3)) == 0 else d + 3
        deficient |= rank < d
        cov = proj @ _psd(rng, d, rank, 10.0 ** draw(st.floats(-3.0, 3.0))) @ proj
        mean = rng.normal(size=d) * 10.0 ** draw(st.floats(-2.0, 2.0))
        stats = GaussianStats(n=10, mean=mean, cov=(cov + cov.T) / 2.0)
        clients.append(Client(id=f"c{i}", weight=float(w[i]), stats=stats))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["full", "few-samples", "not-psd"]))
    if kind == "few-samples":
        deficient = True
        g = moments(rng.normal(size=(draw(st.integers(1, d)), d)) * math.sqrt(scale))
    else:
        cov = _psd(rng, d, d + 3, scale) if kind == "full" else _not_psd(rng, d, scale)
        g = GaussianModel(mean=rng.normal(size=d), cov=cov)
    return ClientSet(clients), g, deficient


@SETTINGS
@given(rooting_cases())
@example(_mixed_case('dimension-mismatch'))
@example(_mixed_case('product-before-next-root'))
@example(_mixed_case('root-alone'))
@example(_mixed_case('root-before-own-product'))
@example(_NAMED_ROOTING_CASES[0])
@example(_NAMED_ROOTING_CASES[1])
@example(_NAMED_ROOTING_CASES[2])
@example(_NAMED_ROOTING_CASES[3])
@example(_TRACE_SHORTCUT_CASE)
@pytest.mark.filterwarnings("error")
def test_generator_rooted_aggregations_match_client_rooted_oracle(case):
    """fid_avg, fid_all and fid_avg_decomposition, rooted on the generator,
    are within the bound of the client-rooted oracle, and raise exactly
    what it raises: the same type and text, in the same order."""
    clients, g, deficient = case
    stats = clients.stats_list()
    bounds = [_bound(s, g, deficient) for s in stats]
    got, want = _outcome(lambda: fid_avg(clients, g)), _outcome(lambda: oracle_fid_avg(clients, g))
    if _same_outcome(got, want, bounds):
        for r, o, bound in zip(got.per_client, want[1], bounds):
            _near(r, o, bound)
        assert abs(got.value - want[0]) <= _weighted(clients, bounds, want[0])
    pool = _outcome(lambda: pool_moments(clients))
    pool_bound = [_bound(pool, g, deficient)] if isinstance(pool, GaussianStats) else [0.0]
    got, want = _outcome(lambda: fid_all(clients, g)), _outcome(lambda: oracle_fid_all(clients, g))
    if _same_outcome(got, want, pool_bound):
        _near(got, want, pool_bound[0])
    got = _outcome(lambda: fid_avg_decomposition(clients, g))
    want = _outcome(lambda: oracle_decomposition(clients, g))
    center = _outcome(lambda: barycenter(clients))
    if isinstance(center, Raised):
        assert got == want == center
        return
    center_bounds = [_bound(center, s, deficient) for s in stats]
    if not _same_outcome(got, want, [_bound(center, g, deficient), *center_bounds, *bounds]):
        return
    solution, barycenter_part, const, (avg, per_client) = want
    assert got.solution.cov.tobytes() == solution.cov.tobytes()
    assert abs(got.barycenter_part - barycenter_part.value) <= _bound(center, g, deficient)
    want_const = float(clients.weights @ np.array([o.value for o in const]))
    assert abs(got.const_part - want_const) <= _weighted(clients, center_bounds, want_const)
    for r, o, bound in zip(got.avg.per_client, per_client, bounds):
        _near(r, o, bound)
    assert abs(got.avg.value - avg) <= _weighted(clients, bounds, avg)


# ---------------------------------------------------------------------------
# eigensolver counts: matrices solved and calls made


def _gen(rng, d):
    return GaussianStats(n=50, mean=rng.normal(size=d), cov=random_cov(rng, d))


def test_fid_call_counts(eig_counts, rng):
    """Each aggregation roots the generator alone; a single pair roots its
    first argument.  Both aggregations from one call share that root."""
    clients = random_stats_clients(rng, k_max=6, d=5)
    k = len(clients)
    g = _gen(rng, 5)
    fid_avg(clients, g)
    assert eig_counts == {"eigh": 1, "eigvalsh": k}
    fid_all(clients, g)
    frechet_distance(g, g)
    assert eig_counts == {"eigh": 3, "eigvalsh": k + 2}
    eig_counts.update(eigh=0, eigvalsh=0)
    frechet._fid(clients, g)
    assert eig_counts == {"eigh": 1, "eigvalsh": k + 1}


def test_fid_avg_makes_one_call_per_solver(eig_calls, rng):
    """The generator's root is one eigh, the K cross terms one stacked
    eigvalsh."""
    fid_avg(random_stats_clients(rng, k_max=6, d=5), _gen(rng, 5))
    assert eig_calls == {"eigh": 1, "eigvalsh": 1}


def test_decomposition_call_counts(eig_counts, inner_roots, rng):
    counts = []
    for _ in range(3):
        clients = random_stats_clients(rng, d=4)
        k = len(clients)
        eig_counts.update(eigh=0, eigvalsh=0)
        inner_roots.update(refined=0, declined=0, skipped=0)
        it = fid_avg_decomposition(clients, _gen(rng, 4)).solution.iterations
        # Each map evaluation takes one eigh of the iterate (a mixed
        # step's, or the plain image's) and roots K inner products, each
        # refined from its slot's last eigenbasis or solved by one eigh.
        # The centre's root is the converged iterate's, taken in the loop,
        # and the constant part reads the last map's inner roots.  The
        # generator's one root serves the barycenter part and the K
        # clients of the aggregate.
        solved = eig_counts["eigh"] - (it + 1) - 1
        assert solved + inner_roots["refined"] == (it + 1) * k
        assert eig_counts["eigvalsh"] == k + 1
        counts.append((k, it, solved, inner_roots["refined"]))
    # (K, iterations, solved, refined) of each instance
    assert counts == [(3, 7, 12, 12), (1, 0, 1, 0), (4, 9, 16, 24)]


# (iterations, inner roots solved by eigh) of each instance below.
CLI_BARYCENTER_COUNTS = {(8, 56): (9, 32), (4, 256): (10, 20)}


@pytest.mark.parametrize("k, d", list(CLI_BARYCENTER_COUNTS))
def test_cli_eigensolver_matrices_per_evaluation(eig_counts, inner_roots, tmp_path, k, d):
    """One evaluation of the benchmark's Gaussian workload, through the CLI:
    ``fid --agg both`` solves one eigh (the generator's root) and K + 1
    eigvalsh (the clients and the pool); ``barycenter --gen`` solves one
    eigh per map evaluation (the iterate's), one per inner root that is
    not refined from its slot's last eigenbasis, and the generator's root,
    and K + 1 eigvalsh (the centre and the clients).  Matrices, not calls,
    are counted."""
    clients = _gauss_rank_clients(0, k=k, d=d)
    entries = []
    for client, stats in zip(clients, clients.stats_list()):
        save_stats(stats, tmp_path / f"{client.id}.json")
        entries.append({"id": client.id, "moments": f"{client.id}.json"})
    (tmp_path / "clients.json").write_text(json.dumps({"clients": entries}))
    write_embeddings(np.random.default_rng(1).normal(size=(2 * d, d)), tmp_path / "gen.fevb")
    common = ["--clients", str(tmp_path / "clients.json"), "--gen", str(tmp_path / "gen.fevb")]
    eig_counts.update(eigh=0, eigvalsh=0)
    assert main(["fid", "--agg", "both", *common, "--out", str(tmp_path / "fid.json")]) == 0
    assert eig_counts == {"eigh": 1, "eigvalsh": k + 1}
    eig_counts.update(eigh=0, eigvalsh=0)
    assert main(["barycenter", *common, "--out", str(tmp_path / "bary.json")]) == 0
    it, solved = CLI_BARYCENTER_COUNTS[k, d]
    assert json.loads((tmp_path / "bary.json").read_text())["iterations"] == it
    assert eig_counts == {"eigh": (it + 1) + solved + 1, "eigvalsh": k + 1}
    assert solved + inner_roots["refined"] == (it + 1) * k


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


def test_counterexample_objective_makes_no_eigh(eig_counts, eig_calls, monkeypatch):
    """Each stage's first objective call scores the starting vertices the
    budget allows, ``min(N+1, per_stage)`` of them with K+1 products each,
    in one eigvalsh call; each later evaluation solves its K+1 products
    against cached roots in one eigvalsh call.  No eigh runs after the
    roots."""
    clients = _search_clients()
    k = len(clients)
    # N: 5 - 3 free mean directions plus the 15 entries of the Cholesky factor.
    n_params = 2 + 15
    nelder_mead = counterexample._nelder_mead
    for budget in (8, 400):
        stages = []
        last = [dict(counter) for counter in (eig_counts, eig_calls)]

        def spent():
            now = [dict(counter) for counter in (eig_counts, eig_calls)]
            delta = tuple({n: a[n] - b[n] for n in a} for a, b in zip(now, last))
            last[:] = now
            return delta

        def recording(objective, simplex, maxfev, **tolerances):
            calls = []

            def counted(thetas):
                values = objective(thetas)
                calls.append((len(thetas), *spent()))
                return values

            stages.append((spent(), calls))
            return nelder_mead(counted, simplex, maxfev, **tolerances)

        monkeypatch.setattr("fedeval.counterexample._nelder_mead", recording)
        report = counterexample.search_matched_pair(clients, budget=budget)
        start = min(n_params + 1, budget // 4)
        first = (start, {"eigh": 0, "eigvalsh": start * (k + 1)}, {"eigh": 0, "eigvalsh": 1})
        later = (1, {"eigh": 0, "eigvalsh": k + 1}, {"eigh": 0, "eigvalsh": 1})
        nothing = ({"eigh": 0, "eigvalsh": 0}, {"eigh": 0, "eigvalsh": 0})
        # Before the first stage: the roots and the targets.
        setup = ({"eigh": k + 1, "eigvalsh": k + 1}, {"eigh": 1, "eigvalsh": 1})
        assert [before for before, _ in stages] == [setup] + [nothing] * 3
        for _, calls in stages:
            assert calls == [first] + [later] * (len(calls) - 1)
        assert sum(len(calls) for _, calls in stages) == 4 + 4 * (budget // 4 - start)
        assert report.evaluations == 4 * (budget // 4)


def test_counterexample_search_roots_computed_once(eig_counts):
    clients = _search_clients()
    k = len(clients)
    report = counterexample.search_matched_pair(clients, seed=3, budget=120)
    # targets, every evaluation, the final residual check and the report
    assert eig_counts == {"eigh": k + 1, "eigvalsh": (k + 1) * (report.evaluations + 4)}
    eig_counts.update(eigh=0, eigvalsh=0)
    counterexample.construct(clients)
    assert eig_counts == {"eigh": k + 1, "eigvalsh": 2 * (k + 1)}
