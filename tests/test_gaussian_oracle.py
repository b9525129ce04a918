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

The cross term is read off ``frechet_distance``'s trace term, so the
oracle checks the one scoring path every Gaussian score takes.  A stack
(one generator against K references, or one reference against K
targets, with one ``eigvalsh`` per stack) must be bit-identical to a
loop of one-row ``frechet_distance`` calls, and must raise the error
that loop raised first.  The eigensolver counts of each entry
point are pinned exactly, both in matrices solved and in calls made.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
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
    fid_all,
    fid_avg,
    fid_avg_decomposition,
    frechet,
    frechet_distance,
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
# barycenter: one eigh per iterate, bit-identical to two


def _barycenter_instance(seed, k, d, singular):
    rng = np.random.default_rng(seed)
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


def _outcome(solve, clients):
    try:
        s = solve(clients, 1e-10, 60)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc), exc.last_cov.tobytes(), _bits(exc.residual))
    except (NotPsdError, np.linalg.LinAlgError) as exc:
        # Clients sharing a null direction can drive an iterate's C^-1/2
        # to overflow; both paths must then fail the same way.
        return (type(exc).__name__, str(exc))
    return (
        "solution",
        s.mean.tobytes(),
        s.cov.tobytes(),
        s.iterations,
        _bits(s.residual),
        [_bits(r) for r in s.residual_history],
    )


@SETTINGS
@given(barycenter_clients())
# Two rank-1 clients along one direction (covs ~ [[0.4559, 0.1156],
# [0.1156, 0.0293]] and [[0.1944, 0.0493], [0.0493, 0.0125]]): both paths
# raise ConvergenceError with residual nan and identical last_cov bytes.
@example(_barycenter_instance(seed=1, k=2, d=2, singular=True))
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


@SETTINGS
@given(stacked_instances())
def test_stacked_distances_bit_identical_to_single_pairs(case):
    clients, g = case
    stats = clients.stats_list()
    # K references against one generator: fid_avg and the counterexample search.
    refs = frechet._references(stats)
    got = _attempt(lambda: _fields(*(x.tolist() for x in frechet._distances(refs, g.mean, g.cov))))
    want = _attempt(lambda: _result_fields([frechet_distance(s, g) for s in stats]))
    assert got == want
    # One reference against K targets: the avg decomposition's per-client part.
    center = frechet._references([g])
    means, covs = np.stack([s.mean for s in stats]), np.stack([s.cov for s in stats])
    got = _attempt(lambda: _fields(*(x.tolist() for x in frechet._distances(center, means, covs))))
    want = _attempt(lambda: _result_fields([frechet_distance(g, s) for s in stats]))
    assert got == want
    # fid_avg field for field against the per-client loop it replaced.
    got = _attempt(lambda: fid_avg(clients, g))
    want = _attempt(lambda: [frechet_distance(s, g) for s in stats])
    if isinstance(want, list):
        assert _result_fields(got.per_client) == _result_fields(want)
        values = np.array([r.value for r in want])
        assert _bits(got.value) == _bits(float(clients.weights @ values))
    else:
        assert got == want


def test_stacked_value_clamp_matches_single_pairs():
    """A generator equal to client 0: its trace term comes out as -2e-15
    roundoff, and its distance is clamped to 0.0 as on the single pair."""
    rng = np.random.default_rng(0)
    same = GaussianStats(n=5, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    clients = ClientSet(
        [Client(id="c0", stats=same), Client(id="c1", stats=_gen(rng, 3))]
    )
    g = GaussianModel(mean=same.mean, cov=same.cov)
    got = fid_avg(clients, g).per_client
    assert got[0].value == 0.0 and got[0].trace_term < 0.0
    want = [frechet_distance(s, g) for s in clients.stats_list()]
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


def test_distances_check_no_reference_spectrum(monkeypatch, rng):
    """The references' roots are PSD-checked once, when the stack is built:
    scoring tests only the products' eigenvalues, once per call."""
    clients = random_stats_clients(rng, k_max=5, d=4)
    refs = frechet._references(clients.stats_list())
    g = _gen(rng, 4)
    seen = []
    original = frechet._below_clamp

    def recording(w):
        seen.append(w)
        return original(w)

    monkeypatch.setattr(frechet, "_below_clamp", recording)
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
# eigensolver counts: matrices solved and calls made


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


def test_fid_avg_makes_one_call_per_solver(eig_calls, rng):
    """The K client roots come from one stacked eigh, the K cross terms
    from one stacked eigvalsh."""
    fid_avg(random_stats_clients(rng, k_max=6, d=5), _gen(rng, 5))
    assert eig_calls == {"eigh": 1, "eigvalsh": 1}


def test_decomposition_call_counts(eig_counts, rng):
    for _ in range(3):
        clients = random_stats_clients(rng, d=4)
        k = len(clients)
        eig_counts.update(eigh=0, eigvalsh=0)
        it = fid_avg_decomposition(clients, _gen(rng, 4)).solution.iterations
        # The centre's root is the converged iterate's, taken in the loop.
        assert eig_counts == {"eigh": (it + 1) * (k + 1), "eigvalsh": k + 1}


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
