"""Gaussian 2-Wasserstein distances, aggregation, and the barycenter solver."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from fedeval import (
    Client,
    ClientSet,
    ConvergenceError,
    GaussianModel,
    GaussianStats,
    NotPsdError,
    NumericalError,
    barycenter,
    fid_all,
    fid_avg,
    fid_avg_decomposition,
    frechet_distance,
    moments,
    pool_moments,
    psd_sqrt,
)

from fedeval import frechet
from fedeval.frechet import _distances, _references
from fedeval.statkit import load_stats, save_stats

from conftest import random_cov, random_stats_clients


def toy_clients(n=100):
    eye = np.eye(2)
    return ClientSet(
        [
            Client(id="c1", stats=GaussianStats(n=n, mean=[1.0, 0.0], cov=eye)),
            Client(id="c2", stats=GaussianStats(n=n, mean=[-1.0, 0.0], cov=eye)),
        ]
    )


def toy_generator(v):
    return GaussianModel(mean=[0.0, 0.0], cov=np.diag([float(v), 1.0]))


# ---------------------------------------------------------------------------
# psd_sqrt


def test_psd_sqrt_identity():
    np.testing.assert_array_equal(psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_reconstruction(rng):
    m = rng.normal(size=(8, 8))
    a = m.T @ m
    b = psd_sqrt(a)
    assert np.linalg.norm(b @ b - a) <= 1e-8 * np.linalg.norm(a)
    np.testing.assert_allclose(b, b.T, atol=0)


def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(NotPsdError, match="symmetric"):
        psd_sqrt([[1.0, 0.5], [0.0, 1.0]])


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPsdError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_roundoff_negatives():
    a = np.diag([1.0, -1e-12])
    b = psd_sqrt(a)
    assert b[1, 1] == 0.0


# ---------------------------------------------------------------------------
# frechet_distance


def test_distance_identical_stats_is_zero(rng):
    cov = random_cov(rng, 4)
    s = GaussianStats(n=5, mean=rng.normal(size=4), cov=cov)
    assert frechet_distance(s, s).value == 0.0


def test_indefinite_generator_covariance_fails_product_clamp(tmp_path):
    """A symmetric but indefinite generator covariance passes loading and
    fails the PSD check on the eigenvalues of A^1/2 B A^1/2."""
    save_stats(GaussianStats(n=3, mean=[0.0, 0.0], cov=np.diag([1.0, -0.5])), tmp_path / "g.json")
    gen = load_stats(tmp_path / "g.json")
    ref = GaussianStats(n=3, mean=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(NotPsdError, match="covariance product is not PSD"):
        frechet_distance(ref, gen)


def test_distance_commuting_diagonal_closed_form():
    a = GaussianModel(mean=[0.0, 0.0], cov=np.diag([2.0, 1.0]))
    for v in (0.25, 1.0, 2.0, 3.7):
        b = toy_generator(v)
        expected = (math.sqrt(2.0) - math.sqrt(v)) ** 2
        assert frechet_distance(a, b).value == pytest.approx(expected, abs=1e-12)
    assert frechet_distance(a, toy_generator(1.0)).value == pytest.approx(
        0.1715729, abs=1e-7
    )


def test_distance_pure_mean_shift():
    a = GaussianModel(mean=[1.0, 0.0], cov=np.eye(2))
    b = GaussianModel(mean=[0.0, 0.0], cov=np.diag([1.0, 1.0]))
    result = frechet_distance(a, b)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.mean_term == pytest.approx(1.0, abs=0)
    assert result.trace_term == pytest.approx(0.0, abs=1e-12)


def test_distance_symmetry_and_nonnegativity(rng):
    for _ in range(20):
        d = int(rng.integers(1, 7))
        a = GaussianStats(n=4, mean=rng.normal(size=d), cov=random_cov(rng, d))
        b = GaussianStats(n=4, mean=rng.normal(size=d), cov=random_cov(rng, d))
        ab = frechet_distance(a, b).value
        ba = frechet_distance(b, a).value
        assert abs(ab - ba) <= 1e-8 * max(1.0, ab)
        assert ab >= 0.0


def test_distance_value_is_sum_of_terms(rng):
    a = GaussianStats(n=4, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    b = GaussianStats(n=4, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    r = frechet_distance(a, b)
    assert r.value == pytest.approx(r.mean_term + r.trace_term, abs=1e-8)


def test_distance_dimension_mismatch():
    a = GaussianModel(mean=[0.0], cov=[[1.0]])
    b = GaussianModel(mean=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        frechet_distance(a, b)


def test_distance_overflow_raises():
    """A covariance product or a value that overflows is a NumericalError
    naming it, with no warning; in a stack the first failing row raises."""
    unit = SimpleNamespace(mean=np.zeros(2), cov=np.eye(2))
    far = SimpleNamespace(mean=np.array([1e308, 0.0]), cov=np.eye(2))
    huge = SimpleNamespace(mean=np.zeros(2), cov=1e200 * np.eye(2))
    with pytest.raises(NumericalError, match="^distance is not finite$"):
        frechet_distance(far, unit)
    with pytest.raises(NumericalError, match="^covariance product is not finite$"):
        frechet_distance(huge, huge)
    with pytest.raises(NumericalError, match="^distance is not finite$"):
        _distances(_references([far, huge]), huge.mean, huge.cov)
    with pytest.raises(NumericalError, match="^covariance product is not finite$"):
        _distances(_references([huge, far]), huge.mean, huge.cov)


# ---------------------------------------------------------------------------
# aggregation


def test_fid_all_toy_values():
    clients = toy_clients()
    assert fid_all(clients, toy_generator(2.0)).value == pytest.approx(0.0, abs=1e-12)
    expected = (math.sqrt(2.0) - 1.0) ** 2
    assert fid_all(clients, toy_generator(1.0)).value == pytest.approx(expected, abs=1e-12)


def test_fid_all_single_client_equals_distance(rng):
    stats = GaussianStats(n=5, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    clients = ClientSet([Client(id="only", stats=stats)])
    g = GaussianModel(mean=rng.normal(size=3), cov=random_cov(rng, 3))
    assert fid_all(clients, g).value == pytest.approx(
        frechet_distance(stats, g).value, abs=1e-12
    )


def test_fid_avg_toy_values():
    clients = toy_clients()
    at_one = fid_avg(clients, toy_generator(1.0))
    assert [r.value for r in at_one.per_client] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert at_one.value == pytest.approx(1.0, abs=1e-12)
    expected = 1.0 + (math.sqrt(2.0) - 1.0) ** 2
    assert fid_avg(clients, toy_generator(2.0)).value == pytest.approx(expected, abs=1e-12)


def test_fid_avg_zero_for_matching_single_client(rng):
    stats = GaussianStats(n=5, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    clients = ClientSet([Client(id="only", stats=stats)])
    g = GaussianModel(mean=stats.mean, cov=stats.cov)
    assert fid_avg(clients, g).value == pytest.approx(0.0, abs=1e-12)


def test_pooled_aggregation_identity_on_raw_data():
    # scoring against pooled raw moments == scoring against the weighted mixture
    from conftest import random_raw_clients

    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        clients = random_raw_clients(rng, k_max=6, n_max=40, d_max=8)
        g = GaussianModel(
            mean=rng.normal(size=clients.dim), cov=random_cov(rng, clients.dim)
        )
        via_pool = fid_all(clients, g).value
        direct = frechet_distance(moments(clients.pooled_embeddings()), g).value
        assert abs(via_pool - direct) <= 1e-8 * max(1.0, direct)


def test_argmin_separation_on_toy_grid():
    clients = toy_clients()
    grid = [round(0.1 * i, 10) for i in range(1, 41)]
    all_curve = [fid_all(clients, toy_generator(v)).value for v in grid]
    avg_curve = [fid_avg(clients, toy_generator(v)).value for v in grid]
    assert grid[int(np.argmin(all_curve))] == pytest.approx(2.0, abs=1e-9)
    assert grid[int(np.argmin(avg_curve))] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# barycenter


def test_barycenter_identical_covariances(rng):
    cov = random_cov(rng, 3)
    clients = ClientSet(
        [
            Client(id=f"c{i}", stats=GaussianStats(n=4, mean=rng.normal(size=3), cov=cov))
            for i in range(3)
        ]
    )
    solution = barycenter(clients)
    np.testing.assert_allclose(solution.cov, cov, atol=1e-10)


def test_barycenter_commuting_closed_form():
    clients = ClientSet(
        [
            Client(id="a", weight=0.5, stats=GaussianStats(n=2, mean=[0, 0], cov=np.diag([1.0, 4.0]))),
            Client(id="b", weight=0.5, stats=GaussianStats(n=2, mean=[0, 0], cov=np.diag([9.0, 1.0]))),
        ]
    )
    solution = barycenter(clients)
    np.testing.assert_allclose(solution.cov, np.diag([4.0, 2.25]), atol=1e-9)


def _brute_force_barycenter(covs, weights, d, seeds=2):
    """Direct minimization of the weighted squared distance objective."""

    def w2_cov(c1, c2):
        s = psd_sqrt(c1)
        w = np.linalg.eigvalsh(s @ c2 @ s)
        cross = np.sum(np.sqrt(np.clip(w, 0, None)))
        return float(np.trace(c1) + np.trace(c2) - 2.0 * cross)

    tril = np.tril_indices(d)

    def unpack(p):
        m = np.zeros((d, d))
        m[tril] = p
        return m @ m.T

    def objective(p):
        c = unpack(p)
        return sum(w * w2_cov(c, ci) for w, ci in zip(weights, covs))

    best = None
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        x0 = np.linalg.cholesky(
            sum(w * c for w, c in zip(weights, covs)) + 1e-6 * np.eye(d)
        )[tril]
        x0 = x0 + 0.01 * rng.normal(size=x0.shape)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-15, "maxfev": 40000, "adaptive": True},
        )
        if best is None or res.fun < best.fun:
            best = res
    return unpack(best.x)


def test_barycenter_matches_brute_force_minimizer(rng):
    d = 4
    covs = [random_cov(rng, d) + 0.2 * np.eye(d) for _ in range(2)]
    clients = ClientSet(
        [
            Client(id=f"c{i}", weight=0.5, stats=GaussianStats(n=2, mean=np.zeros(d), cov=c))
            for i, c in enumerate(covs)
        ]
    )
    solution = barycenter(clients, tol=1e-12)
    assert solution.residual <= 1e-10 * np.linalg.norm(solution.cov)
    oracle = _brute_force_barycenter(covs, [0.5, 0.5], d)
    assert np.linalg.norm(solution.cov - oracle) <= 1e-6 * max(
        np.linalg.norm(oracle), 1.0
    )


def test_barycenter_mean_is_weighted_mean(rng):
    clients = random_stats_clients(rng, k_max=4, d=3)
    solution = barycenter(clients)
    expected = clients.weights @ np.stack([s.mean for s in clients.stats_list()])
    np.testing.assert_allclose(solution.mean, expected, atol=1e-14)


def test_barycenter_non_convergence_carries_iterate(rng):
    """ConvergenceError carries the last iterate whose map was evaluated,
    which is PSD (after one map, the weighted mean), and that map's
    residual."""
    clients = random_stats_clients(rng, k_max=4, d=5)
    history = barycenter(clients).residual_history
    for max_iter in (1, 3):
        with pytest.raises(ConvergenceError) as excinfo:
            barycenter(clients, tol=1e-16, max_iter=max_iter)
        err = excinfo.value
        assert err.iterations == max_iter
        assert err.residual == history[max_iter - 1]
        assert str(err) == (
            f"barycenter did not converge in {max_iter} iterations (residual {err.residual:.3e})"
        )
        assert np.linalg.eigvalsh(err.last_cov)[0] > 0.0
        if max_iter == 1:
            covs = np.stack([s.cov for s in clients.stats_list()])
            mean_cov = np.einsum("i,ijk->jk", clients.weights, covs)
            np.testing.assert_allclose(err.last_cov, mean_cov, rtol=1e-12)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"tol": t}, f"tol must be a finite number > 0, got {t!r}") for t in (-1.0, 0.0, math.nan)]
    + [({"tol": math.inf}, "tol must be a finite number > 0, got inf")]
    + [({"max_iter": m}, f"max_iter must be at least 1, got {m}") for m in (0, -3)],
)
def test_barycenter_rejects_a_stopping_rule_it_cannot_meet(rng, monkeypatch, kwargs, message):
    """A tol <= 0 or non-finite is never met and max_iter < 1 runs no
    iterate: both are refused before the first eigendecomposition."""
    clients = random_stats_clients(rng, k_max=3, d=3)
    g = clients.stats_list()[0]
    monkeypatch.setattr(frechet, "_clamped_eigh", None)
    for call in (barycenter, lambda c, **kw: fid_avg_decomposition(c, g, **kw)):
        with pytest.raises(ValueError) as excinfo:
            call(clients, **kwargs)
        assert str(excinfo.value) == f"barycenter {message}"


def test_barycenter_residual_history_soft_monotonicity(capsys):
    # informational check: the fixed-point defect usually shrinks monotonically
    # after the first few iterations, but this is not guaranteed, so violations
    # are only reported
    violations = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(seed + 900)
        clients = random_stats_clients(rng, k_max=5, d=6)
        history = barycenter(clients).residual_history
        for a, b in zip(history[3:], history[4:]):
            total += 1
            if b > a * (1 + 1e-12):
                violations += 1
    print(f"[soft] barycenter residual increases after iter 3: {violations}/{total}")


# ---------------------------------------------------------------------------
# decomposition


def test_decomposition_toy_closed_form():
    clients = toy_clients()
    for v in (0.25, 1.0, 2.0, 3.5):
        dec = fid_avg_decomposition(clients, toy_generator(v))
        assert dec.barycenter_part == pytest.approx(
            (math.sqrt(v) - 1.0) ** 2, abs=1e-9
        )
        assert dec.const_part == pytest.approx(1.0, abs=1e-9)


def test_decomposition_at_barycenter_itself(rng):
    clients = random_stats_clients(rng, k_max=4, d=4)
    solution = barycenter(clients)
    g = GaussianModel(mean=solution.mean, cov=solution.cov)
    dec = fid_avg_decomposition(clients, g)
    assert dec.barycenter_part == pytest.approx(0.0, abs=1e-9)


def test_decomposition_single_client_const_is_zero(rng):
    stats = GaussianStats(n=5, mean=rng.normal(size=3), cov=random_cov(rng, 3))
    clients = ClientSet([Client(id="only", stats=stats)])
    g = GaussianModel(mean=rng.normal(size=3), cov=random_cov(rng, 3))
    dec = fid_avg_decomposition(clients, g)
    assert dec.const_part == pytest.approx(0.0, abs=1e-10)
    assert dec.barycenter_part + dec.const_part == pytest.approx(
        fid_avg(clients, g).value, rel=1e-7
    )


def test_decomposition_exact_for_commuting_covariances():
    for seed in range(20):
        rng = np.random.default_rng(seed + 500)
        clients = random_stats_clients(rng, k_max=5, d=int(rng.integers(1, 9)), diagonal=True)
        g = GaussianModel(
            mean=rng.normal(size=clients.dim),
            cov=np.diag(rng.random(clients.dim) + 0.1),
        )
        avg = fid_avg(clients, g).value
        dec = fid_avg_decomposition(clients, g)
        assert abs(avg - dec.barycenter_part - dec.const_part) <= 1e-8 * max(avg, 1.0)


def test_decomposition_const_part_independent_of_generator(rng):
    clients = random_stats_clients(rng, k_max=5, d=5)
    g1 = GaussianModel(mean=rng.normal(size=5), cov=random_cov(rng, 5))
    g2 = GaussianModel(mean=rng.normal(size=5), cov=random_cov(rng, 5))
    d1 = fid_avg_decomposition(clients, g1)
    d2 = fid_avg_decomposition(clients, g2)
    assert d1.const_part == pytest.approx(d2.const_part, rel=1e-10)


def test_decomposition_deviation_measured_on_general_covariances(capsys):
    # The split is exact only when the client and generator covariances all
    # commute; on general covariances the sum deviates from the avg aggregate.
    # This documents the measured deviation of the bare two-term split; the
    # split with its exact remainder is asserted in test_acceptance.py.
    devs = []
    for seed in range(30):
        rng = np.random.default_rng(seed + 700)
        clients = random_stats_clients(rng, k_max=5, d=int(rng.integers(2, 9)))
        g = GaussianModel(
            mean=rng.normal(size=clients.dim), cov=random_cov(rng, clients.dim)
        )
        avg = fid_avg(clients, g).value
        dec = fid_avg_decomposition(clients, g)
        devs.append(abs(avg - dec.barycenter_part - dec.const_part) / max(avg, 1e-30))
    devs = np.asarray(devs)
    print(
        f"[measured] decomposition relative deviation on general covariances: "
        f"max {devs.max():.3e}, median {np.median(devs):.3e}"
    )
    assert devs.max() < 0.2  # deviation is bounded, not an identity
