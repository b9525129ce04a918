"""Shared factories for randomized test instances."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from fedeval import Client, ClientSet, GaussianStats, kernelmmd, prdc

# On CI a failing property prints the blob that reproduces it
# (``@reproduce_failure``); example counts and deadlines are the tests' own.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_cov(rng, d, rank_extra=2):
    a = rng.normal(size=(d, d + rank_extra))
    return a @ a.T / (d + rank_extra)


def random_raw_clients(rng, k_max=6, n_max=64, d=None, d_max=8, natural_weights=True):
    """Clients carrying raw embeddings; weights default to n_i / n."""
    k = int(rng.integers(1, k_max + 1))
    d = d or int(rng.integers(1, d_max + 1))
    clients = []
    for i in range(k):
        n = int(rng.integers(2, n_max + 1))
        x = rng.normal(size=(n, d)) + 2.0 * rng.normal(size=d)
        clients.append(Client(id=f"c{i:02d}", embeddings=x))
    if not natural_weights:
        w = rng.random(len(clients)) + 0.1
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        for client, weight in zip(clients, w):
            client.weight = float(weight)
    return ClientSet(clients)


def random_stats_clients(rng, k_max=5, d=None, d_max=8, diagonal=False):
    """Clients carrying Gaussian statistics with explicit random weights."""
    k = int(rng.integers(1, k_max + 1))
    d = d or int(rng.integers(1, d_max + 1))
    w = rng.random(k) + 0.1
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    clients = []
    for i in range(k):
        cov = random_cov(rng, d)
        if diagonal:
            cov = np.diag(np.diag(cov))
        clients.append(
            Client(
                id=f"c{i:02d}",
                weight=float(w[i]),
                stats=GaussianStats(n=int(rng.integers(2, 50)), mean=rng.normal(size=d), cov=cov),
            )
        )
    return ClientSet(clients)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def gram_elements(monkeypatch):
    """Sizes of the Gram tiles the kernel passes evaluate, in call order; a
    stacked call counts every tile of its stack (G n m elements)."""
    elements = []
    real_gram = kernelmmd._gram

    def counting_gram(spec, x, y):
        out = real_gram(spec, x, y)
        elements.append(out.size)
        return out

    monkeypatch.setattr(kernelmmd, "_gram", counting_gram)
    return elements


@pytest.fixture
def distance_elements(monkeypatch):
    """Sizes of the distance tiles the k-NN and ball passes evaluate, in call
    order; a stacked call counts every tile of its stack."""
    elements = []
    real_distances = prdc._squared_distances

    def counting_distances(x, y, x_sq, y_sq):
        out = real_distances(x, y, x_sq, y_sq)
        elements.append(out.size)
        return out

    monkeypatch.setattr(prdc, "_squared_distances", counting_distances)
    return elements
