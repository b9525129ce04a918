"""Embedding ingestion, moment estimation, mixture pooling, and log-likelihood scoring.

The universal sample container is a plain 2-D float64 ``numpy`` array
(one row per sample, one column per embedding dimension).  Structured
values on top of it:

* :class:`GaussianStats` -- ``(n, mean, cov)`` sufficient statistics,
* :class:`GaussianModel` -- a Gaussian surrogate without a sample count,
* :class:`ClientSet` -- an ordered, weighted collection of clients.

File formats
------------
CSV
    Comma-separated, one sample per line, optional single header line
    starting with ``#``.
Binary (``.fevb``)
    Magic bytes ``FEVB``, version byte ``0x01``, dtype byte
    (``0x00`` = float32, ``0x01`` = float64), little-endian uint32 row
    and column counts, then the row-major payload.  Round trips are
    bit-exact.
Moments JSON
    ``{"n": int, "mean": [...], "cov": [[...]]}`` with an optional
    ``second_moment`` entry that is validated against ``cov + mean mean^T``.

JSON output
-----------
Every JSON file the library writes and every JSON output of the CLI is
rendered by :func:`json_text`: sorted keys, a 2-space indent and a
trailing newline.  A result record's ``to_json_dict`` gives each
dataclass field under its own name, with arrays as nested lists, numpy
scalars as Python numbers and nested records as their own dicts.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import NotPsdError, SampleCountError

FEVB_MAGIC = b"FEVB"
FEVB_VERSION = 1
_FEVB_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_FEVB_DTYPE_CODES = {"float32": 0, "float64": 1}

SYMMETRY_RTOL = 1e-10
SECOND_MOMENT_RTOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


def as_embeddings(data) -> np.ndarray:
    """Validate and normalize a sample matrix to 2-D float64.

    Requires at least one row and one column and fully finite entries.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"embedding matrix must be at least 1x1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite entry in embedding matrix")
    return np.ascontiguousarray(x)


def _read_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if rows or lineno > 1:
                    raise ValueError(
                        f"{path}: malformed header: '#' line allowed only as first line"
                    )
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: dimension mismatch between rows "
                    f"(expected {width} values, got {len(fields)})"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return as_embeddings(rows)


def _read_binary(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 14:
        raise ValueError(f"{path}: truncated header")
    if blob[:4] != FEVB_MAGIC:
        raise ValueError(f"{path}: malformed header: bad magic {blob[:4]!r}")
    version, dtype_code = blob[4], blob[5]
    if version != FEVB_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if dtype_code not in _FEVB_DTYPES:
        raise ValueError(f"{path}: unknown dtype code {dtype_code}")
    rows, cols = struct.unpack_from("<II", blob, 6)
    dtype = _FEVB_DTYPES[dtype_code]
    payload = blob[14:]
    expected = rows * cols * dtype.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload size mismatch (header says {rows}x{cols} "
            f"= {expected} bytes, got {len(payload)})"
        )
    x = np.frombuffer(payload, dtype=dtype).reshape(rows, cols)
    return as_embeddings(x)


def ingest(path, fmt: str | None = None) -> np.ndarray:
    """Read an embedding matrix from ``path``.

    ``fmt`` is ``"csv"`` or ``"binary"``; when omitted it is inferred
    from the file extension (``.csv`` vs anything else).  Row order is
    preserved and ingestion is deterministic.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "binary"
    if fmt == "csv":
        return _read_csv(path)
    if fmt == "binary":
        return _read_binary(path)
    raise ValueError(f"unknown embedding format {fmt!r}")


def write_embeddings(x, path, fmt: str | None = None, dtype: str = "float64") -> None:
    """Write an embedding matrix; the binary format round-trips bit-exactly."""
    x = as_embeddings(x)
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "binary"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row in x:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return
    if fmt != "binary":
        raise ValueError(f"unknown embedding format {fmt!r}")
    if dtype not in _FEVB_DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    code = _FEVB_DTYPE_CODES[dtype]
    out = bytearray()
    out += FEVB_MAGIC
    out.append(FEVB_VERSION)
    out.append(code)
    out += struct.pack("<II", x.shape[0], x.shape[1])
    out += np.ascontiguousarray(x.astype(_FEVB_DTYPES[code])).tobytes()
    Path(path).write_bytes(bytes(out))


def _json_value(value):
    """``value`` with arrays as nested lists, numpy scalars as Python numbers
    and records as their JSON dicts; lists are converted element by element."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


class _JsonFields:
    """Gives a dataclass a ``to_json_dict`` of its fields, by field name."""

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def json_text(obj) -> str:
    """The JSON text of every output: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _json_objects(value, what: str) -> list[dict]:
    """``value`` if it is a list of JSON objects, else a ValueError naming ``what``."""
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"{what} must be a list of JSON objects")
    return value


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float64 array; a JSON object or other non-number is a
    ValueError naming ``what``."""
    try:
        return np.asarray(value, dtype=np.float64)
    except TypeError:
        raise ValueError(f"{what} must be a number or nested lists of numbers") from None


def _check_finite(mean, cov) -> None:
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("non-finite entry in Gaussian parameters")


def _check_mean_cov(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    mean = _floats(mean, "mean").reshape(-1)
    cov = _floats(cov, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if cov.shape[0] != mean.shape[0]:
        raise ValueError(
            f"mean dimension {mean.shape[0]} does not match covariance {cov.shape}"
        )
    _check_finite(mean, cov)
    scale = float(np.linalg.norm(cov))
    if np.linalg.norm(cov - cov.T) > SYMMETRY_RTOL * max(scale, 1.0):
        raise NotPsdError("covariance is not symmetric")
    return mean, cov


@dataclass
class GaussianStats(_JsonFields):
    """Sample count plus first and second moments of an embedding matrix."""

    n: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")
        self.mean, self.cov = _check_mean_cov(self.mean, self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def second_moment(self) -> np.ndarray:
        return self.cov + np.outer(self.mean, self.mean)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GaussianStats":
        _json_object(obj, "moments")
        try:
            n = int(obj["n"])
        except TypeError:
            raise ValueError(f"sample count n must be a number, got {obj['n']!r}") from None
        stats = cls(n=n, mean=obj["mean"], cov=obj["cov"])
        if "second_moment" in obj and obj["second_moment"] is not None:
            s = _floats(obj["second_moment"], "second_moment")
            expected = stats.second_moment
            scale = max(float(np.linalg.norm(expected)), 1.0)
            if np.linalg.norm(s - expected) > SECOND_MOMENT_RTOL * scale:
                raise ValueError("second_moment inconsistent with cov + mean mean^T")
        return stats


@dataclass
class GaussianModel(_JsonFields):
    """A Gaussian surrogate distribution (mean and covariance only)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean, self.cov = _check_mean_cov(self.mean, self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def load_stats(path) -> GaussianStats:
    with open(path, "r", encoding="utf-8") as fh:
        return GaussianStats.from_json_dict(json.load(fh))


def save_stats(stats: GaussianStats, path) -> None:
    Path(path).write_text(json_text(stats.to_json_dict()), encoding="utf-8")


def moments(x, estimator: str = "population") -> GaussianStats:
    """Mean and covariance of a sample matrix.

    ``estimator="population"`` divides by ``n`` (the default, so that
    mixture pooling reproduces pooled-sample moments exactly);
    ``"unbiased"`` divides by ``n - 1``.
    """
    x = as_embeddings(x)
    n = x.shape[0]
    if estimator == "population":
        divisor = n
    elif estimator == "unbiased":
        if n < 2:
            raise SampleCountError("unbiased covariance requires >= 2 samples")
        divisor = n - 1
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / divisor
    cov = (cov + cov.T) / 2.0
    return GaussianStats(n=n, mean=mean, cov=cov)


@dataclass
class Client:
    """One reference-data holder: an id, an optional weight, and data.

    Either raw ``embeddings`` or precomputed ``stats`` (or both) must be
    present.  A ``None`` weight means "derive from sample counts".
    """

    id: str
    weight: float | None = None
    embeddings: np.ndarray | None = None
    stats: GaussianStats | None = None

    def __post_init__(self):
        if self.embeddings is None and self.stats is None:
            raise ValueError(f"client {self.id!r} carries no data")
        if self.embeddings is not None:
            self.embeddings = as_embeddings(self.embeddings)

    @property
    def n(self) -> int:
        if self.embeddings is not None:
            return self.embeddings.shape[0]
        return self.stats.n

    @property
    def dim(self) -> int:
        if self.embeddings is not None:
            return self.embeddings.shape[1]
        return self.stats.dim

    def get_stats(self, estimator: str = "population") -> GaussianStats:
        if self.stats is not None:
            return self.stats
        return moments(self.embeddings, estimator=estimator)


@dataclass
class ClientSet:
    """An ordered list of clients with normalized weights.

    Clients are sorted by id at construction so every reduction over
    the set has a fixed, reproducible order.  When no explicit weights
    are given they default to the sample-count fractions ``n_i / n``;
    explicit weights must be nonnegative and sum to 1 within 1e-12.
    """

    clients: list[Client]
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.clients:
            raise ValueError("client set is empty")
        ids = [c.id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")
        self.clients = sorted(self.clients, key=lambda c: c.id)
        dims = {c.dim for c in self.clients}
        if len(dims) != 1:
            raise ValueError(f"dimension mismatch across clients: {sorted(dims)}")
        explicit = [c.weight for c in self.clients]
        if all(w is None for w in explicit):
            counts = np.array([c.n for c in self.clients], dtype=np.float64)
            self.weights = counts / counts.sum()
        elif all(w is not None for w in explicit):
            w = np.array(explicit, dtype=np.float64)
            if (w < 0).any():
                raise ValueError("client weights must be nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError(f"client weights sum to {w.sum()!r}, expected 1")
            self.weights = w
        else:
            raise ValueError("either all client weights or none must be explicit")

    def __len__(self) -> int:
        return len(self.clients)

    def __iter__(self):
        return iter(self.clients)

    @property
    def ids(self) -> list[str]:
        return [c.id for c in self.clients]

    @property
    def dim(self) -> int:
        return self.clients[0].dim

    def stats_list(self, estimator: str = "population") -> list[GaussianStats]:
        return [c.get_stats(estimator=estimator) for c in self.clients]

    def has_natural_weights(self, tol: float = 1e-12) -> bool:
        counts = np.array([c.n for c in self.clients], dtype=np.float64)
        return bool(np.allclose(self.weights, counts / counts.sum(), rtol=0, atol=tol))

    def client_embeddings(self) -> list[np.ndarray]:
        """Every client's raw sample matrix, in client order."""
        for c in self.clients:
            if c.embeddings is None:
                raise ValueError(f"client {c.id!r} carries no raw embeddings")
        return [c.embeddings for c in self.clients]

    def pooled_embeddings(self) -> np.ndarray:
        return np.concatenate(self.client_embeddings(), axis=0)


def load_client_set(path) -> ClientSet:
    """Load a client set from JSON; data paths are relative to the JSON file.

    Schema: ``{"clients": [{"id": str, "weight"?: float,
    "embeddings"?: path, "moments"?: path}, ...]}``.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        obj = _json_object(json.load(fh), "client set")
    base = path.parent
    clients = []
    for entry in _json_objects(obj["clients"], "clients"):
        embeddings = None
        stats = None
        if entry.get("embeddings"):
            embeddings = ingest(base / entry["embeddings"])
        if entry.get("moments"):
            stats = load_stats(base / entry["moments"])
        clients.append(
            Client(
                id=str(entry["id"]),
                weight=entry.get("weight"),
                embeddings=embeddings,
                stats=stats,
            )
        )
    return ClientSet(clients)


def pool_moments(clients: ClientSet, estimator: str = "population") -> GaussianStats:
    """Moments of the weighted mixture of the clients' distributions.

    Pooled mean is the weighted mean of client means; the pooled
    covariance adds the between-client mean spread to the weighted
    within-client covariances.  With weights ``n_i / n`` and population
    covariances this equals the moments of the concatenated samples.
    """
    stats = clients.stats_list(estimator=estimator)
    w = clients.weights
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"client weights sum to {w.sum()!r}, expected 1")
    means = np.stack([s.mean for s in stats])
    seconds = np.stack([s.second_moment for s in stats])
    mean_hat = w @ means
    second_hat = np.einsum("i,ijk->jk", w, seconds)
    cov_hat = second_hat - np.outer(mean_hat, mean_hat)
    cov_hat = (cov_hat + cov_hat.T) / 2.0
    n_total = int(sum(s.n for s in stats))
    return GaussianStats(n=n_total, mean=mean_hat, cov=cov_hat)


@dataclass
class LogLikelihoodScores(_JsonFields):
    """Per-client mean log-densities plus their two aggregations."""

    per_client: list[float]
    avg: float
    all: float


def gaussian_log_density(x, model: GaussianModel) -> np.ndarray:
    """Row-wise log-density under a strictly positive-definite Gaussian."""
    x = as_embeddings(x)
    d = model.dim
    if x.shape[1] != d:
        raise ValueError(f"dimension mismatch: samples {x.shape[1]}, model {d}")
    try:
        chol = np.linalg.cholesky(model.cov)
    except np.linalg.LinAlgError:
        raise NotPsdError("model covariance is singular or not positive definite")
    diff = x - model.mean
    solved = np.linalg.solve(chol, diff.T)
    quad = np.sum(solved**2, axis=0)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * math.log(2.0 * math.pi) + log_det + quad)


def log_likelihood_scores(clients: ClientSet, model: GaussianModel) -> LogLikelihoodScores:
    """Mean log-density scores per client plus the two aggregates.

    ``avg`` is the weighted mean of per-client scores; ``all`` is the
    mean log-density over the pooled samples.  With weights ``n_i / n``
    the two coincide up to summation order.
    """
    mats = clients.client_embeddings()
    per_client = [float(np.mean(gaussian_log_density(x, model))) for x in mats]
    avg = float(clients.weights @ np.asarray(per_client))
    pooled = np.concatenate(mats, axis=0)
    all_score = float(np.mean(gaussian_log_density(pooled, model)))
    return LogLikelihoodScores(per_client=per_client, avg=avg, all=all_score)
