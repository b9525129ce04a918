"""Embedding ingestion, moment estimation, mixture pooling, and log-likelihood scoring.

The universal sample container is a plain 2-D float64 ``numpy`` array
(one row per sample, one column per embedding dimension).  Structured
values on top of it:

* :class:`GaussianStats` -- ``(n, mean, cov)`` sufficient statistics,
* :class:`GaussianModel` -- a Gaussian surrogate without a sample count,
* :class:`ClientSet` -- an ordered, weighted collection of clients,
* :class:`AvgResult` -- an avg aggregation: the weighted mean of
  per-client scores (:func:`_weighted_mean`, the one place an avg is
  summed) with the per-client results.

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

import functools
import json
import math
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import NotPsdError, SampleCountError, _finite

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


class _BoolList(list):
    """A JSON array that holds ``true`` or ``false`` at some depth; every
    number-array reader (:func:`_floats`) refuses one."""


def _marked(value):
    """``value`` with each array that holds ``true`` or ``false``, at any
    depth, a :class:`_BoolList`."""
    if isinstance(value, dict):
        return {key: _marked(v) for key, v in value.items()}
    if isinstance(value, list):
        items = [_marked(v) for v in value]
        return _BoolList(items) if any(isinstance(v, (bool, _BoolList)) for v in items) else items
    return value


def _read_json(path):
    """The JSON document in the file at ``path``: the one place a JSON input
    is decoded.  Nesting too deep for the decoder is a ValueError.  Only a
    text that spells ``true`` or ``false`` is walked, to mark its arrays
    (:func:`_marked`)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # A one-letter search is a memchr; a moments file holds no t or f, and
    # the word searches would cost ~1 % of a d = 56 evaluation.
    spells_bool = ("t" in text and "true" in text) or ("f" in text and "false" in text)
    try:
        doc = json.loads(text)
        return _marked(doc) if spells_bool else doc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


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


def _json_field(obj: dict, key: str, what: str):
    """``obj[key]``, else a ValueError naming ``what`` and the missing field."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} has no field {key!r}") from None


def _json_record(cls, obj: dict, what: str, **given):
    """``cls`` built from the JSON object ``obj``: the fields in ``given`` as
    given, and every other field as ``obj`` has it.  A field ``obj`` lacks
    takes its dataclass default, or is a ValueError naming ``what`` if it has
    none."""
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in given and (required or f.name in obj):
            given[f.name] = _json_field(obj, f.name, what)
    return cls(**given)


def _floats(value, what: str, where: str | None = None) -> np.ndarray:
    """``value`` as a float64 array; a JSON object, a string or a ragged
    list is a ValueError naming ``what``, and a bool (a JSON ``true`` or
    ``false``, alone or in an array) or an integer beyond float range one
    naming ``where`` (the input kind and its field; ``what`` if not given)."""
    if isinstance(value, (bool, _BoolList)):
        raise ValueError(f"{where or what} must hold numbers, not true or false")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{where or what} has a number beyond float range") from None
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number or nested lists of numbers") from None


def _real(value, where: str, message: str, accept=lambda x: True) -> float:
    """``value`` as a float, if it is a real number (a bool is none) whose
    float ``accept`` takes, else a ValueError with ``message``; an integer
    beyond float range is a ValueError naming ``where`` (the input kind and
    its field)."""
    if _is_real(value):
        try:
            x = float(value)
        except OverflowError:
            raise ValueError(f"{where} is beyond float range") from None
        if accept(x):
            return x
    raise ValueError(message)


def _is_int(value) -> bool:
    """An integer, and not a bool (which Python counts as one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, and not a bool (which Python counts as an integer)."""
    real = (int, float, np.integer, np.floating)
    return isinstance(value, real) and not isinstance(value, bool)


def _check_count(n) -> None:
    """A sample count is an integer of at least 1."""
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"sample count n must be an integer >= 1, got {n!r}")


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` of a matrix or a stack of them, taken as half of
    each plus its transpose, so no finite entry overflows on the way; the
    bits are the plain formula's unless an entry, or half of one, is
    subnormal."""
    half = a * 0.5
    return half + np.swapaxes(half, -1, -2)


def _check_finite(mean, cov) -> None:
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("non-finite entry in Gaussian parameters")


def _far(a, b, rtol: float) -> bool:
    """Whether ``||a - b||_F > rtol * max(||a||_F, 1)``, taken on both divided
    by the power of two at or above their largest magnitude (by 1 at least,
    and by 2**1023 at most, the largest finite one), so no norm overflows; a
    power of two changes no bit of the comparison.

    Equal arrays are not far, and are answered by one comparison: a library-
    built covariance equals its transpose exactly.  NaN never compares
    equal, and equal infinities gave a NaN norm, which is not far either."""
    if (a == b).all():
        return False
    big = max(float(np.abs(m).max(initial=0.0)) for m in (a, b))
    scale = math.ldexp(1.0, min(max(math.frexp(big)[1], 0), 1023)) if math.isfinite(big) else 1.0
    a, b = a / scale, b / scale
    return bool(np.linalg.norm(a - b) > rtol * max(float(np.linalg.norm(a)), 1.0 / scale))


def _mean_cov(mean, cov, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A flat float mean and a float covariance; ``kind`` names the input in
    an out-of-range error."""
    mean = _floats(mean, "mean", f"{kind} field 'mean'").reshape(-1)
    return mean, _floats(cov, "covariance", f"{kind} field 'cov'")


def _check_mean_cov(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mean`` and ``cov`` of :func:`_mean_cov`, if the covariance is square,
    symmetric and of the mean's dimension, and both are finite."""
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if cov.shape[0] != mean.shape[0]:
        raise ValueError(
            f"mean dimension {mean.shape[0]} does not match covariance {cov.shape}"
        )
    _check_finite(mean, cov)
    if _far(cov, cov.T, SYMMETRY_RTOL):
        raise NotPsdError("covariance is not symmetric")
    return mean, cov


@dataclass
class GaussianStats(_JsonFields):
    """Sample count plus first and second moments of an embedding matrix."""

    n: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _check_count(self.n)
        self.mean, self.cov = _check_mean_cov(*_mean_cov(self.mean, self.cov, "moments"))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GaussianStats":
        stats = _json_record(cls, _json_object(obj, "moments"), "moments")
        if obj.get("second_moment") is not None:
            s = _floats(obj["second_moment"], "second_moment", "moments field 'second_moment'")
            if s.shape != stats.cov.shape:
                raise ValueError(f"second_moment shape {s.shape}, expected {stats.cov.shape}")
            if not np.isfinite(s).all():
                raise ValueError("non-finite entry in moments field 'second_moment'")
            with np.errstate(over="ignore"):
                expected = stats.cov + np.outer(stats.mean, stats.mean)
            if _far(expected, s, SECOND_MOMENT_RTOL):
                raise ValueError("second_moment inconsistent with cov + mean mean^T")
        return stats


@dataclass
class GaussianModel(_JsonFields):
    """A Gaussian surrogate distribution (mean and covariance only)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean, self.cov = _check_mean_cov(*_mean_cov(self.mean, self.cov, "Gaussian model"))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def load_stats(path) -> GaussianStats:
    return GaussianStats.from_json_dict(_read_json(path))


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
    # Finite samples whose moments overflow fail GaussianStats' finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        cov = _symmetrized(centered.T @ centered / divisor)
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


@dataclass
class ClientSet:
    """An ordered list of clients with normalized weights.

    Clients are sorted by id at construction so every reduction over
    the set has a fixed, reproducible order.  When no explicit weights
    are given they default to the sample-count fractions ``n_i / n``;
    explicit weights must be nonnegative and sum to 1 within 1e-12.
    The clients are fixed once the set is built, and their statistics
    (:meth:`stats_list`) are computed once per set.
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
            counts = _floats([c.n for c in self.clients], "sample counts", "moments field 'n'")
            self.weights = counts / counts.sum()
        elif all(w is not None for w in explicit):
            w = np.array(explicit, dtype=np.float64)
            if not np.isfinite(w).all():
                raise ValueError("client weights must be finite")
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

    @functools.cached_property
    def _stats(self) -> tuple[GaussianStats, ...]:
        return tuple(moments(c.embeddings) if c.stats is None else c.stats for c in self.clients)

    def stats_list(self) -> list[GaussianStats]:
        """Each client's own statistic, or else the population moments of
        its samples, in client order (a fresh list of the set's statistics)."""
        return list(self._stats)

    def has_natural_weights(self) -> bool:
        counts = np.array([c.n for c in self.clients], dtype=np.float64)
        return bool(np.allclose(self.weights, counts / counts.sum(), rtol=0, atol=1e-12))

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
    obj = _json_object(_read_json(path), "client set")
    base = path.parent
    clients = []

    def data_file(entry: dict, key: str) -> Path | None:
        name = entry.get(key)
        if name is not None and not isinstance(name, str):
            raise ValueError(f"client set field {key!r} must be a file path, got {name!r}")
        return base / name if name else None

    for entry in _json_objects(_json_field(obj, "clients", "client set"), "clients"):
        weight = entry.get("weight")
        if weight is not None:
            message = f"client set field 'weight' must be a number, got {weight!r}"
            _real(weight, "client set field 'weight'", message)
        embeddings, stats = data_file(entry, "embeddings"), data_file(entry, "moments")
        clients.append(
            Client(
                id=str(_json_field(entry, "id", "client set entry")),
                weight=weight,
                embeddings=None if embeddings is None else ingest(embeddings),
                stats=None if stats is None else load_stats(stats),
            )
        )
    return ClientSet(clients)


def _mixture_moments(stats: list[GaussianStats], w: np.ndarray):
    """The mixture of ``stats`` under weights ``w``: its mean ``m``, within
    part ``W = sum_i w_i C_i`` and between part ``B = sum_i w_i d_i d_i^T``
    over the centred means ``d_i = m_i - m``, both symmetrized.  Centring
    keeps a shift common to every client out of ``B``'s roundoff.  A part
    that overflows (means about 1e200 apart, say) comes back with entries
    that are not finite, without a warning; :class:`GaussianStats` rejects
    such a part where a caller keeps it."""
    means = np.stack([s.mean for s in stats])
    with np.errstate(over="ignore", invalid="ignore"):
        mean = w @ means
        within = np.einsum("i,ijk->jk", w, np.stack([s.cov for s in stats]))
        centred = means - mean
        between = (w * centred.T) @ centred
        return mean, _symmetrized(within), _symmetrized(between)


def pool_moments(clients: ClientSet, estimator: str = "population") -> GaussianStats:
    """Moments of the weighted mixture of the clients' distributions.

    The pooled mean ``m`` is the weighted mean of the client means; the
    pooled covariance adds the spread of the centred means ``m_i - m`` to
    the weighted within-client covariances.  With weights ``n_i / n`` and
    population covariances this equals the moments of the concatenated samples.
    An ``"unbiased"`` estimator applies to the clients' samples, not to
    their own statistics.
    """
    if estimator == "population":
        stats = clients.stats_list()
    else:
        stats = [moments(c.embeddings, estimator) if c.stats is None else c.stats for c in clients]
    mean, within, between = _mixture_moments(stats, clients.weights)
    return GaussianStats(n=int(sum(s.n for s in stats)), mean=mean, cov=within + between)


@dataclass
class AvgResult:
    """The avg aggregation: the weighted mean of per-client scores, with the
    per-client breakdown."""

    value: float
    per_client: list


def _weighted_mean(weights: np.ndarray, values, what: str) -> float:
    """``weights @ values`` as a Python float: every avg aggregation is this
    one sum.  Weights may sum to 1 + 1e-12, so a mean of finite values can
    overflow; it does so without a warning and is then a
    :class:`NumericalError` (``<what> is not finite``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(weights @ values)
    return _finite(value, what)


@dataclass
class LogLikelihoodScores(_JsonFields):
    """Per-client mean log-densities plus their two aggregations."""

    per_client: list[float]
    avg: float
    all: float | None


def gaussian_log_density(x, model: GaussianModel) -> np.ndarray:
    """Row-wise log-density under a strictly positive-definite Gaussian.

    A density that overflows is a :class:`NumericalError`, not a warning."""
    x = as_embeddings(x)
    d = model.dim
    if x.shape[1] != d:
        raise ValueError(f"dimension mismatch: samples {x.shape[1]}, model {d}")
    try:
        chol = np.linalg.cholesky(model.cov)
    except np.linalg.LinAlgError:
        raise NotPsdError("model covariance is singular or not positive definite")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x - model.mean
        solved = np.linalg.solve(chol, diff.T)
        quad = np.sum(solved**2, axis=0)
        density = -0.5 * (d * math.log(2.0 * math.pi) + log_det + quad)
    return _finite(density, "log-density")


def log_likelihood_scores(
    clients: ClientSet, model: GaussianModel, pooled: bool = True
) -> LogLikelihoodScores:
    """Mean log-density scores per client plus the two aggregates.

    ``avg`` is the weighted mean of per-client scores; ``all`` is the
    mean log-density over the pooled samples, taken from the same
    per-client densities, so every sample is scored once.  With weights
    ``n_i / n`` the two coincide up to summation order.  ``pooled=False``
    leaves ``all`` None.  A density or a mean that overflows is a
    :class:`NumericalError`.
    """
    densities = [gaussian_log_density(x, model) for x in clients.client_embeddings()]
    with np.errstate(over="ignore"):
        per_client = [float(np.mean(d)) for d in densities]
        all_score = float(np.mean(np.concatenate(densities))) if pooled else None
    _finite([*per_client, 0.0 if all_score is None else all_score], "mean log-density")
    avg = _weighted_mean(clients.weights, per_client, "mean log-density")
    return LogLikelihoodScores(per_client=per_client, avg=avg, all=all_score)
