"""Simulated federated evaluation rounds, synthetic scenarios, and sweeps.

A round is a deterministic in-process message exchange between a server
and the clients.  The aggregation mode decides what the clients reveal
and therefore which aggregate scores exist at all:

* ``scores``        -- clients send scalar scores; only avg aggregates.
* ``moments``       -- clients send ``(n, mean, covariance)``; the
  pooled-reference distance becomes exactly computable.
* ``raw``           -- clients upload their embeddings; every metric.
* ``kernel_blocks`` -- clients send within-block and cross-generator
  kernel sums; the pooled kernel score additionally needs pairwise raw
  exchange between clients, whose bytes are charged to the trace.

A round scores the client set it was given with the library's own
aggregations (``fid_avg`` / ``fid_all``, ``KernelStats.kid_avg`` /
``kid_all``, ``log_likelihood_scores``, ``prdc_aggregate``), so protocol
== library holds by construction.  The capability table
``MODE_CAPABILITIES`` gates which scores a mode may compute; the replies
the mode sends are charged to the trace.  The kernel_blocks round scores
the ``KernelStats`` its block-sum replies carry.  In ``scores`` mode each
client scores its own samples and replies with its entries; the round
asks for no pooled score, so no pooled statistic is built
(``kernel_stats(cross=False)``, ``prdc_aggregate(pooled=False)``,
``log_likelihood_scores(pooled=False)``).
Each row of the mode-collapse timeline and of both sweeps is scored by
the same aggregation (the toy sweep's analytic columns on the exact
Gaussian parameters).  A scenario's round (``run_scenario``) asks
``run_round`` only for the scores its outputs hold: the rows hold the
scalar ones, and a ``scores`` round's trace each client's PRDC too.  Any
other round validates a PRDC request but, except in the two cases
``run_scenario`` names, computes no PRDC score.

Requesting a score the mode cannot produce is a hard
:class:`~fedeval.errors.CapabilityError`, never an approximation.
Every transmitted real number is charged 8 bytes plus a 16-byte header
per message.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapabilityError, _eigenvalue_floor
from .frechet import _fid, _references
from .kernelmmd import KernelSpec, KernelStats, kernel_stats
from .prdc import _check_aggregate, prdc_aggregate
from .statkit import (
    Client,
    ClientSet,
    GaussianModel,
    GaussianStats,
    _JsonFields,
    _check_count,
    _check_mean_cov,
    _floats,
    _is_int,
    _is_real,
    _json_field,
    _json_object,
    _json_objects,
    _json_record,
    _mean_cov,
    _read_json,
    _real,
    json_text,
    log_likelihood_scores,
    moments,
)

HEADER_BYTES = 16
REAL_BYTES = 8

SCORES = "scores"
MOMENTS = "moments"
RAW = "raw"
KERNEL_BLOCKS = "kernel_blocks"
MODES = (SCORES, MOMENTS, RAW, KERNEL_BLOCKS)

METRIC_KEYS = (
    "fid_avg",
    "fid_all",
    "kid_avg",
    "kid_all",
    "ll_avg",
    "ll_all",
    "prdc_avg",
    "prdc_all",
)

MODE_CAPABILITIES = {
    SCORES: frozenset({"fid_avg", "kid_avg", "ll_avg", "prdc_avg"}),
    MOMENTS: frozenset({"fid_avg", "fid_all"}),
    RAW: frozenset(METRIC_KEYS),
    KERNEL_BLOCKS: frozenset({"kid_avg", "kid_all"}),
}

SERVER = "server"
BROADCAST = "*"


@dataclass
class Message:
    """One protocol message; payload bytes are reals * 8 plus a 16-byte header."""

    sender: str
    recipient: str
    kind: str
    real_count: int
    body: dict = field(default_factory=dict)

    @property
    def payload_bytes(self) -> int:
        return self.real_count * REAL_BYTES + HEADER_BYTES

    def to_json_dict(self) -> dict:
        return {
            "from": self.sender,
            "to": self.recipient,
            "kind": self.kind,
            "real_count": self.real_count,
            "payload_bytes": self.payload_bytes,
            "body": self.body,
        }


@dataclass
class ProtocolTrace:
    """Ordered message log of one simulated round."""

    messages: list[Message] = field(default_factory=list)

    def append(self, message: Message) -> None:
        self.messages.append(message)

    @property
    def total_payload_bytes(self) -> int:
        return sum(m.payload_bytes for m in self.messages)

    def to_json_dict(self) -> dict:
        return {
            "messages": [m.to_json_dict() for m in self.messages],
            "total_payload_bytes": self.total_payload_bytes,
        }


@dataclass
class ScoreReport(_JsonFields):
    """Aggregate scores plus per-client values, ordered by client id."""

    scores: dict
    per_client: dict
    client_ids: list[str]


def _normalize_mode(mode) -> str:
    mode = str(mode).replace("-", "_").lower()
    if mode not in MODES:
        raise ValueError(f"unknown aggregation mode {mode!r} (choose from {MODES})")
    return mode


def _normalize_metrics(metrics) -> list[str]:
    requested = set()
    for m in metrics:
        if m not in METRIC_KEYS:
            raise ValueError(f"unknown metric {m!r} (choose from {METRIC_KEYS})")
        requested.add(m)
    if not requested:
        raise ValueError("no metrics requested")
    return [m for m in METRIC_KEYS if m in requested]


def _generator_kind(generator) -> str:
    if isinstance(generator, GaussianStats):
        return "stats"
    if isinstance(generator, GaussianModel):
        return "model"
    return "raw"


def _generator_real_count(generator) -> int:
    kind = _generator_kind(generator)
    if kind == "raw":
        return generator.shape[0] * generator.shape[1]
    d = generator.dim
    if kind == "stats":
        return 1 + d + d * d
    return d + d * d


def _generator_stats(generator):
    if _generator_kind(generator) == "raw":
        return moments(generator)
    return generator


def _generator_model(generator) -> GaussianModel:
    kind = _generator_kind(generator)
    if kind == "raw":
        raise CapabilityError(
            "log-likelihood scores need a Gaussian model generator, got raw samples"
        )
    if kind == "stats":
        return GaussianModel(mean=generator.mean, cov=generator.cov)
    return generator


def _check_capabilities(mode: str, metrics: list[str], generator) -> None:
    unsupported = [m for m in metrics if m not in MODE_CAPABILITIES[mode]]
    if unsupported:
        raise CapabilityError(
            f"mode {mode!r} cannot compute {unsupported}; "
            f"supported: {sorted(MODE_CAPABILITIES[mode])}"
        )
    gen_kind = _generator_kind(generator)
    needs_raw_gen = [m for m in metrics if m.startswith(("kid", "prdc"))]
    if needs_raw_gen and gen_kind != "raw":
        raise CapabilityError(
            f"{needs_raw_gen} need raw generator samples, got {gen_kind}"
        )
    if any(m.startswith("ll") for m in metrics):
        _generator_model(generator)


def run_round(
    clients: ClientSet,
    generator,
    mode,
    metrics,
    kernel: KernelSpec | None = None,
    k_neighbors: int = 5,
) -> tuple[ScoreReport, ProtocolTrace]:
    """Execute one evaluation round and account for every byte moved.

    The round scores the set it was given with the library's own
    aggregations, once the capability table ``MODE_CAPABILITIES`` has
    allowed every requested metric, so the scores equal the direct library
    calls by construction; the kernel_blocks round scores the
    ``KernelStats`` of its block-sum replies.  In ``scores`` mode each
    client's entries come from its own samples alone, as a client would
    compute them: its kernel score from its own blocks, its PRDC from its
    own block pairs (bit for bit ``prdc_scores``) and its mean
    log-density; no pooled statistic is built.  The trace lists one
    generator broadcast followed by the clients' replies in client-id
    order.
    """
    mode = _normalize_mode(mode)
    metrics = _normalize_metrics(metrics)
    _check_capabilities(mode, metrics, generator)
    kernel = kernel or KernelSpec()

    trace = ProtocolTrace()
    trace.append(
        Message(
            sender=SERVER,
            recipient=BROADCAST,
            kind="GenRefBroadcast",
            real_count=_generator_real_count(generator),
            body={"generator": _generator_kind(generator)},
        )
    )

    source = clients
    if mode == MOMENTS:
        for client, stats in zip(clients, clients.stats_list()):
            d = stats.dim
            body = {"n": int(stats.n)}
            trace.append(Message(client.id, SERVER, "MomentsReply", 1 + d + d * d, body))
    elif mode == RAW:
        for client, x in zip(clients, clients.client_embeddings()):
            n, d = x.shape
            trace.append(Message(client.id, SERVER, "RawDataReply", n * d, {"rows": n, "cols": d}))
    elif mode == KERNEL_BLOCKS:
        source = _kernel_block_replies(clients, generator, "kid_all" in metrics, kernel, trace)
    scores, per_client = _aggregate(source, generator, metrics, kernel, k_neighbors)
    if mode == SCORES:
        for i, client in enumerate(clients):
            for metric in metrics:
                value = per_client[metric.split("_")[0]][i]
                reals = 4 if metric.startswith("prdc") else 1
                trace.append(
                    Message(client.id, SERVER, "ScoreReply", reals, {"metric": metric, "value": value})
                )
    return ScoreReport(scores=scores, per_client=per_client, client_ids=clients.ids), trace


def _kernel_block_replies(clients, generator, cross, kernel, trace) -> KernelStats:
    """The library's kernel statistic of the clients and the generator
    (block K), sent entry by entry as block-sum replies.

    The cross-client sums are NaN unless ``cross``; the traces, block K's
    too, are NaN because they are never sent (only ``ustat`` reads them).
    """
    stats = kernel_stats(clients, generator, kernel, cross=cross)
    stats.traces.fill(np.nan)
    ids = clients.ids
    for i, n in enumerate(stats.counts[:-1]):
        body = {
            "n": int(n),
            "within_sum": float(stats.sums[i, i]),
            "cross_generator_sum": float(stats.sums[i, -1]),
        }
        trace.append(Message(ids[i], SERVER, "KernelBlockReply", 3, body))
    if cross:
        # Cross-client blocks need the partner's raw samples: the exchange
        # is simulated and its bytes charged, making the privacy cost of
        # the pooled kernel score explicit.
        mats = clients.client_embeddings()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                nj, d = mats[j].shape
                trace.append(Message(ids[j], ids[i], "RawDataReply", nj * d, {"rows": nj, "cols": d}))
                body = {"pair": [ids[i], ids[j]], "cross_sum": float(stats.sums[i, j])}
                trace.append(Message(ids[i], SERVER, "KernelBlockReply", 1, body))
    return stats


def _aggregate(source, generator, metrics, kernel, k_neighbors=5) -> tuple[dict, dict]:
    """The library's aggregation of each requested metric family over
    ``source``: a client set, or the kernel_blocks round's ``KernelStats``.

    Returns the requested scores and each requested family's per-client values.
    """
    scores: dict = {}
    per_client: dict[str, list] = {}
    for family in ("fid", "kid", "ll", "prdc"):
        if not any(m.startswith(family + "_") for m in metrics):
            continue
        want_all = f"{family}_all" in metrics
        if family == "fid":
            gen_stats = _generator_stats(generator)
            result, pool = _fid(source, gen_stats, pooled=want_all)
            values, avg = [r.value for r in result.per_client], result.value
            if want_all:
                pooled = pool.value
        elif family == "kid":
            stats = source
            if not isinstance(source, KernelStats):
                stats = kernel_stats(source, generator, kernel, cross=want_all)
            result = stats.kid_avg()
            values, avg = [r.value for r in result.per_client], result.value
            if want_all:
                pooled = stats.kid_all()
        elif family == "ll":
            result = log_likelihood_scores(source, _generator_model(generator), pooled=want_all)
            values, avg, pooled = result.per_client, result.avg, result.all
        else:
            result = prdc_aggregate(source, generator, k=k_neighbors, pooled=want_all)
            values = [r.to_json_dict() for r in result.per_client]
            avg = result.avg.to_json_dict()
            if want_all:
                pooled = result.all.to_json_dict()
        per_client[family] = values
        if f"{family}_avg" in metrics:
            scores[f"{family}_avg"] = avg
        if want_all:
            scores[f"{family}_all"] = pooled
    return scores, per_client


# ---------------------------------------------------------------------------
# Synthetic scenarios


def _mean_and_cov(mean, cov, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A flat mean and a covariance matrix, checked as :class:`GaussianStats`
    checks them; a scalar ``cov`` stands for ``cov * I``."""
    mean, cov = _mean_cov(mean, cov, kind)
    if mean.shape[0] < 1:
        raise ValueError("Gaussian spec mean must have at least one entry")
    if cov.ndim == 0:
        cov = np.diag(np.full(mean.shape[0], float(cov)))
    return _check_mean_cov(mean, cov)


def _check_seed(seed) -> None:
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise ValueError(f"spec seed must be null or an integer >= 0, got {seed!r}")


@dataclass
class ClientSpec(_JsonFields):
    """Recipe for one synthetic Gaussian client, checked when it is built."""

    id: str
    mean: np.ndarray
    cov: np.ndarray
    n: int
    seed: int | None = None
    kind = "gaussian"  # not a field: every client is Gaussian

    def __post_init__(self):
        self.mean, self.cov = _mean_and_cov(self.mean, self.cov, "scenario client")
        _check_count(self.n)
        _check_seed(self.seed)


@dataclass
class GeneratorSpec(_JsonFields):
    """Recipe for one synthetic generator output set, checked when it is built.

    ``kind="gaussian"`` draws from a Gaussian; ``kind="point"`` emits a
    single point plus Gaussian jitter of scale ``jitter`` (default 1e-6)
    so downstream covariances stay PSD.
    """

    id: str
    kind: str
    n: int
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    point: np.ndarray | None = None
    jitter: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "point"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.mean is None or self.cov is None:
                raise ValueError("gaussian generator spec needs mean and cov")
            self.mean, self.cov = _mean_and_cov(self.mean, self.cov, "scenario generator")
        else:
            if self.point is None:
                raise ValueError("point generator spec needs a point")
            point = _floats(self.point, "generator point", "scenario generator field 'point'")
            self.point = point.reshape(-1)
            if not np.isfinite(self.point).all():
                raise ValueError("non-finite entry in generator point")
            message = f"point jitter must be a finite number, got {self.jitter!r}"
            _real(self.jitter, "scenario generator field 'jitter'", message, math.isfinite)
        _check_count(self.n)
        _check_seed(self.seed)


def _spawn_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds spawned from ``seed``."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(count)]


def _draw(spec, seed: int | None, root) -> np.ndarray:
    """``spec.n`` samples of one spec; ``root`` is a Gaussian spec's covariance root."""
    rng = np.random.default_rng(spec.seed if spec.seed is not None else seed)
    if spec.kind == "point":
        # Finite jitter whose samples overflow fails as_embeddings' finiteness check.
        with np.errstate(over="ignore", invalid="ignore"):
            return spec.point + spec.jitter * rng.standard_normal((spec.n, spec.point.shape[0]))
    return spec.mean + rng.standard_normal((spec.n, spec.mean.shape[0])) @ root


def _draws(specs, seeds) -> list[np.ndarray]:
    """Every spec's samples, in order, from the spec's own seed or else its
    entry of ``seeds``.

    The Gaussian specs' sampling roots come from one stacked ``eigh`` per
    dimension (:func:`~fedeval.frechet._references`).  Their covariances
    are PSD-checked in spec order before anything is drawn.
    """
    by_dim: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        if spec.kind == "gaussian":
            by_dim.setdefault(spec.mean.shape[0], []).append(i)
    roots, rejected = {}, []
    for rows in by_dim.values():
        refs = _references([specs[i] for i in rows])
        roots.update(zip(rows, refs.roots))
        rejected += [(rows[j], refs.spectra[j]) for j in np.flatnonzero(refs.rejected)]
    if rejected:
        _eigenvalue_floor(min(rejected, key=lambda row: row[0])[1], "matrix")
    return [_draw(spec, seed, roots.get(i)) for i, (spec, seed) in enumerate(zip(specs, seeds))]


def _materialize(clients: list[ClientSpec], generators: list[GeneratorSpec], seed: int):
    """The client set and generator samples of the specs, seeded from ``seed``
    (one spawned seed per spec, spawned only if some spec has no seed of its own)."""
    specs = clients + generators
    seeds = [None] * len(specs)
    if any(spec.seed is None for spec in specs):
        seeds = _spawn_seeds(seed, len(specs))
    samples = _draws(specs, seeds)
    client_set = ClientSet([Client(id=s.id, embeddings=x) for s, x in zip(clients, samples)])
    return client_set, samples[len(clients):]


def materialize_client(spec: ClientSpec, seed: int | None = None) -> Client:
    return Client(id=spec.id, embeddings=_draws([spec], [seed])[0])


def materialize_generator(spec: GeneratorSpec, seed: int | None = None) -> np.ndarray:
    return _draws([spec], [seed])[0]


@dataclass
class Scenario(_JsonFields):
    """A fully seeded synthetic evaluation setup; regeneration is bit-reproducible."""

    name: str
    kind: str
    clients: list[ClientSpec]
    generators: list[GeneratorSpec]
    metrics: list[str] = field(default_factory=lambda: ["fid_avg", "fid_all"])
    mode: str = RAW
    kernel: KernelSpec | None = None
    seed: int = 0
    collapse_step: int | None = None
    detection_threshold: float = 2.0

    def __post_init__(self):
        if self.kind not in ("round", "collapse"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.metrics, (list, tuple)):
            raise ValueError(f"metrics must be a list of metric names, got {self.metrics!r}")
        self.metrics = list(self.metrics)
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"scenario seed must be an integer >= 0, got {self.seed!r}")
        if self.kind == "collapse" and not _is_int(self.collapse_step):
            raise ValueError(
                f"collapse scenario needs an integer collapse_step, got {self.collapse_step!r}"
            )
        message = f"detection_threshold must be a number, got {self.detection_threshold!r}"
        self.detection_threshold = _real(
            self.detection_threshold, "scenario field 'detection_threshold'", message
        )

    def materialize(self) -> tuple[ClientSet, list[np.ndarray]]:
        return _materialize(self.clients, self.generators, self.seed)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Scenario":
        _json_object(obj, "scenario")
        what = "scenario client"
        clients = [
            _json_record(ClientSpec, c, what, id=str(_json_field(c, "id", what)))
            for c in _json_objects(_json_field(obj, "clients", "scenario"), "scenario clients")
        ]
        what = "scenario generator"
        generators = [
            _json_record(
                GeneratorSpec, g, what, id=str(_json_field(g, "id", what)), kind=g.get("kind", "gaussian")
            )
            for g in _json_objects(_json_field(obj, "generators", "scenario"), "scenario generators")
        ]
        kernel = obj.get("kernel")
        return _json_record(
            cls,
            obj,
            "scenario",
            name=obj.get("name", "scenario"),
            kind=obj.get("kind", "round"),
            clients=clients,
            generators=generators,
            kernel=None if kernel is None else KernelSpec.from_json_dict(kernel),
        )


def load_scenario(path) -> Scenario:
    return Scenario.from_json_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Timelines and sweeps


# Scored on every timeline and variance-sweep row, all from one
# ``_aggregate`` call: the two kernel scores come from one kernel pass.
_SAMPLED_METRICS = ("fid_avg", "fid_all", "kid_avg", "kid_all")


@dataclass
class TimelineResult(_JsonFields):
    rows: list[dict]
    ratios: dict
    detections: dict
    collapse_step: int


def mode_collapse_timeline(
    clients: ClientSet,
    timeline: list[GeneratorSpec],
    collapse_step: int,
    seed: int = 0,
    threshold: float = 2.0,
    kernel: KernelSpec | None = None,
) -> TimelineResult:
    """Score a generator timeline and flag sudden per-metric deteriorations.

    A metric detects the collapse when its score at ``collapse_step``
    exceeds ``threshold`` times its score one step earlier.
    """
    if len(timeline) < 2:
        raise ValueError("timeline needs at least 2 steps")
    if collapse_step < 1:
        raise ValueError("collapse at step 0 has no pre-collapse baseline")
    if collapse_step >= len(timeline):
        raise ValueError(
            f"collapse step {collapse_step} outside timeline of {len(timeline)} steps"
        )
    kernel = kernel or KernelSpec()
    seeds = _spawn_seeds(seed, len(timeline))
    rows = []
    for step, spec in enumerate(timeline):
        gen = materialize_generator(spec, seed=seeds[step])
        row = {"step": step, "generator": spec.id}
        row.update(_aggregate(clients, gen, _SAMPLED_METRICS, kernel)[0])
        rows.append(row)
    ratios = {}
    detections = {}
    for metric in _SAMPLED_METRICS:
        before = rows[collapse_step - 1][metric]
        after = rows[collapse_step][metric]
        ratio = math.inf if before == 0.0 else after / before
        ratios[metric] = ratio
        detections[metric] = bool(ratio > threshold)
    return TimelineResult(
        rows=rows, ratios=ratios, detections=detections, collapse_step=collapse_step
    )


def default_collapse_scenario(seed: int = 0) -> Scenario:
    """Fixed heterogeneous-clients scenario whose generator collapses to a point.

    Ten well-separated unit-covariance Gaussian clients; the generator
    tracks the pooled moments for three steps, then emits a single
    client's mean (plus 1e-6 jitter).  Scored with the bounded rbf
    kernel so the per-client kernel scores respond to the collapse.
    """
    d = 4
    n_clients = 10
    rng = np.random.default_rng(seed)
    means = 6.0 * rng.standard_normal((n_clients, d))
    client_specs = [
        ClientSpec(id=f"c{i:02d}", mean=means[i], cov=np.eye(d), n=200)
        for i in range(n_clients)
    ]
    lam = np.full(n_clients, 1.0 / n_clients)
    mean_hat = lam @ means
    cov_hat = np.eye(d) + np.einsum(
        "i,ij,ik->jk", lam, means - mean_hat, means - mean_hat
    )
    pre = [
        GeneratorSpec(id=f"step{t}", kind="gaussian", mean=mean_hat, cov=cov_hat, n=400)
        for t in range(3)
    ]
    post = [
        GeneratorSpec(id=f"step{t}", kind="point", point=means[0], jitter=1e-6, n=400)
        for t in range(3, 5)
    ]
    return Scenario(
        name="mode-collapse",
        kind="collapse",
        clients=client_specs,
        generators=pre + post,
        metrics=list(_SAMPLED_METRICS),
        kernel=KernelSpec(kind="rbf"),
        seed=seed,
        collapse_step=3,
    )


# The score families a scenario round's rows hold: the scalar ones.  A PRDC
# score, a record of four, is held only by a scores round's trace, one
# ScoreReply body per client.
_ROW_FAMILIES = ("fid", "kid", "ll")


def _written(mode, metrics, generator) -> tuple[list[str], list[str]]:
    """A scenario round's request, checked as ``run_round`` checks it, and
    the part of it that the round's outputs hold: its row's scalar scores,
    and in ``scores`` mode every requested family, whose per-client values
    the ``ScoreReply`` bodies carry."""
    mode = _normalize_mode(mode)
    requested = _normalize_metrics(metrics)
    _check_capabilities(mode, requested, generator)
    if mode == SCORES:
        return requested, requested
    return requested, [m for m in requested if m.startswith(_ROW_FAMILIES)]


def run_scenario(scenario: Scenario) -> dict:
    """Materialize and run a scenario; returns its rows and, for a round,
    its message trace (for a collapse scenario, the timeline result).

    A collapse scenario draws only its clients here: the timeline draws
    each generator in its step.  A round's rows keep only its scalar
    scores, and each round computes only what its outputs hold
    (``_written``).  A ``scores`` round's per-client PRDC is held in the
    trace's ``ScoreReply`` bodies.  Any other round validates a PRDC
    request, with PRDC's own errors after the other families', but
    computes no PRDC score unless a squared distance may overflow
    (``prdc._check_aggregate``) or it asks for PRDC alone: an empty
    request is no round, so that round runs the whole request.
    """
    if scenario.kind == "collapse":
        clients, _ = _materialize(scenario.clients, [], scenario.seed)
        result = mode_collapse_timeline(
            clients,
            scenario.generators,
            scenario.collapse_step,
            seed=scenario.seed,
            threshold=scenario.detection_threshold,
            kernel=scenario.kernel,
        )
        return {"kind": "collapse", "result": result, "rows": result.rows}
    clients, generators = scenario.materialize()
    trace = ProtocolTrace()
    rows = []
    for spec, gen in zip(scenario.generators, generators):
        requested, written = _written(scenario.mode, scenario.metrics, gen)
        report, round_trace = run_round(
            clients, gen, scenario.mode, written or requested, kernel=scenario.kernel
        )
        if written and written != requested:
            _check_aggregate(clients, gen, pooled="prdc_all" in requested)
        trace.messages.extend(round_trace.messages)
        row = {"generator": spec.id}
        row.update({m: v for m, v in report.scores.items() if m.startswith(_ROW_FAMILIES)})
        rows.append(row)
    return {"kind": "round", "rows": rows, "trace": trace}


TOY_SWEEP_COLUMNS = (
    "var_x",
    "fd_avg_analytic",
    "fd_all_analytic",
    "fd_avg_sampled",
    "fd_all_sampled",
    "kd_avg_sampled",
    "kd_all_sampled",
)


def toy_mixture_sweep(
    var_grid,
    n_per_client: int,
    seed: int = 0,
    kernel: KernelSpec | None = None,
    kid_n_per_client: int | None = None,
) -> list[dict]:
    """Two-client mixture versus an axis-variance generator family.

    The clients are unit Gaussians centered at ``(+1, 0)`` and
    ``(-1, 0)`` with equal weight; the generator at grid value ``v`` is
    a centered Gaussian with covariance ``diag(v, 1)``.  Each row holds
    the analytic scores (from exact parameters) and sampled scores (from
    seeded draws).  Client datasets are drawn once and reused across the
    grid, so the kernel-score gap is constant along the sweep.  Kernel
    columns use at most ``kid_n_per_client`` samples per side (default
    ``min(n_per_client, 1000)``), which bounds their time; their memory
    is bounded by the tile engine, which holds one Gram tile at a time.
    """
    var_grid = [float(v) for v in var_grid]
    if any(v < 0 for v in var_grid):
        raise ValueError("variance grid values must be >= 0")
    if n_per_client < 2:
        raise ValueError("need at least 2 samples per client")
    if kid_n_per_client is not None and kid_n_per_client < 1:
        raise ValueError(f"kid_n_per_client must be >= 1, got {kid_n_per_client}")
    kernel = kernel or KernelSpec()
    kid_n = kid_n_per_client or min(n_per_client, 1000)
    kid_n = min(kid_n, n_per_client)

    seeds = _spawn_seeds(seed, 2 + len(var_grid))
    mean_pos = np.array([1.0, 0.0])
    mean_neg = np.array([-1.0, 0.0])
    eye = np.eye(2)
    analytic = ClientSet(
        [
            Client(id="c1", stats=GaussianStats(n=n_per_client, mean=mean_pos, cov=eye)),
            Client(id="c2", stats=GaussianStats(n=n_per_client, mean=mean_neg, cov=eye)),
        ]
    )
    samples = [
        mean_pos + np.random.default_rng(seeds[0]).standard_normal((n_per_client, 2)),
        mean_neg + np.random.default_rng(seeds[1]).standard_normal((n_per_client, 2)),
    ]
    sampled = ClientSet(
        [Client(id="c1", embeddings=samples[0]), Client(id="c2", embeddings=samples[1])]
    )
    kid_set = ClientSet(
        [
            Client(id="c1", embeddings=samples[0][:kid_n]),
            Client(id="c2", embeddings=samples[1][:kid_n]),
        ]
    )

    rows = []
    for i, v in enumerate(var_grid):
        g_cov = np.diag([v, 1.0])
        g_model = GaussianModel(mean=np.zeros(2), cov=g_cov)
        gen = np.random.default_rng(seeds[2 + i]).standard_normal(
            (n_per_client, 2)
        ) * np.array([np.sqrt(v), 1.0])
        analytic_fd = _aggregate(analytic, g_model, ("fid_avg", "fid_all"), kernel)[0]
        sampled_fd = _aggregate(sampled, gen, ("fid_avg", "fid_all"), kernel)[0]
        sampled_kd = _aggregate(kid_set, gen[:kid_n], ("kid_avg", "kid_all"), kernel)[0]
        rows.append(
            {
                "var_x": v,
                "fd_avg_analytic": analytic_fd["fid_avg"],
                "fd_all_analytic": analytic_fd["fid_all"],
                "fd_avg_sampled": sampled_fd["fid_avg"],
                "fd_all_sampled": sampled_fd["fid_all"],
                "kd_avg_sampled": sampled_kd["kid_avg"],
                "kd_all_sampled": sampled_kd["kid_all"],
            }
        )
    return rows


VARIANCE_SWEEP_COLUMNS = ("var",) + _SAMPLED_METRICS


def variance_limited_sweep(
    k_clients: int,
    within_var: float,
    between_var: float,
    generator_var_grid,
    seed: int = 0,
    d: int = 4,
    n_per_client: int = 100,
    n_gen: int = 500,
    kernel: KernelSpec | None = None,
) -> list[dict]:
    """Heterogeneous clients with small within-client variance versus an
    isotropic generator family.

    Client centers are drawn from ``N(0, between_var I)`` and each
    client's samples from ``N(center, within_var I)``; the generator at
    grid value ``v`` draws from ``N(0, (v + within_var) I)``.
    """
    if k_clients < 1:
        raise ValueError(f"need at least 1 client, got {k_clients}")
    if not within_var >= 0:
        raise ValueError(f"within-client variance must be >= 0, got {within_var!r}")
    if not math.isfinite(between_var):
        raise ValueError(f"between-client variance must be finite, got {between_var!r}")
    if within_var > between_var:
        raise ValueError("within-client variance must not exceed between-client variance")
    grid = [float(v) for v in generator_var_grid]
    if not grid:
        raise ValueError("generator variance grid is empty")
    if any(v < 0 for v in grid):
        raise ValueError("variance grid values must be >= 0")
    if n_per_client < 1:
        raise ValueError(f"need at least 1 sample per client (n), got {n_per_client}")
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    kernel = kernel or KernelSpec()
    seeds = _spawn_seeds(seed, 1 + k_clients + len(grid))
    centers = np.sqrt(between_var) * np.random.default_rng(seeds[0]).standard_normal(
        (k_clients, d)
    )
    clients = ClientSet(
        [
            Client(
                id=f"c{i:03d}",
                embeddings=centers[i]
                + np.sqrt(within_var)
                * np.random.default_rng(seeds[1 + i]).standard_normal((n_per_client, d)),
            )
            for i in range(k_clients)
        ]
    )
    rows = []
    for j, v in enumerate(grid):
        gen = np.sqrt(v + within_var) * np.random.default_rng(
            seeds[1 + k_clients + j]
        ).standard_normal((n_gen, d))
        row = {"var": v}
        row.update(_aggregate(clients, gen, _SAMPLED_METRICS, kernel)[0])
        rows.append(row)
    return rows


def write_score_csv(rows: list[dict], path, columns=None) -> None:
    """Write sweep/timeline rows as deterministic plot-ready CSV.

    ``path`` is a file path or an open text stream (such as ``sys.stdout``).
    """
    if not rows:
        raise ValueError("no rows to write")
    columns = list(columns) if columns is not None else list(rows[0].keys())
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fields = []
            for col in columns:
                value = row[col]
                fields.append(repr(value) if isinstance(value, float) else str(value))
            fh.write(",".join(fields) + "\n")


# ---------------------------------------------------------------------------
# Ranking comparison


TIE_TOL = 1e-12


@dataclass
class RankingComparison(_JsonFields):
    """Kendall rank agreement between two score tables over the same ids."""

    table_a: dict
    table_b: dict
    kendall_tau: float
    concordant: int
    discordant: int
    argmin_a: str
    argmin_b: str


def _order(x, y) -> int:
    """The sign of ``x - y``, or 0 when the two scores tie: equal (equal
    infinities too) or within TIE_TOL.  Equality and order are compared, not
    taken from the difference, so an integer beyond float range needs no
    conversion; its difference from a float overflows, and is no tie."""
    if x == y:
        return 0
    try:
        if abs(x - y) <= TIE_TOL:
            return 0
    except OverflowError:
        pass
    return 1 if x > y else -1


def compare_rankings(table_a: dict, table_b: dict) -> RankingComparison:
    """Tie-adjusted Kendall tau between two generator score tables.

    Scores within 1e-12 of each other count as tied; the tau-b
    adjustment handles ties, and an all-tied table yields tau 0.
    Argmins break ties by generator id; a NaN score is a ValueError.
    """
    for table in (table_a, table_b):
        _json_object(table, "score table")
    if set(table_a) != set(table_b):
        raise ValueError("score tables cover different generator ids")
    for name, table in (("a", table_a), ("b", table_b)):
        for gen_id, score in table.items():
            if not _is_real(score):
                raise ValueError("score table values must be numbers")
            if score != score:  # NaN; math.isnan would overflow on a huge int
                raise ValueError(f"score table {name} has a NaN score for generator {gen_id!r}")
    if not table_a:
        raise ValueError("score tables are empty")
    ids = sorted(table_a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sa = _order(table_a[ids[i]], table_a[ids[j]])
            sb = _order(table_b[ids[i]], table_b[ids[j]])
            ties_a += sa == 0
            ties_b += sb == 0
            if sa == 0 or sb == 0:
                continue
            if sa == sb:
                concordant += 1
            else:
                discordant += 1
    n0 = len(ids) * (len(ids) - 1) // 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    tau = (concordant - discordant) / denom if denom > 0 else 0.0
    argmin_a = min(ids, key=lambda g: (table_a[g], g))
    argmin_b = min(ids, key=lambda g: (table_b[g], g))
    return RankingComparison(
        table_a=dict(table_a),
        table_b=dict(table_b),
        kendall_tau=tau,
        concordant=concordant,
        discordant=discordant,
        argmin_a=argmin_a,
        argmin_b=argmin_b,
    )


def save_trace(trace: ProtocolTrace, path) -> None:
    Path(path).write_text(json_text(trace.to_json_dict()), encoding="utf-8")
