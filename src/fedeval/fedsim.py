"""Simulated federated evaluation rounds, synthetic scenarios, and sweeps.

A round is a deterministic in-process message exchange between a server
and the clients.  The aggregation mode decides what the clients reveal
and therefore which aggregate scores exist at all:

* ``scores``        -- clients send scalar scores; only avg aggregates.
* ``moments``       -- clients send ``(n, mean, second moment)``; the
  pooled-reference distance becomes exactly computable.
* ``raw``           -- clients upload their embeddings; every metric.
* ``kernel_blocks`` -- clients send within-block and cross-generator
  kernel sums; the pooled kernel score additionally needs pairwise raw
  exchange between clients, whose bytes are charged to the trace.

The server assembles the library's own statistic from the replies -- a
``ClientSet`` of ``GaussianStats`` rebuilt from the moments, a
``ClientSet`` of the uploaded embeddings, or a ``KernelStats`` of the
block sums -- and calls the library's aggregation on it (``fid_avg`` /
``fid_all``, ``KernelStats.kid_avg`` / ``kid_all``,
``log_likelihood_scores``, ``prdc_aggregate``), so protocol == library
holds by construction.  In ``scores`` mode the clients run that
aggregation on their own set and reply with their per-client entries.
Each row of the mode-collapse timeline and of the variance-limited
sweep is scored by the same aggregation, on the clients' raw samples.

Requesting a score the mode cannot produce is a hard
:class:`~fedeval.errors.CapabilityError`, never an approximation.
Every transmitted real number is charged 8 bytes plus a 16-byte header
per message.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapabilityError
from .frechet import fid_all, fid_avg, psd_sqrt
from .kernelmmd import KernelSpec, KernelStats, block_sums, kernel_stats
from .prdc import prdc_aggregate
from .statkit import (
    Client,
    ClientSet,
    GaussianModel,
    GaussianStats,
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
class ScoreReport:
    """Aggregate scores plus per-client values, ordered by client id."""

    scores: dict
    per_client: dict
    client_ids: list[str]

    def to_json_dict(self) -> dict:
        return {
            "scores": self.scores,
            "per_client": self.per_client,
            "client_ids": self.client_ids,
        }


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

    The server assembles the library's own statistic from the replies (a
    client set of Gaussian moments or of embeddings, or a ``KernelStats``
    of block sums) and calls the library's aggregation on it, so the
    scores equal the direct library calls by construction.  In ``scores``
    mode the clients run that aggregation on their own set and each
    replies with its per-client entries.  The trace lists one generator
    broadcast followed by the clients' replies in client-id order.
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

    if mode == MOMENTS:
        source = _moments_replies(clients, trace)
    elif mode == RAW:
        source = _raw_replies(clients, trace)
    elif mode == KERNEL_BLOCKS:
        source = _kernel_block_replies(clients, generator, "kid_all" in metrics, kernel, trace)
    else:
        source = clients
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


def _moments_replies(clients, trace) -> ClientSet:
    rebuilt = []
    for client, weight in zip(clients, clients.weights):
        stats = client.get_stats()
        d = stats.dim
        trace.append(Message(client.id, SERVER, "MomentsReply", 1 + d + d * d, {"n": stats.n}))
        # Server-side reconstruction from the transmitted (n, mean, S).
        cov = stats.second_moment - np.outer(stats.mean, stats.mean)
        stats = GaussianStats(n=stats.n, mean=stats.mean, cov=(cov + cov.T) / 2.0)
        rebuilt.append(Client(id=client.id, weight=float(weight), stats=stats))
    return ClientSet(rebuilt)


def _raw_replies(clients, trace) -> ClientSet:
    rebuilt = []
    for client, weight, x in zip(clients, clients.weights, clients.client_embeddings()):
        n, d = x.shape
        trace.append(Message(client.id, SERVER, "RawDataReply", n * d, {"rows": n, "cols": d}))
        rebuilt.append(Client(id=client.id, weight=float(weight), embeddings=x))
    return ClientSet(rebuilt)


def _kernel_block_replies(clients, generator, cross, kernel, trace) -> KernelStats:
    """The kernel statistic the block-sum replies carry.

    The cross-client sums are NaN unless ``cross``; the self-block traces
    are NaN because they are never sent (only ``ustat`` reads them).
    """
    mats = clients.client_embeddings()
    k = len(mats)
    counts = np.array([m.shape[0] for m in mats])
    sums = np.full((k, k), np.nan)
    gen_sums = np.empty(k)
    for i, (client, mat) in enumerate(zip(clients, mats)):
        sums[i, i] = float(block_sums(kernel, [mat])[0, 0])
        gen_sums[i] = float(block_sums(kernel, [mat], [generator])[0, 0])
        body = {"n": int(counts[i]), "within_sum": sums[i, i], "cross_generator_sum": gen_sums[i]}
        trace.append(Message(client.id, SERVER, "KernelBlockReply", 3, body))
    if cross:
        # Cross-client blocks need the partner's raw samples: the exchange
        # is simulated and its bytes charged, making the privacy cost of
        # the pooled kernel score explicit.
        ids = clients.ids
        for i in range(k):
            for j in range(i + 1, k):
                nj, d = mats[j].shape
                trace.append(Message(ids[j], ids[i], "RawDataReply", nj * d, {"rows": nj, "cols": d}))
                sums[i, j] = sums[j, i] = float(block_sums(kernel, [mats[i]], [mats[j]])[0, 0])
                body = {"pair": [ids[i], ids[j]], "cross_sum": sums[i, j]}
                trace.append(Message(ids[i], SERVER, "KernelBlockReply", 1, body))
    return KernelStats(
        weights=clients.weights,
        natural_weights=clients.has_natural_weights(),
        counts=counts,
        sums=sums,
        traces=np.full(k, np.nan),
        gen_count=generator.shape[0],
        gen_sums=gen_sums,
        gen_sum=float(block_sums(kernel, [generator])[0, 0]),
        gen_trace=np.nan,
    )


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
            result = fid_avg(source, gen_stats)
            values, avg = [r.value for r in result.per_client], result.value
            if want_all:
                pooled = fid_all(source, gen_stats).value
        elif family == "kid":
            stats = source
            if not isinstance(source, KernelStats):
                stats = kernel_stats(source, generator, kernel, cross=want_all)
            result = stats.kid_avg()
            values, avg = [r.value for r in result.per_client], result.value
            if want_all:
                pooled = stats.kid_all()
        elif family == "ll":
            result = log_likelihood_scores(source, _generator_model(generator))
            values, avg, pooled = result.per_client, result.avg, result.all
        else:
            result = prdc_aggregate(source, generator, k=k_neighbors)
            values = [r.to_json_dict() for r in result.per_client]
            avg, pooled = result.avg.to_json_dict(), result.all.to_json_dict()
        per_client[family] = values
        if f"{family}_avg" in metrics:
            scores[f"{family}_avg"] = avg
        if want_all:
            scores[f"{family}_all"] = pooled
    return scores, per_client


# ---------------------------------------------------------------------------
# Synthetic scenarios


def _mean_and_cov(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """A flat mean and a covariance matrix; a scalar ``cov`` stands for ``cov * I``."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(mean.shape[0])
    return mean, cov


@dataclass
class ClientSpec:
    """Recipe for one synthetic Gaussian client."""

    id: str
    mean: np.ndarray
    cov: np.ndarray
    n: int
    seed: int | None = None

    def __post_init__(self):
        self.mean, self.cov = _mean_and_cov(self.mean, self.cov)


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic generator output set.

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
            self.mean, self.cov = _mean_and_cov(self.mean, self.cov)
        else:
            if self.point is None:
                raise ValueError("point generator spec needs a point")
            self.point = np.asarray(self.point, dtype=np.float64).reshape(-1)


def _spawn_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds spawned from ``seed``."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(count)]


def _draw_gaussian(rng, mean, cov, n):
    z = rng.standard_normal((n, mean.shape[0]))
    return mean + z @ psd_sqrt(cov)


def materialize_client(spec: ClientSpec, seed: int | None = None) -> Client:
    rng = np.random.default_rng(spec.seed if spec.seed is not None else seed)
    return Client(id=spec.id, embeddings=_draw_gaussian(rng, spec.mean, spec.cov, spec.n))


def materialize_generator(spec: GeneratorSpec, seed: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(spec.seed if spec.seed is not None else seed)
    if spec.kind == "gaussian":
        return _draw_gaussian(rng, spec.mean, spec.cov, spec.n)
    d = spec.point.shape[0]
    return spec.point + spec.jitter * rng.standard_normal((spec.n, d))


@dataclass
class Scenario:
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

    def materialize(self) -> tuple[ClientSet, list[np.ndarray]]:
        seeds = _spawn_seeds(self.seed, len(self.clients) + len(self.generators))
        clients = ClientSet(
            [
                materialize_client(spec, seed=seeds[i])
                for i, spec in enumerate(self.clients)
            ]
        )
        offset = len(self.clients)
        generators = [
            materialize_generator(spec, seed=seeds[offset + i])
            for i, spec in enumerate(self.generators)
        ]
        return clients, generators

    def to_json_dict(self) -> dict:
        def spec_dict(s):
            out = {"id": s.id, "n": s.n, "seed": s.seed}
            if isinstance(s, ClientSpec):
                out.update({"mean": s.mean.tolist(), "cov": s.cov.tolist()})
            else:
                out["kind"] = s.kind
                if s.kind == "gaussian":
                    out.update({"mean": s.mean.tolist(), "cov": s.cov.tolist()})
                else:
                    out.update({"point": s.point.tolist(), "jitter": s.jitter})
            return out

        return {
            "name": self.name,
            "kind": self.kind,
            "mode": self.mode,
            "metrics": list(self.metrics),
            "kernel": self.kernel.to_json_dict() if self.kernel else None,
            "seed": self.seed,
            "collapse_step": self.collapse_step,
            "detection_threshold": self.detection_threshold,
            "clients": [spec_dict(c) for c in self.clients],
            "generators": [spec_dict(g) for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Scenario":
        clients = [
            ClientSpec(
                id=str(c["id"]),
                mean=c["mean"],
                cov=c["cov"],
                n=int(c["n"]),
                seed=c.get("seed"),
            )
            for c in obj["clients"]
        ]
        generators = []
        for g in obj["generators"]:
            generators.append(
                GeneratorSpec(
                    id=str(g["id"]),
                    kind=g.get("kind", "gaussian"),
                    n=int(g["n"]),
                    mean=g.get("mean"),
                    cov=g.get("cov"),
                    point=g.get("point"),
                    jitter=g.get("jitter", 1e-6),
                    seed=g.get("seed"),
                )
            )
        kernel = obj.get("kernel")
        return cls(
            name=obj.get("name", "scenario"),
            kind=obj.get("kind", "round"),
            clients=clients,
            generators=generators,
            metrics=list(obj.get("metrics", ["fid_avg", "fid_all"])),
            mode=obj.get("mode", RAW),
            kernel=KernelSpec.from_json_dict(kernel) if kernel else None,
            seed=int(obj.get("seed", 0)),
            collapse_step=obj.get("collapse_step"),
            detection_threshold=float(obj.get("detection_threshold", 2.0)),
        )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Timelines and sweeps


# Scored on every timeline and variance-sweep row, all from one
# ``_aggregate`` call: the two kernel scores come from one kernel pass.
_SAMPLED_METRICS = ("fid_avg", "fid_all", "kid_avg", "kid_all")


@dataclass
class TimelineResult:
    rows: list[dict]
    ratios: dict
    detections: dict
    collapse_step: int

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "ratios": self.ratios,
            "detections": self.detections,
            "collapse_step": self.collapse_step,
        }


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


def run_scenario(scenario: Scenario) -> dict:
    """Materialize and run a scenario; returns rows plus report/trace data."""
    clients, generators = scenario.materialize()
    if scenario.kind == "collapse":
        result = mode_collapse_timeline(
            clients,
            scenario.generators,
            scenario.collapse_step,
            seed=scenario.seed,
            threshold=scenario.detection_threshold,
            kernel=scenario.kernel,
        )
        return {"kind": "collapse", "result": result, "rows": result.rows}
    trace = ProtocolTrace()
    rows = []
    reports = []
    for spec, gen in zip(scenario.generators, generators):
        report, round_trace = run_round(
            clients, gen, scenario.mode, scenario.metrics, kernel=scenario.kernel
        )
        trace.messages.extend(round_trace.messages)
        row = {"generator": spec.id}
        row.update(
            {
                k: v
                for k, v in report.scores.items()
                if not isinstance(v, dict)
            }
        )
        rows.append(row)
        reports.append(report)
    return {"kind": "round", "rows": rows, "reports": reports, "trace": trace}


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
    ``min(n_per_client, 1000)``) to bound Gram sizes.
    """
    var_grid = [float(v) for v in var_grid]
    if any(v < 0 for v in var_grid):
        raise ValueError("variance grid values must be >= 0")
    if n_per_client < 2:
        raise ValueError("need at least 2 samples per client")
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
        gen_stats = moments(gen)
        kid = kernel_stats(kid_set, gen[:kid_n], kernel)
        rows.append(
            {
                "var_x": v,
                "fd_avg_analytic": fid_avg(analytic, g_model).value,
                "fd_all_analytic": fid_all(analytic, g_model).value,
                "fd_avg_sampled": fid_avg(sampled, gen_stats).value,
                "fd_all_sampled": fid_all(sampled, gen_stats).value,
                "kd_avg_sampled": kid.kid_avg().value,
                "kd_all_sampled": kid.kid_all(),
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
    if within_var > between_var:
        raise ValueError("within-client variance must not exceed between-client variance")
    grid = [float(v) for v in generator_var_grid]
    if not grid:
        raise ValueError("generator variance grid is empty")
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
class RankingComparison:
    """Kendall rank agreement between two score tables over the same ids."""

    table_a: dict
    table_b: dict
    kendall_tau: float
    concordant: int
    discordant: int
    argmin_a: str
    argmin_b: str

    def to_json_dict(self) -> dict:
        return {
            "table_a": self.table_a,
            "table_b": self.table_b,
            "kendall_tau": self.kendall_tau,
            "concordant": self.concordant,
            "discordant": self.discordant,
            "argmin_a": self.argmin_a,
            "argmin_b": self.argmin_b,
        }


def compare_rankings(table_a: dict, table_b: dict) -> RankingComparison:
    """Tie-adjusted Kendall tau between two generator score tables.

    Scores within 1e-12 of each other count as tied; the tau-b
    adjustment handles ties, and an all-tied table yields tau 0.
    Argmins break ties by generator id.
    """
    if set(table_a) != set(table_b):
        raise ValueError("score tables cover different generator ids")
    ids = sorted(table_a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            da = table_a[ids[i]] - table_a[ids[j]]
            db = table_b[ids[i]] - table_b[ids[j]]
            tied_a = abs(da) <= TIE_TOL
            tied_b = abs(db) <= TIE_TOL
            ties_a += tied_a
            ties_b += tied_b
            if tied_a or tied_b:
                continue
            if (da > 0) == (db > 0):
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
