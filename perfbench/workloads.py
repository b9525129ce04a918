"""Seeded fixtures, evaluation plans and output oracles for the three workloads.

A workload writes its fixture files into a scratch directory and returns
a plan: for each of ``GENERATORS`` generators, the fixed list of CLI
argument vectors that make up one *evaluation* of that generator, and
the output files those calls write.  The worker cycles through the plan
in a closed loop; ``verify`` then checks one kept copy of each
generator's outputs against an oracle computed here.  The oracles are
independent of the library, except the fed-protocol scores, which are
compared with direct library calls on the same materialized data.

Every number that decides the amount of work (client count, sample
counts, dimensions, generator count) is a module constant, so the work
per evaluation depends on the seed only through the data values.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.spatial.distance

# Distinct generators per run; evaluation i scores generator i % GENERATORS.
GENERATORS = 8

# Kernel used by the CLI default: (<x, y> / d + 1) ** 3.
POLY_DEGREE = 3
PRDC_K = 5

REL_TOL = 1e-7
ABS_TOL = 1e-9


@dataclass
class Workload:
    sizes: dict
    build: Callable[[Path, int], "Plan"]
    # Denominators for the per-layer redundancy ratios: pooled client
    # samples N and generator samples m of one evaluation (0 if unused).
    pooled_n: int = 0
    gen_m: int = 0


@dataclass
class Plan:
    """Per-generator evaluation steps plus the oracle state to verify them."""

    evaluations: list = field(default_factory=list)
    verify: Callable[[int, list], list] | None = None

    def to_json_dict(self) -> dict:
        return {"evaluations": self.evaluations}


# ---------------------------------------------------------------------------
# Fixture writers (file formats as documented in fedeval.statkit)


def write_fevb(x: np.ndarray, path: Path) -> None:
    x = np.ascontiguousarray(x, dtype="<f8")
    path.write_bytes(b"FEVB" + bytes([1, 1]) + struct.pack("<II", *x.shape) + x.tobytes())


def write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def write_moments(n: int, mean: np.ndarray, cov: np.ndarray, path: Path) -> None:
    write_json({"n": int(n), "mean": mean.tolist(), "cov": cov.tolist()}, path)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _random_spd(rng, d: int, lo: float, hi: float) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.exp(rng.uniform(math.log(lo), math.log(hi), d))
    return _sym((q * lam) @ q.T)


def _draw(rng, mean: np.ndarray, cov: np.ndarray, n: int) -> np.ndarray:
    return mean + rng.standard_normal((n, mean.shape[0])) @ np.linalg.cholesky(cov).T


def _evaluation(gen: int, calls: list, outputs: list) -> dict:
    return {"gen": gen, "calls": calls, "outputs": [str(p) for p in outputs]}


# ---------------------------------------------------------------------------
# Oracles


def frechet_oracle(mean_a, cov_a, mean_b, cov_b) -> float:
    """Squared Gaussian W2 through the textbook (cov_a cov_b)^1/2 form."""
    cross = scipy.linalg.sqrtm(cov_a @ cov_b)
    return float(
        np.sum((mean_a - mean_b) ** 2)
        + np.trace(cov_a)
        + np.trace(cov_b)
        - 2.0 * np.trace(np.real(cross))
    )


def pooled_moments(means, covs, weights):
    mean = weights @ means
    second = np.einsum("i,ijk->jk", weights, covs + np.einsum("ij,ik->ijk", means, means))
    return mean, _sym(second - np.outer(mean, mean))


def sample_moments(x: np.ndarray):
    mean = x.mean(axis=0)
    c = x - mean
    return mean, _sym(c.T @ c / x.shape[0])


def poly_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x @ y.T / x.shape[1] + 1.0) ** POLY_DEGREE


def kth_radius(x: np.ndarray, k: int) -> np.ndarray:
    dist = scipy.spatial.distance.cdist(x, x)
    np.fill_diagonal(dist, np.inf)
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def prdc_bounds(ref, gen, ref_radii, gen_radii, k: int, slack: float) -> dict:
    """Interval [lo, hi] for each PRDC metric.

    Ball membership ``d < r`` is decided with ``slack`` on each side, so
    the library's distances (computed through the |x|^2 + |y|^2 - 2 x.y
    expansion) may differ from these (summed squared differences, computed
    by ``cdist``) by rounding without a false alarm.
    """
    dist = scipy.spatial.distance.cdist(ref, gen)
    out = {}
    for side, s in (("lo", -slack), ("hi", slack)):
        in_ref = dist < ref_radii[:, None] + s
        in_gen = dist < gen_radii[None, :] + s
        out[side] = {
            "precision": float(in_ref.any(axis=0).mean()),
            "recall": float(in_gen.any(axis=1).mean()),
            "density": float(in_ref.sum(axis=0).mean() / k),
            "coverage": float(in_ref.any(axis=1).mean()),
        }
    return out


def close(a, b, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def _load(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# gauss-rank: the paper's Gaussian analysis (Frechet scores + barycenter)

# Client spectra are one fixed geometric grid, rotated per client, so the
# barycenter takes the same number of iterations (13) for every seed.
GR = {"clients": 8, "d": 56, "n": 384, "gen_n": 112, "rotation": 1.0, "spectrum": (0.1, 5.0),
      "sigma_apart": 3.0}


def build_gauss_rank(work: Path, seed: int) -> Plan:
    k, d, n, m = GR["clients"], GR["d"], GR["n"], GR["gen_n"]
    rng = np.random.default_rng([seed, 1])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    means, covs = [], []
    entries = []
    lam = np.geomspace(*GR["spectrum"], d)
    sigma = math.sqrt(float(lam.mean()))
    for i in range(k):
        skew = rng.standard_normal((d, d)) * GR["rotation"] / math.sqrt(d)
        basis = scipy.linalg.expm(skew - skew.T) @ q
        cov = _sym((basis * lam) @ basis.T)
        direction = rng.standard_normal(d)
        mean = GR["sigma_apart"] * sigma / math.sqrt(2.0) * direction / np.linalg.norm(direction)
        name = f"c{i:02d}.json"
        write_moments(n, mean, cov, work / name)
        means.append(mean)
        covs.append(cov)
        entries.append({"id": f"c{i:02d}", "moments": name})
    write_json({"clients": entries}, work / "clients.json")
    means, covs = np.stack(means), np.stack(covs)
    weights = np.full(k, 1.0 / k)
    pooled = pooled_moments(means, covs, weights)

    plan = Plan()
    expected = []
    for j in range(GENERATORS):
        gen_mean = pooled[0] + 0.3 * rng.standard_normal(d) / math.sqrt(d)
        gen_cov = _sym(0.5 * pooled[1] + 0.5 * _random_spd(rng, d, 0.2, 2.0))
        x = _draw(rng, gen_mean, gen_cov, m)
        gen_path = work / f"g{j}.fevb"
        write_fevb(x, gen_path)
        gm, gc = sample_moments(x)
        per_client = [frechet_oracle(means[i], covs[i], gm, gc) for i in range(k)]
        expected.append(
            {
                "gen": (gm, gc),
                "per_client": per_client,
                "fid_avg": float(weights @ per_client),
                "fid_all": frechet_oracle(pooled[0], pooled[1], gm, gc),
            }
        )
        fid_out, bary_out = work / "out" / "fid.json", work / "out" / "barycenter.json"
        plan.evaluations.append(
            _evaluation(
                j,
                [
                    ["fid", "--clients", str(work / "clients.json"), "--gen", str(gen_path),
                     "--agg", "both", "--out", str(fid_out)],
                    ["barycenter", "--clients", str(work / "clients.json"), "--gen",
                     str(gen_path), "--out", str(bary_out)],
                ],
                [fid_out, bary_out],
            )
        )

    def verify(j: int, outputs: list) -> list:
        exp = expected[j]
        fid, bary = _load(outputs[0]), _load(outputs[1])
        problems = []
        if len(fid["per_client"]) != k:
            problems.append("fid: wrong number of per-client scores")
        for i, (got, want) in enumerate(zip(fid["per_client"], exp["per_client"])):
            if not close(got, want, rel=1e-6, abs_=1e-8):
                problems.append(f"fid: client {i} score {got!r} != oracle {want!r}")
        for key in ("fid_avg", "fid_all"):
            if not close(fid[key], exp[key], rel=1e-6, abs_=1e-8):
                problems.append(f"fid: {key} {fid[key]!r} != oracle {exp[key]!r}")
        # The barycenter must be a fixed point of C = sum_i w_i (C^1/2 C_i C^1/2)^1/2.
        c = np.asarray(bary["cov"])
        root = np.real(scipy.linalg.sqrtm(c))
        image = sum(
            w * np.real(scipy.linalg.sqrtm(root @ ci @ root)) for w, ci in zip(weights, covs)
        )
        residual = float(np.linalg.norm(c - image))
        if residual > 1e-7 * float(np.linalg.norm(c)):
            problems.append(f"barycenter: fixed-point residual {residual:.3e}")
        if not np.allclose(bary["mean"], weights @ means, rtol=1e-12, atol=1e-12):
            problems.append("barycenter: mean is not the weighted client mean")
        center = np.asarray(bary["mean"])
        want = frechet_oracle(center, c, *exp["gen"])
        if not close(bary["barycenter_part"], want, rel=1e-6, abs_=1e-8):
            problems.append(f"barycenter: barycenter_part {bary['barycenter_part']!r} != {want!r}")
        want = float(weights @ [frechet_oracle(center, c, means[i], covs[i]) for i in range(k)])
        if not close(bary["const_part"], want, rel=1e-6, abs_=1e-8):
            problems.append(f"barycenter: const_part {bary['const_part']!r} != {want!r}")
        return problems

    plan.verify = verify
    return plan


# ---------------------------------------------------------------------------
# kernel-knn: KID-formula scores with the gap, and PRDC, on raw clients

KK = {"clients": 6, "d": 64, "n": 200, "gen_n": 320}


def build_kernel_knn(work: Path, seed: int) -> Plan:
    k, d, n, m = KK["clients"], KK["d"], KK["n"], KK["gen_n"]
    rng = np.random.default_rng([seed, 2])
    mats, entries, scales, centers = [], [], [], []
    for i in range(k):
        center = 0.4 * rng.standard_normal(d)
        scale = rng.uniform(0.8, 1.2)
        x = center + scale * rng.standard_normal((n, d))
        name = f"c{i:02d}.fevb"
        write_fevb(x, work / name)
        mats.append(x)
        centers.append(center)
        scales.append(scale)
        entries.append({"id": f"c{i:02d}", "embeddings": name})
    write_json({"clients": entries}, work / "clients.json")
    pooled = np.concatenate(mats)
    weights = np.full(k, 1.0 / k)
    client_radii = [kth_radius(x, PRDC_K) for x in mats]
    pooled_radii = kth_radius(pooled, PRDC_K)
    client_within = [float(poly_gram(x, x).mean()) for x in mats]
    pooled_within = float(poly_gram(pooled, pooled).mean())
    slack = 1e-8

    plan = Plan()
    expected = []
    for j in range(GENERATORS):
        pick = rng.integers(0, k, m)
        shift = 0.3 * rng.standard_normal(d) / math.sqrt(d)
        spread = rng.uniform(0.85, 1.15)
        noise = spread * np.asarray(scales)[pick, None] * rng.standard_normal((m, d))
        x = np.stack(centers)[pick] + shift + noise
        gen_path = work / f"g{j}.fevb"
        write_fevb(x, gen_path)
        gen_within = float(poly_gram(x, x).mean())
        per_client = [
            client_within[i] + gen_within - 2.0 * float(poly_gram(mats[i], x).mean())
            for i in range(k)
        ]
        gen_radii = kth_radius(x, PRDC_K)
        expected.append(
            {
                "per_client": per_client,
                "kid_all": pooled_within + gen_within - 2.0 * float(poly_gram(pooled, x).mean()),
                "prdc_client": [
                    prdc_bounds(mats[i], x, client_radii[i], gen_radii, PRDC_K, slack)
                    for i in range(k)
                ],
                "prdc_all": prdc_bounds(pooled, x, pooled_radii, gen_radii, PRDC_K, slack),
            }
        )
        kid_out, prdc_out = work / "out" / "kid.json", work / "out" / "prdc.json"
        plan.evaluations.append(
            _evaluation(
                j,
                [
                    ["kid", "--clients", str(work / "clients.json"), "--gen", str(gen_path),
                     "--agg", "both", "--gap", "--out", str(kid_out)],
                    ["prdc", "--clients", str(work / "clients.json"), "--gen", str(gen_path),
                     "--out", str(prdc_out)],
                ],
                [kid_out, prdc_out],
            )
        )

    def in_bounds(got: dict, bounds: dict) -> bool:
        return all(
            bounds["lo"][key] - 1e-12 <= got[key] <= bounds["hi"][key] + 1e-12
            for key in bounds["lo"]
        )

    def verify(j: int, outputs: list) -> list:
        exp = expected[j]
        kid, pr = _load(outputs[0]), _load(outputs[1])
        problems = []
        if len(kid["per_client"]) != k:
            problems.append("kid: wrong number of per-client scores")
        for i, (got, want) in enumerate(zip(kid["per_client"], exp["per_client"])):
            if not close(got, want):
                problems.append(f"kid: client {i} score {got!r} != oracle {want!r}")
        want_avg = float(weights @ exp["per_client"])
        if not close(kid["kid_avg"], want_avg):
            problems.append(f"kid: kid_avg {kid['kid_avg']!r} != oracle {want_avg!r}")
        if not close(kid["kid_all"], exp["kid_all"]):
            problems.append(f"kid: kid_all {kid['kid_all']!r} != pooled MMD {exp['kid_all']!r}")
        if not close(kid["kid_avg"] - kid["kid_all"], kid["gap"], rel=1e-9, abs_=1e-12):
            problems.append("kid: kid_avg - kid_all != gap")
        if len(pr["per_client"]) != k:
            problems.append("prdc: wrong number of per-client results")
        for i, (got, bounds) in enumerate(zip(pr["per_client"], exp["prdc_client"])):
            if not in_bounds(got, bounds):
                problems.append(f"prdc: client {i} {got} outside brute-force bounds")
        if not in_bounds(pr["all"], exp["prdc_all"]):
            problems.append(f"prdc: pooled {pr['all']} outside brute-force bounds")
        for key, value in pr["avg"].items():
            want = float(weights @ [r[key] for r in pr["per_client"]])
            if not close(value, want, rel=1e-12, abs_=1e-12):
                problems.append(f"prdc: avg {key} is not the weighted per-client mean")
        return problems

    plan.verify = verify
    return plan


# ---------------------------------------------------------------------------
# fed-protocol: one simulated round per aggregation mode, then the search

FP = {"clients": 12, "d": 8, "n": 40, "gen_n": 100, "cx_clients": 3, "cx_d": 6, "budget": 150}

# Every metric each mode can compute for a raw generator.
MODE_METRICS = {
    "scores": ["fid_avg", "kid_avg", "prdc_avg"],
    "moments": ["fid_avg", "fid_all"],
    "raw": ["fid_avg", "fid_all", "kid_avg", "kid_all", "prdc_avg", "prdc_all"],
    "kernel_blocks": ["kid_avg", "kid_all"],
}
HEADER_BYTES, REAL_BYTES = 16, 8


def payload_closed_form(mode: str, k: int, n: int, d: int, m: int) -> int:
    """Bytes one round moves, from the protocol's message schedule."""

    def msg(reals: int) -> int:
        return HEADER_BYTES + REAL_BYTES * reals

    broadcast = msg(m * d)
    if mode == "scores":
        return broadcast + k * (msg(1) + msg(1) + msg(4))
    if mode == "moments":
        return broadcast + k * msg(1 + d + d * d)
    if mode == "raw":
        return broadcast + k * msg(n * d)
    pairs = k * (k - 1) // 2
    return broadcast + k * msg(3) + pairs * (msg(n * d) + msg(1))


def build_fed_protocol(work: Path, seed: int) -> Plan:
    from fedeval import frechet, kernelmmd, statkit
    from fedeval.fedsim import load_scenario

    k, d, n, m = FP["clients"], FP["d"], FP["n"], FP["gen_n"]
    rng = np.random.default_rng([seed, 3])
    client_specs = [
        {
            "id": f"c{i:02d}",
            "mean": (1.5 * rng.standard_normal(d)).tolist(),
            "cov": _random_spd(rng, d, 0.3, 1.5).tolist(),
            "n": n,
            "seed": int(rng.integers(2**31)),
        }
        for i in range(k)
    ]
    # Counterexample search clients: moments files whose means span fewer
    # dimensions than d, so an orthogonal search direction exists.
    cx_k, cx_d = FP["cx_clients"], FP["cx_d"]
    cx_means = np.zeros((cx_k, cx_d))
    cx_means[np.arange(cx_k), np.arange(cx_k)] = rng.uniform(1.0, 2.0, cx_k)
    cx_covs = np.stack([_random_spd(rng, cx_d, 0.5, 2.0) for _ in range(cx_k)])
    for i in range(cx_k):
        write_moments(200, cx_means[i], cx_covs[i], work / f"cx{i}.json")
    write_json(
        {"clients": [{"id": f"cx{i}", "moments": f"cx{i}.json"} for i in range(cx_k)]},
        work / "cx_clients.json",
    )
    cx_pooled = pooled_moments(cx_means, cx_covs, np.full(cx_k, 1.0 / cx_k))

    plan = Plan()
    expected = []
    for j in range(GENERATORS):
        gen_spec = {
            "id": f"g{j}",
            "kind": "gaussian",
            "n": m,
            "mean": (0.5 * rng.standard_normal(d)).tolist(),
            "cov": _random_spd(rng, d, 0.5, 3.0).tolist(),
            "seed": int(rng.integers(2**31)),
        }
        calls, outputs = [], []
        for mode, metrics in MODE_METRICS.items():
            scenario = work / f"g{j}-{mode}.json"
            write_json(
                {"name": f"g{j}-{mode}", "kind": "round", "mode": mode, "metrics": metrics,
                 "seed": seed, "clients": client_specs, "generators": [gen_spec]},
                scenario,
            )
            out, trace = work / "out" / f"{mode}.json", work / "out" / f"{mode}-trace.json"
            calls.append(["simulate", "--scenario", str(scenario), "--out", str(out),
                          "--out-trace", str(trace)])
            outputs += [out, trace]
        # Direct library calls on the clients and generator the scenarios materialize.
        clients, (gen,) = load_scenario(scenario).materialize()
        gen_stats = statkit.moments(gen)
        spec = kernelmmd.KernelSpec()
        expected.append(
            {
                "fid_avg": frechet.fid_avg(clients, gen_stats).value,
                "fid_all": frechet.fid_all(clients, gen_stats).value,
                "kid_avg": kernelmmd.kid_avg(clients, gen, spec).value,
                "kid_all": kernelmmd.kid_all(clients, gen, spec),
            }
        )
        cx_out = work / "out" / "counterexample.json"
        calls.append(["counterexample", "--clients", str(work / "cx_clients.json"), "--search",
                      "--seed", str(j), "--budget", str(FP["budget"]), "--out", str(cx_out)])
        outputs.append(cx_out)
        plan.evaluations.append(_evaluation(j, calls, outputs))

    def verify_counterexample(rep: dict) -> list:
        problems = []
        for label, key in (("hat", "g_hat"), ("prime", "g_prime")):
            gm = np.asarray(rep[key]["mean"])
            gc = np.asarray(rep[key]["cov"])
            for i in range(cx_k):
                want = frechet_oracle(cx_means[i], cx_covs[i], gm, gc)
                if not close(rep[f"per_client_fid_{label}"][i], want, rel=1e-6, abs_=1e-8):
                    problems.append(f"counterexample: per-client {label} score {i} != oracle")
            want = frechet_oracle(cx_pooled[0], cx_pooled[1], gm, gc)
            if not close(rep[f"fid_all_{label}"], want, rel=1e-6, abs_=1e-8):
                problems.append(f"counterexample: fid_all_{label} != oracle")
        if not np.allclose(rep["g_hat"]["mean"], cx_pooled[0], rtol=1e-12, atol=1e-12):
            problems.append("counterexample: g_hat mean is not the pooled mean")
        if not close(rep["measured_gap"], rep["fid_all_prime"] - rep["fid_all_hat"], rel=1e-12):
            problems.append("counterexample: measured_gap inconsistent")
        if rep["evaluations"] < 1:
            problems.append("counterexample: no search evaluations")
        return problems

    def verify(j: int, outputs: list) -> list:
        problems = []
        for idx, mode in enumerate(MODE_METRICS):
            out, trace = _load(outputs[2 * idx]), _load(outputs[2 * idx + 1])
            (row,) = out["rows"]
            for key, value in row.items():
                if key == "generator":
                    continue
                if not close(value, expected[j][key]):
                    problems.append(f"{mode}: {key} {value!r} != library {expected[j][key]!r}")
            missing = {key for key in MODE_METRICS[mode] if not key.startswith("prdc")} - set(row)
            if missing:
                problems.append(f"{mode}: missing scores {sorted(missing)}")
            msgs = trace["messages"]
            counted = HEADER_BYTES * len(msgs) + REAL_BYTES * sum(x["real_count"] for x in msgs)
            want = payload_closed_form(mode, k, n, d, m)
            got = {out["total_payload_bytes"], trace["total_payload_bytes"], counted}
            if got != {want}:
                problems.append(f"{mode}: payload bytes {sorted(got)} != closed form {want}")
        problems += verify_counterexample(_load(outputs[-1]))
        return problems

    plan.verify = verify
    return plan


def payload_bytes_per_eval() -> int:
    k, d, n, m = FP["clients"], FP["d"], FP["n"], FP["gen_n"]
    return sum(payload_closed_form(mode, k, n, d, m) for mode in MODE_METRICS)


WORKLOADS = {
    "gauss-rank": Workload(sizes=GR, build=build_gauss_rank),
    "kernel-knn": Workload(
        sizes=KK,
        build=build_kernel_knn,
        pooled_n=KK["clients"] * KK["n"],
        gen_m=KK["gen_n"],
    ),
    "fed-protocol": Workload(
        sizes=FP,
        build=build_fed_protocol,
        pooled_n=FP["clients"] * FP["n"],
        gen_m=FP["gen_n"],
    ),
}
