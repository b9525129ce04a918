"""Outside-in tracing of fedeval's layers.

The tracer replaces every module-level binding of every public fedeval
function (including re-bindings such as ``fedeval.fedsim.kid_all`` and
the package re-exports) with a wrapper that records a span, plus
``numpy.linalg.eigh`` / ``eigvalsh``.  Nothing under ``src/`` changes:
the library looks these names up in its module globals at call time, so
internal calls pass through the wrappers too.  Private helpers are not
wrapped; their time counts toward the public function that called them.

Spans (name, start, end, parent, evaluation id, error flag) and a few
per-span numbers read from arguments or results ("attributes", such as
the size of a Gram matrix) are kept in flat arrays while the workload
runs and written to an ``.npz`` file at exit.  :func:`summarize` turns
that file into the per-layer metrics, reported per evaluation.
"""

from __future__ import annotations

import inspect
import os
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "statkit", "frechet", "kernelmmd", "prdc", "counterexample", "fedsim")
EIGEN = ("eigh", "eigvalsh")


def _rows(x) -> int:
    return int(np.shape(x)[0])


# Attributes recorded per span, by span name: (arguments in signature order,
# whether passed by position or keyword; result) -> {key: value}.
HOOKS = {
    "kernelmmd.gram": lambda a, r: {"elements": r.size},
    "prdc.knn_radii": lambda a, r: {"rows": r.shape[0]},
    "prdc.prdc_scores": lambda a, r: {"cross": _rows(a[0]) * _rows(a[1])},
    "statkit.ingest": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "statkit.load_stats": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "frechet.barycenter": lambda a, r: {"iterations": r.iterations},
    "counterexample.search_matched_pair": lambda a, r: {"evaluations": r.evaluations},
    "fedsim.run_round": lambda a, r: {
        "messages": len(r[1].messages),
        "payload_bytes": r[1].total_payload_bytes,
    },
    "numpy.eigh": lambda a, r: {"d": np.shape(a[0])[-1]},
    "numpy.eigvalsh": lambda a, r: {"d": np.shape(a[0])[-1]},
}


class Tracer:
    """Span recorder; ``install`` patches the bindings, ``uninstall`` restores them."""

    def __init__(self):
        import fedeval

        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.eval_col = array("i")
        self.error = array("b")
        self.attr_keys: list[str] = []
        self.attr_span = array("i")
        self.attr_key = array("i")
        self.attr_val = array("d")
        self.eval_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

        wrappers: dict[int, object] = {}
        modules = [fedeval] + [getattr(fedeval, layer) for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("fedeval.")
                ):
                    continue
                layer = obj.__module__.split(".")[-1]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patches.append((module, attr, obj, wrappers[id(obj)]))
        for attr in EIGEN:
            fn = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, fn, self._wrap(fn, f"numpy.{attr}")))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name_col)
            self.name_col.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.eval_col.append(self.eval_id)
            self.error.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.start[idx] = start
                self.end[idx] = end
            if hook is not None:
                if kwargs:
                    args = tuple(signature.bind(*args, **kwargs).arguments.values())
                for key, value in hook(args, result).items():
                    self._attr(idx, key, value)
            return result

        return traced

    def _attr(self, idx: int, key: str, value) -> None:
        if key not in self.attr_keys:
            self.attr_keys.append(key)
        self.attr_span.append(idx)
        self.attr_key.append(self.attr_keys.index(key))
        self.attr_val.append(float(value))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            eval=np.frombuffer(self.eval_col, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
            attr_keys=np.array(self.attr_keys, dtype=str),
            attr_span=np.frombuffer(self.attr_span, dtype=np.int32),
            attr_key=np.frombuffer(self.attr_key, dtype=np.int32),
            attr_val=np.frombuffer(self.attr_val, dtype=np.float64),
        )


def summarize(path, pooled_n: int, gen_m: int) -> dict:
    """Per-layer metrics per evaluation from a saved span file.

    Times are medians over the traced evaluations of the per-evaluation
    sum; counts are means (they repeat exactly when evaluations have the
    same composition); ``<layer>.errors`` is the total number of
    exceptions that left the layer during the traced evaluations.
    ``pooled_n`` and ``gen_m`` (pooled client samples and generator
    samples per evaluation) are the base of the two redundancy ratios.
    """
    z = np.load(path)
    names = [str(n) for n in z["names"]]
    name, parent, ev, error = z["name"], z["parent"], z["eval"], z["error"]
    dur = z["end"] - z["start"]
    child = parent >= 0
    cover = np.zeros_like(dur)
    np.add.at(cover, parent[child], dur[child])
    self_time = dur - cover

    eval_ids, eval_idx = np.unique(ev, return_inverse=True)
    n_evals = max(len(eval_ids), 1)
    layer_of = np.array([n.split(".")[0] for n in names])
    span_layer = layer_of[name] if len(name) else np.array([], dtype=str)

    def per_eval_median(mask) -> float:
        sums = np.bincount(eval_idx[mask], weights=self_time[mask], minlength=len(eval_ids))
        return float(np.median(sums)) if len(sums) else 0.0

    def calls(span_name: str) -> float:
        if span_name not in names:
            return 0.0
        return float(np.count_nonzero(name == names.index(span_name)) / n_evals)

    attr_keys = [str(k) for k in z["attr_keys"]]
    attr_span, attr_key, attr_val = z["attr_span"], z["attr_key"], z["attr_val"]

    def attr_values(span_name: str, key: str) -> np.ndarray:
        if span_name not in names or key not in attr_keys:
            return np.zeros(0)
        sel = (attr_key == attr_keys.index(key)) & (name[attr_span] == names.index(span_name))
        return attr_val[sel]

    def attr_sum(span_name: str, key: str, power: int = 1) -> float:
        return float(np.sum(attr_values(span_name, key) ** power) / n_evals)

    metrics: dict[str, float] = {}
    parent_layer = np.where(child, span_layer[np.maximum(parent, 0)], "")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_eval_median(span_layer == layer)
        boundary = (span_layer == layer) & (parent_layer != layer) & (error == 1)
        metrics[f"{layer}.errors"] = float(np.count_nonzero(boundary))

    gram_elements = attr_sum("kernelmmd.gram", "elements")
    radii_rows = attr_sum("prdc.knn_radii", "rows")
    gram_base = pooled_n**2 + pooled_n * gen_m + gen_m**2
    metrics.update(
        {
            "cli.main.calls": calls("cli.main"),
            "statkit.load_stats.calls": calls("statkit.load_stats"),
            "statkit.ingest.bytes": attr_sum("statkit.ingest", "bytes")
            + attr_sum("statkit.load_stats", "bytes"),
            "statkit.moments.calls": calls("statkit.moments"),
            "frechet.frechet_distance.calls": calls("frechet.frechet_distance"),
            "frechet.psd_sqrt.calls": calls("frechet.psd_sqrt"),
            "frechet.eigh.calls": calls("numpy.eigh"),
            "frechet.eigvalsh.calls": calls("numpy.eigvalsh"),
            "frechet.eig_work_d3": attr_sum("numpy.eigh", "d", 3)
            + attr_sum("numpy.eigvalsh", "d", 3),
            "frechet.eig_s": per_eval_median(span_layer == "numpy"),
            "frechet.barycenter.iterations": attr_sum("frechet.barycenter", "iterations"),
            "kernelmmd.gram.calls": calls("kernelmmd.gram"),
            "kernelmmd.gram.elements": gram_elements,
            "kernelmmd.gram.bytes": 8.0 * gram_elements,
            "kernelmmd.gram.redundancy": gram_elements / gram_base if gram_base else 0.0,
            "prdc.knn_radii.calls": calls("prdc.knn_radii"),
            "prdc.knn_radii.rows": radii_rows,
            "prdc.radii_redundancy": radii_rows / (pooled_n + gen_m) if pooled_n + gen_m else 0.0,
            "prdc.distance_elements": attr_sum("prdc.knn_radii", "rows", 2)
            + attr_sum("prdc.prdc_scores", "cross"),
            "counterexample.evaluations": attr_sum(
                "counterexample.search_matched_pair", "evaluations"
            ),
            "fedsim.run_round.calls": calls("fedsim.run_round"),
            "fedsim.messages": attr_sum("fedsim.run_round", "messages"),
            "fedsim.payload_bytes": attr_sum("fedsim.run_round", "payload_bytes"),
        }
    )
    return metrics
