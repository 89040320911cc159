"""Span tracing of noisylab's layer functions, installed from outside.

`Tracer.active()` replaces each listed function with a wrapper that
records a span (name, start, end, parent) and, for a few functions,
counts taken from the arguments or the returned value. Every module
attribute that refers to the original function is replaced, so names
imported with `from .x import y` are traced too. Leaving the context
puts the originals back, so untraced operations run unwrapped code.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute path) of every traced function; the layer is the module
TARGETS = [
    ("partition", "fit_gmm_1d"),
    ("partition", "partition_epoch"),
    ("nn", "total_loss_and_grads"),
    ("nn", "gce_loss_and_grads"),
    ("nn", "sgd_step"),
    ("nn", "energies"),
    ("nn", "head_forward"),
    ("nn", "forward_batch"),
    ("semisup", "weak_augment"),
    ("semisup", "strong_augment"),
    ("semisup", "refine_labels"),
    ("semisup", "guess_labels"),
    ("semisup", "mixup"),
    ("geometry", "sample_candidates"),
    ("geometry", "filter_outliers"),
    ("metrics", "auroc"),
    ("metrics", "fpr_at_95_tpr"),
    ("metrics", "accuracy"),
    ("metrics", "selection_metrics"),
    ("data", "read_features_csv"),
    ("data", "read_dataset_csv"),
    ("data", "generate"),
    ("data", "generate_test_split"),
    ("data", "inject_noise"),
    ("data", "generate_ood"),
    ("harness", "Experiment.warmup"),
    ("harness", "Experiment.run_epoch"),
    ("harness", "evaluate_ood"),
    ("harness", "load_model"),
    ("cli", "main"),
]

# counters taken at span boundaries: (metric name, unit, better)
COUNTERS = [
    ("partition.em_iters", "count", "lower"),
    ("partition.em_capped", "count", "lower"),
    ("nn.forward_batch.rows", "rows/call", "higher"),
    ("geometry.candidates", "count", "lower"),
    ("geometry.accepted", "count", "higher"),
    ("geometry.acceptance_rate", "ratio", "higher"),
    ("data.csv_bytes_read", "bytes", "lower"),
    ("trace.covered_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

STATS = [("calls", "count"), ("self_s", "s"), ("ms_per_call", "ms")]


def span_names() -> list[str]:
    return [f"{module}.{path}" for module, path in TARGETS]


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for name in span_names():
        for stat, unit in STATS:
            out[f"{name}.{stat}"] = (unit, "higher" if stat == "calls" else "lower")
    for name, unit, better in COUNTERS:
        out[name] = (unit, better)
    return out


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Spans and counters of the traced operations of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.counts = {"em_fits": 0, "em_iters": 0, "em_capped": 0, "forward_rows": 0,
                       "candidates": 0, "accepted": 0, "csv_bytes": 0}
        self.op_walls: list[float] = []
        self.op_counts: list[dict] = []  # what each traced operation added to counts
        self._stack: list[int] = [-1]
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self, signatures):
        c = self.counts

        def gmm(args, kwargs, gmm):
            bound = signatures["partition.fit_gmm_1d"].bind(*args, **kwargs)
            bound.apply_defaults()
            iters = len(gmm.log_likelihood_history) - 1 if gmm.log_likelihood_history else 0
            c["em_fits"] += 1
            c["em_iters"] += iters
            c["em_capped"] += int(iters >= bound.arguments["max_iters"])

        def rows(args, kwargs, result):
            c["forward_rows"] += len(result.features)

        def outliers(args, kwargs, batch):
            c["candidates"] += batch.n_candidates
            c["accepted"] += batch.n_accepted

        def csv_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            c["csv_bytes"] += os.path.getsize(path)

        return {"partition.fit_gmm_1d": gmm, "nn.forward_batch": rows,
                "geometry.filter_outliers": outliers,
                "data.read_features_csv": csv_bytes, "data.read_dataset_csv": csv_bytes}

    @contextmanager
    def active(self):
        """Trace every target while the block runs; restore the originals after."""
        modules = [m for n, m in sys.modules.items()
                   if n == "noisylab" or n.startswith("noisylab.")]
        originals = {}
        for module_name, path in TARGETS:
            owner, attr = _resolve(sys.modules[f"noisylab.{module_name}"], path)
            originals[f"{module_name}.{path}"] = (owner, attr, getattr(owner, attr))
        signatures = {name: inspect.signature(fn) for name, (_, _, fn) in originals.items()}
        counters = self._counters(signatures)
        patched = []  # (owner, attr, original)
        for name, (owner, attr, fn) in originals.items():
            wrapper = self._wrap(name, fn, counters.get(name))
            if isinstance(owner, type):  # a method: patch the class
                patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:  # every alias, e.g. `from .harness import evaluate_ood`
                for key, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        before = dict(self.counts)
        try:
            yield
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)
            self.op_counts.append({k: v - before[k] for k, v in self.counts.items()})

    # -- reduction ---------------------------------------------------------

    def per_layer(self, untraced_walls: list[float]) -> dict[str, float]:
        """Per-operation layer metrics over every traced operation.

        `untraced_walls[k]` is the untraced operation on the input set of
        traced operation k, so the overhead is a median of paired differences.
        """
        n_ops = max(len(self.op_walls), 1)
        child = {}
        for sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        calls = dict.fromkeys(span_names(), 0)
        total = dict.fromkeys(span_names(), 0.0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for sid, _, name, t0, t1 in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += (t1 - t0) - child.get(sid, 0.0)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
            out[f"{name}.ms_per_call"] = 1e3 * total[name] / calls[name] if calls[name] else 0.0
        c = self.counts
        fb_calls = calls["nn.forward_batch"]
        out.update({
            "partition.em_iters": c["em_iters"] / n_ops,
            "partition.em_capped": c["em_capped"] / n_ops,
            "nn.forward_batch.rows": c["forward_rows"] / fb_calls if fb_calls else 0.0,
            "geometry.candidates": c["candidates"] / n_ops,
            "geometry.accepted": c["accepted"] / n_ops,
            "geometry.acceptance_rate": (c["accepted"] / c["candidates"]
                                         if c["candidates"] else 0.0),
            "data.csv_bytes_read": c["csv_bytes"] / n_ops,
            "trace.covered_share": sum(self_s.values()) / sum(self.op_walls)
            if self.op_walls else 0.0,
            "trace.overhead_s": statistics.median(
                traced - untraced for traced, untraced in zip(self.op_walls, untraced_walls))
            if self.op_walls and untraced_walls else 0.0,
        })
        return out

    def write(self, path, header: dict) -> None:
        """Spans as JSON: a header, the name table and [id, parent, name, start, end] rows."""
        names = span_names()
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][3] if self.spans else 0.0
        doc = {"header": header, "names": names,
               "spans": [[sid, parent, index[name], round(t0 - base, 7), round(t1 - base, 7)]
                         for sid, parent, name, t0, t1 in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
