"""In-memory spans around textlime's public entry points.

The tracer replaces each entry point listed in ``ENTRY_POINTS`` by a wrapper
that records a span (name, start, end, parent) and, for a few layers, a work
count computed from the array sizes of the call. Every module namespace that
binds the same function object is patched, so ``draw_feature_matrix`` is
traced whether ``sampling``, ``verify`` or ``theory`` calls it. Methods are
patched on the class that defines them. An entry point that no longer exists
is reported as not observed instead of failing the run.

Spans stay in memory and are written out once, after the run. A layer's self
time is its spans' duration minus the time covered by their child spans; the
time of an op span not covered by any layer is ``unattributed_ms``, so the
self times plus ``unattributed_ms`` add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

OP = "op"
EVALUATE = "models.evaluate_matrix"

# (span name, module, attribute path). psi, alpha and the IDF lookups are
# called thousands of times per op and stay inside their callers' self time.
ENTRY_POINTS = (
    ("cli.verify", "textlime.cli", "cmd_verify.callback"),
    ("serialize.write_run_statistics", "textlime.serialize", "write_run_statistics"),
    ("serialize.write_comparison", "textlime.serialize", "write_comparison"),
    ("serialize.comparison_table", "textlime.serialize", "comparison_table"),
    ("verify.run_repeated", "textlime.verify", "run_repeated"),
    ("verify.compare", "textlime.verify", "compare"),
    ("surrogate.explain", "textlime.surrogate", "explain"),
    ("surrogate.fit_batch", "textlime.surrogate", "fit_batch"),
    ("surrogate.fit_weighted_ridge", "textlime.surrogate", "fit_weighted_ridge"),
    ("sampling.sample_batch", "textlime.sampling", "sample_batch"),
    ("sampling.draw_feature_matrix", "textlime.sampling", "draw_feature_matrix"),
    ("sampling.tfidf_matrix", "textlime.sampling", "SampleBatch.tfidf_matrix"),
    ("corpus.load_corpus", "textlime.corpus", "load_corpus"),
    ("corpus.tokenize", "textlime.corpus", "tokenize"),
    ("corpus.fit_idf", "textlime.corpus", "fit_idf"),
    ("corpus.local_dictionary", "textlime.corpus", "local_dictionary"),
    ("corpus.tfidf_weights", "textlime.corpus", "tfidf_weights"),
    (EVALUATE, "textlime.models", "Model.evaluate_matrix"),
    (EVALUATE, "textlime.models", "IndicatorProduct.evaluate_matrix"),
    (EVALUATE, "textlime.models", "TreeModel.evaluate_matrix"),
    (EVALUATE, "textlime.models", "LinearModel.evaluate_matrix"),
    (EVALUATE, "textlime.models", "CombinedModel.evaluate_matrix"),
    ("theory.beta_tree", "textlime.theory", "beta_tree"),
    ("theory.beta_indicator_product", "textlime.theory", "beta_indicator_product"),
    ("theory.sigma_set", "textlime.theory", "sigma_set"),
    ("theory.alpha_values", "textlime.theory", "alpha_values"),
    ("theory.normalization_constant", "textlime.theory", "normalization_constant"),
    ("theory.beta_linear", "textlime.theory", "beta_linear"),
    ("theory.e_term", "textlime.theory", "e_term"),
    ("theory.beta_general_mc", "textlime.theory", "beta_general_mc"),
)

# Self-time metrics: metric name -> span-name prefix it sums. Every span
# name above falls under exactly one entry, so the sum check is complete.
SELF_TIME = {
    "cli.verify.self_ms": "cli.verify",
    "serialize.self_ms": "serialize.",
    "verify.run_repeated.self_ms": "verify.run_repeated",
    "verify.compare.self_ms": "verify.compare",
    "surrogate.explain.self_ms": "surrogate.explain",
    "surrogate.fit_batch.self_ms": "surrogate.fit_batch",
    "surrogate.fit_weighted_ridge.self_ms": "surrogate.fit_weighted_ridge",
    "sampling.sample_batch.self_ms": "sampling.sample_batch",
    "sampling.draw_feature_matrix.self_ms": "sampling.draw_feature_matrix",
    "sampling.tfidf_matrix.self_ms": "sampling.tfidf_matrix",
    "corpus.self_ms": "corpus.",
    "models.evaluate_matrix.self_ms": EVALUATE,
    "theory.beta_tree.self_ms": "theory.beta_tree",
    "theory.beta_indicator_product.self_ms": "theory.beta_indicator_product",
    "theory.sigma_set.self_ms": "theory.sigma_set",
    "theory.alpha_values.self_ms": "theory.alpha_values",
    "theory.normalization_constant.self_ms": "theory.normalization_constant",
    "theory.beta_linear.self_ms": "theory.beta_linear",
    "theory.e_term.self_ms": "theory.e_term",
    "theory.beta_general_mc.self_ms": "theory.beta_general_mc",
}

# Exact call counts per op.
CALLS = (
    "surrogate.fit_weighted_ridge",
    "theory.beta_indicator_product",
    "theory.sigma_set",
    "theory.alpha_values",
    "theory.e_term",
)


def _cells(args, kwargs):
    """draw_feature_matrix(rng, n, d): n * d presence cells, computed."""
    n = kwargs.get("n", args[1] if len(args) > 1 else 0)
    d = kwargs.get("d", args[2] if len(args) > 2 else 0)
    return "sampling.draw_feature_matrix.cells", int(n) * int(d)


def _gram_flops(args, kwargs):
    """fit_weighted_ridge(design, ...): 2 n p^2 for the Gram product, computed."""
    design = kwargs.get("design", args[0] if args else None)
    n, p = getattr(design, "shape", (0, 0))
    return "surrogate.gram_flops", 2 * int(n) * int(p) ** 2


def _rows(args, kwargs):
    """evaluate_matrix(self, values, words): rows evaluated."""
    values = kwargs.get("values", args[1] if len(args) > 1 else None)
    return "models.evaluate_matrix.rows", len(values)


COUNTERS = {
    "sampling.draw_feature_matrix": _cells,
    "surrogate.fit_weighted_ridge": _gram_flops,
    EVALUATE: _rows,
}


class Tracer:
    """Records spans; ``install`` patches the entry points, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self.not_observed: list[str] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def op(self, call):
        """Run one op inside a root span."""
        sid = self._open(OP)
        try:
            return call()
        finally:
            self._close(sid)

    def _count(self, name, counter, args, kwargs) -> None:
        # Rows are counted once per top-level evaluation, not per tree term.
        if name == EVALUATE and self.stack and self.spans[self.stack[-1]][2] == EVALUATE:
            return
        key, amount = counter(args, kwargs)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self._count(name, counter, args, kwargs)
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key == "textlime" or key.startswith("textlime.")]
        for name, module_name, path in ENTRY_POINTS:
            label = "%s:%s" % (module_name, path)
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.not_observed.append(label)
                continue
            wrapped = self._wrap(name, original)
            if isinstance(owner, type) or parents:
                self._set(owner, attr, wrapped)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def summary(self) -> dict:
        """Per-name totals: calls, duration and self time in seconds, and op count."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for sid, _, name, start, end in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return totals

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-op layer metrics from the spans, plus the sum check behind them."""
    totals = tracer.summary()
    ops = totals.get(OP, {}).get("calls", 0)
    if ops == 0:
        raise RuntimeError("no traced ops")
    metrics = {}
    for metric, prefix in SELF_TIME.items():
        self_s = sum(t["self_s"] for name, t in totals.items() if name.startswith(prefix))
        metrics[metric] = 1000.0 * self_s / ops
    for name in CALLS:
        metrics[name + ".calls"] = totals.get(name, {}).get("calls", 0) / ops
    for key in ("sampling.draw_feature_matrix.cells", "surrogate.gram_flops", "models.evaluate_matrix.rows"):
        metrics[key] = tracer.counts.get(key, 0) / ops
    metrics["unattributed_ms"] = 1000.0 * totals[OP]["self_s"] / ops
    traced_op_ms = 1000.0 * totals[OP]["total_s"] / ops
    metrics["traced_op_ms"] = traced_op_ms
    attributed = sum(metrics[m] for m in SELF_TIME) + metrics["unattributed_ms"]
    uncovered = sorted(n for n in totals if n != OP and not any(n.startswith(p) for p in SELF_TIME.values()))
    check = {
        "ops": ops,
        "self_plus_unattributed_ms": attributed,
        "traced_op_ms": traced_op_ms,
        "uncovered_spans": uncovered,
        "holds": not uncovered and abs(attributed - traced_op_ms) <= 1e-6 * max(1.0, traced_op_ms),
    }
    return metrics, check
