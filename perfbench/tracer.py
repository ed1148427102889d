"""Outside-in tracing: spans around calls into each ganids module.

The tracer replaces module attributes with timing wrappers, so the program
itself is not changed. Modules that import a function by name hold their
own reference to it, so those names are wrapped too (pipeline imports
load_dataset, preprocess and split_stratified; gan imports
inverse_transform). Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, VARS_START, VARS_END = range(6)

# (module, attribute, span name); the same function wrapped in two modules
# gives one span name
_TARGETS = [
    ("data", "load_dataset", "data.load_dataset"),
    ("pipeline", "load_dataset", "data.load_dataset"),
    ("data", "preprocess", "data.preprocess"),
    ("pipeline", "preprocess", "data.preprocess"),
    ("data", "split_stratified", "data.split_stratified"),
    ("pipeline", "split_stratified", "data.split_stratified"),
    ("data", "inverse_transform", "data.inverse_transform"),
    ("gan", "inverse_transform", "data.inverse_transform"),
    ("imbalance", "filter_minority", "imbalance.filter_minority"),
    ("autodiff", "grad", "autodiff.grad"),
    ("autodiff", "unfold1d", "autodiff.unfold1d"),
    ("autodiff", "fold1d", "autodiff.fold1d"),
    ("nn", "forward_var", "nn.forward"),
    ("nn", "gradient_penalty", "nn.gradient_penalty"),
    ("nn", "adam_step", "nn.adam_step"),
    ("gan", "pretrain", "gan.pretrain"),
    ("gan", "finetune", "gan.finetune"),
    ("gan", "critic_step", "gan.critic_step"),
    ("gan", "generator_step", "gan.generator_step"),
    ("gan", "synthesize", "gan.synthesize"),
    ("gbdt", "fit", "gbdt.fit"),
    ("gbdt", "bin_features", "gbdt.bin_features"),
    ("gbdt", "efb_bundle", "gbdt.efb_bundle"),
    ("gbdt", "bundle_columns", "gbdt.bundle_columns"),
    ("gbdt", "goss_sample", "gbdt.goss_sample"),
    ("archive", "save_gan", "archive.save_gan"),
    ("archive", "save_ensemble", "archive.save_ensemble"),
    ("archive", "load_ensemble", "archive.load_ensemble"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
]


# per-layer metric -> unit; run.py adds trace.overhead_s and
# evaluate.score_rows_per_s, the latter from the untraced scoring processes
LAYER_UNITS = {
    "data.load_rows_per_s": "1/s", "data.encode_rows_per_s": "1/s",
    "data.inverse_transform_s": "s", "imbalance.filter_s": "s",
    "autodiff.var_nodes_per_critic_step": "count",
    "autodiff.grad_calls_per_critic_step": "count",
    "autodiff.grad_ms": "ms", "autodiff.unfold_fold_s": "s",
    "nn.forward_ms": "ms", "nn.gradient_penalty_ms": "ms",
    "nn.adam_step_ms": "ms", "gan.critic_step_ms": "ms",
    "gan.generator_step_ms": "ms", "gan.critic_steps": "count",
    "gan.synthesize_rows_per_s": "1/s", "gbdt.fit_s": "s", "gbdt.bin_s": "s",
    "gbdt.efb_s": "s", "gbdt.goss_s": "s", "gbdt.grow_ms_per_tree": "ms",
    "gbdt.predict_rows_per_s": "1/s", "gbdt.trees": "count",
    "gbdt.leaves": "count", "archive.save_s": "s", "archive.load_s": "s",
    "archive.ensemble_bytes": "bytes", "metrics.evaluate_s": "s",
    "pipeline.self_s": "s", "trace.overhead_s": "s",
    "evaluate.score_rows_per_s": "1/s",
}

# spans whose calls also count the rows they handled
_ROW_COUNTED = {"data.load_dataset", "data.preprocess", "gan.synthesize",
                "gbdt.predict"}


def _rows_of(out):
    return len(out[0] if isinstance(out, tuple) else out)


class Tracer:
    """Records spans (name, start, end, parent, Var count at start and end)
    for one run. Install with `install(modules)`, undo with `uninstall()`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.rows = defaultdict(int)
        self.var_count = 0
        self._stack = []
        self._restore = []

    def _wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), 0.0, parent,
                                 tracer.var_count, 0])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][END] = time.perf_counter()
                tracer.spans[idx][VARS_END] = tracer.var_count
            if name in _ROW_COUNTED:
                tracer.rows[name] += _rows_of(out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def install(self, modules):
        """Wrap the targets in `modules`, a dict of short name -> module."""
        for mod, attr, name in _TARGETS:
            self._wrap(modules[mod], attr, name)
        self._wrap(modules["gbdt"].Ensemble, "predict", "gbdt.predict")
        var = modules["autodiff"].Var
        init = var.__init__
        tracer = self

        def counting_init(self, *args, **kwargs):
            tracer.var_count += 1
            init(self, *args, **kwargs)

        var.__init__ = counting_init
        self._restore.append((var, "__init__", init))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "run_id": self.run_id, "id": i, "name": s[NAME],
                    "start": s[START], "end": s[END], "parent": s[PARENT],
                    "var_nodes": s[VARS_END] - s[VARS_START],
                }) + "\n")

    def summary(self):
        """Per-name call count, inclusive and self seconds, and per-name
        counts of Var nodes and grad calls made inside each span kind."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "var_nodes": 0, "grad_calls": 0})
        for i, s in enumerate(self.spans):
            e = out[s[NAME]]
            dur = s[END] - s[START]
            e["calls"] += 1
            e["total_s"] += dur
            e["self_s"] += dur - child[i]
            e["var_nodes"] += s[VARS_END] - s[VARS_START]
        for s in self.spans:
            if s[NAME] != "autodiff.grad":
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != "gan.critic_step":
                p = self.spans[p][PARENT]
            if p >= 0:
                out["gan.critic_step"]["grad_calls"] += 1
        return dict(out)

    def layer_metrics(self, ensembles, ensemble_path):
        """The per-layer metrics of one traced run. Per-call means are 0
        for a layer the workload never calls."""
        s = self.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "var_nodes": 0,
                 "grad_calls": 0}

        def get(name):
            return s.get(name, empty)

        def total(*names):
            return sum(get(n)["total_s"] for n in names)

        def per_s(name):
            t = get(name)["total_s"]
            return self.rows[name] / t if t else 0.0

        def ms_per_call(name, key="total_s"):
            e = get(name)
            return 1000.0 * e[key] / e["calls"] if e["calls"] else 0.0

        critic = get("gan.critic_step")
        steps = critic["calls"]
        trees = sum(len(rnd) for ens in ensembles for rnd in ens.trees)
        fit_self = get("gbdt.fit")["self_s"]
        return {
            "data.load_rows_per_s": per_s("data.load_dataset"),
            "data.encode_rows_per_s": per_s("data.preprocess"),
            "data.inverse_transform_s": total("data.inverse_transform"),
            "imbalance.filter_s": total("imbalance.filter_minority"),
            "autodiff.var_nodes_per_critic_step":
                critic["var_nodes"] / steps if steps else 0.0,
            "autodiff.grad_calls_per_critic_step":
                critic["grad_calls"] / steps if steps else 0.0,
            "autodiff.grad_ms": ms_per_call("autodiff.grad", "self_s"),
            "autodiff.unfold_fold_s": total("autodiff.unfold1d",
                                            "autodiff.fold1d"),
            "nn.forward_ms": ms_per_call("nn.forward"),
            "nn.gradient_penalty_ms": ms_per_call("nn.gradient_penalty"),
            "nn.adam_step_ms": ms_per_call("nn.adam_step"),
            "gan.critic_step_ms": ms_per_call("gan.critic_step"),
            "gan.generator_step_ms": ms_per_call("gan.generator_step"),
            "gan.critic_steps": steps,
            "gan.synthesize_rows_per_s": per_s("gan.synthesize"),
            "gbdt.fit_s": total("gbdt.fit"),
            "gbdt.bin_s": total("gbdt.bin_features"),
            "gbdt.efb_s": total("gbdt.efb_bundle", "gbdt.bundle_columns"),
            "gbdt.goss_s": total("gbdt.goss_sample"),
            "gbdt.grow_ms_per_tree": 1000.0 * fit_self / trees if trees else 0.0,
            "gbdt.predict_rows_per_s": per_s("gbdt.predict"),
            "gbdt.trees": trees,
            "gbdt.leaves": sum(_leaves(t) for ens in ensembles
                               for rnd in ens.trees for t in rnd),
            "archive.save_s": total("archive.save_gan", "archive.save_ensemble"),
            "archive.load_s": total("archive.load_ensemble"),
            "archive.ensemble_bytes": Path(ensemble_path).stat().st_size,
            "metrics.evaluate_s": total("metrics.evaluate"),
            "pipeline.self_s": get("pipeline.run_pipeline")["self_s"],
        }


def _leaves(node):
    stack, n = [node], 0
    while stack:
        nd = stack.pop()
        if nd.left is None:
            n += 1
        else:
            stack.extend((nd.left, nd.right))
    return n
