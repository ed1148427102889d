"""Correctness checks on one measured run. Each returns failure messages;
any failure marks the run as failed."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from ganids import archive


def _train_count(n, cfg):
    # the per-class rule of data.split_stratified
    return max(1, int(round(cfg.train_fraction * n)))


def routed_classes(census, schema, cfg):
    """Attack classes whose training-split imbalance ratio reaches gamma,
    worked out from the census counts without the program's filter."""
    n_normal = _train_count(census.counts[schema.normal_class], cfg)
    return sorted(c for c, n in census.counts.items()
                  if c != schema.normal_class
                  and n_normal / _train_count(n, cfg) >= cfg.gamma)


def _recount_macro_f1(conf):
    f1 = []
    for k in range(len(conf)):
        tp = float(conf[k][k])
        col = float(sum(row[k] for row in conf))
        row = float(sum(conf[k]))
        p = tp / col if col else 0.0
        r = tp / row if row else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(f1) / len(f1)


def check_report(what, report, n_rows):
    conf = report.confusion.tolist()
    out = []
    total = sum(map(sum, conf))
    if total != n_rows:
        out.append(f"{what}: confusion totals {total} rows, expected {n_rows}")
    recount = _recount_macro_f1(conf)
    if abs(recount - report.macro_f1) > 1e-12:
        out.append(f"{what}: macro_f1 {report.macro_f1} recounts to {recount}")
    return out


def _check_run(w, cfg, art, schema):
    out = []
    counts = art.census.counts
    routed = routed_classes(art.census, schema, cfg)
    want_traces = set() if cfg.skip_augment else {"pretrain", *routed}
    if set(art.traces) != want_traces:
        out.append(f"GAN traces {sorted(art.traces)}, expected "
                   f"{sorted(want_traces)}")
    for name, trace in art.traces.items():
        budget = 0 if name == "pretrain" and cfg.skip_pretrain else w.gan_steps
        if (trace.stop_reason, trace.steps_to_stop, len(trace.records)) \
                != ("max_steps", budget, budget):
            out.append(f"GAN trace {name}: {trace.stop_reason} after "
                       f"{trace.steps_to_stop} steps, expected max_steps "
                       f"at {budget}")
    n_test = sum(n - _train_count(n, cfg) for n in counts.values())
    out += check_report(f"{art.out_dir.name} test split", art.eval_report,
                         n_test)
    # top each routed class up to the imbalance threshold, as
    # pipeline.default_synth_count documents
    n_normal = _train_count(counts[schema.normal_class], cfg)
    want_synth = {} if cfg.skip_augment else {
        c: max(0, math.ceil(n_normal / cfg.gamma) - _train_count(counts[c], cfg))
        for c in routed}
    if art.synthesized != want_synth:
        out.append(f"synthesized {art.synthesized}, expected {want_synth}")
    return out


def run_checks(w, capture, report, enc, schema, check_rows):
    """Every check that needs only this run; repeat checks across runs are
    made by the caller from `run_hashes`."""
    out = []
    if len(capture.runs) != (2 if w.ablate else 1):
        out.append(f"{len(capture.runs)} pipeline runs recorded")
    for (cfg, *_), art in capture.runs:
        out += _check_run(w, cfg, art, schema)
    phases = sum(len(art.traces) for _, art in capture.runs)
    if phases != len(w.gan_budgets()):
        out.append(f"{phases} GAN phases, expected {len(w.gan_budgets())}")
    out += check_report("held-out check rows", report, check_rows)
    # the archive round-trips bit-exactly, so class probabilities agree
    # exactly, not just the predicted classes
    art = capture.runs[0][1]
    in_memory = capture.ensembles[0][1].predict_proba(enc.features)
    reloaded = archive.load_ensemble(art.ensemble_path) \
        .predict_proba(enc.features)
    if not np.array_equal(in_memory, reloaded):
        out.append("reloaded archive predicts differently from the "
                   "in-memory ensemble")
    return out


def run_hashes(capture, report):
    """Hashes that must repeat exactly across runs at one seed."""
    out = {}
    for i, (_, art) in enumerate(capture.runs):
        manifest = json.loads(art.manifest_path.read_text())
        out[f"pipeline_run{i}"] = {"eval_hash": manifest["eval_hash"],
                                 "artifacts": manifest["artifacts"]}
    out["check_eval"] = report_hash(report)
    return out


def report_hash(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True)
                          .encode()).hexdigest()
