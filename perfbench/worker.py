"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json job>'

Started by run.py from the root of a checkout. The worker first times its
own set-up: importing the ganids modules and loading the config and schema.
Every timing is taken with the speed sampler of speed.py running, except
the main call of a traced run, and is reported as `speed.section` gives it.

- mode "run": run the workload's main call once, optionally traced, then
  score the first held-out rows in-process and check the outputs.
- mode "score": score the held-out file with the given model, as
  `ganids evaluate` does, a few times over.

Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import speed  # noqa: E402

speed.start()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

from ganids import (archive, autodiff, data, gan, gbdt, imbalance,  # noqa: E402
                    metrics, nn, pipeline)

JOB = json.loads(sys.argv[1])
CONFIG = pipeline.PipelineConfig.from_json(JOB["config"])
SCHEMA = CONFIG.load_schema()
SETUP = speed.section(T0, time.perf_counter())

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

SCORE_PASSES = 4
MODULES = {"archive": archive, "autodiff": autodiff, "data": data, "gan": gan,
           "gbdt": gbdt, "imbalance": imbalance, "metrics": metrics, "nn": nn,
           "pipeline": pipeline}


class _Capture:
    """Keeps what run_pipeline and gbdt.fit return, for the checks after
    the timed call. Two wrapped calls per pipeline run cost nothing
    measurable."""

    def __init__(self):
        self.runs, self.ensembles = [], []
        self._restore = []
        for owner, attr, sink in ((pipeline, "run_pipeline", self.runs),
                                  (gbdt, "fit", self.ensembles)):
            fn = getattr(owner, attr)
            setattr(owner, attr, self._keep(fn, sink))
            self._restore.append((owner, attr, fn))

    @staticmethod
    def _keep(fn, sink):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append((args, out))
            return out
        return wrapper

    def close(self):
        for owner, attr, fn in self._restore:
            setattr(owner, attr, fn)


def score(ensemble_path, plan_path, held_out):
    """The `ganids evaluate` path: load the archive, ingest the CSV, encode
    with the training plan, predict, count the metrics."""
    ens = archive.load_ensemble(ensemble_path)
    ds = data.load_dataset([held_out], SCHEMA)
    with open(plan_path) as f:
        plan = data.PreprocessPlan.from_dict(json.load(f))
    enc, _ = data.preprocess(ds, plan)
    pred = ens.predict(enc.features)
    return metrics.evaluate(pred, enc.labels, len(SCHEMA.classes)), enc


def run_once(w, out_dir, run_id, traced):
    """One run of the main call, then an in-process scoring of the first
    held-out rows and the checks. The scoring is traced with the main call
    but not timed here: score mode times it on the full file."""
    cfg = replace(CONFIG, out_dir=str(out_dir))
    capture = _Capture()
    tracer = Tracer(run_id) if traced else None
    if tracer:
        # the probes would land in the spans
        speed.stop()
        tracer.install(MODULES)

    t = time.perf_counter()
    if w.ablate:
        pipeline.run_ablation(cfg)
    else:
        pipeline.run_pipeline(cfg)
    t_end = time.perf_counter()
    speed.stop()
    if traced:
        timed = {"run_wall_s": t_end - t}
    else:
        sec = speed.section(t, t_end)
        timed = {"run_s": sec["ref_s"], "run_wall_s": sec["wall_s"],
                 "run_probes": sec["probes"]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first pipeline's model is the one a user would score: the one
    # with pretraining in the ablation
    art = capture.runs[0][1]
    report, enc = score(art.ensemble_path, art.out_dir / "plan.json",
                        JOB["check"])
    if tracer:
        tracer.uninstall()
    capture.close()

    result = {
        "run_id": run_id,
        "traced": traced,
        **timed,
        "peak_rss_mb": peak_rss_mb,
        "model": str(art.ensemble_path),
        "plan": str(art.out_dir / "plan.json"),
        "routed": checks.routed_classes(art.census, SCHEMA, cfg),
        "hashes": checks.run_hashes(capture, report),
        "failures": checks.run_checks(w, capture, report, enc, SCHEMA,
                                      JOB["check_rows"]),
    }
    if tracer:
        tracer.write(Path(JOB["spans_dir"]) / f"spans-{run_id}.jsonl")
        layers = tracer.layer_metrics(
            [ens for _, ens in capture.ensembles], art.ensemble_path)
        budget = sum(w.gan_budgets())
        if layers["gan.critic_steps"] != budget:
            result["failures"].append(
                f"{layers['gan.critic_steps']} critic steps traced, "
                f"expected {budget}")
        result["layers"] = layers
    return result


def score_once():
    """Score the full held-out file SCORE_PASSES times in this process."""
    times, hashes = [], set()
    for _ in range(SCORE_PASSES):
        t = time.perf_counter()
        report, enc = score(JOB["model"], JOB["plan"], JOB["held_out"])
        times.append(speed.section(t, time.perf_counter()))
        hashes.add(checks.report_hash(report))
    speed.stop()
    ids = [SCHEMA.class_id(c) for c in JOB["routed"]]
    support = sum(report.support[k] for k in ids)
    failures = checks.check_report("held-out", report, JOB["held_out_rows"])
    if len(hashes) > 1:
        failures.append("held-out scoring differs between passes")
    return {
        "setup_s": SETUP["ref_s"],
        "setup_wall_s": SETUP["wall_s"],
        "score_s": [sec["ref_s"] for sec in times],
        "score_wall_s": [sec["wall_s"] for sec in times],
        "score_rows": len(enc),
        "macro_f1": report.macro_f1,
        # pooled over the routed classes: the share of minority-class rows
        # caught
        "minority_recall": sum(int(report.confusion[k, k]) for k in ids)
        / support,
        "minority_support": {c: report.support[k]
                             for c, k in zip(JOB["routed"], ids)},
        "held_out_eval": hashes.pop(),
        "failures": failures,
    }


def main():
    if JOB["mode"] == "score":
        result = score_once()
    else:
        result = run_once(Workload(**JOB["workload"]), Path(JOB["out_dir"]),
                          JOB["run_id"], JOB["trace"])
        result["setup_s"] = SETUP["ref_s"]
        result["setup_wall_s"] = SETUP["wall_s"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
