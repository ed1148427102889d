"""End-to-end orchestration: filter -> pretrain -> per-class finetune ->
synthesize -> augment -> select -> train -> evaluate, from one JSON config.

Synthetic rows are flagged per row and never reach the test set. The
split draws from the fixed `SPLIT_SEED`, every other stochastic stage from
the config's `seed`, so identical configs reproduce identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import archive, boruta, gbdt, imbalance, metrics
from . import gan as gan_mod
from .data import (DatasetSchema, EmptyDataset, FieldTypeError, PlanMismatch,
                   concat, decode, load_dataset, load_schema, plain,
                   preprocess, select_columns, split_stratified)
from .errors import ConfigInvalid, InputError


SPLIT_SEED = 7
BORUTA_ALPHA = 0.05


class StageError(InputError, RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    dataset_paths: list[str]
    schema: str                    # file path or "builtin:<name>"
    out_dir: str
    gamma: float = imbalance.DEFAULT_GAMMA
    train_fraction: float = 0.8
    seed: int = 0
    gan: gan_mod.GanConfig = field(default_factory=gan_mod.GanConfig)
    boost: gbdt.BoostParams = field(default_factory=gbdt.BoostParams)
    boruta_rounds: int = 0         # > 0: select features in that many rounds
    skip_pretrain: bool = False
    skip_augment: bool = False

    @staticmethod
    def from_dict(d):
        """Raises ConfigInvalid naming the first key whose value does not
        fit, with a section's key first ("gan: lam: ...")."""
        try:
            return decode(PipelineConfig, d)
        except FieldTypeError as e:
            raise ConfigInvalid(e.key, e.reason) from e

    @staticmethod
    def from_json(path):
        with open(path) as f:
            try:
                d = json.load(f)
            except ValueError as e:
                raise ConfigInvalid(path, f"not JSON ({e})") from e
        if not isinstance(d, dict):
            raise ConfigInvalid(path, "not a JSON object")
        return PipelineConfig.from_dict(d)

    def validate(self):
        if not self.dataset_paths:
            raise ConfigInvalid("dataset_paths", "no dataset files configured")
        for p in self.dataset_paths:
            if not Path(p).exists():
                raise ConfigInvalid("dataset_paths", f"missing file {p}")
        if not self.schema:
            raise ConfigInvalid("schema", "schema path missing")
        if not self.schema.startswith("builtin:") and not Path(self.schema).exists():
            raise ConfigInvalid("schema", f"missing file {self.schema}")
        if not self.out_dir:
            raise ConfigInvalid("out_dir", "output directory missing")
        # no file name holds one; the OS calls would raise ValueError
        if "\0" in self.out_dir:
            raise ConfigInvalid("out_dir", "holds a NUL character")
        if self.seed < 0:  # numpy takes no negative seed
            raise ConfigInvalid("seed", "must be >= 0")
        if not 0 < self.train_fraction < 1:
            raise ConfigInvalid("train_fraction", "must be in (0, 1)")
        if self.boruta_rounds < 0:
            raise ConfigInvalid("boruta_rounds", "must be >= 0")
        imbalance.check_gamma(self.gamma)

    def load_schema(self) -> DatasetSchema:
        return load_schema(self.schema)

    def config_hash(self):
        text = json.dumps(self, sort_keys=True, default=plain)
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class RunArtifacts:
    out_dir: Path
    census: imbalance.ClassCensus
    eval_report: metrics.EvalReport
    gan_paths: dict
    ensemble_path: Path
    manifest_path: Path
    traces: dict
    synthesized: dict


def default_synth_count(n_normal, n_class, gamma):
    """Top the class up to the imbalance threshold: n_normal/gamma - n_class."""
    return max(0, int(math.ceil(n_normal / gamma)) - n_class)


def _write_json(path, obj):
    """`obj` as indented JSON, its dataclasses as objects of their fields."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True, default=plain)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_trace(path, trace):
    write_csv(path, ["step", "loss_d", "loss_g", "wasserstein", "gp"],
              trace.rows())


def _write_eval(out_dir, name, report):
    _write_json(out_dir / f"{name}.json", report.to_dict())
    k = report.confusion.shape[0]
    write_csv(out_dir / f"{name}_confusion.csv",
              [f"pred_{j}" for j in range(k)], report.confusion.tolist())
    rows = [(k, report.support[k], report.precision[k], report.recall[k],
             report.f1[k]) for k in range(len(report.f1))]
    write_csv(out_dir / f"{name}.csv",
              ["class", "support", "precision", "recall", "f1"], rows)


def score(raw, ensemble) -> metrics.EvalReport:
    """The report of the ensemble on the raw rows, encoded with the plan the
    model carries: how `ganids run` scores its test split and `ganids
    evaluate` a CSV."""
    # class ids index the class list, so a model scores only under its own
    if ensemble.classes != raw.schema.classes:
        raise PlanMismatch(f"the model's classes {ensemble.classes} are not "
                           f"the schema's {raw.schema.classes}")
    enc, _ = preprocess(raw, ensemble.plan)
    # a model trained on selected features reads only those columns
    pred = ensemble.predict(
        select_columns(enc, ensemble.feature_names).features)
    return metrics.evaluate(pred, enc.labels, len(ensemble.classes))


def run_pipeline(config: PipelineConfig) -> RunArtifacts:
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "models").mkdir(exist_ok=True)
    manifest = {"config": config,
                "config_hash": config.config_hash(),
                "stages": {}}
    t_start = time.perf_counter()

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        try:
            yield
        except StageError:
            raise
        # the user's fault, named with its stage; any other exception is a
        # bug and keeps its traceback
        except (InputError, OSError) as exc:
            raise StageError(name, exc) from exc
        finally:
            manifest["stages"][name] = round(time.perf_counter() - t0, 3)

    schema = config.load_schema()

    with stage("load"):
        raw = load_dataset(config.dataset_paths, schema)

    with stage("census"):
        census = imbalance.class_census(raw)
        _write_json(out_dir / "census.json", census.report())
        write_csv(out_dir / "census.csv", *census.table())

    # each table is dropped once its last reader is done, so that the
    # training rows are held once from the encoding on, and the test rows
    # stay raw until the model scores them
    with stage("split"):
        train_raw, test_raw = split_stratified(raw, config.train_fraction,
                                               SPLIT_SEED)
        del raw
        if len(test_raw) == 0:  # found before any training
            raise EmptyDataset("no rows to test: each class's rows all went "
                               "to the training split")

    with stage("encode"):
        train, plan = preprocess(train_raw)
        del train_raw
        _write_json(out_dir / "plan.json", plan)

    with stage("filter"):
        filtered = imbalance.filter_minority(train, config.gamma)

    gan_paths, traces, synthesized = {}, {}, {}
    synth_sets = []
    if not config.skip_augment and filtered.minority:
        gan_seed = config.seed * 1000  # every GAN phase draws from it
        with stage("pretrain"):
            model = gan_mod.build_gan(train.features.shape[1], gan_seed)
            pre_cfg = config.gan if not config.skip_pretrain \
                else replace(config.gan, max_steps=0)
            model, pre_trace = gan_mod.pretrain(
                model, train.select(filtered.normal), gan_seed, pre_cfg)
            traces["pretrain"] = pre_trace
            _write_trace(out_dir / "trace_pretrain.csv", pre_trace)
            pre_path = out_dir / "models" / "gan_pretrained.bin"
            archive.save_gan(pre_path, model)
            gan_paths["pretrained"] = pre_path

        n_normal_train = len(filtered.normal)
        for class_name, rows in sorted(filtered.minority.items()):
            with stage(f"finetune:{class_name}"):
                tuned, trace = gan_mod.finetune(model, train.select(rows),
                                                gan_seed, config.gan)
                traces[class_name] = trace
                _write_trace(out_dir / f"trace_{class_name}.csv", trace)
                path = out_dir / "models" / f"gan_{class_name}.bin"
                archive.save_gan(path, tuned)
                gan_paths[class_name] = path
            with stage(f"synthesize:{class_name}"):
                n = default_synth_count(n_normal_train, len(rows),
                                        config.gamma)
                synth_raw = gan_mod.synthesize(
                    tuned, n, plan, seed=config.seed * 77 + 13,
                    schema=schema, class_name=class_name)
                synth_enc, _ = preprocess(synth_raw, plan)
                synthesized[class_name] = n
                synth_sets.append(synth_enc)

    with stage("augment"):
        train_aug = concat([train] + synth_sets) if synth_sets else train
        del train, synth_sets

    if config.boruta_rounds:
        with stage("select"):
            bp = replace(config.boost, rounds=max(10, config.boost.rounds // 10))
            decision = boruta.boruta_select(
                train_aug, config.boruta_rounds, BORUTA_ALPHA, bp,
                seed=config.seed + 5)
            _write_json(out_dir / "feature_decision.json", decision)
            write_csv(out_dir / "feature_decision.csv",
                      ["feature", "status", "hits", "rounds"],
                      [(n, s, decision.hits[n], decision.rounds)
                       for n, s in decision.status.items()])
            # accepted and tentative features; all of them if every one
            # is rejected
            keep = [n for n in train_aug.feature_names
                    if decision.status[n] != "rejected"]
            if keep:
                train_aug = select_columns(train_aug, keep)

    with stage("train"):
        ensemble = replace(gbdt.fit(train_aug, config.boost, config.seed),
                           plan=plan)
        ensemble_path = out_dir / "models" / "ensemble.bin"
        archive.save_ensemble(ensemble_path, ensemble)

    with stage("evaluate"):
        # test-set purity: evaluation rows are real by construction, so a
        # synthetic one is a bug, not the input's fault
        if test_raw.synthetic.any():
            raise RuntimeError("synthetic rows reached the test set")
        report = score(test_raw, ensemble)
        _write_eval(out_dir, "eval", report)

    manifest["wall_time_s"] = round(time.perf_counter() - t_start, 3)
    manifest["artifacts"] = {
        str(p.relative_to(out_dir)): archive.file_hash(p)
        for p in sorted(gan_paths.values()) + [ensemble_path]}
    manifest["eval_hash"] = hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    manifest["synthesized"] = synthesized
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest_path, manifest)
    return RunArtifacts(out_dir, census, report, gan_paths, ensemble_path,
                        manifest_path, traces, synthesized)


def run_ablation(config: PipelineConfig) -> metrics.AblationReport:
    """Run the pipeline twice on identical data and seeds, fine-tuning from
    the pretrained weights and from the untrained ones (a 0-step pretrain),
    and compare."""
    base = Path(config.out_dir)
    cfg_with = replace(config, out_dir=str(base / "with_pretrain"),
                       skip_pretrain=False)
    cfg_without = replace(config, out_dir=str(base / "without_pretrain"),
                          skip_pretrain=True)
    art_with = run_pipeline(cfg_with)
    art_without = run_pipeline(cfg_without)
    tw = {k: v for k, v in art_with.traces.items() if k != "pretrain"}
    to = {k: v for k, v in art_without.traces.items() if k != "pretrain"}
    report = metrics.ablation_report(tw, to, art_with.eval_report,
                                     art_without.eval_report)
    base.mkdir(parents=True, exist_ok=True)
    _write_json(base / "ablation.json", report)
    rows = [(c, e["steps_with"], e["steps_without"], e.get("speedup", ""))
            for c, e in report.per_class.items()]
    write_csv(base / "ablation.csv",
              ["class", "steps_with_pretrain", "steps_without", "speedup"], rows)
    return report
