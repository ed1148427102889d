"""End-to-end pipeline tests on the bundled demo dataset."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from ganids import archive, gan, gbdt, pipeline
from ganids import autodiff as ad
from ganids.data import (PreprocessPlan, load_dataset, load_schema,
                         preprocess)
from ganids.demo import write_demo_dataset
from ganids.errors import InputError


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    return write_demo_dataset(out, rows=600, seed=0)


def fast_config(demo, out_dir, **kw):
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(demo["csv"])],
        schema=str(demo["schema"]),
        out_dir=str(out_dir),
        gan=gan.GanConfig(max_steps=8, batch_size=16, stop_window=4),
        boost=gbdt.BoostParams(rounds=4, min_leaf=5, max_depth=4),
        **kw)
    return cfg


def test_run_pipeline_smoke(demo, tmp_path):
    art = pipeline.run_pipeline(fast_config(demo, tmp_path / "run"))
    assert art.eval_report.accuracy > 0.5
    assert (art.out_dir / "manifest.json").exists()
    assert (art.out_dir / "census.json").exists()
    assert (art.out_dir / "eval.json").exists()
    assert (art.out_dir / "eval.csv").exists()
    assert art.ensemble_path.exists()
    # minority classes of the demo mix at gamma 10
    assert sorted(art.gan_paths) == ["backdoor", "escalate", "pretrained"]
    for p in art.gan_paths.values():
        assert p.exists()
    manifest = json.loads((art.out_dir / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert set(manifest["synthesized"]) == {"backdoor", "escalate"}
    assert manifest["synthesized"]["backdoor"] > 0
    # boruta_rounds 0, the default: no selection
    assert "select" not in manifest["stages"]
    assert not (art.out_dir / "feature_decision.json").exists()


def test_synthetic_rows_never_reach_test(demo, tmp_path):
    cfg = fast_config(demo, tmp_path / "purity")
    art = pipeline.run_pipeline(cfg)
    # evaluation support equals the real test split size: no synthetic rows
    n_test = sum(art.eval_report.support)
    census_total = sum(art.census.counts.values())
    expect = census_total - sum(
        max(1, round(cfg.train_fraction * n)) for n in art.census.counts.values())
    assert n_test == expect


def test_synthetic_rows_in_test_split_stop_the_run(demo, tmp_path,
                                                    monkeypatch):
    split = pipeline.split_stratified

    def tainted(ds, fraction, seed):
        train, test = split(ds, fraction, seed)
        test.synthetic[:] = True
        return train, test

    monkeypatch.setattr(pipeline, "split_stratified", tainted)
    # only a bug puts a synthetic row there: not the input's fault
    with pytest.raises(RuntimeError, match="synthetic rows") as e:
        pipeline.run_pipeline(fast_config(demo, tmp_path / "tainted",
                                          skip_augment=True))
    assert not isinstance(e.value, InputError)


def test_skip_augment_runs_without_gan(demo, tmp_path):
    art = pipeline.run_pipeline(fast_config(demo, tmp_path / "noaug",
                                            skip_augment=True))
    assert art.gan_paths == {}
    assert art.synthesized == {}


def test_default_synth_count():
    assert pipeline.default_synth_count(1000, 20, 10.0) == 80
    assert pipeline.default_synth_count(1000, 200, 10.0) == 0


def test_config_invalid_missing_schema(demo, tmp_path):
    cfg = fast_config(demo, tmp_path / "bad")
    cfg.schema = str(tmp_path / "nope.json")
    with pytest.raises(pipeline.ConfigInvalid) as e:
        pipeline.run_pipeline(cfg)
    assert "schema" in str(e.value)


def test_config_invalid_missing_dataset(tmp_path, demo):
    cfg = fast_config(demo, tmp_path / "bad2")
    cfg.dataset_paths = [str(tmp_path / "missing.csv")]
    with pytest.raises(pipeline.ConfigInvalid):
        pipeline.run_pipeline(cfg)


def test_config_invalid_bad_fraction(demo, tmp_path):
    cfg = fast_config(demo, tmp_path / "bad3", train_fraction=2.0)
    with pytest.raises(pipeline.ConfigInvalid):
        pipeline.run_pipeline(cfg)


def test_config_json_roundtrip(demo, tmp_path):
    cfg = fast_config(demo, tmp_path / "rt")
    p = tmp_path / "config.json"
    p.write_text(json.dumps(asdict(cfg)))
    clone = pipeline.PipelineConfig.from_json(p)
    assert clone.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_field(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"dataset_paths": [], "schema": "x",
                             "out_dir": "y", "bogus": 1}))
    with pytest.raises(pipeline.ConfigInvalid):
        pipeline.PipelineConfig.from_json(p)


def test_stage_error_names_stage(demo, tmp_path):
    # schema whose arity disagrees with the CSV -> the load stage must fail
    schema = json.loads(demo["schema"].read_text())
    schema["columns"] = schema["columns"][1:]
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps(schema))
    cfg = fast_config(demo, tmp_path / "stageerr")
    cfg.schema = str(bad_schema)
    with pytest.raises(pipeline.StageError) as e:
        pipeline.run_pipeline(cfg)
    assert e.value.stage == "load"


def test_model_file_carries_the_run_plan(demo, tmp_path, monkeypatch):
    fitted = []
    fit = gbdt.fit
    monkeypatch.setattr(gbdt, "fit",
                        lambda *a: fitted.append(fit(*a)) or fitted[-1])
    art = pipeline.run_pipeline(fast_config(demo, tmp_path / "run",
                                            skip_augment=True))
    loaded = archive.load_ensemble(art.ensemble_path)
    assert loaded.plan == PreprocessPlan.from_dict(
        json.loads((art.out_dir / "plan.json").read_text()))
    raw = load_dataset([demo["csv"]], load_schema(str(demo["schema"])))
    enc, _ = preprocess(raw, loaded.plan)
    assert np.array_equal(loaded.predict_proba(enc.features),
                          fitted[0].predict_proba(enc.features))


def test_rerun_identical_config_reproduces(demo, tmp_path):
    a = pipeline.run_pipeline(fast_config(demo, tmp_path / "r1"))
    b = pipeline.run_pipeline(fast_config(demo, tmp_path / "r2"))
    assert a.eval_report.to_dict() == b.eval_report.to_dict()
    ma = json.loads((a.out_dir / "manifest.json").read_text())
    mb = json.loads((b.out_dir / "manifest.json").read_text())
    assert ma["eval_hash"] == mb["eval_hash"]
    assert ma["artifacts"] == mb["artifacts"]


def test_run_ablation_writes_reports(demo, tmp_path):
    cfg = fast_config(demo, tmp_path / "abl")
    report = pipeline.run_ablation(cfg)
    assert sorted(report.per_class) == ["backdoor", "escalate"]
    for entry in report.per_class.values():
        assert entry["steps_with"] >= 0
        assert entry["steps_without"] >= 0
    assert (tmp_path / "abl" / "ablation.json").exists()
    assert (tmp_path / "abl" / "ablation.csv").exists()
    assert (tmp_path / "abl" / "with_pretrain" / "manifest.json").exists()
    assert (tmp_path / "abl" / "without_pretrain" / "manifest.json").exists()
    assert set(report.metric_deltas) == {"accuracy", "macro_f1"}


def test_the_program_never_runs_the_autodiff_engine(demo, tmp_path,
                                                    monkeypatch):
    # the engine is the reference the tests check the nn kernels against:
    # no program path builds a node or takes a gradient with it
    def refuse(*args, **kwargs):
        raise AssertionError("the program used the autodiff engine")

    monkeypatch.setattr(ad.Var, "__init__", refuse)
    monkeypatch.setattr(ad, "grad", refuse)
    cfg = fast_config(demo, tmp_path / "abl", boruta_rounds=2)
    report = pipeline.run_ablation(cfg)
    assert sorted(report.per_class) == ["backdoor", "escalate"]
    assert (tmp_path / "abl" / "with_pretrain" / "feature_decision.json").exists()
