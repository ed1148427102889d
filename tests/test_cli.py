"""Command-line interface tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, json_with, key_paths, replaced, unit_plan

from ganids import archive, cli, gan, gbdt, pipeline
from ganids.data import (load_dataset, load_schema, preprocess,
                         split_stratified)
from ganids.demo import write_demo_dataset

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidemo")
    return write_demo_dataset(out, rows=400, seed=1)


def test_demo_data_command(tmp_path, capsys):
    assert cli.main(["demo-data", "--out", str(tmp_path / "d"),
                     "--rows", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (tmp_path / "d" / "demo.csv").exists()
    assert set(out) == {"csv", "schema"}


def test_census_command(demo, capsys):
    assert cli.main(["census", "--schema", str(demo["schema"]),
                     str(demo["csv"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"]["normal"] > 0
    assert "backdoor" in out["ratios"]


@pytest.mark.parametrize("edit", [
    lambda s: s["columns"][0].update(kind="numerc"),
    lambda s: s.update(class_caps={"nosuch": 5}),
    lambda s: s.update(class_caps=5),
    lambda s: s.update(has_header="false"),
    lambda s: s.update(class_caps={"flood": "3"}),
    lambda s: s.update(label_map=[["a", "flood"]]),
    lambda s: s.update(has_headr=True),
    lambda s: s.update(class_caps={"flood": -5}),
], ids=["kind_typo", "cap_on_unknown_class", "caps_not_an_object",
        "header_flag_a_string", "cap_a_string", "label_map_not_an_object",
        "unknown_key", "cap_negative"])
def test_census_reports_a_schema_it_cannot_use(demo, tmp_path, capsys, edit):
    schema = json.loads(demo["schema"].read_text())
    edit(schema)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    assert cli.main(["census", "--schema", str(path), str(demo["csv"])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


def test_filter_command(demo, capsys):
    assert cli.main(["filter", "--schema", str(demo["schema"]),
                     "--gamma", "10", str(demo["csv"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == 10
    assert set(out["minority"]) == {"backdoor", "escalate"}


def test_run_and_evaluate_commands(demo, tmp_path, capsys):
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(demo["csv"])], schema=str(demo["schema"]),
        out_dir=str(tmp_path / "run"),
        gan=gan.GanConfig(max_steps=5, batch_size=16, stop_window=4),
        boost=gbdt.BoostParams(rounds=3, min_leaf=5, max_depth=4))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    model = tmp_path / "run" / "models" / "ensemble.bin"
    assert cli.main(["evaluate", "--model", str(model),
                     "--schema", str(demo["schema"]), str(demo["csv"])]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert 0.0 <= rep["accuracy"] <= 1.0


def test_evaluate_scores_a_model_trained_on_boruta_selected_features(
        demo, tmp_path, capsys):
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(demo["csv"])], schema=str(demo["schema"]),
        out_dir=str(tmp_path / "run"),
        gan=gan.GanConfig(max_steps=5, batch_size=16, stop_window=4),
        boost=gbdt.BoostParams(rounds=3, min_leaf=5, max_depth=4),
        boruta_rounds=10)
    art = pipeline.run_pipeline(cfg)
    status = json.loads((tmp_path / "run" / "feature_decision.json")
                        .read_text())["status"]
    assert "rejected" in status.values()
    # the run's test split as a CSV: split the row numbers as the run split
    # the rows
    raw = load_dataset([demo["csv"]], load_schema(str(demo["schema"])))
    rows = replace(raw, features=np.arange(len(raw), dtype=float)[:, None],
                   levels=None, encoded=True, feature_names=["row"])
    _, test = split_stratified(rows, cfg.train_fraction, pipeline.SPLIT_SEED)
    lines = demo["csv"].read_text().splitlines()  # no header line
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("".join(lines[int(i)] + "\n"
                                for i in test.features[:, 0]))
    # the model file alone encodes the input: no plan file is read
    (tmp_path / "run" / "plan.json").unlink()
    assert cli.main(["evaluate", "--model", str(art.ensemble_path),
                     "--schema", str(demo["schema"]), str(test_csv)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["macro_f1"] == art.eval_report.macro_f1


# each case keeps the id it was first collected under, so adding or
# removing a case renames no other
@pytest.mark.parametrize("section, value", [
    pytest.param("gan", {"bogus": 1}, id="gan-value0"),
    pytest.param("gan", {"lam": -1}, id="gan-value1"),
    pytest.param("gan", {"weight_decay": 0}, id="gan-value2"),
    pytest.param("gan", 5, id="gan-5"),
    pytest.param("boost", {"bogus": 1}, id="boost-value4"),
    pytest.param("boost", {"goss_a": 0.9, "goss_b": 0.5}, id="boost-value5"),
    pytest.param("boost", [1, 2], id="boost-value6"),
    pytest.param("gan", {"max_steps": True}, id="gan-value7"),
    pytest.param("gan", {"stop_delta": "x"}, id="gan-value8"),
    # the run's seed is the GAN's: no gan key
    pytest.param("gan", {"seed": 1.5}, id="gan-value9"),
    pytest.param("boost", {"rounds": True}, id="boost-value10"),
    pytest.param("boost", {"learning_rate": "0.5"}, id="boost-value11"),
    pytest.param("boost", {"max_bins": 0}, id="boost-value12"),
    pytest.param("boost", {"max_bins": 1}, id="boost-value13"),
    pytest.param("boost", {"learning_rate": -1.0}, id="boost-value14"),
    pytest.param("boost", {"learning_rate": 0}, id="boost-value15"),
    pytest.param("boost", {"learning_rate": float("nan")}, id="boost-value16"),
    pytest.param("boost", {"max_depth": 0}, id="boost-value17"),
    pytest.param("boost", {"min_leaf": 0}, id="boost-value18"),
    pytest.param("boost", {"lam_leaf": -0.5}, id="boost-value19"),
    pytest.param("gan", {"stop_window": 0}, id="gan-value20"),
    pytest.param("gan", {"stop_window": -3}, id="gan-value21"),
    pytest.param("gan", {"noise_dim": -1}, id="gan-value22"),
    pytest.param("gan", {"seed": -1}, id="gan-value23"),
    pytest.param("boost", {"seed": -1}, id="boost-value24"),
])
def test_run_reports_a_bad_nested_config_section(demo, tmp_path, capsys,
                                                 section, value):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset_paths": [str(demo["csv"])], "schema": str(demo["schema"]),
        "out_dir": str(tmp_path / "o"), "skip_augment": True,
        section: value}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {section}: "), err
    assert not (tmp_path / "o").exists()


def test_run_command_reports_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dataset_paths": ["/missing.csv"],
                                    "schema": "also_missing.json",
                                    "out_dir": str(tmp_path / "o")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("gamma", "abc"),
    ("train_fraction", "x"),
    ("seed", "s"),
    ("gamma", True),
    ("gamma", float("nan")),
    ("gamma", float("inf")),
    ("seed", 1.5),
    ("boruta_rounds", False),
    ("skip_augment", "yes"),
    ("dataset_paths", "demo.csv"),
    ("dataset_paths", [3]),
    ("schema", 3),
    ("gamma", 0.5),
    ("gamma", 5e-324),
    ("seed", -1),
    ("boruta_rounds", -2),
])
def test_run_reports_a_top_level_value_it_cannot_use(
        demo, tmp_path, capsys, key, value):
    cfg = {"dataset_paths": [str(demo["csv"])], "schema": str(demo["schema"]),
           "out_dir": str(tmp_path / "o"), "skip_augment": True}
    cfg[key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("option", [["--seed", "3"], ["--out", "o"],
                                    ["--gamma", "10"]],
                         ids=["seed", "out", "gamma"])
def test_run_and_ablate_take_their_settings_from_the_config_alone(
        tmp_path, capsys, command, option):
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--config", str(tmp_path / "c.json"), *option])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ganids ")
    assert f"error: unrecognized arguments: {' '.join(option)}\n" in err


def test_evaluate_rejects_the_plan_option(demo, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["evaluate", "--model", str(tmp_path / "m.bin"),
                  "--plan", str(tmp_path / "plan.json"),
                  "--schema", str(demo["schema"]), str(demo["csv"])])
    assert e.value.code == 2
    assert "--plan" in capsys.readouterr().err


def test_census_reports_bad_number(demo, tmp_path, capsys):
    lines = demo["csv"].read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = "n/a"
    lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["census", "--schema", str(demo["schema"]),
                     str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 3, column 4 (f3)" in err


@pytest.mark.parametrize("value", ["1e400", "inf", "nan"])
def test_census_names_the_cell_of_a_non_finite_number(demo, tmp_path, capsys,
                                                      value):
    lines = demo["csv"].read_text().splitlines()
    cells = lines[10].split(",")
    cells[0] = value
    lines[10] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["census", "--schema", str(demo["schema"]),
                     str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {bad}: line 11, column 1 (f0): {value!r} is not "
                   "a finite number\n")


@pytest.fixture(scope="module")
def demo_model(demo, tmp_path_factory):
    """A model fitted on the demo rows and saved with its plan, as a run
    saves it."""
    enc, plan = preprocess(load_dataset([demo["csv"]],
                                        load_schema(str(demo["schema"]))))
    ens = replace(gbdt.fit(enc, gbdt.BoostParams(rounds=2, min_leaf=5,
                                                 max_depth=3)), plan=plan)
    path = tmp_path_factory.mktemp("model") / "ensemble.bin"
    archive.save_ensemble(path, ens)
    return path


@pytest.mark.parametrize("classes", [
    ["normal", "attack"], ["normal", "flood", "scan", "escalate", "backdoor"]],
    ids=["two classes", "reordered"])
def test_evaluate_refuses_a_schema_with_other_classes(demo, demo_model,
                                                      tmp_path, capsys,
                                                      classes):
    schema = json.loads(demo["schema"].read_text())
    assert schema["classes"] != classes
    # every row still has a class: the CSV loads under this schema
    schema["label_map"] = {c: "attack" for c in schema["classes"]
                           if c not in classes}
    schema["classes"] = classes
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    assert cli.main(["evaluate", "--model", str(demo_model), "--schema",
                     str(path), str(demo["csv"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {demo_model}: the model's classes ") \
        and err.count("\n") == 1
    assert cli.main(["evaluate", "--model", str(demo_model), "--schema",
                     str(demo["schema"]), str(demo["csv"])]) == 0


def test_evaluate_reports_truncated_archive(demo, tmp_path, capsys):
    ens = gbdt.Ensemble([], np.zeros(2), gbdt.BinMapper([np.array([0.5])]),
                        ["normal", "attack"], ["f0"], unit_plan(1))
    model = tmp_path / "ensemble.bin"
    archive.save_ensemble(model, ens)
    model.write_bytes(model.read_bytes()[:-5])
    assert cli.main(["evaluate", "--model", str(model),
                     "--schema", str(demo["schema"]), str(demo["csv"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err


def test_evaluate_reports_an_ensemble_body_that_lacks_a_key(demo, tmp_path,
                                                            capsys):
    body = b'{"base_scores": [0.0, 0.0]}'
    model = tmp_path / "ensemble.bin"
    archive._write(model, {"kind": "ensemble"}, [body])
    assert cli.main(["evaluate", "--model", str(model),
                     "--schema", str(demo["schema"]), str(demo["csv"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model) in err and "trees" in err


def _malformed_input(case, demo, model, tmp_path):
    """The argv of a command on one malformed input, and the file or
    option its error must name (None for --gamma)."""
    lines = demo["csv"].read_text().splitlines(keepends=True)
    schema, csv_path = str(demo["schema"]), tmp_path / "rows.csv"
    if case == "evaluate a gan archive":
        gan_path = tmp_path / "gan_pretrained.bin"
        archive.save_gan(gan_path, gan.build_gan(3, 0))
        return ["evaluate", "--model", str(gan_path), "--schema", schema,
                str(demo["csv"])], (f"{gan_path}: header: kind: 'gan', where "
                                    "an ensemble archive was expected")
    if case.endswith("empty csv"):
        csv_path.write_text("")
        if case.startswith("evaluate"):
            return ["evaluate", "--model", str(model), "--schema", schema,
                    str(csv_path)], f"{csv_path}: no rows to score"
        return ["census", "--schema", schema, str(csv_path)], csv_path
    if case.endswith("no normal rows"):
        csv_path.write_text("".join(x for x in lines
                                    if not x.rstrip().endswith(",normal")))
        return [case.split()[0], "--schema", schema, str(csv_path)], csv_path
    if case.endswith("not UTF-8"):
        # one 0xff byte in line 5
        data = demo["csv"].read_bytes().split(b"\n")
        data[4] = data[4][:3] + b"\xff" + data[4][4:]
        csv_path.write_bytes(b"\n".join(data))
        if case.startswith("census"):
            return ["census", "--schema", schema, str(csv_path)], csv_path
    if case == "census cell past the field limit":
        cells = lines[2].split(",")
        cells[0] = "9" * 200_000
        lines[2] = ",".join(cells)
        csv_path.write_text("".join(lines))
        return (["census", "--schema", schema, str(csv_path)],
                f"{csv_path}: line 3: ")
    if case.startswith("run "):
        cfg = {"dataset_paths": [str(demo["csv"])], "schema": schema,
               "skip_augment": True, "out_dir": str(tmp_path / "o")}
        if case == "run csv not UTF-8":
            cfg["dataset_paths"], named = [str(csv_path)], \
                f"{csv_path}: line 5: "
        elif case == "run path with a line break":
            cfg["dataset_paths"], named = [str(tmp_path / "a\nb.csv")], \
                "a\\nb.csv"
        elif case == "run out_dir with a NUL":
            cfg["out_dir"], named = "o\0", "out_dir: "
        elif case == "run builtin schema outside the package":
            cfg["schema"], named = "builtin:../x", "builtin:../x: "
        elif case.startswith("run 100 rows"):
            # each made a model that predicts the prior: an overflowed GOSS
            # weight makes every gain inf or NaN, so no tree splits (the
            # root needs 2 * min_leaf of GOSS's 17 rows), and a huge
            # learning rate overflows the leaf values only
            rows = write_demo_dataset(tmp_path / "d100", rows=100, seed=0)
            cfg["dataset_paths"] = [str(rows["csv"])]
            cfg["schema"] = str(rows["schema"])
            key, value = case.split()[-2:]
            cfg["boost"] = {"rounds": 2, "min_leaf": 5, key: float(value)}
            named = "stage train: "
        elif case == "run empty test split":
            # two rows of each class all go to the training split
            seen, rows = Counter(), []
            for line in lines:
                label = line.rstrip().rsplit(",", 1)[-1]
                seen[label] += 1
                if seen[label] <= 2:
                    rows.append(line)
            csv_path.write_text("".join(rows))
            cfg["dataset_paths"] = [str(csv_path)]
            named = "stage split: no rows to test"
        elif case == "run 150 rows 2 rounds":
            # GOSS keeps 36 of the 120 training rows, and a split needs 40
            rows = write_demo_dataset(tmp_path / "d150", rows=150, seed=0)
            cfg["dataset_paths"] = [str(rows["csv"])]
            cfg["schema"] = str(rows["schema"])
            cfg["boost"], named = {"rounds": 2}, "stage train: GOSS keeps "
        else:  # a leaf value overflows
            cfg["boost"], named = {"learning_rate": 1e308}, "stage train: "
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return ["run", "--config", str(path)], named
    if case.startswith("filter gamma"):
        return ["filter", "--schema", schema, "--gamma", case.split()[-1],
                str(demo["csv"])], None
    if case.startswith("demo-data"):
        option, value = case.split()[1:]
        return ["demo-data", "--out", str(tmp_path / "d"), f"--{option}",
                value], f"--{option}"
    if case.startswith("schema"):
        bad = tmp_path / "schema.json"
        doc = json.loads(demo["schema"].read_text())
        if case == "schema without feature columns":
            for col in doc["columns"]:
                if col["kind"] != "label":
                    col["kind"] = "ignore"
        else:
            del doc["columns"]
        bad.write_text("columns: none" if case == "schema not JSON"
                       else json.dumps(doc))
        return ["census", "--schema", str(bad), str(demo["csv"])], bad
    bad = tmp_path / "config.json"
    bad.write_text("{dataset_paths: []")
    return ["run", "--config", str(bad)], bad


@pytest.mark.parametrize("case", [
    "empty csv", "census no normal rows", "filter no normal rows",
    "filter gamma 0", "filter gamma nan", "filter gamma inf",
    "filter gamma 0.5", "schema without columns",
    "schema without feature columns", "schema not JSON", "config not JSON",
    "census csv not UTF-8", "run csv not UTF-8",
    "census cell past the field limit", "run path with a line break",
    "run out_dir with a NUL", "run builtin schema outside the package",
    "run learning rate 1e308", "demo-data rows -3",
    "run 100 rows goss_b 1e-300", "run 100 rows learning_rate 1e308",
    "run 150 rows 2 rounds", "evaluate empty csv", "run empty test split",
    "demo-data seed -1", "evaluate a gan archive"])
def test_malformed_input_is_one_error_line(demo, demo_model, tmp_path,
                                           capsys, case):
    argv, named = _malformed_input(case, demo, demo_model, tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named or "--gamma") in err


def test_a_bug_in_a_stage_is_not_an_error_line(demo, tmp_path, monkeypatch):
    # only what the input caused is an error line: a bug in any stage
    # leaves cli.main as itself, with its traceback
    def broken(*args):
        raise KeyError("a bug")

    monkeypatch.setattr(gbdt, "fit", broken)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset_paths": [str(demo["csv"])], "schema": str(demo["schema"]),
        "out_dir": str(tmp_path / "o"), "skip_augment": True}))
    with pytest.raises(KeyError, match="a bug"):
        cli.main(["run", "--config", str(cfg_path)])


def _run_argv(demo, tmp_path, **cfg):
    """`ganids run` on the demo rows, skipping the GAN unless cfg says."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset_paths": [str(demo["csv"])], "schema": str(demo["schema"]),
        "out_dir": str(tmp_path / "o"), "skip_augment": True, **cfg}))
    return ["run", "--config", str(path)]


def test_a_synthetic_test_row_is_a_bug(demo, tmp_path, monkeypatch):
    # only a bug can put one there, so it is no error line
    split = pipeline.split_stratified

    def tainted(ds, fraction, seed):
        train, test = split(ds, fraction, seed)
        test.synthetic[0] = True
        return train, test

    monkeypatch.setattr(pipeline, "split_stratified", tainted)
    with pytest.raises(RuntimeError, match="synthetic rows"):
        cli.main(_run_argv(demo, tmp_path))


def test_out_of_memory_is_one_error_line(demo, tmp_path, monkeypatch,
                                         capsys):
    def too_large(*args):
        raise MemoryError("Unable to allocate 80.0 TiB for an array")

    monkeypatch.setattr(gbdt, "fit", too_large)
    assert cli.main(_run_argv(demo, tmp_path)) == 1
    assert capsys.readouterr().err == \
        "error: out of memory: Unable to allocate 80.0 TiB for an array\n"


def test_stderr_holds_only_the_error_line(demo, tmp_path):
    # pytest records warnings, so only a process of its own shows what a
    # user sees: a lam past float range overflows the penalty's float32
    # cast, and numpy would warn before the error line
    argv = _run_argv(demo, tmp_path, skip_augment=False,
                     gan={"lam": 1e308, "max_steps": 5})
    proc = subprocess.run(
        [sys.executable, "-m", "ganids.cli", *argv], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: stage pretrain: ") \
        and proc.stderr.count("\n") == 1, proc.stderr


# -- the fuzz gate: one input changed, and each command either runs or
# -- prints one error line; any other exception fails the test

# JSON values whose integers lie in [-2, 2], so that a config value keeps a
# run within the budgets of the base config below (max_steps and rounds)
small_json_values = json_with(st.integers(-2, 2))

# every config key but the gan and boost sections as a whole: a section
# replaced by {} takes its defaults (20000 GAN steps, 200 rounds), past the
# run budget; test_config reads any value there
_CONFIG_PATHS = [(f.name,) for f in fields(pipeline.PipelineConfig)
                 if f.name not in ("gan", "boost")] \
    + [("gan", f.name) for f in fields(gan.GanConfig)] \
    + [("boost", f.name) for f in fields(gbdt.BoostParams)]

_CELLS = st.text(max_size=6) | st.floats().map(repr) | st.sampled_from(
    ["", "nan", "-inf", "1e400", "1_0", " 0.5 ", '"', '"0.5"', "0,5", "\n",
     "\r", "\x00", "tcp", "normal", "escalate"])


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The unchanged inputs: a config, a schema and CSV lines, and a model
    fitted on those rows for `evaluate`."""
    work = tmp_path_factory.mktemp("fuzz") / "work"
    demo = write_demo_dataset(work, rows=100, seed=5)
    enc, plan = preprocess(load_dataset([demo["csv"]],
                                        load_schema(str(demo["schema"]))))
    ens = replace(gbdt.fit(enc, gbdt.BoostParams(rounds=2, min_leaf=5,
                                                 max_depth=3)), plan=plan)
    archive.save_ensemble(work / "model.bin", ens)
    config = {"dataset_paths": ["rows.csv"], "schema": "schema.json",
              "out_dir": "out",
              "gan": {"max_steps": 2, "batch_size": 8, "stop_window": 2},
              "boost": {"rounds": 2, "min_leaf": 5, "max_depth": 3}}
    return work, config, json.loads(demo["schema"].read_text()), \
        demo["csv"].read_bytes().splitlines(keepends=True)


def _changed_lines(data, kind, lines):
    """The CSV lines with one cell, one row's arity or one byte changed."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[i].rstrip(b"\n").split(b",")
    if kind == "cell":
        j = data.draw(st.integers(0, len(cells) - 1))
        cells[j] = data.draw(_CELLS).encode()
    elif kind == "arity":
        cells = data.draw(st.sampled_from(
            [cells[:-1], cells + [b"0.5"], cells[:1], [b""]]))
    else:
        text = b"".join(lines)
        at = data.draw(st.integers(0, len(text) - 1))
        new = data.draw(st.binary(min_size=0, max_size=2))
        return [text[:at] + new + text[at + data.draw(st.integers(0, 1)):]]
    lines[i] = b",".join(cells) + b"\n"
    return lines


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       kind=st.sampled_from(["config", "schema", "cell", "arity", "bytes"]))
def test_one_changed_input_is_run_or_one_error_line(fuzz_inputs, data, kind):
    work, config, schema, lines = fuzz_inputs
    if kind == "config":
        path = data.draw(st.sampled_from(_CONFIG_PATHS))
        value = data.draw(small_json_values)
        if path == ("out_dir",) and isinstance(value, str):
            # an absolute or nested out_dir could write anywhere the test
            # process may: keep every output under work/
            value = value.replace("/", "_")
        config = replaced(config, path, value)
    elif kind == "schema":
        schema = replaced(schema, data.draw(st.sampled_from(
            list(key_paths(schema)))), data.draw(json_values))
    else:
        lines = _changed_lines(data, kind, lines)
    (work / "config.json").write_text(json.dumps(config))
    (work / "schema.json").write_text(json.dumps(schema))
    (work / "rows.csv").write_bytes(b"".join(lines))
    on_rows = ["--schema", "schema.json", "rows.csv"]
    commands = [["run", "--config", "config.json"]]
    if kind != "config":
        commands += [["census", *on_rows], ["filter", *on_rows],
                     ["evaluate", "--model", "model.bin", *on_rows]]
    for argv in commands:
        err = io.StringIO()
        with contextlib.chdir(work), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        err = err.getvalue()
        assert (code, err) == (0, "") or code == 1 \
            and err.startswith("error: ") and err.count("\n") == 1, \
            (argv, code, err)


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
