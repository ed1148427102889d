"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps these out of the repository's own test run.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import nslkdd_shaped  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from ganids import data, metrics  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "augment_wide": dict(train_rows=1500, held_out_rows=600, gan_steps=2,
                         rounds=1),
    "detect_gbdt": dict(train_rows=1500, held_out_rows=600, rounds=1),
    "ablate_narrow": dict(train_rows=600, held_out_rows=600, gan_steps=2,
                          rounds=1),
}


def test_spec_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert sorted(bounds.values()).count(bounds["setup_s"]) == 1


def test_generator_is_seeded_and_nslkdd_shaped(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, ([3, 0], [3, 0], [4, 0])):
        nslkdd_shaped.write_csv(path, 2000, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    nslkdd_shaped.write_schema(tmp_path / "schema.json")
    schema = data.DatasetSchema.from_json(tmp_path / "schema.json")
    ds = data.load_dataset([paths[0]], schema)
    assert ds.features.shape[1] == 41
    assert [c.kind for c in schema.feature_columns].count("categorical") == 3
    enc, _ = data.preprocess(ds)
    assert enc.features.shape[1] == 122


def test_speed_sections_take_out_the_probes():
    speed.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        sum(range(1000))
    t1 = time.perf_counter()
    speed.stop()
    sec = speed.section(t0, t1)
    inside = [x for x in speed._samples if t0 <= x[0] < t1]
    assert sec["probes"] == len(inside) >= 5
    assert sec["wall_s"] == pytest.approx(
        t1 - t0 - sum(x[1] for x in inside))
    mean = sum(x[2] for x in inside) / len(inside)
    assert sec["ref_s"] == pytest.approx(sec["wall_s"] * mean)
    # a section with no probe inside takes its neighbours' speed
    assert speed.section(t1, t1 + 1e-6)["probes"] == 0


def test_report_checks_catch_a_wrong_total():
    rng = np.random.default_rng(0)
    truth, pred = rng.integers(0, 4, 200), rng.integers(0, 4, 200)
    report = metrics.evaluate(pred, truth, 4)
    assert checks.check_report("x", report, 200) == []
    assert checks._recount_macro_f1(report.confusion.tolist()) \
        == pytest.approx(report.macro_f1, abs=1e-12)
    assert len(checks.check_report("x", report, 199)) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    w = replace(WORKLOADS[name], **TINY[name])
    line, report = run.run_workload(w, seed=0, seconds=0, trace=1,
                                    base=tmp_path)
    assert report["errors"] == []
    # two main-call runs, then the scoring runs
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 + run.SCORE_SAMPLES
    assert set(line["metrics"]) == set(LAYER_UNITS)
    assert set(report["end_to_end"]) == set(run.E2E_UNITS)
    assert line["metrics"]["gan.critic_steps"]["value"] == sum(w.gan_budgets())
    spans = [json.loads(x) for f in tmp_path.glob("spans-*.jsonl")
             for x in f.read_text().splitlines()]
    assert spans
    assert {"run_id", "name", "start", "end", "parent"} <= set(spans[0])
    assert not (tmp_path / "work").exists()


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect_gbdt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
