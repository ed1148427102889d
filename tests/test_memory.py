"""Memory tests: the bytes a stage holds at once, as tracemalloc counts
them, and the scale probe's report.

numpy reports its data buffers to tracemalloc, so a traced peak repeats
from run to run, where RSS does not.
"""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import encoded_dataset

from ganids import archive, gan, gbdt, imbalance, nn, pipeline
from ganids.demo import write_demo_dataset

ROOT = Path(__file__).resolve().parent.parent

PIPELINE_ROWS = 20000
# Traced peak of a skip_augment run on the demo rows, in bytes per row:
# 326 with each training row held once from the encoding on, 661 when the
# raw tables lived to the end of the run and routing copied every row. The
# bound is 326 plus 25%.
PIPELINE_BYTES_PER_ROW = 408


def traced_peak(fn):
    """fn()'s result, and the most bytes allocated at once during the call
    above what was allocated at its start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


def test_filter_minority_copies_no_feature_rows():
    rng = np.random.default_rng(0)
    n, m = 20000, 50
    # imbalance ratios 2, 8, 30 and 120: two classes routed
    labels = rng.permutation(np.repeat(np.arange(5),
                                       [12000, 6000, 1500, 400, 100]))
    ds = encoded_dataset(rng.random((n, m)), labels,
                         ["normal", "dos", "probe", "r2l", "u2r"])
    # the first call in a process also imports numpy.ma (np.unique does)
    imbalance.filter_minority(ds, 10.0)
    out, peak = traced_peak(lambda: imbalance.filter_minority(ds, 10.0))
    assert sorted(out.minority) == ["r2l", "u2r"]
    assert peak < 0.05 * ds.features.nbytes


def test_adam_step_allocates_no_parameter_sized_vector():
    # the width-122 critic, in the GAN's float32
    params = nn.init_params(gan.critic_spec(122), 0).astype(np.float32)
    grads = params.like(np.random.default_rng(0).standard_normal(
        params.flat.size).astype(np.float32))
    state = nn.AdamState(params)
    _, peak = traced_peak(lambda: nn.adam_step(params, grads, state))
    assert peak < 0.05 * params.flat.nbytes


@pytest.fixture(scope="module")
def demo_rows(tmp_path_factory):
    return write_demo_dataset(tmp_path_factory.mktemp("demo20k"),
                              rows=PIPELINE_ROWS, seed=0)


def test_pipeline_holds_each_training_row_once(demo_rows, tmp_path):
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(demo_rows["csv"])],
        schema=str(demo_rows["schema"]), out_dir=str(tmp_path / "run"),
        skip_augment=True, boost=gbdt.BoostParams(rounds=4))
    art, peak = traced_peak(lambda: pipeline.run_pipeline(cfg))
    assert sum(art.census.counts.values()) == PIPELINE_ROWS
    assert peak / PIPELINE_ROWS < PIPELINE_BYTES_PER_ROW


def test_scale_probe_reports_its_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"),
         "--rows", "2000", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    run = tmp_path / "run"
    manifest = json.loads((run / "manifest.json").read_text())
    assert record["rows"] == 2000
    assert record["stages_s"] == manifest["stages"]
    assert record["eval_hash"] == manifest["eval_hash"]
    assert record["ensemble_hash"] \
        == archive.file_hash(run / "models" / "ensemble.bin")
    assert 0 < record["baseline_rss_mb"] <= record["peak_rss_mb"]
    # bytes_per_row comes from the peak before rounding to 0.1 MB
    assert abs(record["bytes_per_row"] * 2000 / 2**20
               - record["peak_rss_mb"]) <= 0.06
