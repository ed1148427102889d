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

from conftest import encoded_dataset, unit_plan

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


# The GAN at the paper's width, NSL-KDD's 122 encoded features, and its
# training batch. The step bounds count in channels: one channel is a (B, L)
# float32 activation, 64 x 122 x 4 bytes (31 kB).
WIDE, BATCH = 122, 64
CHANNEL = BATCH * WIDE * np.dtype(gan.DTYPE).itemsize


@pytest.fixture(scope="module")
def wide_gan():
    model = gan.build_gan(WIDE, 0)
    g_adam, d_adam = nn.AdamState(model.g_params), nn.AdamState(model.d_params)
    rng = np.random.default_rng(1)
    real = rng.random((BATCH, WIDE)).astype(gan.DTYPE)
    # the first steps set the process's kept heap and numpy's caches
    gan.critic_step(model, d_adam, real, rng, 10.0)
    gan.generator_step(model, g_adam, rng, BATCH)
    return model, g_adam, d_adam, real, rng


def test_generator_step_frees_each_cache_before_its_cotangent(wide_gan):
    model, g_adam, _, _, rng = wide_gan
    # G's caches live from its forward pass to its backward pass: the fc
    # input 1, the leaky ReLU masks 1 + 64 + 32, the conv windows
    # 3 + 192 + 32 (the last conv's window is its input), 325 channels.
    # D's forward over G's rows adds at most 96: its windows 3 and conv
    # output 32, that output's leaky ReLU mask 32 and the mask's two boolean
    # temporaries 2 x 8, G's output 1, the float64 noise 2, and under 10
    # for D's fc rows and dropout masks. The backward passes free each
    # cache before they allocate its cotangent, so they stay below that;
    # holding G's 192 windows while allocating their cotangent took 687.
    _, peak = traced_peak(
        lambda: gan.generator_step(model, g_adam, rng, BATCH))
    assert peak < (325 + 96) * CHANNEL


def test_critic_step_holds_one_pass_at_a_time(wide_gan):
    model, _, d_adam, real, rng = wide_gan
    # G's forward without caches holds at most its second conv's input and
    # windows, 64 + 192 = 256 channels. D's caches over the fake, real and
    # interpolated rows are 3 x (windows 3 + leaky ReLU mask 32 + fc input
    # 32) = 201; the penalty's sweep over the interpolated rows adds the
    # recorded conv output cotangent 32, the cotangent v 32 and its windows
    # 3, and the batches, their concatenation and the input gradient, under
    # 10: at most 278 at once. Keeping G's first leaky ReLU temporary
    # through its second conv took 355.
    _, peak = traced_peak(
        lambda: gan.critic_step(model, d_adam, real, rng, 10.0))
    assert peak < 290 * CHANNEL


def test_synthesize_unfolds_one_batch_at_a_time():
    model = gan.build_gan(WIDE, 0)
    plan = unit_plan(WIDE)
    schema = encoded_dataset(np.zeros((2, WIDE)), [0, 1],
                             ["normal", "attack"]).schema
    n = 600

    def call():
        return gan.synthesize(model, n, plan, 3, schema, "attack")

    call()
    out, peak = traced_peak(call)
    assert len(out) == n
    # one pass of G over a chunk of at most 64 rows holds its second conv's
    # input and windows, 256 channels; the output is held at most as the
    # float32 chunks, their stack, and the float64 matrix and rows that
    # `inverse_transform` makes, 24 bytes a cell. A 512-row chunk unfolded
    # eight times the windows: 88.7 MB.
    assert peak < 256 * CHANNEL + n * WIDE * 24


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
