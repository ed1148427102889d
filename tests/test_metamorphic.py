"""Metamorphic relations of the whole run: inputs that must give the same
run give it, bit for bit.

Each case rewrites the demo CSV in a way the run must not see, runs the
pipeline on it and compares the manifest's `eval_hash` and the bytes of
every GAN archive with the run on the file as written. The config is
`scripts/identity_probe.py`'s `run`: 600 demo rows of seed 3, seed 3, 150
GAN steps per phase, 12 boosting rounds and Boruta for 4 rounds.
"""

import json
from decimal import Decimal

import pytest

from ganids import pipeline
from ganids.demo import write_demo_dataset


def _run(demo, paths, out_dir):
    """The manifest's eval_hash and the bytes of each GAN archive, by file
    name, of the probe's run on the CSV files at paths."""
    cfg = pipeline.PipelineConfig.from_dict({
        "dataset_paths": [str(p) for p in paths],
        "schema": str(demo["schema"]), "out_dir": str(out_dir),
        "seed": 3, "gan": {"max_steps": 150}, "boost": {"rounds": 12},
        "boruta_rounds": 4})
    art = pipeline.run_pipeline(cfg)
    gans = {p.name: p.read_bytes()
            for p in sorted((out_dir / "models").glob("gan_*.bin"))}
    return json.loads(art.manifest_path.read_text())["eval_hash"], gans


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    """The demo files, and the run on the CSV as written."""
    work = tmp_path_factory.mktemp("metamorphic")
    demo = write_demo_dataset(work / "data", rows=600, seed=3)
    return demo, _run(demo, [demo["csv"]], work / "plain")


def _two_files(lines, out):
    """The rows, in order, split over two files."""
    half = len(lines) // 2
    for name, part in (("a.csv", lines[:half]), ("b.csv", lines[half:])):
        (out / name).write_bytes(b"".join(part))
    return [out / "a.csv", out / "b.csv"]


def _lf(lines, out):
    """The rows with LF line ends, where the demo's CSV writer ends each
    with CRLF."""
    assert all(line.endswith(b"\r\n") for line in lines)
    (out / "lf.csv").write_bytes(b"".join(line[:-2] + b"\n"
                                          for line in lines))
    return [out / "lf.csv"]


def _f0_doubled(lines, out):
    """f0, the first column, written as twice its value: min-max encoding
    undoes a power-of-2 scale exactly."""
    doubled = []
    for line in lines:
        f0, rest = line.split(b",", 1)
        doubled.append(str(Decimal(f0.decode()) * 2).encode() + b"," + rest)
    (out / "doubled.csv").write_bytes(b"".join(doubled))
    return [out / "doubled.csv"]


@pytest.mark.parametrize("rewrite", [_two_files, _lf, _f0_doubled],
                         ids=["two files", "LF line ends", "f0 doubled"])
def test_a_rewrite_the_run_must_not_see_gives_the_same_run(plain, tmp_path,
                                                           rewrite):
    demo, (eval_hash, gans) = plain
    assert set(gans) == {"gan_pretrained.bin", "gan_backdoor.bin",
                         "gan_escalate.bin"}
    lines = demo["csv"].read_bytes().splitlines(keepends=True)
    paths = rewrite(lines, tmp_path)
    assert [p.read_bytes() for p in paths] != [demo["csv"].read_bytes()]
    assert _run(demo, paths, tmp_path / "run") == (eval_hash, gans)
