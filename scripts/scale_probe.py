#!/usr/bin/env python3
"""Peak memory and stage times of one pipeline run on N NSL-KDD-shaped rows.

Usage: python3 scripts/scale_probe.py --rows 200000 [--seed 0] [--out DIR]

Writes N rows with `perfbench/nslkdd_shaped.py`, then runs `run_pipeline`
on them with `skip_augment` and 4 boosting rounds: load, census, split,
encode, filter, GBDT training and scoring of the test split, no GAN. The
rows are written by a child process, so that the generator's own memory
stays out of this process's peak. Prints one JSON line:

- `rows`: rows loaded;
- `baseline_rss_mb`: peak RSS once ganids is imported, before the run;
- `peak_rss_mb`: peak RSS of the whole process;
- `bytes_per_row`: the peak over the rows;
- `stages_s`: the manifest's per-stage seconds;
- `eval_hash` and `ensemble_hash`: the manifest's hashes of the test-split
  report and of `models/ensemble.bin`.

RSS is `ru_maxrss`, so the figures are for Linux. With `--out`, the CSV,
schema and run directory are kept there; by default they go to a
temporary directory that is removed at the end.
"""

import argparse
import json
import multiprocessing
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 4


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_rows(csv_path, schema_path, rows, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import nslkdd_shaped
    nslkdd_shaped.write_csv(csv_path, rows, seed)
    nslkdd_shaped.write_schema(schema_path)


def probe(rows, seed, work):
    """The JSON record of one run on `rows` rows written under `work`."""
    csv_path, schema_path = work / "train.csv", work / "schema.json"
    writer = multiprocessing.get_context("spawn").Process(
        target=_write_rows, args=(csv_path, schema_path, rows, seed))
    writer.start()
    writer.join()
    if writer.exitcode != 0:
        raise SystemExit(f"writing the rows failed (exit {writer.exitcode})")

    sys.path.insert(0, str(ROOT / "src"))
    from ganids import gbdt, pipeline
    baseline = _peak_rss_mb()
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(csv_path)], schema=str(schema_path),
        out_dir=str(work / "run"), seed=seed, skip_augment=True,
        boost=gbdt.BoostParams(rounds=ROUNDS))
    art = pipeline.run_pipeline(cfg)
    peak = _peak_rss_mb()
    manifest = json.loads(art.manifest_path.read_text())
    # the generator rounds its per-class counts, so N may be off by one
    loaded = sum(art.census.counts.values())
    return {
        "rows": loaded,
        "baseline_rss_mb": round(baseline, 1),
        "peak_rss_mb": round(peak, 1),
        "bytes_per_row": round(peak * 2**20 / loaded),
        "stages_s": manifest["stages"],
        "eval_hash": manifest["eval_hash"],
        "ensemble_hash": manifest["artifacts"]["models/ensemble.bin"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="keep the inputs and the run here")
    args = p.parse_args(argv)
    if args.rows < 1:
        p.error("--rows must be at least 1")
    if args.out:
        work = Path(args.out)
        work.mkdir(parents=True, exist_ok=True)
        record = probe(args.rows, args.seed, work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            record = probe(args.rows, args.seed, Path(tmp))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
