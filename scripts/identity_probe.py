#!/usr/bin/env python3
"""Hashes of everything a fixed demo `run` and `ablate` write.

Usage: python3 scripts/identity_probe.py

Writes the demo dataset (600 rows, seed 3) and runs the pipeline on it
twice, as `ganids run` and as `ganids ablate` would, with seed 3, 150 GAN
steps per phase, 12 boosting rounds and Boruta on for 4 rounds, in a
temporary directory that is removed at the end. Prints one JSON line:

- `eval_hash`: each run directory's manifest `eval_hash`;
- `files`: the SHA-256 of every `models/*.bin`, `trace_*.csv`,
  `plan.json`, `census.json`, `feature_decision.json` and `ablation.json`,
  by path under the temporary directory;
- `content`: the SHA-256 of what each archive holds, read back: per GAN
  archive, the bytes of each network's parameter vector (`path:g`,
  `path:d`); per ensemble archive, the bytes of its `predict_proba` on the
  demo rows, encoded with its plan.

A change that should compute nothing differently prints the same line as
its parent commit: run the script in both checkouts and diff the output.
A change of archive format changes only the `models/*.bin` entries of
`files`; `content` does not depend on the format. The manifests are not
hashed, since they hold wall times.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATTERNS = ("models/*.bin", "trace_*.csv", "plan.json", "census.json",
            "feature_decision.json", "ablation.json")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _content(work, demo):
    """The `content` hashes of the archives under `work`, by path."""
    from ganids import archive
    from ganids.data import load_dataset, load_schema, preprocess, \
        select_columns

    raw = load_dataset([demo["csv"]], load_schema(str(demo["schema"])))
    out = {}
    for path in sorted(work.rglob("models/*.bin")):
        name = str(path.relative_to(work))
        if path.name == "ensemble.bin":
            ens = archive.load_ensemble(path)
            enc, _ = preprocess(raw, ens.plan)
            proba = ens.predict_proba(
                select_columns(enc, ens.feature_names).features)
            out[name] = hashlib.sha256(proba.tobytes()).hexdigest()
        else:
            model = archive.load_gan(path)
            for net, params in (("g", model.g_params), ("d", model.d_params)):
                out[f"{name}:{net}"] = \
                    hashlib.sha256(params.flat.tobytes()).hexdigest()
    return out


def probe(work):
    """The JSON record of the demo run and ablation written under `work`."""
    sys.path.insert(0, str(ROOT / "src"))
    from ganids import pipeline
    from ganids.demo import write_demo_dataset

    demo = write_demo_dataset(work / "data", rows=600, seed=3)
    for command in ("run", "ablate"):
        cfg = pipeline.PipelineConfig.from_dict({
            "dataset_paths": [str(demo["csv"])],
            "schema": str(demo["schema"]), "out_dir": str(work / command),
            "seed": 3, "gan": {"max_steps": 150}, "boost": {"rounds": 12},
            "boruta_rounds": 4})
        if command == "run":
            pipeline.run_pipeline(cfg)
        else:
            pipeline.run_ablation(cfg)
    eval_hash = {
        str(m.parent.relative_to(work)): json.loads(m.read_text())["eval_hash"]
        for m in sorted(work.rglob("manifest.json"))}
    files = {str(p.relative_to(work)): _sha256(p)
             for pattern in PATTERNS for p in sorted(work.rglob(pattern))}
    return {"eval_hash": eval_hash, "files": dict(sorted(files.items())),
            "content": _content(work, demo)}


def main():
    with tempfile.TemporaryDirectory(prefix="ganids_identity_") as tmp:
        print(json.dumps(probe(Path(tmp)), sort_keys=True))


if __name__ == "__main__":
    main()
