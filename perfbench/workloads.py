"""Workload definitions: sizes, input files and pipeline configs.

Every workload does fixed work. Each GAN phase runs a step budget far below
the point where the stop rule can fire (with stop_delta 0.05 and EMA decay
0.99 the EMA needs about 298 steps to reach the threshold, and the 50-step
window comes on top), so every phase ends on `max_steps` and a change to the
numerics changes neither the step count nor the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import nslkdd_shaped

GAMMA = 10.0
STOP_DELTA = 0.05
TRAIN_FRACTION = 0.8
CHECK_ROWS = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str            # "nslkdd" (width 122) or "demo" (width 11)
    train_rows: int
    held_out_rows: int
    gan_steps: int        # per GAN phase; 0 when the workload skips the GAN
    rounds: int
    ablate: bool = False
    skip_augment: bool = False

    def gan_budgets(self):
        """Step budget of every GAN training the main call runs: pretrain
        and one fine-tune per minority class (two here)."""
        if self.skip_augment:
            return []
        budgets = [self.gan_steps] * 3
        if self.ablate:
            # the fresh-init arm pretrains for 0 steps, then fine-tunes twice
            budgets += [0, self.gan_steps, self.gan_steps]
        return budgets


# augment_wide is not in BENCHMARK.json: on a shared 2-core VM,
# its run_s spread across seeds (0.34) was above any allowed bound. It stays
# runnable by name for width-122 work.
WORKLOADS = {w.name: w for w in (
    Workload("augment_wide", "nslkdd", train_rows=5000, held_out_rows=20000,
             gan_steps=12, rounds=4),
    Workload("detect_gbdt", "nslkdd", train_rows=10000, held_out_rows=20000,
             gan_steps=0, rounds=4, skip_augment=True),
    Workload("ablate_narrow", "demo", train_rows=3000, held_out_rows=60000,
             gan_steps=64, rounds=4, ablate=True),
)}


def write_inputs(w: Workload, seed: int, in_dir: Path) -> dict:
    """Write the training CSV, held-out CSV, schema and pipeline config for
    one seed; returns their paths. The held-out file draws from its own
    seed stream."""
    in_dir.mkdir(parents=True, exist_ok=True)
    train_seed, held_seed = [seed, 0], [seed, 1]
    if w.shape == "nslkdd":
        train = in_dir / "train.csv"
        held = in_dir / "held_out.csv"
        schema = in_dir / "schema.json"
        nslkdd_shaped.write_csv(train, w.train_rows, train_seed)
        nslkdd_shaped.write_csv(held, w.held_out_rows, held_seed,
                                nslkdd_shaped.HELD_OUT_MIX)
        nslkdd_shaped.write_schema(schema)
    else:
        from ganids.demo import write_demo_dataset
        paths = write_demo_dataset(in_dir / "train", rows=w.train_rows,
                                   seed=train_seed)
        held_paths = write_demo_dataset(in_dir / "held_out",
                                        rows=w.held_out_rows, seed=held_seed)
        train, schema, held = paths["csv"], paths["schema"], held_paths["csv"]
    config = {
        "dataset_paths": [str(train)],
        "schema": str(schema),
        "out_dir": "",
        "gamma": GAMMA,
        "train_fraction": TRAIN_FRACTION,
        "seed": seed,
        "gan": {"max_steps": w.gan_steps, "stop_delta": STOP_DELTA,
                "finetune_stop_delta": STOP_DELTA},
        "boost": {"rounds": w.rounds, "learning_rate": 0.5},
        "skip_augment": w.skip_augment,
    }
    config_path = in_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    # the first held-out rows, scored in every training process for the
    # checks and the trace
    check = in_dir / "check.csv"
    with open(held) as src, open(check, "w") as dst:
        dst.writelines(line for _, line in zip(range(CHECK_ROWS), src))
    return {"config": str(config_path), "held_out": str(held),
            "check": str(check)}
