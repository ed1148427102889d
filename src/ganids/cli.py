"""Command-line entry points for the augmentation + detection pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import archive, imbalance, metrics, pipeline
from .data import (EmptyDataset, PlanMismatch, load_dataset, load_schema,
                   preprocess, select_columns)
from .errors import ConfigInvalid, InputError


def _one_line(text):
    """text with each character that is not printable (a line break among
    them) escaped, so that an error message stays one line whatever file
    name or value it quotes."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _on_rows(args, fn, *extra):
    """fn(rows of args.paths, *extra); an error of too few rows or of no
    normal rows names the files."""
    ds = load_dataset(args.paths, load_schema(args.schema))
    try:
        return fn(ds, *extra)
    except (EmptyDataset, imbalance.MissingNormalClass) as e:
        raise type(e)(f"{', '.join(args.paths)}: {e}") from e


def cmd_census(args):
    census = _on_rows(args, imbalance.class_census)
    out = {"counts": census.counts, "ratios": census.display_ratios()}
    print(json.dumps(out, indent=1))
    if args.out:
        pipeline._write_csv(Path(args.out), ["class", "samples", "imbalance_ratio"],
                            census.rows())


def cmd_filter(args):
    imbalance.check_gamma(args.gamma, "--gamma")
    result = _on_rows(args, imbalance.filter_minority, args.gamma)
    print(json.dumps({
        "gamma": result.gamma,
        "normal_rows": len(result.normal),
        "minority": {k: len(v) for k, v in result.minority.items()},
        "passthrough_rows": len(result.passthrough),
    }, indent=1))


def cmd_run(args):
    art = pipeline.run_pipeline(pipeline.PipelineConfig.from_json(args.config))
    rep = art.eval_report
    print(f"accuracy {rep.accuracy:.4f}  macro_f1 {rep.macro_f1:.4f}")
    print(f"artifacts in {art.out_dir}")


def cmd_ablate(args):
    report = pipeline.run_ablation(
        pipeline.PipelineConfig.from_json(args.config))
    for name, e in report.per_class.items():
        speed = e.get("speedup")
        extra = f"  speedup {speed:.2f}" if speed else ""
        print(f"{name}: {e['steps_with']} steps with pretraining, "
              f"{e['steps_without']} without{extra}")
    if report.metric_deltas:
        print("metric deltas:", json.dumps(report.metric_deltas))


def _score(raw, ens, model_path):
    """The report of ens, the model at model_path, on the raw rows."""
    # class ids index the class list, so a model scores only under its own
    if ens.classes != raw.schema.classes:
        raise PlanMismatch(f"{model_path}: the model's classes "
                           f"{ens.classes} are not the schema's "
                           f"{raw.schema.classes}")
    try:
        enc, _ = preprocess(raw, ens.plan)
    except PlanMismatch as e:
        raise PlanMismatch(f"{model_path}: {e}") from e
    # a model trained on selected features reads only those columns
    pred = ens.predict(select_columns(enc, ens.feature_names).features)
    return metrics.evaluate(pred, enc.labels, len(ens.classes))


def cmd_evaluate(args):
    rep = _on_rows(args, _score, archive.load_ensemble(args.model), args.model)
    print(json.dumps(rep.to_dict(), indent=1))


def cmd_demo_data(args):
    from .demo import write_demo_dataset
    if args.rows < 1:
        raise ConfigInvalid("--rows", f"must be at least 1, got {args.rows}")
    if args.seed < 0:  # numpy takes no negative seed
        raise ConfigInvalid("--seed", f"must be at least 0, got {args.seed}")
    paths = write_demo_dataset(Path(args.out), rows=args.rows, seed=args.seed)
    print(json.dumps({k: str(v) for k, v in paths.items()}, indent=1))


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="ganids",
        description="Minority-class traffic augmentation and intrusion detection")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--schema", required=True,
                        help="schema JSON path or builtin:<name>")
        sp.add_argument("paths", nargs="+", help="CSV dataset files")

    sp = sub.add_parser("census", help="per-class counts and imbalance ratios")
    add_common(sp)
    sp.add_argument("--out", help="also write a CSV report here")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("filter", help="route minority classes at a gamma")
    add_common(sp)
    sp.add_argument("--gamma", type=float, default=imbalance.DEFAULT_GAMMA)
    sp.set_defaults(func=cmd_filter)

    for name, fn, help_ in (("run", cmd_run, "run the full pipeline"),
                            ("ablate", cmd_ablate,
                             "pipeline twice: fine-tune from pretrained vs "
                             "untrained weights")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="pipeline config JSON")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("evaluate", help="score a saved classifier on a CSV")
    sp.add_argument("--model", required=True,
                    help="models/ensemble.bin from the training run; it "
                         "carries the run's encoding plan")
    add_common(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("demo-data", help="write the bundled synthetic demo dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--rows", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_demo_data)

    args = p.parse_args(argv)
    # the one error contract: a failure the input caused is one error line;
    # any other exception is a bug and leaves with its traceback. OSError
    # covers data.IoFailure and a file that cannot be opened or written.
    # numpy's floating-point warnings stay off stderr: the program's own
    # checks raise NonFiniteValue for each value that stops being finite
    try:
        with np.errstate(all="ignore"):
            args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {_one_line(str(e))}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a config or an input too large for memory
        detail = f": {_one_line(str(e))}" if str(e) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
