"""The ganids benchmark.

    python3 perfbench/run.py --workload detect_gbdt --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. It writes the workload's inputs from the
seed. Then, for `--seconds` (at least two runs), it runs the workload's
main call in fresh processes, one at a time (closed loop), and checks each
run. After that, fresh processes time the scoring of the held-out file
through the `ganids evaluate` path. Every process also times its own
set-up. The last line of standard output is one
JSON object: the end-to-end metrics with `--trace 0`, the per-layer metrics
of the traced runs with `--trace 1`. `--workload all` runs every workload in
turn. BLAS threading is left at the machine default and recorded.

Times are given at a reference machine speed (see speed.py): each process
samples its own speed while it works, so a slow spell of a shared VM does
not move the figures. The report keeps the wall times too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0        # a run must end within 180 s
SCORE_SAMPLES = 2
SCORE_RESERVE_S = 20.0    # kept free for the scoring runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "macro_f1": "ratio", "minority_recall": "ratio"}


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_rev": _git_rev(),
        "seed": seed,
    }


def _worker(job, timeout):
    """Run one worker process to completion; returns (result or None,
    error text)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def _count_rows(path):
    with open(path) as f:
        return sum(1 for line in f if line.strip())


def run_workload(w, seed, seconds, trace, base):
    """Measure one workload at one seed, writing under `base`; returns
    (result line or None, full report)."""
    t_start = time.perf_counter()
    work = base / "work"
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(w, seed, work / "inputs")
    job = {"workload": asdict(w), "config": inputs["config"],
           "held_out": inputs["held_out"],
           "held_out_rows": _count_rows(inputs["held_out"]),
           "check": inputs["check"],
           "check_rows": _count_rows(inputs["check"]),
           "spans_dir": str(base)}

    def left():
        return DEADLINE_S - (time.perf_counter() - t_start)

    # closed loop: each run is a fresh process, started when the previous
    # one has ended; at least two runs, for the repeat check, and none that
    # would end past `seconds`
    runs, last = [], 0.0
    t_loop = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - t_loop + last <= seconds:
        i = len(runs)
        run_id = f"{w.name}-seed{seed}-run{i}"
        t = time.perf_counter()
        r, err = _worker(dict(job, mode="run", run_id=run_id,
                              trace=bool(trace) and i % 2 == 1,
                              out_dir=str(work / f"run{i}")),
                         timeout=max(left() - SCORE_RESERVE_S, 1.0))
        last = time.perf_counter() - t
        runs.append(r or {"run_id": run_id, "error": err})
        if r is None or left() - SCORE_RESERVE_S < last:
            break
        if i:
            # only the first run's model is scored
            shutil.rmtree(work / f"run{i}", ignore_errors=True)
    first = runs[0]
    for r in runs[1:]:
        if "hashes" in r and r["hashes"] != first.get("hashes"):
            r["failures"].append("hashes differ from the first run at the "
                                 "same seed")

    # `ganids evaluate` runs in a fresh interpreter, so the scoring is timed
    # in fresh ones
    scores = []
    while "error" not in first and len(scores) < SCORE_SAMPLES:
        run_id = f"{w.name}-seed{seed}-score{len(scores)}"
        r, err = _worker(dict(job, mode="score", model=first["model"],
                              plan=first["plan"], routed=first["routed"]),
                         timeout=max(left(), 1.0))
        if r is None:
            scores.append({"run_id": run_id, "error": err})
            break
        r["run_id"] = run_id
        if scores and r["held_out_eval"] != scores[0].get("held_out_eval"):
            r["failures"].append("held-out report differs from the first "
                                 "scoring run's")
        scores.append(r)
    shutil.rmtree(work, ignore_errors=True)

    done = runs + scores
    errors = [f"{r['run_id']}: {msg}" for r in done
              for msg in r.get("failures", []) + [r.get("error")] if msg]
    failed = sum(1 for r in done if "error" in r or r["failures"])
    report = {"workload": w.name, "attempted": len(done), "failed": failed,
              "errors": errors, "runs": runs, "scores": scores}
    plain = [r for r in runs if "error" not in r and not r["traced"]]
    traced = [r for r in runs if "error" not in r and r["traced"]]
    scored = [r for r in scores if "error" not in r]
    if not plain or not scored or (trace and not traced):
        return None, report
    med = statistics.median
    e2e = {
        "run_s": med(r["run_s"] for r in plain),
        "setup_s": med(r["setup_s"] for r in plain + traced + scored),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        "macro_f1": scored[0]["macro_f1"],
        "minority_recall": scored[0]["minority_recall"],
    }
    report["end_to_end"] = e2e
    report["run_wall_s"] = med(r["run_wall_s"] for r in plain)
    report["minority_support"] = scored[0]["minority_support"]
    # not bounded end to end: across seeds it spread wider than any allowed
    # bound, so it is reported with the per-layer metrics
    report["score_rows_per_s"] = med(r["score_rows"] / t
                                     for r in scored for t in r["score_s"])
    metrics, units = e2e, E2E_UNITS
    if trace:
        metrics = {k: med(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = med(r["run_wall_s"] for r in traced) \
            - report["run_wall_s"]
        metrics["evaluate.score_rows_per_s"] = report["score_rows_per_s"]
        report["per_layer"] = metrics
        units = LAYER_UNITS
    line = {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}
    return line, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment(args.seed)
    print("environment " + json.dumps(env), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        base = OUT / f"{name}-seed{args.seed}"
        line, report = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    args.trace, base)
        report["environment"] = env
        (base / f"result-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1))
        for err in report["errors"]:
            print(f"{name}: FAILED {err}", file=sys.stderr)
        rate = report["failed"] / report["attempted"]
        print(f"{name}: error_rate {rate:.3f} ({report['failed']} of "
              f"{report['attempted']} runs failed)")
        if line is None:
            status = 1
            continue
        for k, v in report["end_to_end"].items():
            print(f"{name}: {k} {v:.6g} {E2E_UNITS[k]}")
        print(f"{name}: run_wall_s {report['run_wall_s']:.6g} s")
        print(f"{name}: score_rows_per_s {report['score_rows_per_s']:.6g} 1/s")
        print(f"{name}: minority held-out support {report['minority_support']}")
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    if not (ROOT / "src" / "ganids" / "__init__.py").is_file():
        print("error: run from the root of a ganids checkout "
              "(src/ganids not found)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
