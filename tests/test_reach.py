"""The reachability gate: `src/` holds only what the program runs.

A fixed CLI session runs under a `sys.setprofile` hook, and the functions
and lambdas of `src/ganids` that it never enters must be exactly those
listed in UNENTERED, each under the reader that keeps it. A function that
nothing runs fails the test, and so does a listed one that the session
starts to reach, so the list can only shrink.

The session runs in a fresh interpreter: a `functools.cache`d function,
such as `data._form` or `gan._keep_freed_heap`, is entered only on its
first call in a process. Python 3.11 has no `sys.monitoring`, hence the
profile hook. Functions are keyed by module and qualified name, not by
line, so that an edit elsewhere in a file does not move a key.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from ganids.demo import write_demo_dataset

SRC = Path(__file__).resolve().parent.parent / "src"

# entered by no command; each group names the reader that keeps it
UNENTERED = {
    "the test references: the autodiff graph engine, the `nn` graph helpers "
    "and the brute-force split search (C1, C2, C9, test_autodiff.py, "
    "test_nn.py, test_gbdt.py)": [
        "ganids.autodiff:Var.__add__",
        "ganids.autodiff:Var.__matmul__",
        "ganids.autodiff:Var.__mul__",
        "ganids.autodiff:Var.__neg__",
        "ganids.autodiff:Var.__rsub__",
        "ganids.autodiff:Var.__sub__",
        "ganids.autodiff:Var.detach",
        "ganids.autodiff:Var.item",
        "ganids.autodiff:Var.shape",
        "ganids.autodiff:_unbroadcast",
        "ganids.autodiff:_zeros_like",
        "ganids.autodiff:add",
        "ganids.autodiff:add.<locals>.<lambda>",
        "ganids.autodiff:asvar",
        "ganids.autodiff:broadcast_to",
        "ganids.autodiff:broadcast_to.<locals>.<lambda>",
        "ganids.autodiff:conv1d",
        "ganids.autodiff:leaf",
        "ganids.autodiff:leaky_relu",
        "ganids.autodiff:matmul",
        "ganids.autodiff:matmul.<locals>.<lambda>",
        "ganids.autodiff:mean",
        "ganids.autodiff:mul",
        "ganids.autodiff:mul.<locals>.<lambda>",
        "ganids.autodiff:neg",
        "ganids.autodiff:neg.<locals>.<lambda>",
        "ganids.autodiff:reshape",
        "ganids.autodiff:reshape.<locals>.<lambda>",
        "ganids.autodiff:safe_recip",
        "ganids.autodiff:safe_recip.<locals>.vjp",
        "ganids.autodiff:sqrt",
        "ganids.autodiff:sqrt.<locals>.vjp",
        "ganids.autodiff:square",
        "ganids.autodiff:sum_",
        "ganids.autodiff:sum_.<locals>.vjp",
        "ganids.autodiff:tanh",
        "ganids.autodiff:tanh.<locals>.vjp",
        "ganids.autodiff:transpose",
        "ganids.autodiff:transpose.<locals>.<lambda>",
        "ganids.gbdt:TreeNode.structure",
        "ganids.gbdt:_HistContext.best_split",
        "ganids.gbdt:split_gain",
        "ganids.nn:Tape.__init__",
        "ganids.nn:forward",
        "ganids.nn:grad_input",
        "ganids.nn:grad_params",
    ],
    "perfbench/tracer.py, which wraps these by name": [
        "ganids.autodiff:Var.__init__",
        "ganids.autodiff:fold1d",
        "ganids.autodiff:fold1d.<locals>.<lambda>",
        "ganids.autodiff:grad",
        "ganids.autodiff:unfold1d",
        "ganids.autodiff:unfold1d.<locals>.<lambda>",
        "ganids.nn:forward_var",
        "ganids.nn:gradient_penalty",
    ],
    "perfbench/ (checks.py and worker.py)": [
        "ganids.gbdt:Ensemble.predict_proba",
        "ganids.data:PreprocessPlan.from_dict",
    ],
    "scripts/identity_probe.py, the only reader of a GAN archive": [
        "ganids.archive:load_gan",
        "ganids.archive:_param_set",
    ],
}

# runs each command of argv lists under the hook, and prints the exit codes
# and the (file, qualified name) of every code object entered under src/
_SESSION = r"""
import contextlib, io, json, sys

src, session = sys.argv[1], json.loads(sys.argv[2])
entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from ganids import cli

codes = []
for argv in session:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as e:  # an option argparse refuses
            codes.append(e.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    {(c.co_filename, c.co_qualname) for c in entered
     if c.co_filename.startswith(src)})}))
"""

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _module(path):
    return ".".join(Path(path).relative_to(SRC).with_suffix("").parts) \
        .removesuffix(".__init__")


def _functions():
    """The key of every function and lambda under src/ganids."""
    keys = set()
    for path in sorted((SRC / "ganids").rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            # a class body is not optimized; a comprehension is part of
            # the function it sits in
            if code.co_flags & inspect.CO_OPTIMIZED \
                    and code.co_name not in _COMPREHENSIONS:
                keys.add(f"{_module(path)}:{code.co_qualname}")
    return keys


def _write_json(path, value):
    path.write_text(json.dumps(value))
    return str(path)


def _session(tmp_path):
    """The argv lists of the session and the exit code each must give: the
    demo data, census, filter, a run with Boruta, an ablation and an
    evaluation, then one case from each of test_cli.py's error lists and
    the inputs that build the other errors a user can cause."""
    demo = write_demo_dataset(tmp_path / "demo", rows=300, seed=1)
    csv, schema = str(demo["csv"]), str(demo["schema"])
    base = {"dataset_paths": [csv], "schema": schema,
            "gan": {"max_steps": 12, "batch_size": 16, "stop_window": 5},
            "boost": {"rounds": 3, "min_leaf": 5, "max_depth": 3}}
    run = _write_json(tmp_path / "run.json", {
        **base, "out_dir": str(tmp_path / "run"), "boruta_rounds": 2})
    ablate = _write_json(tmp_path / "ablate.json", {
        **base, "out_dir": str(tmp_path / "ablate")})
    model = str(tmp_path / "run" / "models" / "ensemble.bin")

    doc = json.loads(demo["schema"].read_text())
    doc["columns"][0]["kind"] = "numerc"
    kind_typo = _write_json(tmp_path / "kind_typo.json", doc)
    doc = json.loads(demo["schema"].read_text())
    doc["label_map"] = {c: "attack" for c in doc["classes"]
                        if c != "normal"}
    doc["classes"] = ["normal", "attack"]
    two_classes = _write_json(tmp_path / "two_classes.json", doc)
    lines = demo["csv"].read_text().splitlines(keepends=True)
    cells = lines[10].split(",")
    cells[0] = "1e400"
    lines[10] = ",".join(cells)
    non_finite = tmp_path / "non_finite.csv"
    non_finite.write_text("".join(lines))
    cells[0], cells[-1] = "0.5", "nosuch\n"
    lines[10] = ",".join(cells)
    unknown_label = tmp_path / "unknown_label.csv"
    unknown_label.write_text("".join(lines))
    rows = demo["csv"].read_bytes().split(b"\n")
    rows[4] = rows[4][:3] + b"\xff" + rows[4][4:]
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"\n".join(rows))
    bad_gan = _write_json(tmp_path / "bad_gan.json", {
        **base, "out_dir": str(tmp_path / "o"), "gan": {"lam": -1}})
    bad_gamma = _write_json(tmp_path / "bad_gamma.json", {
        **base, "out_dir": str(tmp_path / "o"), "gamma": "abc"})
    run_not_utf8 = _write_json(tmp_path / "run_not_utf8.json", {
        **base, "out_dir": str(tmp_path / "o"),
        "dataset_paths": [str(not_utf8)]})
    return [
        (["demo-data", "--out", str(tmp_path / "d2"), "--rows", "50"], 0),
        (["census", "--schema", schema, "--out", str(tmp_path / "c.csv"),
          csv], 0),
        (["filter", "--schema", schema, csv], 0),
        (["run", "--config", run], 0),
        (["ablate", "--config", ablate], 0),
        (["evaluate", "--model", model, "--schema", schema, csv], 0),
        # test_census_reports_a_schema_it_cannot_use
        (["census", "--schema", kind_typo, csv], 1),
        # test_run_reports_a_bad_nested_config_section
        (["run", "--config", bad_gan], 1),
        # test_run_reports_a_top_level_value_it_cannot_use
        (["run", "--config", bad_gamma], 1),
        # test_run_and_ablate_take_their_settings_from_the_config_alone
        (["run", "--config", run, "--seed", "3"], 2),
        # test_evaluate_refuses_a_schema_with_other_classes
        (["evaluate", "--model", model, "--schema", two_classes, csv], 1),
        # test_census_names_the_cell_of_a_non_finite_number
        (["census", "--schema", schema, str(non_finite)], 1),
        # test_malformed_input_is_one_error_line
        (["run", "--config", run_not_utf8], 1),
        # the built-in schema, and the two row faults no list above has
        (["census", "--schema", "builtin:nslkdd", csv], 1),
        (["census", "--schema", schema, str(unknown_label)], 1),
    ]


def test_src_holds_only_what_a_session_runs_or_a_listed_reader_reads(
        tmp_path):
    session = _session(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION, str(SRC),
         json.dumps([argv for argv, _ in session])],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [code for _, code in session]
    entered = {f"{_module(path)}:{name}" for path, name in out["entered"]}
    listed = [key for keys in UNENTERED.values() for key in keys]
    assert len(listed) == len(set(listed)), "a function listed twice"
    assert sorted(_functions() - entered) == sorted(listed)
