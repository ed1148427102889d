"""The program's surface: the values a config can set, the options of each
command and the modules the package imports. A new setting, option or
dependency shows up in review as an edit to a list here."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tomllib
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from ganids import cli, pipeline

ROOT = Path(__file__).resolve().parent.parent

# every value a config file can set, a section's as "section.key"
SETTINGS = [
    "dataset_paths", "schema", "out_dir", "gamma", "train_fraction", "seed",
    "boruta_rounds", "skip_pretrain", "skip_augment",
    "gan.lam", "gan.batch_size", "gan.stop_delta", "gan.finetune_stop_delta",
    "gan.stop_window", "gan.max_steps",
    "boost.rounds", "boost.learning_rate", "boost.max_depth",
    "boost.max_bins", "boost.min_leaf", "boost.goss_a", "boost.goss_b",
    "boost.lam_leaf",
]

# every option of each command, as its --help lists it (-h/--help aside)
OPTIONS = {
    "census": ["--schema", "--out"],
    "filter": ["--schema", "--gamma"],
    "run": ["--config"],
    "ablate": ["--config"],
    "evaluate": ["--model", "--schema"],
    "demo-data": ["--out", "--rows", "--seed"],
}

DEPENDENCIES = {"numpy", "scipy"}


def _settable(kind, at=""):
    """The dotted key of every value a config of type kind can set; a
    section (a nested dataclass) gives its keys, not its own."""
    hints = typing.get_type_hints(kind)
    for f in fields(kind):
        if is_dataclass(hints[f.name]):
            yield from _settable(hints[f.name], f"{at}{f.name}.")
        else:
            yield at + f.name


def test_the_config_sets_exactly_the_listed_values():
    assert len(SETTINGS) == 23
    assert sorted(_settable(pipeline.PipelineConfig)) == sorted(SETTINGS)


def _help(*argv):
    """The --help text of `ganids *argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as e:
        cli.main([*argv, "--help"])
    assert e.value.code == 0
    return out.getvalue()


def test_the_cli_has_exactly_the_listed_commands():
    usage = _help().split("\n\n")[0]
    assert re.search(r"\{(\S+)\}", usage).group(1).split(",") == list(OPTIONS)


@pytest.mark.parametrize("command", OPTIONS)
def test_each_command_takes_exactly_the_listed_options(command):
    # an option's line in the help starts with its flags: "  --out OUT  ..."
    flags = [flag.split()[0] for line in _help(command).splitlines()
             if (m := re.match(r"\s+(-.*?)(\s{2,}|$)", line))
             for flag in m.group(1).split(", ")]
    assert flags == ["-h", "--help"] + OPTIONS[command]


def _imported(path):
    """The top-level name of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_its_dependencies():
    allowed = set(sys.stdlib_module_names) | DEPENDENCIES | {"ganids"}
    modules = sorted((ROOT / "src" / "ganids").rglob("*.py"))
    assert modules
    outside = {f"{p.relative_to(ROOT)}: {name}" for p in modules
               for name in _imported(p) if name not in allowed}
    assert not outside


def test_the_declared_dependencies_are_numpy_and_scipy():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
             for d in project["dependencies"]}
    assert names == DEPENDENCIES


def test_the_cli_does_not_import_scipy_stats():
    # scipy.stats costs most of a process's start-up and resident memory;
    # the runtime needs only the binomial tails in scipy.special
    probe = ("import sys, ganids.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
