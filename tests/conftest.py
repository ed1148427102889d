"""Shared fixtures and oracle helpers for the test suite."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ganids import gbdt, nn
from ganids.data import Column, Dataset, DatasetSchema, fit_plan

ROOT = Path(__file__).resolve().parents[1]


def make_schema(n_features, classes, normal=None):
    cols = [Column(f"f{i}", "numeric") for i in range(n_features)]
    cols.append(Column("label", "label"))
    return DatasetSchema(cols, list(classes), normal or classes[0])


def encoded_dataset(matrix, labels, classes, normal=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    schema = make_schema(matrix.shape[1], classes, normal)
    return Dataset(matrix, np.asarray(labels, dtype=np.int64), schema,
                   encoded=True,
                   feature_names=[f"f{i}" for i in range(matrix.shape[1])])


def bundle_layout(bundles, n_bins):
    """The BundleMap of the given bundles, laid out as efb_bundle lays out
    its own: per bundle, its bin-0 slot, then each member's bins 1..nb-1."""
    starts, first, slot = [], {}, 0
    for bundle in bundles:
        starts.append(slot)
        for f in bundle:
            first[f] = slot + 1
            slot += n_bins[f] - 1
        slot += 1
    return gbdt.BundleMap([list(b) for b in bundles], starts,
                          [first[f] for f in range(len(n_bins))], slot,
                          list(n_bins))


def singleton_bundles(binned, n_bins):
    """A stand-in for gbdt.efb_bundle that bundles nothing: one feature per
    bundle, so training runs unbundled."""
    return bundle_layout([[j] for j in range(binned.shape[1])], n_bins)


def raw_dataset(rows, labels, kinds, classes, normal=None):
    """Raw (typed) dataset; kinds is a list of numeric/categorical. A
    categorical column becomes codes into its sorted level table."""
    cols = [Column(f"f{i}", kind) for i, kind in enumerate(kinds)]
    cols.append(Column("label", "label"))
    schema = DatasetSchema(cols, list(classes), normal or classes[0])
    matrix = np.empty((len(rows), len(kinds)))
    levels = []
    for j, kind in enumerate(kinds):
        values = [r[j] for r in rows]
        if kind == "numeric":
            matrix[:, j] = np.asarray(values, dtype=np.float64)
            levels.append(None)
        else:
            table, codes = np.unique(np.array([str(v) for v in values],
                                              dtype=object),
                                     return_inverse=True)
            matrix[:, j] = codes
            levels.append(table)
    return Dataset(matrix, np.asarray(labels, dtype=np.int64), schema,
                   encoded=False, feature_names=[c.name for c in cols[:-1]],
                   levels=levels)


def unit_plan(n_features):
    """The plan fitted on numeric columns f0, f1, ... that span [0, 1]."""
    return fit_plan(raw_dataset([[0.0] * n_features, [1.0] * n_features],
                                [0, 1], ["numeric"] * n_features,
                                ["normal", "attack"]))


def column(ds, j):
    """Values of feature column j of a dataset: numbers, or level strings for
    a categorical column of a raw dataset."""
    table = None if ds.levels is None else ds.levels[j]
    vals = ds.features[:, j]
    return vals if table is None else table[vals.astype(np.intp)]


def json_with(integers):
    """Any JSON value, NaN and the infinities included, as Python's json
    reads and writes them, with its integers drawn from `integers`."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=6)


json_values = json_with(st.integers())


def replaced(doc, path, value):
    """A copy of doc with the value at path (a tuple of keys) replaced."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def key_paths(value, at=()):
    """The key path of every value inside a JSON document."""
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield at + (key,)
        yield from key_paths(inner, at + (key,))


def fd_param_grad(loss_fn, params, name, index, h=1e-5):
    """Central finite difference of loss_fn(params) in one parameter entry.

    loss_fn must return (scalar, relu_sign_patterns); the probe is rejected
    (returns None) when the activation sign pattern changes under +-h, i.e.
    the step crossed a piecewise-linear kink.
    """
    base = params.copy()
    _, signs0 = loss_fn(base)

    def shifted(delta):
        p = params.copy()
        p.tensors[name].flat[index] += delta
        return loss_fn(p)

    up, signs_u = shifted(h)
    dn, signs_d = shifted(-h)
    for s0, su, sd in zip(signs0, signs_u, signs_d):
        if not (np.array_equal(s0, su) and np.array_equal(s0, sd)):
            return None
    return (up - dn) / (2 * h)


# a network whose elementwise layers come first, on the caller's batch, with
# a dropout right after a tanh whose output is cached
ELEMENTWISE_FIRST = (nn.Tanh(), nn.LeakyRelu(0.2), nn.Dropout(0.3),
                     nn.Conv1d(2, 3), nn.Tanh(), nn.Dropout(0.5),
                     nn.FullyConnected(3), nn.LeakyRelu(0.1),
                     nn.FullyConnected(1), nn.Tanh())


def float64_model(model):
    """`model` with its networks cast to float64, the precision in which the
    oracles check the kernels."""
    model.g_params = model.g_params.astype(np.float64)
    model.d_params = model.d_params.astype(np.float64)
    return model


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def tracer_targets():
    """The (module, attribute, span name) triples that the benchmark's
    tracer, perfbench/tracer.py, wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._TARGETS


@pytest.fixture
def rng():
    return np.random.default_rng(0)
