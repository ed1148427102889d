"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest

from ganids import gbdt
from ganids.data import Column, Dataset, DatasetSchema


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


def singleton_bundles(binned, n_bins):
    """A stand-in for gbdt.efb_bundle that bundles nothing: one feature per
    bundle, so training runs unbundled."""
    m = binned.shape[1]
    return gbdt.BundleMap([[j] for j in range(m)], [[1]] * m, list(n_bins))


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


def column(ds, j):
    """Values of feature column j of a dataset: numbers, or level strings for
    a categorical column of a raw dataset."""
    table = None if ds.levels is None else ds.levels[j]
    vals = ds.features[:, j]
    return vals if table is None else table[vals.astype(np.intp)]


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


def float64_model(model):
    """`model` with its networks cast to float64, the precision in which the
    oracles check the kernels, and its optimizers reset for them."""
    model.g_params = model.g_params.astype(np.float64)
    model.d_params = model.d_params.astype(np.float64)
    model.reset_optimizers()
    return model


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
