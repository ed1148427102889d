"""Census and minority-routing tests."""

import numpy as np
import pytest

from conftest import encoded_dataset

from ganids import imbalance


def dataset_with_counts(counts, classes, normal):
    labels = np.concatenate([np.full(n, i) for i, n in enumerate(counts)])
    x = np.arange(len(labels), dtype=np.float64)[:, None]
    return encoded_dataset(x, labels, classes, normal)


def test_census_counts_and_ratios():
    ds = dataset_with_counts([100, 50, 4], ["normal", "dos", "rare"], "normal")
    census = imbalance.class_census(ds)
    assert census.counts == {"normal": 100, "dos": 50, "rare": 4}
    assert census.ratios == {"dos": 2.0, "rare": 25.0}


def test_census_display_rounding():
    ds = dataset_with_counts([1000, 3], ["normal", "rare"], "normal")
    census = imbalance.class_census(ds)
    assert census.display_ratios() == {"rare": 333.333}


def test_census_matches_brute_force(rng):
    labels = rng.integers(0, 4, size=300)
    labels[0] = 0  # guarantee normal presence
    ds = encoded_dataset(rng.random((300, 2)), labels,
                         ["normal", "a", "b", "c"], "normal")
    census = imbalance.class_census(ds)
    brute = {}
    for lab in labels:
        name = ds.schema.classes[lab]
        brute[name] = brute.get(name, 0) + 1
    assert census.counts == brute
    for name, n in brute.items():
        if name != "normal":
            assert census.ratios[name] == brute["normal"] / n


def test_census_empty_dataset():
    ds = dataset_with_counts([1], ["normal"], "normal")
    with pytest.raises(imbalance.EmptyDataset):
        imbalance.class_census(ds.select(np.zeros(0, dtype=np.int64)))


def test_census_missing_normal_class():
    ds = dataset_with_counts([0, 5], ["normal", "dos"], "normal")
    with pytest.raises(imbalance.MissingNormalClass):
        imbalance.class_census(ds)


def test_census_all_normal_has_no_ratios():
    ds = dataset_with_counts([10], ["normal", "dos"], "normal")
    assert imbalance.class_census(ds).ratios == {}


def test_filter_selects_classes_at_threshold():
    ds = dataset_with_counts([100, 50, 10, 2],
                             ["normal", "dos", "probe", "rare"], "normal")
    out = imbalance.filter_minority(ds, gamma=10.0)
    # ratios: dos 2, probe 10, rare 50 -> probe and rare selected (>= gamma)
    assert sorted(out.minority) == ["probe", "rare"]
    assert len(out.normal) == 100
    assert len(out.passthrough) == 50


def test_filter_balanced_set_selects_nothing():
    ds = dataset_with_counts([100, 100], ["normal", "dos"], "normal")
    out = imbalance.filter_minority(ds, gamma=10.0)
    assert out.minority == {}
    assert len(out.passthrough) == 100


def test_filter_gamma_one_selects_all_attacks():
    ds = dataset_with_counts([100, 50, 10, 2],
                             ["normal", "dos", "probe", "rare"], "normal")
    out = imbalance.filter_minority(ds, gamma=1.0)
    assert sorted(out.minority) == ["dos", "probe", "rare"]
    assert len(out.passthrough) == 0


def test_filter_monotone_in_gamma(rng):
    labels = rng.integers(0, 5, size=400)
    labels[0] = 0
    ds = encoded_dataset(rng.random((400, 2)), labels,
                         ["normal", "a", "b", "c", "d"], "normal")
    previous = None
    for gamma in [1.0, 2.0, 5.0, 10.0, 50.0]:
        selected = set(imbalance.filter_minority(ds, gamma).minority)
        if previous is not None:
            assert selected <= previous
        previous = selected


def test_filter_partitions_the_input(rng):
    labels = rng.integers(0, 4, size=250)
    labels[0] = 0
    ds = encoded_dataset(rng.random((250, 2)), labels,
                         ["normal", "a", "b", "c"], "normal")
    out = imbalance.filter_minority(ds, gamma=3.0)
    total = len(out.normal) + len(out.passthrough) \
        + sum(len(v) for v in out.minority.values())
    assert total == len(ds)
    for name, rows in out.minority.items():
        assert np.all(ds.labels[rows] == ds.schema.class_id(name))


def test_filter_routes_are_sorted_row_indexes():
    ds = dataset_with_counts([100, 50, 10, 2],
                             ["normal", "dos", "probe", "rare"], "normal")
    order = np.random.default_rng(0).permutation(len(ds))
    ds = ds.select(order)
    out = imbalance.filter_minority(ds, gamma=10.0)
    routes = [out.normal, out.passthrough, *out.minority.values()]
    for rows in routes:
        assert rows.dtype == np.intp and np.all(np.diff(rows) > 0)
    assert np.array_equal(np.sort(np.concatenate(routes)), np.arange(len(ds)))
    assert np.array_equal(out.normal, np.flatnonzero(ds.labels == 0))
    assert np.array_equal(out.minority["rare"], np.flatnonzero(ds.labels == 3))
    assert np.array_equal(out.passthrough, np.flatnonzero(ds.labels == 1))


def test_filter_rejects_nonpositive_gamma():
    ds = dataset_with_counts([5], ["normal"], "normal")
    with pytest.raises(ValueError):
        imbalance.filter_minority(ds, gamma=0.0)


def test_census_report_rows():
    ds = dataset_with_counts([100, 3], ["normal", "rare"], "normal")
    header, rows = imbalance.class_census(ds).table()
    assert header == ["class", "samples", "imbalance_ratio"]
    assert rows[0] == ("normal", 100, None)
    assert rows[1] == ("rare", 3, 33.333)


def test_census_report_holds_the_counts_and_the_shown_ratios():
    ds = dataset_with_counts([100, 3, 7], ["normal", "rare", "odd"], "normal")
    assert imbalance.class_census(ds).report() == {
        "counts": {"normal": 100, "rare": 3, "odd": 7},
        "ratios": {"rare": 33.333, "odd": 14.286}}
