"""Boosted-tree tests: binning, sampling, bundling, split search, training."""

import json
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundle_layout, encoded_dataset, singleton_bundles

from ganids import archive, gbdt
from ganids.data import decode
from ganids.errors import InputError, ShapeMismatch


def test_binning_quantile_boundary():
    mapper = gbdt.BinMapper.fit(np.array([[1.0], [2.0], [3.0], [4.0]]), 2)
    assert mapper.boundaries[0].tolist() == [2.5]
    binned = mapper.transform(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert binned[:, 0].tolist() == [0, 0, 1, 1]


def test_binning_constant_column_single_bin():
    mapper = gbdt.BinMapper.fit(np.full((5, 1), 7.0), 8)
    assert mapper.n_bins == [1]
    assert mapper.transform(np.full((5, 1), 7.0))[:, 0].tolist() == [0] * 5


def test_binning_few_distinct_values_one_bin_each():
    col = np.array([[0.0], [1.0], [5.0], [1.0], [5.0]])
    mapper = gbdt.BinMapper.fit(col, 10)
    assert mapper.n_bins == [3]
    assert mapper.transform(col)[:, 0].tolist() == [0, 1, 2, 1, 2]


def test_binning_boundary_value_falls_in_lower_bin():
    mapper = gbdt.BinMapper([np.array([2.5])])
    assert mapper.transform(np.array([[2.5]]))[0, 0] == 0


def test_binning_roundtrip_on_training_rows(rng):
    matrix = rng.random((200, 3))
    mapper = gbdt.BinMapper.fit(matrix, 16)
    a = mapper.transform(matrix)
    b = decode(gbdt.BinMapper, json.loads(archive._dumps(asdict(mapper)))) \
        .transform(matrix)
    assert np.array_equal(a, b)
    assert a.min() >= 0
    for j, nb in enumerate(mapper.n_bins):
        assert a[:, j].max() < nb


def test_goss_keeps_top_gradients():
    g = np.array([10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    idx, w = gbdt.goss_sample(g, a=0.2, b=0.1, seed=0)
    assert len(idx) == 3
    assert {0, 1} <= set(idx)  # the two largest |g| rows always kept
    weights = dict(zip(idx, w))
    assert weights[0] == 1.0 and weights[1] == 1.0
    (small,) = [i for i in idx if i not in (0, 1)]
    assert weights[small] == 8.0  # (1 - 0.2) / 0.1


def test_goss_all_rows_when_a_is_one(rng):
    g = rng.standard_normal(20)
    idx, w = gbdt.goss_sample(g, a=1.0, b=0.0, seed=1)
    assert sorted(idx) == list(range(20))
    assert np.all(w == 1.0)


def test_goss_pure_sampling_weight_one(rng):
    g = rng.standard_normal(30)
    idx, w = gbdt.goss_sample(g, a=0.0, b=1.0, seed=2)
    assert sorted(idx) == list(range(30))
    assert np.all(w == 1.0)


def test_goss_deterministic_per_seed(rng):
    g = rng.standard_normal(100)
    a1 = gbdt.goss_sample(g, 0.2, 0.1, seed=5)
    a2 = gbdt.goss_sample(g, 0.2, 0.1, seed=5)
    b = gbdt.goss_sample(g, 0.2, 0.1, seed=6)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], b[0])


def test_goss_rejects_bad_fractions():
    with pytest.raises(gbdt.InvalidFraction):
        gbdt.goss_sample(np.ones(4), a=0.8, b=0.5, seed=0)
    with pytest.raises(gbdt.InvalidFraction):
        gbdt.goss_sample(np.zeros(0), a=0.1, b=0.1, seed=0)


@pytest.mark.parametrize("a, b", [(np.nan, 0.1), (0.2, np.nan),
                                  (np.inf, 0.1), (-0.1, 0.1)])
def test_goss_rejects_fractions_that_fail_the_positive_form(a, b):
    with pytest.raises(gbdt.InvalidFraction, match="goss_a"):
        gbdt.goss_sample(np.ones(4), a=a, b=b, seed=0)
    with pytest.raises(gbdt.InvalidFraction, match="goss_a"):
        gbdt.BoostParams(goss_a=a, goss_b=b)


def test_goss_weighted_sum_unbiased(rng):
    g = rng.standard_normal(2000) + 0.5
    true = g.sum()
    est = []
    for seed in range(300):
        idx, w = gbdt.goss_sample(g, 0.2, 0.1, seed=seed)
        est.append(np.sum(g[idx] * w))
    assert abs(np.mean(est) - true) / abs(true) <= 0.05


def test_efb_bundles_exclusive_onehot_pair():
    # complementary one-hot pair: never simultaneously nonzero
    binned = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.int32)
    bm = gbdt.efb_bundle(binned, [2, 2])
    assert len(bm.bundles) == 1
    cols = gbdt.bundle_columns(binned, bm)
    # slots disjoint: both features recoverable from the single column
    f0, f1 = bm.bundles[0]
    assert np.array_equal(cols[:, 0] == bm.first[f0], binned[:, f0] == 1)
    assert np.array_equal(cols[:, 0] == bm.first[f1], binned[:, f1] == 1)


def test_efb_dense_features_not_bundled():
    binned = np.ones((10, 2), dtype=np.int32)
    bm = gbdt.efb_bundle(binned, [2, 2])
    assert len(bm.bundles) == 2


def test_hist_context_keys_histograms_by_the_bundle_columns_as_written(
        monkeypatch):
    # bundle_columns writes each row's global slot, so the context keeps
    # its array as the histogram keys: no copy, no shift
    binned = np.array([[1, 0, 3], [0, 1, 0], [1, 0, 2], [0, 0, 1]],
                      dtype=np.uint8)
    bm = gbdt.efb_bundle(binned, [2, 2, 4])
    written, bundle_columns = [], gbdt.bundle_columns

    def recording(binned, bundle_map):
        written.append(bundle_columns(binned, bundle_map))
        return written[-1]

    monkeypatch.setattr(gbdt, "bundle_columns", recording)
    ctx = gbdt._HistContext(binned, bm, gbdt.BoostParams())
    assert len(written) == 1 and ctx.flat is written[0]
    assert np.array_equal(ctx.flat, _reference_bundle_columns(binned, bm))


def test_efb_empty_matrix():
    bm = gbdt.efb_bundle(np.zeros((5, 0), dtype=np.int32), [])
    assert bm.bundles == []


def _random_dataset(rng, n, m, k):
    x = rng.random((n, m))
    labels = rng.integers(0, k, size=n)
    return encoded_dataset(x, labels, [f"c{i}" for i in range(k)])


def _brute_force_best_gain(binned, n_bins, g, h, lam, min_leaf):
    best = None
    n = len(g)
    for f in range(binned.shape[1]):
        for t in range(n_bins[f] - 1):
            left = binned[:, f] <= t
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            gain = gbdt.split_gain(g[left].sum(), h[left].sum(),
                                   g[~left].sum(), h[~left].sum(), lam)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, f, t)
    return best


@pytest.mark.parametrize("seed", range(10))
def test_split_search_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 64))
    ds = _random_dataset(rng, n, 4, 2)
    params = gbdt.BoostParams(min_leaf=3, max_bins=8)
    mapper, binned = gbdt.bin_features(ds, params.max_bins)
    bm = gbdt.efb_bundle(binned, mapper.n_bins)
    ctx = gbdt._HistContext(binned, bm, params)
    g = rng.standard_normal(n)
    h = rng.random(n) + 0.1
    rows = np.arange(n)
    got = ctx.best_split(rows, g, h)
    want = _brute_force_best_gain(binned, mapper.n_bins, g, h,
                                  params.lam_leaf, params.min_leaf)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert abs(got[0] - want[0]) <= 1e-9 * max(1.0, abs(want[0]))
    # identifiers must agree whenever the maximizer is unique
    runner_up = _runner_up_gain(binned, mapper.n_bins, g, h, params, want)
    if runner_up is None or want[0] - runner_up > 1e-9:
        assert (got[1], got[2]) == (want[1], want[2])


def _runner_up_gain(binned, n_bins, g, h, params, best):
    second = None
    n = len(g)
    for f in range(binned.shape[1]):
        for t in range(n_bins[f] - 1):
            if (f, t) == (best[1], best[2]):
                continue
            left = binned[:, f] <= t
            nl = int(left.sum())
            if nl < params.min_leaf or n - nl < params.min_leaf:
                continue
            gain = gbdt.split_gain(g[left].sum(), h[left].sum(),
                                   g[~left].sum(), h[~left].sum(),
                                   params.lam_leaf)
            if second is None or gain > second:
                second = gain
    return second


def _reference_best_split(bundle_map, bundle_cols, params, rows, g, h):
    """Per-bundle histograms sliced into per-feature bins, one feature at a
    time: the loop the vectorized scan replaced, kept as its reference."""
    p = params
    size = bundle_map.n_slots
    n_rows = len(rows)
    g_tot = float(g.sum())
    h_tot = float(h.sum())
    best = None  # (gain, feature, bin)
    for bi, bundle in enumerate(bundle_map.bundles):
        col = bundle_cols[rows, bi]
        cnt = np.bincount(col, minlength=size)
        gh = np.bincount(col, weights=g, minlength=size)
        hh = np.bincount(col, weights=h, minlength=size)
        for f in bundle:
            nb = bundle_map.n_bins[f]
            off = bundle_map.first[f]
            if nb < 2:
                continue
            c, gs, hs = np.empty(nb), np.empty(nb), np.empty(nb)
            c[1:] = cnt[off:off + nb - 1]
            gs[1:] = gh[off:off + nb - 1]
            hs[1:] = hh[off:off + nb - 1]
            c[0] = n_rows - c[1:].sum()
            gs[0] = g_tot - gs[1:].sum()
            hs[0] = h_tot - hs[1:].sum()
            cl = np.cumsum(c)[:-1]
            gll = np.cumsum(gs)[:-1]
            hll = np.cumsum(hs)[:-1]
            ok = (cl >= p.min_leaf) & ((n_rows - cl) >= p.min_leaf)
            if not ok.any():
                continue
            gains = np.where(
                ok,
                gll * gll / (hll + p.lam_leaf)
                + (g_tot - gll) ** 2 / (h_tot - hll + p.lam_leaf)
                - g_tot * g_tot / (h_tot + p.lam_leaf),
                -np.inf)
            t = int(np.argmax(gains))
            gain = float(gains[t])
            tol = 1e-12 * max(1.0, best[0]) if best is not None else 0.0
            if gain > 0 and (best is None or gain > best[0] + tol
                             or (abs(gain - best[0]) <= tol
                                 and (f, t) < (best[1], best[2]))):
                best = (gain, int(f), t)
    return best


def _layout(draw):
    """A binned matrix with dense numerics, exclusive one-hot blocks, sparse
    numerics on disjoint rows (multi-bin members of one EFB bundle),
    duplicated columns (exact ties) and mirrored columns (the same partition
    with left and right swapped, so ties up to rounding), plus its bundle
    layout."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    cols = [rng.random((n, draw(st.integers(0, 3))))]
    for _ in range(draw(st.integers(0, 2))):
        width = draw(st.integers(2, 5))
        cols.append(np.eye(width)[rng.integers(0, width, n)])
    n_sparse = draw(st.integers(0, 3))
    owner = rng.integers(0, n_sparse + 1, n)
    for j in range(n_sparse):
        cols.append(((owner == j) * rng.random(n))[:, None])
    x = np.hstack(cols) if sum(c.shape[1] for c in cols) else rng.random((n, 1))
    dup = rng.integers(0, x.shape[1], draw(st.integers(0, 2)))
    mirror = rng.integers(0, x.shape[1], draw(st.integers(0, 2)))
    x = np.hstack([x, x[:, dup], 1.0 - x[:, mirror]])
    mapper = gbdt.BinMapper.fit(x, draw(st.integers(2, 255)))
    binned = mapper.transform(x)
    if draw(st.booleans()):
        bm = gbdt.efb_bundle(binned, mapper.n_bins)
    else:
        bm = singleton_bundles(binned, mapper.n_bins)
    return rng, binned, bm


def _check_split_against_reference_loop(draw):
    rng, binned, bm = _layout(draw)
    n = binned.shape[0]
    cols = gbdt.bundle_columns(binned, bm)
    params = gbdt.BoostParams(min_leaf=draw(st.integers(1, 12)))
    ctx = gbdt._HistContext(binned, bm, params)
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                              replace=False))
    g = rng.standard_normal(len(rows)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    h = rng.random(len(rows)) + 0.05
    got = ctx.best_split(rows, g, h)
    want = _reference_best_split(bm, cols, params, rows, g, h)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[1:] == want[1:]
    assert abs(got[0] - want[0]) <= 1e-9 * abs(want[0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vectorized_split_matches_reference_loop(data):
    _check_split_against_reference_loop(data.draw)


def test_split_search_replays_the_mirrored_column_draw():
    # the draw (--hypothesis-seed=26) that broke an absolute 1e-12 tie rule:
    # two mirrored columns, gradients scaled by 50, and best gains near
    # 1.2e4 one ulp (1.8e-12) apart, so scan and loop picked different
    # features (min_leaf, drawn as 0 then, is 1 here: the same splits)
    draws = iter([2743, 193, 1, 0, 1, 0, 2, 7, True, 1, 50.0])
    _check_split_against_reference_loop(lambda strategy: next(draws))


@pytest.mark.parametrize("seed", range(1, 5))
def test_mirrored_columns_tie_at_large_gains(seed):
    # x and 1 - x split the rows alike; at gains of 3e4-7e4 their gains
    # differ by rounding (about 1e-10), and the lower feature still wins
    rng = np.random.default_rng(seed)
    x = rng.random(200)
    x = np.column_stack([x, 1.0 - x])
    mapper = gbdt.BinMapper.fit(x, 16)
    binned = mapper.transform(x)
    bm = bundle_layout([[0], [1]], mapper.n_bins)
    cols = gbdt.bundle_columns(binned, bm)
    params = gbdt.BoostParams(min_leaf=5)
    ctx = gbdt._HistContext(binned, bm, params)
    rows = np.arange(200)
    g = rng.standard_normal(200) * 100.0
    h = rng.random(200) + 0.05
    got = ctx.best_split(rows, g, h)
    assert got[0] > 1e4 and got[1] == 0
    assert got[1:] == _reference_best_split(bm, cols, params, rows, g, h)[1:]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sibling_histogram_by_subtraction_matches_direct(data):
    rng, binned, bm = _layout(data.draw)
    n = binned.shape[0]
    ctx = gbdt._HistContext(binned, bm, gbdt.BoostParams())
    rows = np.arange(n)
    g = rng.standard_normal(n) * 10.0
    h = rng.random(n) + 0.05
    left = rng.random(n) < data.draw(st.floats(0.0, 1.0))
    parent = ctx.histogram(rows, g, h)
    small = ctx.histogram(rows[left], g[left], h[left])
    sibling = parent - small
    direct = ctx.histogram(rows[~left], g[~left], h[~left])
    assert np.array_equal(sibling[0], direct[0])
    scale = np.abs(parent[1:]).max(initial=1.0)
    assert np.allclose(sibling[1:], direct[1:], rtol=1e-9, atol=1e-9 * scale)


def _reference_tree(binned, bm, cols, params, rows, g, h, depth=0):
    node = gbdt.TreeNode(value=params.learning_rate
                         * (-g.sum() / (h.sum() + params.lam_leaf)))
    if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
        return node
    best = _reference_best_split(bm, cols, params, rows, g, h)
    if best is None:
        return node
    node.gain, node.feature, node.bin_threshold = best
    mask = binned[rows, node.feature] <= node.bin_threshold
    node.left = _reference_tree(binned, bm, cols, params, rows[mask],
                                g[mask], h[mask], depth + 1)
    node.right = _reference_tree(binned, bm, cols, params, rows[~mask],
                                 g[~mask], h[~mask], depth + 1)
    return node


@pytest.mark.parametrize("seed", range(6))
def test_tree_with_sibling_subtraction_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = 600
    x = np.hstack([rng.random((n, 3)), np.eye(3)[rng.integers(0, 3, n)],
                   np.round(rng.random((n, 2)), 1)])
    x = np.hstack([x, x[:, :1]])  # a duplicated column: exact ties
    mapper = gbdt.BinMapper.fit(x, 64)
    binned = mapper.transform(x)
    bm = gbdt.efb_bundle(binned, mapper.n_bins)
    cols = gbdt.bundle_columns(binned, bm)
    params = gbdt.BoostParams(min_leaf=5, max_depth=6)
    g = rng.standard_normal(n) + 2.0 * (x[:, 0] > 0.5)
    h = rng.random(n) + 0.1
    rows = np.arange(n)
    ctx = gbdt._HistContext(binned, bm, params)
    got = ctx.build_tree(rows, g, h)
    want = _reference_tree(binned, bm, cols, params, rows, g, h)
    assert got.structure() == want.structure()


def _reference_recursive_tree(ctx, rows, g, h, depth=0, hist=None):
    """The node-at-a-time grower the level grower replaced, kept as its
    reference: the same one-node split scan and the same sibling
    subtraction, so gains must agree bit for bit."""
    p = ctx.params
    node = gbdt.TreeNode(value=p.learning_rate
                         * (-g.sum() / (h.sum() + p.lam_leaf)))
    if depth >= p.max_depth or len(rows) < 2 * p.min_leaf:
        return node
    if hist is None:
        hist = ctx.histogram(rows, g, h)
    best = ctx.best_split(rows, g, h, hist)
    if best is None:
        return node
    node.gain, node.feature, node.bin_threshold = best
    mask = ctx.binned[rows, node.feature] <= node.bin_threshold
    kids = [(rows[mask], g[mask], h[mask]), (rows[~mask], g[~mask], h[~mask])]
    hists = [None, None]
    small = int(len(kids[1][0]) < len(kids[0][0]))
    if any(depth + 1 < p.max_depth and len(k[0]) >= 2 * p.min_leaf
           for k in kids):
        hists[small] = ctx.histogram(*kids[small])
        hists[1 - small] = hist - hists[small]
    node.left = _reference_recursive_tree(ctx, *kids[0], depth + 1, hists[0])
    node.right = _reference_recursive_tree(ctx, *kids[1], depth + 1, hists[1])
    return node


def _node_pairs(a, b):
    yield a, b
    if a.left is not None and b.left is not None:
        yield from _node_pairs(a.left, b.left)
        yield from _node_pairs(a.right, b.right)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_grower_matches_recursive_reference(data):
    rng, binned, bm = _layout(data.draw)
    n = binned.shape[0]
    params = gbdt.BoostParams(min_leaf=data.draw(st.integers(1, 12)),
                              max_depth=data.draw(st.integers(1, 6)))
    ctx = gbdt._HistContext(binned, bm, params)
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                              replace=False))
    g = rng.standard_normal(len(rows)) * data.draw(st.sampled_from([1e-3, 1.0, 50.0]))
    h = rng.random(len(rows)) + 0.05
    # a budget of one element scans one node per batch
    budget = data.draw(st.sampled_from([1, gbdt._SCAN_ELEMENTS]))
    with mock.patch.object(gbdt, "_SCAN_ELEMENTS", budget):
        got = ctx.build_tree(rows, g, h)
    want = _reference_recursive_tree(ctx, rows, g, h)
    assert got.structure() == want.structure()
    for a, b in _node_pairs(got, want):
        assert a.gain == b.gain
        assert a.value == b.value


@pytest.mark.parametrize("seed", range(4))
def test_level_grower_builds_left_child_directly_on_a_tie(seed):
    # the root splits 300/300 on column 0; which child is built directly
    # (and which by subtraction) shows in the rounding of deeper gains
    rng = np.random.default_rng(seed)
    n = 600
    x = np.hstack([(np.arange(n) % 2)[:, None], rng.random((n, 4))])
    mapper = gbdt.BinMapper.fit(x, 64)
    binned = mapper.transform(x)
    bm = gbdt.efb_bundle(binned, mapper.n_bins)
    params = gbdt.BoostParams(min_leaf=5, max_depth=4)
    ctx = gbdt._HistContext(binned, bm, params)
    g = (rng.standard_normal(n) + 50.0 * x[:, 0]) * 1e3 / 7
    h = rng.random(n) + 0.05
    rows = np.arange(n)
    got = ctx.build_tree(rows, g, h)
    want = _reference_recursive_tree(ctx, rows, g, h)
    assert (got.feature, got.bin_threshold) == (0, 0)
    assert got.structure() == want.structure()
    assert [a.gain for a, _ in _node_pairs(got, want)] \
        == [b.gain for _, b in _node_pairs(got, want)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_scan_of_k_nodes_matches_single_node_splits(data):
    rng, binned, bm = _layout(data.draw)
    n = binned.shape[0]
    params = gbdt.BoostParams(min_leaf=data.draw(st.integers(1, 12)))
    ctx = gbdt._HistContext(binned, bm, params)
    k = data.draw(st.integers(1, 6))
    counts = rng.integers(0, n + 1, k)
    rows = rng.integers(0, n, counts.sum())  # runs need not be sorted
    g = rng.standard_normal(len(rows)) * 10.0
    h = rng.random(len(rows)) + 0.05
    hist = ctx.histograms(rows, g, h, counts)
    budget = data.draw(st.sampled_from([1, 6 * len(ctx.gather),
                                        gbdt._SCAN_ELEMENTS]))
    ends = np.cumsum(counts)
    runs = [slice(e - c, e) for c, e in zip(counts, ends)]
    with mock.patch.object(gbdt, "_SCAN_ELEMENTS", budget):
        got = ctx.scan(hist, counts, [g[r].sum() for r in runs],
                       [h[r].sum() for r in runs])
    for i, r in enumerate(runs):
        assert np.array_equal(hist[i], ctx.histogram(rows[r], g[r], h[r]))
        assert got[i] == ctx.best_split(rows[r], g[r], h[r])


def _reference_efb_bundle(binned, n_bins):
    """Greedy bundling one (feature, bundle) boolean mask pass at a time:
    the loop the packed-bit masks replaced, kept as its reference."""
    if binned.shape[1] == 0:
        return bundle_layout([], n_bins)
    nonzero = binned != 0
    counts = nonzero.sum(axis=0)
    order = np.argsort(-counts, kind="stable")
    bundle_masks, bundles = [], []
    for f in order:
        placed = False
        for i, mask in enumerate(bundle_masks):
            if not np.any(mask & nonzero[:, f]):
                bundles[i].append(int(f))
                bundle_masks[i] = mask | nonzero[:, f]
                placed = True
                break
        if not placed:
            bundles.append([int(f)])
            bundle_masks.append(nonzero[:, f].copy())
    return bundle_layout(bundles, n_bins)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_efb_matches_reference_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 200))  # mostly not a multiple of 8 or 64
    m = data.draw(st.integers(1, 16))
    density = rng.random(m) ** data.draw(st.sampled_from([1, 3, 8]))
    binned = ((rng.random((n, m)) < density)
              * rng.integers(1, 4, (n, m))).astype(np.int32)
    n_bins = [4] * m
    got = gbdt.efb_bundle(binned, n_bins)
    want = _reference_efb_bundle(binned, n_bins)
    assert got == want


def _reference_bundle_columns(binned, bundle_map):
    """One masked fill per member, the first included: the loop that copying
    each bundle's first member replaced, kept as its reference. It computes
    in int32, whatever the width of the bins."""
    n = binned.shape[0]
    cols = np.zeros((n, len(bundle_map.bundles)), dtype=np.int32)
    for i, (bundle, start) in enumerate(zip(bundle_map.bundles,
                                            bundle_map.starts)):
        col = cols[:, i]
        col[:] = start
        taken = np.zeros(n, dtype=bool)
        for f in bundle:
            v = binned[:, f].astype(np.int32)
            hit = (v != 0) & ~taken
            col[hit] = bundle_map.first[f] + v[hit] - 1
            taken |= hit
    return cols


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bundle_columns_match_reference_loop(data):
    rng, binned, bm = _layout(data.draw)
    # bundles of multi-bin members: sparse columns
    sparse = ((rng.random(binned.shape) < 0.2)
              * rng.integers(1, 4, binned.shape)).astype(np.int32)
    n_bins = [4] * sparse.shape[1]
    for x, layout in ((binned, bm),
                      (sparse, gbdt.efb_bundle(sparse, n_bins))):
        got = gbdt.bundle_columns(x, layout)
        want = _reference_bundle_columns(x, layout)
        assert got.dtype == np.min_scalar_type(layout.n_slots)
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_transform_matches_searchsorted_per_column(data):
    """transform against one searchsorted(side="left") per column, on values
    that include NaN, infinities and the boundaries themselves, with row
    blocks of any size."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 40))
    widths = data.draw(st.lists(st.sampled_from([0, 1, 1, 2, 7, 255, 256]),
                                min_size=1, max_size=6))
    boundaries = [np.unique(rng.standard_normal(k)) for k in widths]
    x = np.stack([rng.choice(np.concatenate(
        [b, [np.nan, np.inf, -np.inf], rng.standard_normal(4)]), n)
        for b in boundaries], axis=1)
    if data.draw(st.booleans()):
        x = np.asfortranarray(x)
    mapper = gbdt.BinMapper(boundaries)
    block = data.draw(st.integers(1, 50))
    with mock.patch.object(gbdt, "_BIN_BLOCK_ROWS", block):
        got = mapper.transform(x)
    assert got.flags.f_contiguous
    # 256 boundaries make 257 bins, the first count past a byte
    assert got.dtype == (np.uint16 if max(widths) >= 256 else np.uint8)
    for j, b in enumerate(boundaries):
        assert np.array_equal(got[:, j], np.searchsorted(b, x[:, j],
                                                         side="left"))


def _int32_row_major_bins(mapper, x):
    """The oracle of the byte-wide layout: int32 bins in row-major order,
    one searchsorted per column."""
    out = np.empty(x.shape, dtype=np.int32)
    for j, b in enumerate(mapper.boundaries):
        out[:, j] = np.searchsorted(b, x[:, j], side="left")
    return out


def _int32_fit(ds, params, monkeypatch):
    """fit on the oracle's bins."""
    def bin_features(train, max_bins):
        x = np.asarray(train.features, dtype=np.float64)
        mapper = gbdt.BinMapper.fit(x, max_bins)
        return mapper, _int32_row_major_bins(mapper, x)

    with monkeypatch.context() as m:
        m.setattr(gbdt, "bin_features", bin_features)
        return gbdt.fit(ds, params)


def _int32_proba(ens, x):
    """Ensemble.predict_proba walked on the oracle's bins."""
    binned = _int32_row_major_bins(ens.mapper, x)
    scores = np.tile(ens.base_scores, (len(x), 1))
    for round_trees in ens.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += gbdt.predict_tree(tree, binned)
    return gbdt._softmax(scores)


def _assert_fit_matches_int32_binning(ds, params, monkeypatch):
    """Bundle columns, trees and class probabilities of a fit on the
    narrow bins equal those of the int32 oracle bit for bit."""
    x = ds.features
    mapper, binned = gbdt.bin_features(ds, params.max_bins)
    bm = gbdt.efb_bundle(binned, mapper.n_bins)
    oracle = _int32_row_major_bins(mapper, x)
    assert np.array_equal(binned, oracle)
    cols = gbdt.bundle_columns(binned, bm)
    assert np.array_equal(cols, _reference_bundle_columns(oracle, bm))
    got = gbdt.fit(ds, params)
    want = _int32_fit(ds, params, monkeypatch)
    assert [[asdict(t) for t in r] for r in got.trees] \
        == [[asdict(t) for t in r] for r in want.trees]
    assert np.array_equal(got.predict_proba(x), _int32_proba(want, x))
    return mapper, binned, bm, cols, got


def test_bundle_offsets_past_255_keep_training_lossless(monkeypatch):
    """C8 past a byte: three exclusive features of about 200 bins each
    share one bundle that spans more than 256 slots, so its column needs
    two bytes although every bin fits one. Bundle columns, trees and
    probabilities equal the int32 oracle's, and the trees equal an
    unbundled fit's."""
    rng = np.random.default_rng(11)
    n = 1500
    owner = rng.integers(0, 4, n)  # owner 3: all three sparse features 0
    x = np.zeros((n, 4))
    for j in range(3):
        rows = owner == j
        x[rows, j] = rng.integers(1, 240, rows.sum()) / 240.0
    x[:, 3] = rng.random(n)
    y = (owner + (x[:, 3] > 0.5)) % 3
    ds = encoded_dataset(x, y, ["a", "b", "c"])
    params = gbdt.BoostParams(rounds=4, min_leaf=10, max_depth=4)
    mapper, binned, bm, cols, got = _assert_fit_matches_int32_binning(
        ds, params, monkeypatch)
    assert binned.dtype == np.uint8
    sparse = next(b for b, bundle in enumerate(bm.bundles) if 0 in bundle)
    assert sorted(bm.bundles[sparse]) == [0, 1, 2]
    assert max(bm.first[f] for f in range(3)) - bm.starts[sparse] > 255
    assert cols.dtype == np.uint16 and cols.max() > 255
    monkeypatch.setattr(gbdt, "efb_bundle", singleton_bundles)
    unbundled = gbdt.fit(encoded_dataset(x.copy(), y, ["a", "b", "c"]),
                         params)
    for r_got, r_off in zip(got.trees, unbundled.trees):
        for t_got, t_off in zip(r_got, r_off):
            assert t_got.structure() == t_off.structure()


def test_max_bins_300_fit_matches_int32_binning(monkeypatch):
    """Above 256 bins a feature, bins are uint16: the fit equals the int32
    oracle's."""
    rng = np.random.default_rng(12)
    n = 2000
    x = rng.random((n, 3))
    x[:, 2] = rng.random(n) < 0.3
    y = ((x[:, 0] > 0.5).astype(int) + (x[:, 1] > 0.3) + x[:, 2]) % 3
    ds = encoded_dataset(x, y, ["a", "b", "c"])
    params = gbdt.BoostParams(rounds=4, max_bins=300, min_leaf=10,
                              max_depth=4)
    mapper, binned, _, _, _ = _assert_fit_matches_int32_binning(
        ds, params, monkeypatch)
    assert max(mapper.n_bins) > 256
    assert binned.dtype == np.uint16 and binned.flags.f_contiguous


def test_fit_zero_rounds_predicts_priors():
    rng = np.random.default_rng(0)
    ds = _random_dataset(rng, 100, 3, 2)
    n1 = int(np.sum(ds.labels == 1))
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=0))
    proba = ens.predict_proba(ds.features[:5])
    expect = np.array([(100 - n1) / 100, n1 / 100])
    assert np.allclose(proba, expect)


def test_fit_rejects_single_class():
    ds = encoded_dataset(np.random.default_rng(0).random((10, 2)),
                         np.zeros(10), ["a", "b"])
    with pytest.raises(gbdt.SingleClass):
        gbdt.fit(ds, gbdt.BoostParams())


@pytest.mark.parametrize("n, kept", [(130, 39), (131, 41)])
def test_fit_refuses_a_set_on_which_goss_keeps_too_few_rows(n, kept):
    # at the defaults GOSS keeps ceil(0.2 n) + ceil(0.1 n) rows, and a root
    # split needs 2 * min_leaf = 40 of them
    ds = _random_dataset(np.random.default_rng(n), n, 3, 2)
    params = gbdt.BoostParams(rounds=2)
    if kept >= 2 * params.min_leaf:
        assert len(gbdt.fit(ds, params).trees) == 2
        return
    with pytest.raises(gbdt.TooFewRows,
                       match=f"GOSS keeps {kept} of {n} training rows; a "
                             r"tree needs 2 \* min_leaf \(20\) to split"
                       ) as raised:
        gbdt.fit(ds, params)
    assert isinstance(raised.value, InputError)


def test_depth_zero_leaf_is_weighted_mean():
    # squared-error harness: with hessians 1, lam 0 and no shrinkage, the
    # root leaf value -sum(g)/n is the mean residual, the squared-loss
    # minimizer; a column of one bin cannot split, so the root stays a leaf
    rng = np.random.default_rng(1)
    n = 30
    residuals = rng.standard_normal(n)
    params = gbdt.BoostParams(max_depth=1, lam_leaf=0.0, min_leaf=1,
                              learning_rate=1.0)
    binned = np.zeros((n, 1), dtype=np.int32)
    ctx = gbdt._HistContext(binned, bundle_layout([[0]], [1]), params)
    tree = ctx.build_tree(np.arange(n), residuals, np.ones(n))
    assert tree.is_leaf
    assert np.isclose(tree.value, -residuals.mean())


def test_fit_separable_data_perfect_accuracy():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(0, 0.4, size=(100, 1)),
                        rng.uniform(0.6, 1.0, size=(100, 1))])
    y = np.array([0] * 100 + [1] * 100)
    ds = encoded_dataset(x, y, ["lo", "hi"])
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=5, goss_a=1.0, goss_b=0.0,
                                        min_leaf=5))
    assert np.mean(ens.predict(x) == y) == 1.0


def test_fit_training_loss_monotone():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 300, 5, 3)
    # mix in signal so boosting has something to fit
    x = ds.features
    x[:, 0] = ds.labels / 2.0 + rng.normal(0, 0.2, size=len(ds))
    params = gbdt.BoostParams(rounds=12, goss_a=1.0, goss_b=0.0, min_leaf=5,
                              max_depth=3)
    ens = gbdt.fit(ds, params)
    onehot = np.eye(3)[ds.labels]
    losses = []
    scores = np.tile(ens.base_scores, (len(ds), 1))
    binned = ens.mapper.transform(x)
    for round_trees in [[]] + ens.trees:
        for k, tree in enumerate(round_trees):
            scores[:, k] += gbdt.predict_tree(tree, binned)
        p = gbdt._softmax(scores)
        losses.append(-np.mean(np.sum(onehot * np.log(p), axis=1)))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_efb_training_is_lossless(monkeypatch):
    rng = np.random.default_rng(4)
    n = 1000
    # one-hot heavy design: three exclusive blocks plus two numerics
    blocks = []
    for width in (4, 3, 5):
        pick = rng.integers(0, width, size=n)
        blocks.append(np.eye(width)[pick])
    num = rng.random((n, 2))
    x = np.hstack(blocks + [num])
    y = (blocks[0].argmax(1) + (num[:, 0] > 0.5)) % 3
    ds_on = encoded_dataset(x, y, ["a", "b", "c"])
    ds_off = encoded_dataset(x.copy(), y, ["a", "b", "c"])
    params = gbdt.BoostParams(rounds=8, min_leaf=10, max_depth=4)
    mapper, binned = gbdt.bin_features(ds_on, params.max_bins)
    # bundling happened
    assert len(gbdt.efb_bundle(binned, mapper.n_bins).bundles) < x.shape[1]
    e_on = gbdt.fit(ds_on, params)
    monkeypatch.setattr(gbdt, "efb_bundle", singleton_bundles)
    e_off = gbdt.fit(ds_off, params)
    for r_on, r_off in zip(e_on.trees, e_off.trees):
        for t_on, t_off in zip(r_on, r_off):
            assert t_on.structure() == t_off.structure()


def _leaves_with_rows(node, binned, rows):
    """(leaf, the positions in rows of the rows it holds), in rows' order."""
    stack = [(node, np.arange(len(rows)))]
    while stack:
        nd, pos = stack.pop()
        if nd.is_leaf:
            yield nd, pos
            continue
        left = binned[rows[pos], nd.feature] <= nd.bin_threshold
        stack += [(nd.left, pos[left]), (nd.right, pos[~left])]


@pytest.mark.parametrize("seed", range(3))
def test_leaves_hold_shrunk_values_and_scores_are_their_sums(seed):
    # each leaf of a fit holds learning_rate * (-G / (H + lam_leaf)) of the
    # GOSS-weighted rows it holds, bit for bit, so that scoring is the base
    # scores plus the plain sum of the trees' outputs
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng, 300, 4, 3)
    params = gbdt.BoostParams(rounds=4, learning_rate=0.3, min_leaf=5,
                              max_depth=3)
    ens = gbdt.fit(ds, params, seed)
    _, binned = gbdt.bin_features(ds, params.max_bins)
    y = ds.labels
    scores = np.tile(ens.base_scores, (len(ds), 1))
    leaves = 0
    for m, round_trees in enumerate(ens.trees):
        p = gbdt._softmax(scores)
        for k, tree in enumerate(round_trees):
            g = p[:, k] - (y == k)
            h = np.maximum(p[:, k] * (1.0 - p[:, k]), 1e-12)
            idx, w = gbdt.goss_sample(g, params.goss_a, params.goss_b,
                                      seed=seed * 100003 + m * 31 + k)
            gw, hw = g[idx] * w, h[idx] * w
            for leaf, pos in _leaves_with_rows(tree, binned, idx):
                want = params.learning_rate * (
                    -gw[pos].sum() / (hw[pos].sum() + params.lam_leaf))
                assert leaf.value == want
                leaves += 1
            scores[:, k] += gbdt.predict_tree(tree, binned)
    assert leaves > len(ens.trees) * 3  # the trees split
    x = rng.random((50, 4))
    want = np.tile(ens.base_scores, (50, 1))
    for round_trees in ens.trees:
        for k, tree in enumerate(round_trees):
            want[:, k] += gbdt.predict_tree(tree, ens.mapper.transform(x))
    assert np.array_equal(ens.raw_scores(x), want)


def test_predict_proba_sums_to_one(rng):
    ds = _random_dataset(rng, 120, 4, 3)
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=4, min_leaf=5))
    p = ens.predict_proba(rng.random((10, 4)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_single_leaf_shifts_probability():
    rng = np.random.default_rng(5)
    ds = _random_dataset(rng, 60, 2, 2)
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=0))
    row = rng.random(2)
    before = ens.predict_proba(row)
    ens.trees.append([gbdt.TreeNode(value=1.0), gbdt.TreeNode(value=0.0)])
    after = ens.predict_proba(row)
    assert after[0] > before[0]
    # hand softmax: a leaf's value is the score it adds, so the logits
    # shift by (1, 0)
    z = np.log(before) + np.array([1.0, 0.0])
    expect = np.exp(z) / np.exp(z).sum()
    assert np.allclose(after, expect)


def test_predict_rejects_wrong_width(rng):
    ds = _random_dataset(rng, 50, 3, 2)
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=1, min_leaf=5))
    with pytest.raises(ShapeMismatch):
        ens.predict(rng.random((2, 5)))


def test_fit_deterministic(rng):
    ds = _random_dataset(rng, 150, 4, 3)
    a = gbdt.fit(ds, gbdt.BoostParams(rounds=5, min_leaf=5), 3)
    b = gbdt.fit(ds, gbdt.BoostParams(rounds=5, min_leaf=5), 3)
    assert archive._dumps(asdict(a)) == archive._dumps(asdict(b))


def test_ensemble_serialization_roundtrip(rng):
    ds = _random_dataset(rng, 80, 3, 2)
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=3, min_leaf=5))
    clone = decode(gbdt.Ensemble, json.loads(archive._dumps(asdict(ens))))
    x = rng.random((7, 3))
    assert np.array_equal(clone.raw_scores(x), ens.raw_scores(x))


def test_boost_params_validation():
    with pytest.raises(gbdt.InvalidFraction):
        gbdt.BoostParams(goss_a=0.7, goss_b=0.5)
    with pytest.raises(ValueError):
        gbdt.BoostParams(rounds=-1)
