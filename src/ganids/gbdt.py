"""Histogram gradient-boosted trees with one-side sampling and feature
bundling, used as the intrusion-detection classifier.

Multiclass is handled as softmax boosting: one tree per class per round on
the cross-entropy gradients. A leaf stores the second-order value
-G/(H + lambda) shrunk by the learning rate, so scoring sums leaf values.
Bundling only accelerates histogram construction; split search always runs
per original feature, so bundling never changes the fitted trees.

Histogram layout: efb_bundle lays out one slot space. Bundle b owns the
slot starts[b], where a row falls when every member is at bin 0, and
feature f's bins 1..nb-1 are the contiguous slots from first[f] on, each
bundle's members in turn. bundle_columns writes each row's slot per
bundle, so a node's histogram is one bincount each of count, g and h over
those keys (plus one always-empty slot). A feature's bin 0 is the node
total minus its other bins.

Level batches: a tree grows one depth level at a time. The rows of a level's
nodes sit in consecutive runs, each in its parent's row order. Adding
node * (slots + 1) to the keys gives every node its own slot range, so one
bincount builds the histograms of all of a level's smaller children. One
split scan then serves all of the level's open nodes, in batches of nodes
whose gathered bins stay within a fixed element budget (_SCAN_ELEMENTS), so
scan memory does not grow with 2**depth. The histograms of a level's open
nodes are alive together: at most 2**depth of them, and at most one per
2 * min_leaf rows.

Split scan: every feature's bins are gathered at once, grouped by bin count
into (nodes, 3, features, nb) blocks; per block one sum fills bin 0 and one
cumsum gives the left-side count, g and h of every threshold. Sums run over
exactly the feature's own bins, in the same order as a per-feature loop, so
on a directly built histogram the gains are the loop's bit for bit, and a
node's gains do not depend on which nodes share its batch. (Padding all
features to one width would change the summation order of bin 0, and with
it which of two equal-gain splits wins.) Among candidates within
1e-12 * max(1, best gain) of the best gain (and above 0, with min_leaf rows
on each side) the lowest (feature, bin) wins: the tolerance is relative, so
splits that tie up to rounding tie at any gain scale.

Siblings: the histogram is built for the smaller child only; the larger
child's is the parent's minus it (LightGBM's histogram subtraction). Counts
are exact; g and h differ from a direct build only by rounding.

The level grower, `_HistContext.build_tree`, is the one caller of
`histograms` and `scan`, the root being a level of one node. The tests'
one-node references (histogram, split search, split gain, tree shape) are
in tests/reference.py.

Per-row state: the bin matrix is Fortran-ordered, one contiguous column
per feature, so the row partition reads one contiguous column, and its
type is the narrowest unsigned one that holds every bin id (uint8 at the
default max_bins). The bundle columns are of the narrowest unsigned type
that holds the slot count. LightGBM also keeps its binned features per
column in the narrowest integer type.

Bundling is exact: the members of a bundle are never nonzero on the same
row, so a bundle column decodes back to each member's bins. It packs each
feature's nonzero mask into 64-bit words, so whether a feature overlaps
each open bundle is one AND over the words, and its nonzero count one
popcount (np.bitwise_count, numpy >= 2.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import Dataset, EmptyDataset, PreprocessPlan, is_finite_real
from .errors import InputError, NonFiniteValue, ShapeMismatch, check_finite


class SingleClass(InputError, ValueError):
    pass


class InvalidFraction(ValueError):
    pass


class TooFewRows(InputError, ValueError):
    """GOSS keeps fewer training rows than a split needs, so no tree of a
    fit could split."""


@dataclass
class BoostParams:
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 8
    max_bins: int = 255
    min_leaf: int = 20
    goss_a: float = 0.2
    goss_b: float = 0.1
    lam_leaf: float = 1.0

    def __post_init__(self):
        _check_fractions(self.goss_a, self.goss_b)
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        # one bin holds every value, so no tree could split
        if self.max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        if not 0 <= self.lam_leaf < math.inf:
            raise ValueError("lam_leaf must be >= 0 and finite")


# ---------------------------------------------------------------------------
# binning

# Rows of one-boundary columns compared at a time: the float copy one
# comparison makes stays at 16 KB a column, whatever the row count.
_BIN_BLOCK_ROWS = 1 << 11


@dataclass
class BinMapper:
    """Quantile bin boundaries per feature; raw value -> bin id in [0, bins).

    Values equal to a boundary fall in the lower bin. Features with few
    distinct values get one bin per distinct value. A feature's boundaries
    are a 1-D float64 array of finite values in ascending order.
    """

    boundaries: list[np.ndarray]

    def __post_init__(self):
        for j, b in enumerate(self.boundaries):
            if b.ndim != 1 or not np.isfinite(b).all() \
                    or np.any(b[1:] < b[:-1]):
                raise ValueError(f"boundaries: [{j}]: not finite numbers "
                                 "in ascending order")

    @property
    def n_bins(self):
        return [len(b) + 1 for b in self.boundaries]

    @property
    def dtype(self):
        """The narrowest unsigned type that holds every bin id: uint8 while
        no feature has more than 256 bins (max_bins 255 gives at most 255),
        else uint16."""
        return np.min_scalar_type(max(self.n_bins, default=1) - 1)

    @staticmethod
    def fit(matrix, max_bins):
        if matrix.shape[0] == 0:
            raise EmptyDataset("cannot fit bins on an empty matrix")
        bounds = []
        for j in range(matrix.shape[1]):
            col = matrix[:, j]
            distinct = np.unique(col)
            if len(distinct) <= max_bins:
                b = (distinct[:-1] + distinct[1:]) / 2.0
            else:
                qs = np.quantile(col, np.arange(1, max_bins) / max_bins)
                b = np.unique(qs)
            bounds.append(np.asarray(b, dtype=np.float64))
        return BinMapper(bounds)

    def transform(self, matrix):
        """Bin ids of every value, as searchsorted(b, x, side="left") gives
        them per column (NaN in the last bin), in a Fortran-ordered matrix
        of self.dtype, so that one feature's bins are one contiguous
        column. Columns of one boundary, most of a one-hot encoding, are
        binned together by one comparison per block of rows."""
        n = matrix.shape[0]
        out = np.empty(matrix.shape, dtype=self.dtype, order="F")
        single = [j for j, b in enumerate(self.boundaries) if len(b) == 1]
        if single:
            at = np.array([self.boundaries[j][0] for j in single])
            for a in range(0, n, _BIN_BLOCK_ROWS):
                block = matrix[a:a + _BIN_BLOCK_ROWS, single]
                # bin 1 unless x <= b, so NaN falls in bin 1
                out[a:a + _BIN_BLOCK_ROWS, single] = ~(block <= at)
        for j, b in enumerate(self.boundaries):
            if len(b) != 1:
                out[:, j] = np.searchsorted(b, matrix[:, j], side="left")
        return out


def bin_features(train: Dataset, max_bins):
    """Fit the bin mapper on a training set and bin its matrix."""
    if len(train) == 0:
        raise EmptyDataset("cannot bin an empty dataset")
    matrix = np.asarray(train.features, dtype=np.float64)
    mapper = BinMapper.fit(matrix, max_bins)
    return mapper, mapper.transform(matrix)


# ---------------------------------------------------------------------------
# GOSS


def _check_fractions(a, b):
    # in the positive form, which a NaN fails
    if not (0 <= a and 0 <= b and a + b <= 1):
        raise InvalidFraction(f"GOSS fractions must satisfy 0 <= goss_a, "
                              f"0 <= goss_b and goss_a + goss_b <= 1, got "
                              f"goss_a={a!r}, goss_b={b!r}")


def _goss_counts(n, a, b):
    """(top rows, sampled rows) that goss_sample keeps of n."""
    top_n = math.ceil(a * n)
    return top_n, min(math.ceil(b * n), n - top_n)


def goss_sample(gradients, a, b, seed):
    """Keep the top ceil(a*n) rows by |gradient|, sample ceil(b*n) of the
    rest uniformly with compensating weight (1-a)/b."""
    g = np.asarray(gradients, dtype=np.float64)
    n = len(g)
    if n == 0:
        raise InvalidFraction("empty gradient vector")
    _check_fractions(a, b)
    order = np.argsort(-np.abs(g), kind="stable")
    top_n, rand_n = _goss_counts(n, a, b)
    top = order[:top_n]
    rest = order[top_n:]
    rng = np.random.default_rng(seed)
    sampled = rng.choice(rest, size=rand_n, replace=False) if rand_n else rest[:0]
    idx = np.concatenate([top, sampled])
    weights = np.ones(len(idx))
    if rand_n and b > 0:
        weights[top_n:] = (1.0 - a) / b
    srt = np.argsort(idx, kind="stable")
    return idx[srt], weights[srt]


# ---------------------------------------------------------------------------
# EFB


@dataclass
class BundleMap:
    """Groups of mutually exclusive features and their histogram slots:
    bundle b's rows with every member at bin 0 fall in slot starts[b], and
    feature f's bins 1..nb-1 in the slots from first[f] on."""

    bundles: list          # list of lists of feature ids
    starts: list           # per bundle: its slot of every member at bin 0
    first: list            # per original feature: the slot of its bin 1
    n_slots: int           # of all bundles together
    n_bins: list           # per original feature


def efb_bundle(binned, n_bins) -> BundleMap:
    """Greedy exclusive-feature bundling on a binned matrix, and the slot
    layout of the bundles.

    Features are taken by descending nonzero count; each joins the first
    bundle none of whose members is nonzero on a row where it is, else
    opens a new one. Nonzero masks are packed 64 rows to a word, so one AND
    with every open bundle's mask finds the bundles a feature overlaps.
    Each bundle's slots follow the previous bundle's: its bin-0 slot, then
    each member's bins 1..nb-1 in member order.
    """
    n, m = binned.shape
    if m == 0:
        return BundleMap([], [], [], 0, list(n_bins))
    # one row of bytes per feature, zero-padded to whole 64-bit words
    packed = np.zeros((m, (n + 63) // 64 * 8), dtype=np.uint8)
    packed[:, :(n + 7) // 8] = np.packbits(
        np.ascontiguousarray(binned.T != 0), axis=1)
    packed = packed.view(np.uint64)
    counts = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    masks = np.zeros((m, packed.shape[1]), dtype=np.uint64)
    bundles = []
    for f in order:
        fits = np.flatnonzero(~np.any(masks[:len(bundles)] & packed[f],
                                      axis=1))
        if len(fits):
            i = fits[0]
            bundles[i].append(int(f))
        else:
            i = len(bundles)
            bundles.append([int(f)])
        masks[i] |= packed[f]
    starts, first, slot = [], [0] * m, 0
    for bundle in bundles:
        starts.append(slot)
        slot += 1
        for f in bundle:
            first[f] = slot
            slot += n_bins[f] - 1
    return BundleMap(bundles, starts, first, slot, list(n_bins))


def bundle_columns(binned, bundle_map: BundleMap):
    """Each row's histogram slot in each bundle: the bundle's start when
    every member is at bin 0, else first[f] + bin - 1 of its one nonzero
    member f. The columns are of the narrowest unsigned type that holds
    the slot count."""
    dtype = np.min_scalar_type(bundle_map.n_slots)
    cols = np.empty((binned.shape[0], len(bundle_map.bundles)), dtype=dtype)
    first = bundle_map.first
    for i, (bundle, start) in enumerate(zip(bundle_map.bundles,
                                            bundle_map.starts)):
        # efb_bundle puts a first member's bin 1 right after the bundle's
        # start, so its bins shifted by start are the column; members are
        # exclusive, so later members fill rows still at the start
        col = cols[:, i]
        col[:] = binned[:, bundle[0]]
        col += start
        for f in bundle[1:]:
            v = binned[:, f]
            hit = v != 0
            # widened first: in a uint8 bin's own type, first + bin - 1
            # wraps past 255
            col[hit] = v[hit].astype(dtype) + (first[f] - 1)
    return cols


# ---------------------------------------------------------------------------
# trees


@dataclass
class TreeNode:
    """A leaf (feature -1, no children), or a split on a feature >= 0 with
    a bin_threshold >= 0 and two children; gain and value are finite. A
    leaf's value is the score it adds, the learning rate already applied."""

    feature: int = -1
    bin_threshold: int = -1   # go left when bin <= threshold
    gain: float = 0.0
    value: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None

    def __post_init__(self):
        children = (self.left is not None) + (self.right is not None)
        if not (self.feature == -1 and children == 0 or self.feature >= 0
                and self.bin_threshold >= 0 and children == 2):
            raise ValueError("not a leaf (feature -1, no children) nor a "
                             "split (feature and bin_threshold >= 0, two "
                             "children)")
        if not (is_finite_real(self.gain) and is_finite_real(self.value)):
            raise ValueError("gain and value must be finite")

    @property
    def is_leaf(self):
        return self.feature < 0


def _leaf(gsum, hsum, p: BoostParams):
    """The leaf that adds the optimal value for its rows' g and h sums,
    shrunk by the learning rate, to their scores. Extreme settings (a huge
    learning rate, a GOSS weight (1 - goss_a) / goss_b past float range)
    overflow the sums or the value, and a leaf value that is not finite
    raises NonFiniteValue."""
    value = p.learning_rate * (-gsum / (hsum + p.lam_leaf))
    if not math.isfinite(value):
        raise NonFiniteValue(f"a boosting leaf value of {value}")
    return TreeNode(value=value)


# Elements of gathered bins one scan batch may hold: a level is scanned
# in batches of nodes, so scan memory does not grow with 2**depth.
_SCAN_ELEMENTS = 1 << 18


class _HistContext:
    """Shared per-fit state: binned columns, the histogram slot layout and
    the gather indexes the split scan reads it through."""

    def __init__(self, binned, bundle_map, params):
        self.binned = binned
        self.params = params
        self.n_slots = bundle_map.n_slots
        # each row's slot in each bundle: one bincount per level
        self.flat = bundle_columns(binned, bundle_map)
        self.n_bundles = self.flat.shape[1]
        # every splittable feature reads its bins 0..nb-1 from the histogram;
        # ordered by (nb, feature), the features of one bin count form a
        # (features, nb) block. Bin 0 reads the empty last slot and is filled
        # in per node.
        n_bins, first = bundle_map.n_bins, bundle_map.first
        gather, base, self.groups = [], {}, []
        for nb, f in sorted((nb, f) for f, nb in enumerate(n_bins) if nb >= 2):
            if not self.groups or self.groups[-1][2] != nb:
                self.groups.append([len(gather), len(gather), nb])
            base[f] = len(gather)
            gather += [self.n_slots] + list(range(first[f], first[f] + nb - 1))
            self.groups[-1][1] = len(gather)
        self.gather = np.asarray(gather, dtype=np.intp)
        # split candidates (go left when bin <= t, t < nb - 1) in
        # (feature, bin) order, as positions into the gathered bins
        cand = [(f, t) for f in sorted(base) for t in range(n_bins[f] - 1)]
        self.cand_feature = np.asarray([f for f, _ in cand], dtype=np.intp)
        self.cand_bin = np.asarray([t for _, t in cand], dtype=np.intp)
        self.cand_pos = np.asarray([base[f] + t for f, t in cand],
                                   dtype=np.intp)

    def histograms(self, rows, g, h, counts):
        """(k, 3, n_slots + 1) array of per-slot count, g sum and h sum of k
        nodes whose rows are consecutive runs of counts[i] rows; the last
        slot of each node stays empty."""
        k, size = len(counts), self.n_slots + 1
        # converted once, not by each bincount
        keys = self.flat[rows].astype(np.intp)
        if k > 1:  # node i's slots start at i * size
            keys += np.repeat(np.arange(0, k * size, size), counts)[:, None]
        keys = keys.ravel()
        weights = np.empty((len(rows), self.n_bundles))
        hist = np.empty((3, k * size))
        hist[0] = np.bincount(keys, minlength=k * size)
        for i, w in ((1, g), (2, h)):
            weights[...] = w[:, None]
            hist[i] = np.bincount(keys, weights.ravel(), minlength=k * size)
        return hist.reshape(3, k, size).transpose(1, 0, 2)

    def scan(self, hist, n_rows, g_tot, h_tot):
        """Best (gain, feature, bin) of each of k nodes, or None, from their
        k (3, n_slots + 1) histograms, row counts and g and h sums. Among
        candidates within 1e-12 * max(1, best gain) of a node's best gain
        the lowest (feature, bin) wins."""
        p = self.params
        if len(self.cand_pos) == 0:
            return [None] * len(hist)
        out = []
        totals = np.array([n_rows, g_tot, h_tot], dtype=np.float64).T[:, :, None]
        step = max(1, _SCAN_ELEMENTS // (3 * len(self.gather)))
        for a in range(0, len(hist), step):
            tot = totals[a:a + step]
            n, gt, ht = tot[:, 0], tot[:, 1], tot[:, 2]
            k = len(tot)
            bins = np.empty((k, 3, len(self.gather)))
            for node_bins, node_hist in zip(bins, hist[a:a + step]):
                # every index is valid; mode="raise" would buffer out
                node_hist.take(self.gather, axis=1, out=node_bins, mode="clip")
            for lo, hi, nb in self.groups:
                block = bins[:, :, lo:hi].reshape(k, 3, -1, nb)
                # bin 0 is the node total minus the feature's other bins
                np.subtract(tot, np.add.reduce(block[..., 1:], axis=3),
                            out=block[..., 0])
                if nb > 2:  # a candidate reads bins 0..nb-2 only
                    head = block[..., :-1]
                    np.add.accumulate(head, axis=3, out=head)
            cl, gll, hll = bins.take(self.cand_pos, axis=2).transpose(1, 0, 2)
            # gll² / (hll + lam) + (gt - gll)² / (ht - hll + lam)
            # - gt² / (ht + lam), evaluated in place
            gains = gll * gll
            gains /= hll + p.lam_leaf
            right = gt - gll
            right *= right
            den = ht - hll
            den += p.lam_leaf
            right /= den
            gains += right
            gains -= gt * gt / (ht + p.lam_leaf)
            gains[(cl < p.min_leaf) | (n - cl < p.min_leaf)] = -np.inf
            top = gains.max(axis=1, keepdims=True)
            # a masked candidate stays -inf; an overflow (a GOSS weight
            # (1 - goss_a) / goss_b past float range) makes a gain inf or
            # NaN, and then no split would be found
            bad = top[~(top < np.inf)]
            if len(bad):
                raise NonFiniteValue(f"a split gain of {bad[0]}")
            tol = 1e-12 * np.maximum(1.0, top)
            best = np.argmax((gains >= top - tol) & (gains > 0), axis=1)
            for j, i in enumerate(best):
                out.append((float(gains[j, i]), int(self.cand_feature[i]),
                            int(self.cand_bin[i])) if top[j, 0] > 0 else None)
        return out

    def _splittable(self, n_rows, depth):
        p = self.params
        return depth < p.max_depth and n_rows >= 2 * p.min_leaf

    def build_tree(self, rows, g, h):
        """Grow a tree on rows, one depth level at a time.

        rows and gh (g over h) hold the rows of a level's nodes in
        consecutive runs, each in its parent's row order. One scan finds
        the splits of all open nodes. Of each split with an open child, the
        smaller child (the left one on a tie) leads the next level's runs,
        so one bincount over the leading rows builds all of their
        histograms; the larger child's is the parent's minus it."""
        p = self.params
        g_sum, h_sum = g.sum(), h.sum()
        root = _leaf(g_sum, h_sum, p)
        if not self._splittable(len(rows), 0):
            return root
        gh = np.stack([g, h])
        # per open node: node, start of its run, row count, g sum, h sum
        level = [(root, 0, len(rows), g_sum, h_sum)]
        hist = list(self.histograms(rows, g, h, [len(rows)]))  # per open node
        depth = 0
        while True:
            _, _, counts, g_sums, h_sums = zip(*level)
            splits = self.scan(hist, counts, g_sums, h_sums)
            depth += 1
            # children as (node, rows, gh, g sum, h sum); lead holds
            # (child, is open), follow holds (child, parent's position in
            # level, the position in lead of its smaller sibling)
            lead, follow = [], []
            for j, ((node, a, n, _, _), best) in enumerate(zip(level, splits)):
                if best is None:
                    continue
                node.gain, node.feature, node.bin_threshold = best
                run, run_gh = rows[a:a + n], gh[:, a:a + n]
                go_left = self.binned[:, best[1]].take(run) <= best[2]
                kids = []
                for side in (go_left, ~go_left):
                    kid_gh = run_gh.compress(side, axis=1)
                    gs, hs = kid_gh[0].sum(), kid_gh[1].sum()
                    kid = _leaf(gs, hs, p)
                    kids.append((kid, run.compress(side), kid_gh, gs, hs))
                node.left, node.right = kids[0][0], kids[1][0]
                is_open = [self._splittable(len(k[1]), depth) for k in kids]
                small = int(len(kids[1][1]) < len(kids[0][1]))
                if is_open[1 - small]:
                    follow.append((kids[1 - small], j, len(lead)))
                if any(is_open):
                    lead.append((kids[small], is_open[small]))
            if not lead:
                return root
            kids = [k for k, _ in lead] + [k for k, _, _ in follow]
            counts = [len(k[1]) for k in kids]
            starts = list(accumulate(counts, initial=0))
            rows = np.concatenate([k[1] for k in kids])
            gh = np.concatenate([k[2] for k in kids], axis=1)
            m = starts[len(lead)]
            small_hist = self.histograms(rows[:m], gh[0, :m], gh[1, :m],
                                         counts[:len(lead)])
            # the next level: the open smaller children, then the larger
            keep = [i for i, (_, is_open) in enumerate(lead) if is_open]
            keep += range(len(lead), len(kids))
            level = [(kids[i][0], starts[i], counts[i]) + kids[i][3:]
                     for i in keep]
            hist = [small_hist[i] for i in keep if i < len(lead)] + [
                hist[j] - small_hist[sibling] for _, j, sibling in follow]


def predict_tree(node: TreeNode, binned):
    """Evaluate one tree on a binned matrix."""
    out = np.empty(binned.shape[0])
    stack = [(node, np.arange(binned.shape[0]))]
    while stack:
        nd, rows = stack.pop()
        if nd.is_leaf:
            out[rows] = nd.value
            continue
        # one column gathered, then compressed: about half the time of
        # 2-D fancy indexing
        mask = binned[:, nd.feature].take(rows) <= nd.bin_threshold
        stack.append((nd.left, rows.compress(mask)))
        stack.append((nd.right, rows.compress(~mask)))
    return out


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class Ensemble:
    """A fitted model. Each round has one tree per class, base_scores one
    finite score per class, and every split reads a fitted column at a bin
    threshold below that column's boundary count. A row's scores are the
    base scores plus its leaf values, which hold the learning rate. Each
    fitted column has its own feature name, each an encoded column of the
    plan if there is one. `fit` leaves the plan None; `dataclasses.replace`
    attaches one and checks again."""

    trees: list[list[TreeNode]]  # trees[round][class]
    base_scores: np.ndarray      # (K,)
    mapper: BinMapper
    classes: list[str]           # the class list of the training schema
    feature_names: list[str]
    # the encoding whose columns feature_names selects from
    plan: PreprocessPlan | None = None

    def __post_init__(self):
        k = len(self.classes)
        if self.base_scores.shape != (k,) \
                or not np.isfinite(self.base_scores).all():
            raise ValueError(f"base_scores: not {k} finite scores, one per "
                             "class")
        widths = [len(b) for b in self.mapper.boundaries]
        names = self.feature_names
        if not len(widths) == len(names) == len(set(names)):
            raise ValueError(f"feature_names: {len(set(names))} distinct "
                             f"names for {len(widths)} fitted columns")
        encoded = set(self.plan.encoded_names() if self.plan else names)
        unknown = [n for n in names if n not in encoded]
        if unknown:
            raise ValueError(f"feature_names: {unknown} are not columns of "
                             "the encoding plan")
        for r, rnd in enumerate(self.trees):
            if len(rnd) != k:
                raise ValueError(f"trees: [{r}]: {len(rnd)} trees for {k} "
                                 "classes")
            stack = [(t, f"trees: [{r}]: [{c}]") for c, t in enumerate(rnd)]
            while stack:
                nd, at = stack.pop()
                if nd.is_leaf:
                    continue
                if not (nd.feature < len(widths)
                        and nd.bin_threshold < widths[nd.feature]):
                    raise ValueError(
                        f"{at}: a split at bin {nd.bin_threshold} of feature "
                        f"{nd.feature}, beyond the {len(widths)} fitted "
                        "columns' boundaries")
                stack += [(nd.left, f"{at}: left"), (nd.right, f"{at}: right")]

    def raw_scores(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[1] != len(self.mapper.boundaries):
            raise ShapeMismatch(
                f"row width {matrix.shape[1]} does not match fitted layout "
                f"{len(self.mapper.boundaries)}")
        binned = self.mapper.transform(matrix)
        scores = np.tile(self.base_scores, (matrix.shape[0], 1))
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += predict_tree(tree, binned)
        return check_finite(scores, "boosting score")

    def predict_proba(self, matrix):
        one = np.asarray(matrix, dtype=np.float64)
        squeeze = one.ndim == 1
        if squeeze:
            one = one[None, :]
        p = _softmax(self.raw_scores(one))
        return p[0] if squeeze else p

    def predict(self, matrix):
        return np.argmax(self.raw_scores(np.atleast_2d(
            np.asarray(matrix, dtype=np.float64))), axis=1)

    def feature_importance(self):
        """Total split gain per feature, aligned with feature_names."""
        imp = np.zeros(len(self.mapper.boundaries))
        stack = [t for rnd in self.trees for t in rnd]
        while stack:
            nd = stack.pop()
            if not nd.is_leaf:
                imp[nd.feature] += nd.gain
                stack.extend([nd.left, nd.right])
        return imp


def _softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def fit(train: Dataset, params: BoostParams, seed=0) -> Ensemble:
    """The ensemble of params.rounds rounds on train; seed (>= 0) drives
    GOSS's row sampling, the one random draw of a fit."""
    if len(train) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    y = train.labels
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClass("training data contains a single class")
    k_total = len(train.schema.classes)
    n = len(train)
    kept = sum(_goss_counts(n, params.goss_a, params.goss_b))
    if params.rounds and kept < 2 * params.min_leaf:
        raise TooFewRows(f"GOSS keeps {kept} of {n} training rows; a tree "
                         f"needs 2 * min_leaf ({params.min_leaf}) to split")

    mapper, binned = bin_features(train, params.max_bins)
    ctx = _HistContext(binned, efb_bundle(binned, mapper.n_bins), params)

    priors = np.bincount(y, minlength=k_total).astype(np.float64)
    priors = np.maximum(priors, 1e-12) / n
    base = np.log(priors)
    scores = np.tile(base, (n, 1))

    trees = []
    for m in range(params.rounds):
        p = _softmax(scores)
        round_trees = []
        for k in range(k_total):
            g = p[:, k] - (y == k)  # the one-hot target of class k
            h = np.maximum(p[:, k] * (1.0 - p[:, k]), 1e-12)
            idx, w = goss_sample(g, params.goss_a, params.goss_b,
                                 seed=seed * 100003 + m * 31 + k)
            tree = ctx.build_tree(idx, g[idx] * w, h[idx] * w)
            scores[:, k] += predict_tree(tree, binned)
            round_trees.append(tree)
        check_finite(scores, "boosting score")
        trees.append(round_trees)
    return Ensemble(trees, base, mapper, list(train.schema.classes),
                    list(train.feature_names))
