"""Histogram gradient-boosted trees with one-side sampling and feature
bundling, used as the intrusion-detection classifier.

Multiclass is handled as softmax boosting: one tree per class per round on
the cross-entropy gradients, second-order leaf values -G/(H + lambda).
Bundling only accelerates histogram construction; split search always runs
per original feature, so bundling never changes the fitted trees.

Histogram layout: bundle b owns slots [start_b, start_b + size_b) of one
slot space, and each row's bundle columns are stored already shifted by
start_b, so a node's histogram is one bincount each of count, g and h over
those keys (plus one always-empty slot). A feature's bins 1..nb-1 are
contiguous slots; its bin 0 is the node total minus those bins.

Split scan: every feature's bins are gathered at once, grouped by bin count
into (features, nb) blocks; per block one sum fills bin 0 and one cumsum
gives the left-side count, g and h of every threshold. Sums run over exactly
the feature's own bins, in the same order as a per-feature loop, so on a
directly built histogram the gains are the loop's bit for bit. (Padding all
features to one width would change the summation order of bin 0, and with
it which of two equal-gain splits wins.) Among candidates within 1e-12 of
the best gain (and above 0, with min_leaf rows on each side) the lowest
(feature, bin) wins.

Siblings: the histogram is built for the smaller child only; the larger
child's is the parent's minus it (LightGBM's histogram subtraction). Counts
are exact; g and h differ from a direct build only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatch
from .data import Dataset, EmptyDataset


class SingleClass(ValueError):
    pass


class InvalidFraction(ValueError):
    pass


@dataclass
class BoostParams:
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 8
    max_bins: int = 255
    min_leaf: int = 20
    goss_a: float = 0.2
    goss_b: float = 0.1
    efb_max_conflict: float = 0.0
    use_efb: bool = True
    lam_leaf: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.goss_a < 0 or self.goss_b < 0 or self.goss_a + self.goss_b > 1:
            raise InvalidFraction("GOSS fractions must satisfy a, b >= 0, a+b <= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")

    def to_dict(self):
        return dict(vars(self))

    @staticmethod
    def from_dict(d):
        return BoostParams(**d)


# ---------------------------------------------------------------------------
# binning


class BinMapper:
    """Quantile bin boundaries per feature; raw value -> bin id in [0, bins).

    Values equal to a boundary fall in the lower bin. Features with few
    distinct values get one bin per distinct value.
    """

    def __init__(self, boundaries):
        self.boundaries = boundaries  # list of ascending float arrays

    @property
    def n_bins(self):
        return [len(b) + 1 for b in self.boundaries]

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
        out = np.empty(matrix.shape, dtype=np.int32)
        for j, b in enumerate(self.boundaries):
            out[:, j] = np.searchsorted(b, matrix[:, j], side="left")
        return out

    def to_dict(self):
        return {"boundaries": [b.tolist() for b in self.boundaries]}

    @staticmethod
    def from_dict(d):
        return BinMapper([np.asarray(b, dtype=np.float64) for b in d["boundaries"]])


def bin_features(train: Dataset, max_bins):
    """Fit the bin mapper on a training set and bin its matrix."""
    if len(train) == 0:
        raise EmptyDataset("cannot bin an empty dataset")
    matrix = np.asarray(train.features, dtype=np.float64)
    mapper = BinMapper.fit(matrix, max_bins)
    return mapper, mapper.transform(matrix)


# ---------------------------------------------------------------------------
# GOSS


def goss_sample(gradients, a, b, seed):
    """Keep the top ceil(a*n) rows by |gradient|, sample ceil(b*n) of the
    rest uniformly with compensating weight (1-a)/b."""
    g = np.asarray(gradients, dtype=np.float64)
    n = len(g)
    if n == 0:
        raise InvalidFraction("empty gradient vector")
    if a < 0 or b < 0 or a + b > 1:
        raise InvalidFraction("require a, b >= 0 and a + b <= 1")
    order = np.argsort(-np.abs(g), kind="stable")
    top_n = int(np.ceil(a * n))
    rand_n = int(np.ceil(b * n))
    top = order[:top_n]
    rest = order[top_n:]
    rng = np.random.default_rng(seed)
    rand_n = min(rand_n, len(rest))
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
    """Groups of mutually (almost) exclusive features with disjoint offset
    ranges inside a shared histogram column."""

    bundles: list          # list of lists of feature ids
    offsets: list          # parallel: feature id -> offset within its bundle
    n_bins: list           # per original feature

    def bundle_sizes(self):
        sizes = []
        for bundle in self.bundles:
            sizes.append(1 + sum(self.n_bins[f] - 1 for f in bundle))
        return sizes

    def to_dict(self):
        return {"bundles": self.bundles, "offsets": self.offsets,
                "n_bins": self.n_bins}

    @staticmethod
    def from_dict(d):
        return BundleMap(d["bundles"], d["offsets"], d["n_bins"])


def efb_bundle(binned, n_bins, max_conflict=0.0) -> BundleMap:
    """Greedy exclusive-feature bundling on a binned matrix.

    Two features conflict on a row when both have a nonzero bin there; a
    feature joins a bundle only while the bundle's total conflict rate stays
    within max_conflict.
    """
    n, m = binned.shape
    if m == 0:
        return BundleMap([], [], list(n_bins))
    nonzero = binned != 0
    counts = nonzero.sum(axis=0)
    order = np.argsort(-counts, kind="stable")
    budget = int(max_conflict * n)
    bundle_masks, bundles, conflicts = [], [], []
    for f in order:
        placed = False
        for i, mask in enumerate(bundle_masks):
            c = int(np.sum(mask & nonzero[:, f]))
            if conflicts[i] + c <= budget:
                bundles[i].append(int(f))
                bundle_masks[i] = mask | nonzero[:, f]
                conflicts[i] += c
                placed = True
                break
        if not placed:
            bundles.append([int(f)])
            bundle_masks.append(nonzero[:, f].copy())
            conflicts.append(0)
    offsets = []
    for bundle in bundles:
        offs, off = [], 1
        for f in bundle:
            offs.append(off)
            off += n_bins[f] - 1
        offsets.append(offs)
    return BundleMap(bundles, offsets, list(n_bins))


def bundle_columns(binned, bundle_map: BundleMap):
    """Materialize one int column per bundle: 0 when every member is at bin
    0, else offset + bin - 1 of the (first) nonzero member."""
    n = binned.shape[0]
    cols = np.zeros((n, len(bundle_map.bundles)), dtype=np.int32)
    for i, (bundle, offs) in enumerate(zip(bundle_map.bundles, bundle_map.offsets)):
        col = cols[:, i]
        taken = np.zeros(n, dtype=bool)
        for f, off in zip(bundle, offs):
            v = binned[:, f]
            hit = (v != 0) & ~taken
            col[hit] = off + v[hit] - 1
            taken |= hit
    return cols


# ---------------------------------------------------------------------------
# trees


@dataclass
class TreeNode:
    feature: int = -1
    bin_threshold: int = -1   # go left when bin <= threshold
    gain: float = 0.0
    value: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.feature < 0

    def structure(self):
        if self.is_leaf:
            return ("leaf", round(self.value, 12))
        return ("split", self.feature, self.bin_threshold,
                self.left.structure(), self.right.structure())

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value}
        return {"feature": self.feature, "bin": self.bin_threshold,
                "gain": self.gain, "left": self.left.to_dict(),
                "right": self.right.to_dict()}

    @staticmethod
    def from_dict(d):
        if "feature" not in d:
            return TreeNode(value=d["value"])
        return TreeNode(feature=d["feature"], bin_threshold=d["bin"],
                        gain=d.get("gain", 0.0),
                        left=TreeNode.from_dict(d["left"]),
                        right=TreeNode.from_dict(d["right"]))


def _leaf_value(gsum, hsum, lam):
    return -gsum / (hsum + lam)


def split_gain(gl, hl, gr, hr, lam):
    """Second-order gain of a candidate split."""
    g, h = gl + gr, hl + hr
    return gl * gl / (hl + lam) + gr * gr / (hr + lam) - g * g / (h + lam)


class _HistContext:
    """Shared per-fit state: binned columns, the histogram slot layout and
    the gather indexes the split scan reads it through."""

    def __init__(self, binned, bundle_map, bundle_cols, params):
        self.binned = binned
        self.params = params
        sizes = np.asarray(bundle_map.bundle_sizes(), dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        self.n_slots = int(sizes.sum())
        # bundle columns shifted into one slot space: one bincount per node
        self.flat = bundle_cols.astype(np.intp) + starts
        self.n_bundles = self.flat.shape[1]
        # every splittable feature reads its bins 0..nb-1 from the histogram;
        # ordered by (nb, feature), the features of one bin count form a
        # (features, nb) block. Bin 0 reads the empty last slot and is filled
        # in per node.
        n_bins = bundle_map.n_bins
        first = {}  # feature -> global slot of its bin 1
        for start, bundle, offs in zip(starts, bundle_map.bundles,
                                       bundle_map.offsets):
            for f, off in zip(bundle, offs):
                first[f] = start + off
        gather, base, self.groups = [], {}, []
        for nb, f in sorted((n_bins[f], f) for f in first if n_bins[f] >= 2):
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

    def histogram(self, rows, g, h):
        """(3, n_slots + 1) array of per-slot count, g sum and h sum; the
        last slot stays empty."""
        keys = self.flat[rows].ravel()
        size = self.n_slots + 1
        hist = np.empty((3, size))
        hist[0] = np.bincount(keys, minlength=size)
        hist[1] = np.bincount(keys, weights=np.repeat(g, self.n_bundles),
                              minlength=size)
        hist[2] = np.bincount(keys, weights=np.repeat(h, self.n_bundles),
                              minlength=size)
        return hist

    def best_split(self, rows, g, h, hist=None):
        """Best (gain, feature, bin) over all features, or None. Among
        candidates within 1e-12 of the best gain the lowest (feature, bin)
        wins."""
        p = self.params
        if len(self.cand_pos) == 0:
            return None
        if hist is None:
            hist = self.histogram(rows, g, h)
        n_rows = len(rows)
        g_tot = float(g.sum())
        h_tot = float(h.sum())
        tot = np.array([[n_rows], [g_tot], [h_tot]])
        bins = hist.take(self.gather, axis=1)
        for lo, hi, nb in self.groups:
            block = bins[:, lo:hi].reshape(3, -1, nb)
            # bin 0 is the node total minus the feature's other bins
            block[:, :, 0] = tot - block[:, :, 1:].sum(axis=2)
            np.cumsum(block, axis=2, out=block)
        cl, gll, hll = bins.take(self.cand_pos, axis=1)
        ok = (cl >= p.min_leaf) & ((n_rows - cl) >= p.min_leaf)
        gains = np.where(
            ok,
            gll * gll / (hll + p.lam_leaf)
            + (g_tot - gll) ** 2 / (h_tot - hll + p.lam_leaf)
            - g_tot * g_tot / (h_tot + p.lam_leaf),
            -np.inf)
        top = gains.max()
        if not top > 0:
            return None
        i = int(np.argmax((gains >= top - 1e-12) & (gains > 0)))
        return float(gains[i]), int(self.cand_feature[i]), int(self.cand_bin[i])

    def _splittable(self, n_rows, depth):
        p = self.params
        return depth < p.max_depth and n_rows >= 2 * p.min_leaf

    def build_tree(self, rows, g, h, depth=0, hist=None):
        """Grow a tree on rows. hist, when given, is the histogram of rows;
        only the smaller child's histogram is built, the larger one is the
        parent's minus it."""
        p = self.params
        node = TreeNode(value=_leaf_value(g.sum(), h.sum(), p.lam_leaf))
        if not self._splittable(len(rows), depth):
            return node
        if hist is None:
            hist = self.histogram(rows, g, h)
        best = self.best_split(rows, g, h, hist)
        if best is None:
            return node
        gain, f, t = best
        mask = self.binned[rows, f] <= t
        node.feature, node.bin_threshold, node.gain = f, t, gain
        kids = [(rows[mask], g[mask], h[mask]),
                (rows[~mask], g[~mask], h[~mask])]
        hists = [None, None]
        small = int(len(kids[1][0]) < len(kids[0][0]))
        if any(self._splittable(len(k[0]), depth + 1) for k in kids):
            hists[small] = self.histogram(*kids[small])
            hists[1 - small] = hist - hists[small]
        node.left = self.build_tree(*kids[0], depth + 1, hists[0])
        node.right = self.build_tree(*kids[1], depth + 1, hists[1])
        return node


def predict_tree(node: TreeNode, binned):
    """Evaluate one tree on a binned matrix."""
    out = np.empty(binned.shape[0])
    stack = [(node, np.arange(binned.shape[0]))]
    while stack:
        nd, rows = stack.pop()
        if nd.is_leaf:
            out[rows] = nd.value
            continue
        mask = binned[rows, nd.feature] <= nd.bin_threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class Ensemble:
    trees: list                 # trees[round][class]
    base_scores: np.ndarray     # (K,)
    mapper: BinMapper
    bundle_map: BundleMap
    n_classes: int
    learning_rate: float
    feature_names: list = field(default_factory=list)

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
                scores[:, k] += self.learning_rate * predict_tree(tree, binned)
        return scores

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

    def to_dict(self):
        return {
            "trees": [[t.to_dict() for t in rnd] for rnd in self.trees],
            "base_scores": self.base_scores.tolist(),
            "mapper": self.mapper.to_dict(),
            "bundle_map": self.bundle_map.to_dict(),
            "n_classes": self.n_classes,
            "learning_rate": self.learning_rate,
            "feature_names": list(self.feature_names),
        }

    @staticmethod
    def from_dict(d):
        return Ensemble(
            trees=[[TreeNode.from_dict(t) for t in rnd] for rnd in d["trees"]],
            base_scores=np.asarray(d["base_scores"]),
            mapper=BinMapper.from_dict(d["mapper"]),
            bundle_map=BundleMap.from_dict(d["bundle_map"]),
            n_classes=d["n_classes"],
            learning_rate=d["learning_rate"],
            feature_names=list(d.get("feature_names", [])),
        )


def _softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def fit(train: Dataset, params: BoostParams) -> Ensemble:
    if len(train) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    y = train.labels
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClass("training data contains a single class")
    k_total = len(train.schema.classes)
    n = len(train)

    mapper, binned = bin_features(train, params.max_bins)
    n_bins = mapper.n_bins
    if params.use_efb:
        bundle_map = efb_bundle(binned, n_bins, params.efb_max_conflict)
    else:
        bundle_map = BundleMap([[j] for j in range(binned.shape[1])],
                               [[1] for _ in range(binned.shape[1])],
                               list(n_bins))
    ctx = _HistContext(binned, bundle_map,
                       bundle_columns(binned, bundle_map), params)

    priors = np.bincount(y, minlength=k_total).astype(np.float64)
    priors = np.maximum(priors, 1e-12) / n
    base = np.log(priors)
    scores = np.tile(base, (n, 1))
    onehot = np.eye(k_total)[y]

    trees = []
    for m in range(params.rounds):
        p = _softmax(scores)
        round_trees = []
        for k in range(k_total):
            g = p[:, k] - onehot[:, k]
            h = np.maximum(p[:, k] * (1.0 - p[:, k]), 1e-12)
            idx, w = goss_sample(g, params.goss_a, params.goss_b,
                                 seed=params.seed * 100003 + m * 31 + k)
            tree = ctx.build_tree(idx, g[idx] * w, h[idx] * w)
            scores[:, k] += params.learning_rate * predict_tree(tree, binned)
            round_trees.append(tree)
        trees.append(round_trees)
    return Ensemble(trees, base, mapper, bundle_map, k_total,
                    params.learning_rate, list(train.feature_names))
