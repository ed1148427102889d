"""Shadow-feature wrapper selection driven by the boosted-tree importance.

Each round appends a permuted copy of every feature, refits the classifier,
and scores a hit for every real feature whose total split gain beats the best
shadow. Accept/reject decisions come from a two-sided binomial test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc

from . import gbdt
from .data import Dataset, EmptyDataset


@dataclass
class FeatureDecision:
    status: dict       # feature name -> accepted | rejected | tentative
    hits: dict         # feature name -> rounds won against the best shadow
    rounds: int
    alpha: float


def boruta_select(train: Dataset, rounds, alpha, boost_params: gbdt.BoostParams,
                  seed=0) -> FeatureDecision:
    if len(train) == 0:
        raise EmptyDataset("cannot run feature selection on an empty dataset")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    matrix = np.asarray(train.features, dtype=np.float64)
    names = list(train.feature_names)
    m = matrix.shape[1]
    rng = np.random.default_rng(seed)
    hits = np.zeros(m, dtype=np.int64)
    for r in range(rounds):
        shadow = matrix.copy()
        for j in range(m):
            rng.shuffle(shadow[:, j])
        both = np.hstack([matrix, shadow])
        ds = Dataset(both, train.labels, train.schema, encoded=True,
                     feature_names=names + [f"shadow_{n}" for n in names])
        ens = gbdt.fit(ds, boost_params, r)
        imp = ens.feature_importance()
        shadow_max = imp[m:].max() if m else 0.0
        hits += imp[:m] > shadow_max
    status = {}
    for j, name in enumerate(names):
        status[name] = _decide(int(hits[j]), rounds, alpha)
    return FeatureDecision(status, {n: int(h) for n, h in zip(names, hits)},
                           rounds, alpha)


def _decide(h, rounds, alpha):
    if rounds == 0:
        return "tentative"
    # two-sided binomial test against p = 0.5: P(X >= h), then P(X <= h)
    if bdtrc(h - 1, rounds, 0.5) < alpha:
        return "accepted"
    if bdtr(h, rounds, 0.5) < alpha:
        return "rejected"
    return "tentative"
