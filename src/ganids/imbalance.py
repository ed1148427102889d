"""Identify minority attack classes and route rows for GAN training.

An attack class is a minority class when n_normal / n_class >= gamma; its rows
go to per-class fine-tuning, normal rows go to pretraining, and everything
else passes through untouched. The routes are row indexes into the filtered
dataset, so routing copies no feature row; a GAN phase selects its rows
when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, EmptyDataset
from .errors import ConfigInvalid, InputError

DEFAULT_GAMMA = 10.0


class MissingNormalClass(InputError, ValueError):
    pass


def check_gamma(gamma, key="gamma"):
    """Raises ConfigInvalid naming key unless gamma is an imbalance
    threshold: 1 <= gamma < inf, which a NaN is not. Below 1, classes
    larger than the normal class would count as minorities, and a run
    would top each up to n_normal / gamma rows: more than the normal
    class, and more than memory holds as gamma nears 0."""
    if not 1 <= gamma < math.inf:
        raise ConfigInvalid(key, f"must be at least 1 and finite, got {gamma}")


@dataclass
class ClassCensus:
    counts: dict          # class name -> row count
    normal_class: str
    ratios: dict          # attack class name -> n_normal / n_class

    def display_ratios(self, decimals=3):
        return {k: round(v, decimals) for k, v in self.ratios.items()}

    def rows(self):
        """Report rows: (class, samples, imbalance ratio or None)."""
        out = [(self.normal_class, self.counts[self.normal_class], None)]
        for name, n in self.counts.items():
            if name != self.normal_class:
                out.append((name, n, round(self.ratios[name], 3) if n else None))
        return out


@dataclass
class FilterOutput:
    """Each route as sorted row indexes into the filtered dataset."""

    normal: np.ndarray
    minority: dict            # class name -> rows of that class
    passthrough: np.ndarray   # attack rows below the threshold
    gamma: float


def class_census(dataset: Dataset) -> ClassCensus:
    if len(dataset) == 0:
        raise EmptyDataset("census of an empty dataset")
    schema = dataset.schema
    normal_id = schema.normal_id
    if not np.any(dataset.labels == normal_id):
        raise MissingNormalClass(f"no rows of class {schema.normal_class!r}")
    counts = {}
    for cid in np.unique(dataset.labels):
        counts[schema.classes[cid]] = int(np.sum(dataset.labels == cid))
    n_normal = counts[schema.normal_class]
    ratios = {name: n_normal / n for name, n in counts.items()
              if name != schema.normal_class and n > 0}
    return ClassCensus(counts, schema.normal_class, ratios)


def filter_minority(dataset: Dataset, gamma=DEFAULT_GAMMA) -> FilterOutput:
    check_gamma(gamma)
    census = class_census(dataset)
    schema = dataset.schema
    labels = dataset.labels
    minority = {name: np.flatnonzero(labels == schema.class_id(name))
                for name, ratio in census.ratios.items() if ratio >= gamma}
    routed = np.zeros(len(schema.classes), dtype=bool)
    routed[[schema.normal_id] + [schema.class_id(c) for c in minority]] = True
    return FilterOutput(np.flatnonzero(labels == schema.normal_id), minority,
                        np.flatnonzero(~routed[labels]), gamma)
