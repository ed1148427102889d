"""Metric and ablation-report tests against naive recount oracles."""

import numpy as np
import pytest

from ganids import metrics
from ganids.data import EmptyDataset
from ganids.gan import StepRecord, TrainTrace


def binary_case():
    # TP=8, FP=2, FN=1, TN=9 with class 1 as positive
    truth = np.array([1] * 9 + [0] * 11)
    pred = np.concatenate([np.ones(8), np.zeros(1), np.ones(2), np.zeros(9)])
    return pred.astype(int), truth


def test_binary_fixed_case():
    pred, truth = binary_case()
    rep = metrics.evaluate(pred, truth, 2)
    assert rep.accuracy == 0.85
    assert np.isclose(rep.precision[1], 0.8)
    assert np.isclose(rep.recall[1], 8 / 9)
    assert abs(rep.f1[1] - 0.8421) <= 1e-4


def test_perfect_predictions():
    truth = np.array([0, 1, 2, 1, 0])
    rep = metrics.evaluate(truth, truth, 3)
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == 1.0


def test_three_class_hand_case():
    # confusion [[5,0,0],[1,3,1],[0,2,3]] (rows = truth)
    truth = np.array([0] * 5 + [1] * 5 + [2] * 5)
    pred = np.array([0] * 5 + [0] + [1] * 3 + [2] + [1] * 2 + [2] * 3)
    rep = metrics.evaluate(pred, truth, 3)
    assert rep.confusion.tolist() == [[5, 0, 0], [1, 3, 1], [0, 2, 3]]
    assert np.isclose(rep.f1[0], 10 / 11)
    assert np.isclose(rep.f1[1], 0.6)
    assert np.isclose(rep.f1[2], 2 * 0.75 * 0.6 / 1.35)
    assert np.isclose(rep.macro_f1, np.mean(rep.f1))


def test_zero_denominator_metrics_are_zero():
    # class 2 never predicted and never true
    rep = metrics.evaluate([0, 0], [0, 1], 3)
    assert rep.precision[2] == 0.0
    assert rep.recall[2] == 0.0
    assert rep.f1[2] == 0.0


def test_length_mismatch():
    with pytest.raises(metrics.LengthMismatch):
        metrics.evaluate([0, 1], [0], 2)


def test_zero_rows_are_an_error_not_a_score():
    # a report of zero rows would read accuracy 0 and macro-F1 0
    with pytest.raises(EmptyDataset, match="no rows to score"):
        metrics.evaluate([], [], 2)


@pytest.mark.parametrize("seed", range(20))
def test_matches_naive_recount(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(5, 50))
    truth = rng.integers(0, k, size=n)
    pred = rng.integers(0, k, size=n)
    rep = metrics.evaluate(pred, truth, k)
    assert rep.confusion.sum() == n
    assert rep.accuracy == sum(int(p == t) for p, t in zip(pred, truth)) / n
    for c in range(k):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert rep.precision[c] == prec
        assert rep.recall[c] == rec
        assert rep.f1[c] == f1
        assert rep.support[c] == tp + fn
    assert rep.macro_f1 == np.mean(rep.f1)


def _trace(steps, reason="criterion"):
    """A trace of `steps` critic steps, so steps_to_stop == steps."""
    return TrainTrace([StepRecord(s, 0.0, 0.0, 0.0, 0.0)
                       for s in range(1, steps + 1)], reason)


def _report():
    pred, truth = binary_case()
    return metrics.evaluate(pred, truth, 2)


def test_ablation_speedup_examples():
    rep = metrics.ablation_report({"r2l": _trace(400)}, {"r2l": _trace(1000)},
                                  _report(), _report())
    assert rep.per_class["r2l"]["speedup"] == 2.5
    rep = metrics.ablation_report({"u2r": _trace(100)}, {"u2r": _trace(100)},
                                  _report(), _report())
    assert rep.per_class["u2r"]["speedup"] == 1.0


def test_ablation_key_mismatch():
    with pytest.raises(metrics.KeyMismatch):
        metrics.ablation_report({"a": _trace(1)}, {"b": _trace(1)},
                                _report(), _report())


def test_ablation_metric_deltas():
    pred, truth = binary_case()
    rep_with = metrics.evaluate(truth, truth, 2)
    rep_without = metrics.evaluate(pred, truth, 2)
    rep = metrics.ablation_report({"a": _trace(10)}, {"a": _trace(20)},
                                  rep_with, rep_without)
    assert rep.metric_deltas["accuracy"] == rep_with.accuracy - rep_without.accuracy
    assert rep.metric_deltas["macro_f1"] == rep_with.macro_f1 - rep_without.macro_f1


def test_report_dict_roundtrip():
    pred, truth = binary_case()
    d = metrics.evaluate(pred, truth, 2).to_dict()
    assert d["confusion"] == [[9, 2], [1, 8]]
    assert set(d) >= {"accuracy", "precision", "recall", "f1", "macro_f1"}
