"""Confusion-matrix metrics and the pretraining ablation report."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EmptyDataset


class LengthMismatch(ValueError):
    pass


class KeyMismatch(ValueError):
    pass


@dataclass
class EvalReport:
    confusion: np.ndarray        # (K, K), rows = truth, cols = predicted
    accuracy: float
    precision: list              # per class, one-vs-rest
    recall: list
    f1: list
    support: list
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_dict(self):
        return {**asdict(self), "confusion": self.confusion.tolist()}


def _safe_div(a, b):
    return a / b if b else 0.0


def evaluate(predicted, truth, n_classes) -> EvalReport:
    """The report of predicted against truth; zero rows raise EmptyDataset."""
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape:
        raise LengthMismatch(
            f"{len(predicted)} predictions vs {len(truth)} labels")
    if len(truth) == 0:
        raise EmptyDataset("no rows to score")
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (truth, predicted), 1)
    accuracy = float(np.trace(conf)) / len(truth)
    precision, recall, f1, support = [], [], [], []
    for k in range(n_classes):
        tp = conf[k, k]
        fp = conf[:, k].sum() - tp
        fn = conf[k, :].sum() - tp
        p = _safe_div(float(tp), float(tp + fp))
        r = _safe_div(float(tp), float(tp + fn))
        precision.append(p)
        recall.append(r)
        f1.append(_safe_div(2 * p * r, p + r))
        support.append(int(conf[k, :].sum()))
    return EvalReport(conf, accuracy, precision, recall, f1, support,
                      float(np.mean(precision)), float(np.mean(recall)),
                      float(np.mean(f1)))


@dataclass
class AblationReport:
    """Per-class iteration counts with/without transfer pretraining, plus the
    metric deltas between the two pipeline variants."""

    per_class: dict = field(default_factory=dict)
    # class -> {"steps_with": int, "steps_without": int, "speedup": float}
    metric_deltas: dict = field(default_factory=dict)


def ablation_report(traces_with: dict, traces_without: dict,
                    reports: dict = None) -> AblationReport:
    """traces_* map class name -> TrainTrace; reports (optional) maps variant
    name -> EvalReport for accuracy/F1 deltas."""
    if set(traces_with) != set(traces_without):
        raise KeyMismatch(
            f"classes differ: {sorted(traces_with)} vs {sorted(traces_without)}")
    rep = AblationReport()
    for name in sorted(traces_with):
        with_t = traces_with[name]
        without_t = traces_without[name]
        entry = {
            "steps_with": with_t.steps_to_stop,
            "steps_without": without_t.steps_to_stop,
            "stop_with": with_t.stop_reason,
            "stop_without": without_t.stop_reason,
        }
        if with_t.steps_to_stop:
            entry["speedup"] = without_t.steps_to_stop / with_t.steps_to_stop
        rep.per_class[name] = entry
    if reports and "with" in reports and "without" in reports:
        rep.metric_deltas = {
            "accuracy": reports["with"].accuracy - reports["without"].accuracy,
            "macro_f1": reports["with"].macro_f1 - reports["without"].macro_f1,
        }
    return rep
