"""Uncertainty-evaluation metrics and their aggregation into a report.

Metrics: accuracy (argmax, ties to the lowest class index), NLPP (mean
negative log probability of the true class, floored at 1e-12), MMPCL (mean
of each row's maximum probability), and group-wise MMPCL over false-negative
/ true-positive subsets for a class of interest.

Empty FN/TP subsets report an absent value rather than 0; rendering can
substitute 0 where a table convention demands it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, LengthMismatch, TextuqError
from .labels import LABEL_NAMES

PROB_FLOOR = 1e-12
GROUPS = ("FN", "TP")
GROUP_CLASSES = ("positive", "uncertain")  # negative excluded by design


def _check_pair(probs, labels):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise LengthMismatch("probs must be a 2-d array")
    if probs.shape[0] == 0:
        raise EmptyInput("no examples")
    if labels.shape != (probs.shape[0],):
        raise LengthMismatch(f"{probs.shape[0]} prob rows vs {labels.shape} labels")
    return probs, labels


def accuracy(probs, labels) -> float:
    """Fraction with argmax at the true class; ties go to the lowest index."""
    probs, labels = _check_pair(probs, labels)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def nlpp(probs, labels) -> float:
    """Mean of -log max(p_true, 1e-12), natural log."""
    probs, labels = _check_pair(probs, labels)
    p_true = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(p_true, PROB_FLOOR))))


def mmpcl(probs) -> float:
    """Mean of each row's maximum probability; in [1/C, 1] for simplex rows."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise LengthMismatch("probs must be a 2-d array")
    if probs.shape[0] == 0:
        raise EmptyInput("no examples")
    return float(np.mean(probs.max(axis=1)))


def groupwise_confidence(probs, predicted, true_labels, group: str, class_of_interest: int):
    """MMPCL over the FN or TP subset for one class; (None, 0) when empty.

    FN: true class is the class of interest and the prediction missed it.
    TP: true class is the class of interest and the prediction hit it.
    """
    probs = np.asarray(probs, dtype=np.float64)
    predicted = np.asarray(predicted)
    true_labels = np.asarray(true_labels)
    n = probs.shape[0]
    if predicted.shape != (n,) or true_labels.shape != (n,):
        raise LengthMismatch("probs, predicted and true_labels must align")
    if group == "FN":
        mask = (true_labels == class_of_interest) & (predicted != class_of_interest)
    elif group == "TP":
        mask = (true_labels == class_of_interest) & (predicted == class_of_interest)
    else:
        raise ValueError(f"group must be 'FN' or 'TP', got {group!r}")
    count = int(mask.sum())
    if count == 0:
        return None, 0
    return float(np.mean(probs[mask].max(axis=1))), count


@dataclass(frozen=True)
class GroupStat:
    mmpcl: float | None
    count: int


@dataclass
class SetMetrics:
    accuracy: float
    nlpp: float
    mmpcl: float
    size: int
    groups: dict = field(default_factory=dict)  # "FN_positive" -> GroupStat


@dataclass
class MetricsReport:
    sets: dict = field(default_factory=dict)  # test-set name -> SetMetrics


def build_report(named_sets: dict) -> MetricsReport:
    """Compute all metrics per named test set (name -> (probs, labels)).

    Group-wise blocks cover FN/TP for the positive and uncertain classes
    only. Metric errors are re-raised with the offending set name attached.
    """
    report = MetricsReport()
    for name, (probs, labels) in named_sets.items():
        try:
            probs_a, labels_a = _check_pair(probs, labels)
            predicted = np.argmax(probs_a, axis=1)
            sm = SetMetrics(
                accuracy=accuracy(probs_a, labels_a),
                nlpp=nlpp(probs_a, labels_a),
                mmpcl=mmpcl(probs_a),
                size=int(len(labels_a)),
            )
            for group in GROUPS:
                for cname in GROUP_CLASSES:
                    coi = LABEL_NAMES.index(cname)
                    value, count = groupwise_confidence(
                        probs_a, predicted, labels_a, group, coi
                    )
                    sm.groups[f"{group}_{cname}"] = GroupStat(value, count)
        except TextuqError as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        report.sets[name] = sm
    return report


def report_to_json_text(report: MetricsReport) -> str:
    """Serialize with shortest round-tripping floats; absent values are null."""
    payload = {"sets": {}}
    for name, sm in report.sets.items():
        payload["sets"][name] = {
            "accuracy": sm.accuracy,
            "nlpp": sm.nlpp,
            "mmpcl": sm.mmpcl,
            "size": sm.size,
            "groups": {
                key: {"mmpcl": gs.mmpcl, "count": gs.count}
                for key, gs in sm.groups.items()
            },
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv_text(report: MetricsReport, absent_as_zero: bool = False) -> str:
    """Flat CSV, one row per test_set x metric.

    absent_as_zero renders empty group subsets as 0 instead of an empty
    field, matching the table convention that prints 0 there.
    """
    lines = ["test_set,metric,value"]
    for name in sorted(report.sets):
        sm = report.sets[name]
        rows = [("accuracy", sm.accuracy), ("nlpp", sm.nlpp), ("mmpcl", sm.mmpcl),
                ("size", sm.size)]
        for key in sorted(sm.groups):
            gs = sm.groups[key]
            if gs.mmpcl is None:
                rows.append((f"{key}_mmpcl", 0.0 if absent_as_zero else None))
            else:
                rows.append((f"{key}_mmpcl", gs.mmpcl))
            rows.append((f"{key}_count", gs.count))
        for metric, value in rows:
            if value is None:
                lines.append(f"{name},{metric},")
            elif isinstance(value, int):
                lines.append(f"{name},{metric},{value}")
            else:
                lines.append("%s,%s,%.17g" % (name, metric, value))
    return "\n".join(lines) + "\n"
