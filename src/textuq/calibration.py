"""Isotonic-regression calibration and reliability-diagram binning.

Calibration is one-vs-rest: a monotone map is fitted per class on held-out
scores and the mapped rows are renormalized back onto the simplex. The
monotone fit is pool-adjacent-violators, written out here so it can be
checked against an exhaustive partition oracle on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfig, LengthMismatch


@dataclass(frozen=True)
class IsotonicMap:
    """Piecewise-linear nondecreasing map given by (breakpoint, value) knots."""

    breakpoints: np.ndarray  # strictly increasing scores
    values: np.ndarray  # nondecreasing, within [0, 1]


def pava_fit(scores, targets, weights=None) -> IsotonicMap:
    """Weighted least-squares nondecreasing fit of targets against scores.

    Ties in score are pooled into one weighted point first, so the returned
    breakpoints are strictly increasing. Values are clipped to [0, 1], which
    is a no-op for binary targets.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if scores.ndim != 1 or targets.ndim != 1:
        raise LengthMismatch("scores and targets must be 1-d")
    if scores.size == 0:
        raise EmptyInput("pava_fit needs at least one point")
    if targets.shape != scores.shape:
        raise LengthMismatch(f"{scores.size} scores vs {targets.size} targets")
    if weights is None:
        weights = np.ones_like(scores)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != scores.shape:
            raise LengthMismatch(f"{scores.size} scores vs {weights.size} weights")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")

    uniq, inverse = np.unique(scores, return_inverse=True)
    pooled_w = np.bincount(inverse, weights=weights)
    pooled_t = np.bincount(inverse, weights=weights * targets) / pooled_w

    # classic stack form: push each point, merge while the tail decreases
    blocks: list[list] = []  # [mean, weight, span in unique points]
    for mean, w in zip(pooled_t, pooled_w):
        blocks.append([mean, w, 1])
        while len(blocks) >= 2 and blocks[-2][0] > blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            wt = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / wt, wt, c1 + c2])

    values = np.concatenate([np.full(c, m) for m, _, c in blocks])
    return IsotonicMap(breakpoints=uniq, values=np.clip(values, 0.0, 1.0))


def isotonic_apply(m: IsotonicMap, score: float) -> float:
    """Linear interpolation between knots, clamped to end values outside."""
    return float(np.interp(score, m.breakpoints, m.values))


def fit_class_maps(probs, labels) -> list:
    """One isotonic map per class, fitted on that class's one-vs-rest targets."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise LengthMismatch("probs must be a 2-d array")
    if labels.shape != (probs.shape[0],):
        raise LengthMismatch(f"{probs.shape[0]} rows vs {labels.shape} labels")
    return [
        pava_fit(probs[:, c], (labels == c).astype(np.float64))
        for c in range(probs.shape[1])
    ]


def apply_class_maps(maps: list, probs) -> np.ndarray:
    """Mapped per-class scores before renormalization (each column monotone)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != len(maps):
        raise LengthMismatch(f"probs {probs.shape} vs {len(maps)} class maps")
    return np.column_stack(
        [np.interp(probs[:, c], m.breakpoints, m.values) for c, m in enumerate(maps)]
    )


def calibrate_probs(probs, labels, eval_probs) -> np.ndarray:
    """Fit one-vs-rest maps on (probs, labels), apply to eval_probs, renormalize.

    Rows that map to all zeros fall back to the uniform distribution.
    """
    maps = fit_class_maps(probs, labels)
    out = apply_class_maps(maps, eval_probs)
    row_sum = out.sum(axis=1)
    zero = row_sum <= 0.0
    out[zero] = 1.0 / out.shape[1]
    out[~zero] /= row_sum[~zero, None]
    return out


@dataclass(frozen=True)
class ReliabilityBins:
    """Equal-width bins over [0, 1]; empty bins keep count 0 and None means."""

    edges: np.ndarray  # n_bins + 1 edges
    counts: np.ndarray
    mean_predicted: tuple  # float or None per bin
    fraction_positive: tuple  # float or None per bin


def reliability_bins(scores, labels, n_bins: int = 10) -> ReliabilityBins:
    """Bin positive-class scores; right-closed bins except the first.

    Bin k covers (k/n, (k+1)/n] for k >= 1 and [0, 1/n] for k = 0.
    """
    if n_bins < 1:
        raise InvalidConfig("n_bins must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatch(f"scores {scores.shape} vs labels {labels.shape}")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores must lie in [0, 1]")

    idx = np.clip(np.ceil(scores * n_bins).astype(int) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sum_scores = np.bincount(idx, weights=scores, minlength=n_bins)
    sum_pos = np.bincount(idx, weights=labels, minlength=n_bins)
    mean_pred = tuple(
        None if c == 0 else s / c for s, c in zip(sum_scores, counts)
    )
    frac_pos = tuple(None if c == 0 else s / c for s, c in zip(sum_pos, counts))
    return ReliabilityBins(
        edges=np.linspace(0.0, 1.0, n_bins + 1),
        counts=counts,
        mean_predicted=mean_pred,
        fraction_positive=frac_pos,
    )


def bins_to_csv_text(bins: ReliabilityBins) -> str:
    """CSV with one row per bin; undefined means render as empty fields."""
    lines = ["bin_low,bin_high,mean_predicted,fraction_positive,count"]
    for k in range(len(bins.counts)):
        mp = "" if bins.mean_predicted[k] is None else "%.17g" % bins.mean_predicted[k]
        fp = "" if bins.fraction_positive[k] is None else "%.17g" % bins.fraction_positive[k]
        lines.append(
            "%.17g,%.17g,%s,%s,%d" % (bins.edges[k], bins.edges[k + 1], mp, fp, bins.counts[k])
        )
    return "\n".join(lines) + "\n"


def bins_from_csv_text(text: str) -> ReliabilityBins:
    """Parse bins_to_csv_text output; blank lines are skipped. A row without
    five fields, with a value that is not a finite number or with a count
    that is not a non-negative integer raises InvalidConfig naming the line."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln]
    if not lines or lines[0][1] != "bin_low,bin_high,mean_predicted,fraction_positive,count":
        raise InvalidConfig("not a reliability-bin CSV")
    lows, highs, counts = [], [], []
    mean_pred, frac_pos = [], []
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 5:
            raise InvalidConfig(f"line {lineno}: expected 5 fields, got {len(fields)}")
        low, high, mp, fp, count = fields
        try:
            low, high, count = float(low), float(high), int(count)
            mp = None if mp == "" else float(mp)
            fp = None if fp == "" else float(fp)
        except ValueError:
            raise InvalidConfig(f"line {lineno}: non-numeric value") from None
        if count < 0 or not all(math.isfinite(v) for v in (low, high, mp, fp) if v is not None):
            raise InvalidConfig(f"line {lineno}: non-finite value or negative count")
        lows.append(low)
        highs.append(high)
        mean_pred.append(mp)
        frac_pos.append(fp)
        counts.append(count)
    edges = np.array(lows + highs[-1:])
    return ReliabilityBins(
        edges=edges,
        counts=np.array(counts),
        mean_predicted=tuple(mean_pred),
        fraction_positive=tuple(frac_pos),
    )
