"""Classification metrics, Pearson correlations and stratified k-fold splitting.

Conventions: the positive class is 1; any 0/0 metric ratio is defined as 0 so
learning-curve series stay total even when a class is never predicted. AUROC
is the rank-based estimator with midranks for ties (probability that a random
positive outscores a random negative, ties counting half).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class FoldSplit:
    fold_assignments: np.ndarray
    k: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_assignments == fold)


def _as_binary(arr, name) -> np.ndarray:
    arr = np.asarray(arr).ravel()
    if not np.all((arr == 0) | (arr == 1)):
        raise DataValidationError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def confusion(preds, labels) -> ConfusionCounts:
    preds = _as_binary(preds, "preds")
    labels = _as_binary(labels, "labels")
    if preds.size != labels.size:
        raise DataValidationError("preds and labels must have equal length")
    if preds.size == 0:
        raise DataValidationError("cannot build a confusion matrix from zero samples")
    return ConfusionCounts(
        tp=int(np.sum((preds == 1) & (labels == 1))),
        fp=int(np.sum((preds == 1) & (labels == 0))),
        tn=int(np.sum((preds == 0) & (labels == 0))),
        fn=int(np.sum((preds == 0) & (labels == 1))),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def metrics(c: ConfusionCounts) -> dict[str, float]:
    if c.total == 0:
        raise DataValidationError("empty confusion matrix")
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    return {
        "accuracy": (c.tp + c.tn) / c.total,
        "sensitivity": recall,
        "specificity": _ratio(c.tn, c.tn + c.fp),
        "precision": precision,
        "recall": recall,
        "f1": _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn),
    }


def tie_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stable sort order, start, size of each run of equal sorted values)."""
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    return order, start, np.diff(start, append=values.size)


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range; NaN ties nothing."""
    order, start, size = tie_runs(values)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(start + (size + 1) / 2.0, size)
    return ranks


def auroc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _as_binary(labels, "labels")
    if scores.size != labels.size:
        raise DataValidationError("scores and labels must have equal length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataValidationError("auroc requires both classes present")
    ranks = midranks(scores)
    u_pos = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u_pos / (n_pos * n_neg)


def correlations(rows) -> np.ndarray:
    """The Pearson correlation of every pair of rows; 0 where either row is
    constant. Each entry is numpy's pairwise sum of products over its own
    pair, with no BLAS call, so its bits do not depend on the BLAS core."""
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=1, keepdims=True)
    squares = (centered ** 2).sum(axis=1)
    corr = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(centered):
        norm = np.sqrt(squares[i] * squares)
        np.divide((row * centered).sum(axis=1), norm, out=corr[i], where=norm > 0)
    return corr


def stratified_kfold(labels, k: int, seed: int) -> FoldSplit:
    """Per-class shuffle by seed, then round-robin fold assignment.

    Each class's round-robin starts where the previous class's left off, so
    remainder samples land on different folds and total fold sizes stay
    within 1 of each other as well.
    """
    labels = _as_binary(labels, "labels")
    if k < 1:
        raise DataValidationError("k must be >= 1")
    rng = np.random.default_rng(seed)
    assignments = np.full(labels.size, -1, dtype=np.int64)
    start = 0
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise DataValidationError(
                f"class {cls} has {idx.size} samples, fewer than k={k} folds")
        idx = idx.copy()
        rng.shuffle(idx)
        assignments[idx] = (np.arange(idx.size) + start) % k
        start = (start + idx.size) % k
    return FoldSplit(fold_assignments=assignments, k=k)
