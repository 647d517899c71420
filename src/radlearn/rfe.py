"""Recursive feature elimination with cross-validated accuracy bookkeeping.

Features are ranked once on the full table; then the lowest-ranked remaining
feature is dropped one step at a time while fresh forests are cross-validated
on what remains. The trace records every (subset, accuracy) pair down to the
empty subset, whose accuracy is the majority-class rate. Folds are fixed
across steps and every forest seed derives from the top-level seed, so a
trace is bit-reproducible. ``rerank`` (off by default) re-ranks the remaining
features at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataValidationError
from .forest import (ForestConfig, predict_proba_rows, rank_features, train_forest,
                     train_forests)
from .jsonio import from_json, read_json, write_csv, write_json
from .metrics import FoldSplit, stratified_kfold
from .table import FeatureTable


@dataclass
class RfeStep:
    subset: tuple[str, ...]  # remaining features, ranking order
    cv_accuracy: float


@dataclass
class RfeTrace:
    steps: list[RfeStep]
    initial_ranking: tuple[str, ...]
    eliminated_order: tuple[str, ...]
    full_accuracy: float  # CV accuracy before any elimination
    k_folds: int
    seed: int


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1)[0])


def cv_predictions(t: FeatureTable, names, forest_cfg: ForestConfig,
                   split: FoldSplit, seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled out-of-fold class-1 probabilities and 0/1 predictions of fresh
    forests on the given feature subset.

    The forest for fold f is seeded from (seed, tag, f); the k fold forests
    grow together in one batch over the subset table, and every row descends
    its own fold's forest in one pass. With no features,
    every probability is 0.5 and every prediction is the majority class
    (class 1 on a tie).
    """
    names = list(names)
    labels = t.labels
    if not names:
        majority = int(labels.sum() * 2 >= labels.size)
        return np.full(t.n_samples, 0.5), np.full(t.n_samples, majority, dtype=int)
    sub = t.select(names)
    folds = range(split.k)
    models = train_forests(sub, forest_cfg,
                           [np.flatnonzero(split.fold_assignments != fold) for fold in folds],
                           [_derived_seed(seed, tag, fold) for fold in folds])
    proba = predict_proba_rows(models, sub.values, split.fold_assignments)
    return proba, (proba >= 0.5).astype(int)


def rfe_cv(t: FeatureTable, forest_cfg: ForestConfig, k_folds: int = 5,
           seed: int = 0, rerank: bool = False) -> RfeTrace:
    if t.n_features < 1:
        raise DataValidationError("table has no features to eliminate")
    split = stratified_kfold(t.labels, k_folds, seed=_derived_seed(seed, 0))

    def cv_accuracy(names, step):
        _, preds = cv_predictions(t, names, forest_cfg, split, seed, tag=step)
        return int(np.sum(preds == t.labels)) / t.n_samples

    ranking = rank_features(train_forest(t, forest_cfg))
    full_accuracy = cv_accuracy(ranking, step=0)

    remaining = list(ranking)
    steps: list[RfeStep] = []
    eliminated: list[str] = []
    n = len(ranking)
    for step in range(1, n + 1):
        if rerank and remaining:
            current = rank_features(train_forest(
                t.select(remaining),
                replace(forest_cfg, seed=_derived_seed(seed, step, k_folds + 1))))
            f_least = current[-1]
        else:
            f_least = remaining[-1]  # lowest-ranked remaining feature
        remaining.remove(f_least)
        eliminated.append(f_least)
        accuracy = cv_accuracy(remaining, step)
        steps.append(RfeStep(subset=tuple(remaining), cv_accuracy=accuracy))
    return RfeTrace(steps=steps, initial_ranking=tuple(ranking),
                    eliminated_order=tuple(eliminated), full_accuracy=full_accuracy,
                    k_folds=k_folds, seed=seed)


def select_best(tr: RfeTrace) -> tuple[tuple[str, ...], float]:
    """Maximum accuracy; ties prefer the smaller subset, then the earlier step."""
    if not tr.steps:
        raise DataValidationError("empty elimination trace")
    best = tr.steps[0]
    for step in tr.steps[1:]:
        if step.cv_accuracy > best.cv_accuracy or (
                step.cv_accuracy == best.cv_accuracy and len(step.subset) < len(best.subset)):
            best = step
    return best.subset, best.cv_accuracy


def save_trace(tr: RfeTrace, path) -> None:
    write_json(tr, path)


def load_trace(path) -> RfeTrace:
    return from_json(RfeTrace, read_json(path), "elimination trace")


def write_accuracy_curve(tr: RfeTrace, path) -> None:
    """Accuracy-versus-subset-size curve as CSV, one row per elimination step."""
    write_csv(path, [["step", "subset_size", "cv_accuracy"]]
              + [[i, len(step.subset), repr(step.cv_accuracy)]
                 for i, step in enumerate(tr.steps, start=1)])
