import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import auroc_by_pair_counting, midranks_oracle

from radlearn.errors import DataValidationError
from radlearn.metrics import (
    ConfusionCounts,
    auroc,
    confusion,
    metrics,
    midranks,
    stratified_kfold,
)


def test_confusion_all_positive_predictions():
    c = confusion([1, 1, 1, 1], [1, 1, 0, 0])
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 2, 0, 0)


def test_confusion_perfect_and_inverted():
    labels = [1, 0, 1, 0, 1]
    perfect = confusion(labels, labels)
    assert perfect.fp == 0 and perfect.fn == 0
    inverted = confusion([1 - v for v in labels], labels)
    assert inverted.tp == 0 and inverted.tn == 0


def test_confusion_length_mismatch():
    with pytest.raises(DataValidationError):
        confusion([1, 0], [1])


def test_metrics_stuck_positive_predictor():
    m = metrics(ConfusionCounts(tp=2, fp=2, tn=0, fn=0))
    assert m["sensitivity"] == 1.0
    assert m["specificity"] == 0.0
    assert m["accuracy"] == 0.5


def test_metrics_perfect():
    m = metrics(ConfusionCounts(tp=3, fp=0, tn=3, fn=0))
    assert all(m[k] == 1.0 for k in ("accuracy", "sensitivity", "specificity",
                                     "precision", "recall", "f1"))


def test_metrics_hand_arithmetic():
    m = metrics(ConfusionCounts(tp=3, fp=1, tn=5, fn=1))
    assert m["precision"] == pytest.approx(0.75)
    assert m["recall"] == pytest.approx(0.75)
    assert m["f1"] == pytest.approx(0.75)


def test_metrics_zero_over_zero_is_zero():
    m = metrics(ConfusionCounts(tp=0, fp=0, tn=4, fn=0))
    assert m["precision"] == 0.0
    assert m["sensitivity"] == 0.0
    assert m["f1"] == 0.0


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_auroc_all_tied_scores():
    assert auroc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auroc_hand_case():
    # positives {0.8, 0.4}, negatives {0.7, 0.3}: wins 3 of 4 pairs
    assert auroc([0.8, 0.4, 0.7, 0.3], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_auroc_single_class_rejected():
    with pytest.raises(DataValidationError):
        auroc([0.1, 0.2], [1, 1])


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_auroc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    scores = rng.integers(0, 5, n).astype(float)
    expected = auroc_by_pair_counting(scores.tolist(), labels.tolist())
    assert auroc(scores, labels) == pytest.approx(expected, abs=1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_auroc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    n = 12
    labels = np.array([0, 1] * 6)
    scores = rng.normal(size=n)
    assert auroc(scores, labels) == pytest.approx(auroc(np.exp(scores), labels), abs=1e-12)


def test_stratified_kfold_balanced_small():
    split = stratified_kfold([1, 1, 1, 0, 0, 0], k=3, seed=0)
    labels = np.array([1, 1, 1, 0, 0, 0])
    for fold in range(3):
        idx = split.fold_indices(fold)
        assert labels[idx].sum() == 1
        assert len(idx) == 2


def test_stratified_kfold_deterministic():
    a = stratified_kfold([0, 1] * 20, k=5, seed=77)
    b = stratified_kfold([0, 1] * 20, k=5, seed=77)
    assert np.array_equal(a.fold_assignments, b.fold_assignments)
    c = stratified_kfold([0, 1] * 20, k=5, seed=78)
    assert not np.array_equal(a.fold_assignments, c.fold_assignments)


def test_stratified_kfold_cohort_sizes():
    # 278 + 307 samples in 5 folds -> fold sizes 117 or 118
    labels = np.array([0] * 278 + [1] * 307)
    split = stratified_kfold(labels, k=5, seed=1)
    sizes = [len(split.fold_indices(f)) for f in range(5)]
    assert set(sizes) <= {117, 118}
    for fold in range(5):
        idx = split.fold_indices(fold)
        n1 = labels[idx].sum()
        assert n1 in (61, 62)  # 307/5 stratified
        assert len(idx) - n1 in (55, 56)  # 278/5 stratified


def test_stratified_kfold_class_too_small():
    with pytest.raises(DataValidationError):
        stratified_kfold([0, 0, 0, 1, 1], k=3, seed=0)



# ties, both zeros, both infinities and NaN, which equals nothing
_RANK_VALUES = [-np.inf, -2.5, -1.0, -0.0, 0.0, 1.0, 1.0 + 2 ** -52, 3.0, np.inf, np.nan]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_RANK_VALUES), min_size=0, max_size=40))
@example([])
@example([np.nan])
@example([-0.0])
@example([0.0, -0.0, 0.0])
@example([np.nan] * 3)
@example([np.inf, np.nan, -np.inf, np.inf, np.nan])
def test_midranks_match_nested_loop_bytes(values):
    values = np.array(values, dtype=np.float64)
    got = midranks(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    assert got.tobytes() == midranks_oracle(values).tobytes()
