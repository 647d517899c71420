import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from radlearn import rfe as rfe_mod
from radlearn.errors import DataValidationError
from radlearn.forest import (
    ForestConfig,
    forest_to_json,
    predict_proba_matrix,
    train_forests,
)
from radlearn.metrics import stratified_kfold
from radlearn.rfe import (
    RfeStep,
    RfeTrace,
    _derived_seed,
    cv_predictions,
    load_trace,
    rfe_cv,
    save_trace,
    select_best,
    write_accuracy_curve,
)
from radlearn.table import FeatureTable

from oracles import cv_predictions_oracle, forest_oracle


def _table(values, labels, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"f{i}" for i in range(values.shape[1])]
    return FeatureTable(sample_ids=[f"s{i}" for i in range(values.shape[0])],
                        feature_names=names, values=values, labels=np.asarray(labels))


def _three_feature_table(seed=0):
    rng = np.random.default_rng(seed)
    n = 30
    labels = np.array([0, 1] * (n // 2))
    values = np.column_stack([
        labels + rng.normal(0, 0.3, n),
        rng.normal(size=n),
        rng.normal(size=n),
    ])
    return _table(values, labels, names=["signal", "noise1", "noise2"])


FAST = ForestConfig(n_trees=10, seed=5)


def test_trace_structure_three_features():
    t = _three_feature_table()
    tr = rfe_cv(t, FAST, k_folds=3, seed=2)
    assert len(tr.steps) == 3
    assert [len(s.subset) for s in tr.steps] == [2, 1, 0]
    # empty-subset accuracy is the majority-class rate
    assert tr.steps[-1].cv_accuracy == pytest.approx(0.5)


def test_eliminated_order_is_reversed_ranking():
    t = _three_feature_table(seed=1)
    tr = rfe_cv(t, FAST, k_folds=3, seed=3)
    assert tr.eliminated_order == tuple(reversed(tr.initial_ranking))


def test_subsets_strictly_shrink():
    t = _three_feature_table(seed=2)
    tr = rfe_cv(t, FAST, k_folds=3, seed=4)
    previous = set(tr.initial_ranking)
    for step in tr.steps:
        current = set(step.subset)
        assert current < previous
        assert len(current) == len(previous) - 1
        previous = current


def test_single_feature_table():
    rng = np.random.default_rng(3)
    labels = np.array([0, 1] * 10)
    t = _table((labels + rng.normal(0, 0.4, 20))[:, None], labels, names=["only"])
    tr = rfe_cv(t, FAST, k_folds=2, seed=0)
    assert len(tr.steps) == 1
    assert tr.steps[0].subset == ()


def test_trace_is_deterministic():
    t = _three_feature_table(seed=4)
    a = rfe_cv(t, FAST, k_folds=3, seed=9)
    b = rfe_cv(t, FAST, k_folds=3, seed=9)
    assert asdict(a) == asdict(b)
    c = rfe_cv(t, FAST, k_folds=3, seed=10)
    assert asdict(a) != asdict(c)


def test_class_smaller_than_folds_rejected():
    t = _three_feature_table()
    with pytest.raises(DataValidationError):
        rfe_cv(t, FAST, k_folds=20, seed=0)


def test_select_best_max_accuracy():
    tr = RfeTrace(
        steps=[RfeStep(("a", "b"), 0.6), RfeStep(("a",), 0.7), RfeStep((), 0.5)],
        initial_ranking=("a", "b", "c"), eliminated_order=("c", "b", "a"),
        full_accuracy=0.6, k_folds=5, seed=0)
    subset, acc = select_best(tr)
    assert subset == ("a",)
    assert acc == 0.7


def test_select_best_tie_prefers_smaller_subset():
    tr = RfeTrace(
        steps=[
            RfeStep(tuple("abcdefgh"), 0.7),
            RfeStep(tuple("abcdefg"), 0.65),
            RfeStep(tuple("abc"), 0.7),
            RfeStep(tuple("ab"), 0.6),
        ],
        initial_ranking=tuple("abcdefghi"), eliminated_order=tuple("ihgfedcba"),
        full_accuracy=0.6, k_folds=5, seed=0)
    subset, _ = select_best(tr)
    assert subset == tuple("abc")


def test_select_best_empty_trace_rejected():
    tr = RfeTrace(steps=[], initial_ranking=(), eliminated_order=(),
                  full_accuracy=0.0, k_folds=5, seed=0)
    with pytest.raises(DataValidationError):
        select_best(tr)


def test_informative_features_survive_elimination():
    # 5 weakly informative + 15 noise features; best subset keeps the signal
    rng = np.random.default_rng(12)
    n = 60
    labels = np.array([0, 1] * (n // 2))
    informative = np.column_stack([labels + rng.normal(0, 1.0, n) for _ in range(5)])
    noise = rng.normal(size=(n, 15))
    names = [f"info{i}" for i in range(5)] + [f"noise{i}" for i in range(15)]
    t = _table(np.column_stack([informative, noise]), labels, names=names)
    tr = rfe_cv(t, ForestConfig(n_trees=20, seed=0), k_folds=3, seed=1)
    subset, acc = select_best(tr)
    kept_informative = sum(1 for name in subset if name.startswith("info"))
    assert kept_informative >= 4
    assert acc >= tr.full_accuracy - 0.02


def test_rerank_mode_still_covers_all_sizes():
    t = _three_feature_table(seed=6)
    tr = rfe_cv(t, FAST, k_folds=3, seed=5, rerank=True)
    assert [len(s.subset) for s in tr.steps] == [2, 1, 0]
    assert sorted(tr.eliminated_order) == sorted(tr.initial_ranking)


def test_trace_json_round_trip(tmp_path):
    t = _three_feature_table(seed=7)
    tr = rfe_cv(t, FAST, k_folds=3, seed=6)
    save_trace(tr, tmp_path / "trace.json")
    back = load_trace(tmp_path / "trace.json")
    assert asdict(back) == asdict(tr)


def test_accuracy_curve_rows(tmp_path):
    t = _three_feature_table(seed=8)
    tr = rfe_cv(t, FAST, k_folds=3, seed=7)
    path = tmp_path / "curve.csv"
    write_accuracy_curve(tr, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,subset_size,cv_accuracy"
    assert len(lines) == 1 + 3


def test_malformed_trace_rejected(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"steps": [{"subset": ["a"]}]}))
    with pytest.raises(DataValidationError):
        load_trace(path)


def _bits(mdl):
    """A forest to the bit: its document, with thresholds and importances
    also as ``float.hex``."""
    doc = forest_to_json(mdl)
    doc["threshold_hex"] = [[float(x).hex() for x in tree["threshold"]] for tree in doc["trees"]]
    doc["importance_hex"] = [float(x).hex() for x in mdl.importances]
    return json.dumps(doc, sort_keys=True)


def _fold_table():
    """41 rows, so 5 folds hold 9, 8, 8, 8 and 8 rows and the fold forests
    have unequal row counts. Columns: two normal, two of few levels (in
    "level0" every held-out value ties a training value), signed zeros, and
    a constant."""
    rng = np.random.default_rng(41)
    n = 41
    labels = rng.integers(0, 2, size=n)
    labels[:10] = [0, 1] * 5
    values = np.column_stack([
        rng.normal(size=n) + labels,
        rng.normal(size=n),
        rng.integers(0, 3, size=n) * 0.5,
        rng.integers(0, 3, size=n) - labels * 0.5,
        rng.choice([-0.0, 0.0, 1.0, -1.0], size=n),
        np.full(n, -2.5),
    ])
    names = ["normal0", "normal1", "level0", "level1", "signed", "constant"]
    return _table(values, labels, names=names)


FOLD_CASES = {
    "default_sqrt": (None, dict(n_trees=12)),
    "no_bootstrap": (None, dict(n_trees=6, bootstrap=False)),
    "depth1_leaf2": (None, dict(n_trees=12, max_depth=1, min_samples_leaf=2)),
    "depth2_leaf3": (None, dict(n_trees=12, max_depth=2, min_samples_leaf=3)),
    "m1": (None, dict(n_trees=12, features_per_split=1)),
    "ties_zeros_constant": (["level0", "signed", "constant"], dict(n_trees=12, features_per_split=2)),
    "one_feature": (["level1"], dict(n_trees=12)),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_batched_fold_forests_match_per_fold_forests(case):
    names, cfg = FOLD_CASES[case]
    t = _fold_table()
    names = names or t.feature_names
    cfg = ForestConfig(**cfg, seed=99)
    split = stratified_kfold(t.labels, 5, seed=3)
    rows = [np.flatnonzero(split.fold_assignments != fold) for fold in range(5)]
    assert sorted(r.size for r in rows) == [32, 33, 33, 33, 33]
    level = t.column("level0")  # every held-out value ties a training value
    assert np.isin(level[split.fold_indices(0)], level[rows[0]]).all()

    proba, preds = cv_predictions(t, names, cfg, split, seed=17, tag=4)
    want_proba, want_preds, want_models = cv_predictions_oracle(t, names, cfg, split, 17, 4)
    assert proba.tobytes() == want_proba.tobytes()
    assert np.array_equal(preds, want_preds)

    sub = t.select(names)
    models = train_forests(sub, cfg, rows, [_derived_seed(17, 4, fold) for fold in range(5)])
    for fold, (got, want) in enumerate(zip(models, want_models, strict=True)):
        assert _bits(got) == _bits(want)
        assert (predict_proba_matrix(got, sub.values).tobytes()
                == predict_proba_matrix(want, sub.values).tobytes())
        # and the recursive oracle grown on the fold's rows alone
        fold_rows = rows[fold]
        doc = forest_oracle(sub.values[fold_rows], t.labels[fold_rows], names,
                            **asdict(got.config))
        assert (json.dumps(forest_to_json(got), sort_keys=True)
                == json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("rerank", [False, True])
def test_rfe_trace_matches_per_fold_oracle(monkeypatch, rerank):
    t = _fold_table()
    cfg = ForestConfig(n_trees=8, seed=5)
    got = rfe_cv(t, cfg, k_folds=5, seed=23, rerank=rerank)
    monkeypatch.setattr(rfe_mod, "cv_predictions",
                        lambda *args, **kw: cv_predictions_oracle(*args, **kw)[:2])
    want = rfe_cv(t, cfg, k_folds=5, seed=23, rerank=rerank)
    assert json.dumps(asdict(got)) == json.dumps(asdict(want))


# the per-fold grow path this batch replaced peaked at 1.87 MB here (tracemalloc,
# numpy 2.4); the batch keeps a step's search buffers and all k forests' state
RFE_PEAK_BOUND = 1.25 * 1.87 * 2 ** 20


def test_rfe_cv_memory_peak_is_bounded():
    rng = np.random.default_rng(94)
    n = 40
    labels = np.array([0, 1] * (n // 2))
    values = rng.normal(size=(n, 94))
    values[:, :10] += labels[:, None]
    t = _table(values, labels, names=[f"f{j:02d}" for j in range(94)])
    tracemalloc.start()
    try:
        rfe_cv(t, ForestConfig(seed=1), k_folds=5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RFE_PEAK_BOUND, peak
