import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radlearn.errors import DataValidationError
from radlearn.forest import (
    ForestConfig,
    _grow_forest,
    forest_to_json,
    predict_proba_matrix,
    rank_features,
    train_forest,
    train_forests,
)
from radlearn.table import FeatureTable

from oracles import forest_oracle, forest_predict_oracle


def _table(values, labels, names=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    names = names or [f"f{i}" for i in range(values.shape[1])]
    return FeatureTable(sample_ids=[f"s{i}" for i in range(values.shape[0])],
                        feature_names=names, values=values,
                        labels=np.asarray(labels))


def _separable_table(seed=0, n=50):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    labels = (x > 0).astype(int)
    return _table(x, labels, names=["x"])


def test_separable_training_accuracy_is_one():
    t = _separable_table()
    mdl = train_forest(t, ForestConfig(n_trees=20, seed=3))
    proba = predict_proba_matrix(mdl, t.values)
    preds = (proba >= 0.5).astype(int)
    assert np.mean(preds == t.labels) == 1.0


def test_constant_feature_gets_zero_importance():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 60)
    values = np.column_stack([x, np.full(60, 7.0)])
    t = _table(values, (x > 0).astype(int), names=["signal", "flat"])
    mdl = train_forest(t, ForestConfig(n_trees=20, seed=5))
    assert mdl.importances[t.feature_names.index("flat")] == 0.0
    assert mdl.importances.sum() == pytest.approx(1.0)


def test_same_seed_same_predictions():
    t = _separable_table(seed=2)
    probe = np.linspace(-2, 2, 9)[:, None]
    a = predict_proba_matrix(train_forest(t, ForestConfig(n_trees=15, seed=11)), probe)
    b = predict_proba_matrix(train_forest(t, ForestConfig(n_trees=15, seed=11)), probe)
    assert np.array_equal(a, b)
    # a different seed grows a different forest, though its probabilities at
    # a few probes may coincide by chance
    trees_11, trees_12 = (forest_to_json(train_forest(t, ForestConfig(n_trees=15, seed=s)))["trees"]
                          for s in (11, 12))
    assert trees_11 != trees_12


def test_trees_draw_independent_candidate_sets():
    # every feature is the same perfect separator, so a stump splits on its
    # one candidate; trees sharing a key row would all pick the same feature
    x = np.arange(10.0)
    t = _table(np.tile(x[:, None], 8), (x >= 5).astype(int))
    mdl = train_forest(t, ForestConfig(n_trees=2000, max_depth=1, features_per_split=1,
                                       bootstrap=False, seed=0))
    roots = np.bincount(mdl.feature[:, 0], minlength=8)
    assert roots.sum() == 2000
    assert np.all(np.abs(roots - 250) <= 0.25 * 250), roots


def test_single_class_rejected():
    t = _table([1.0, 2.0, 3.0], [0, 0, 0])
    with pytest.raises(DataValidationError):
        train_forest(t, ForestConfig(n_trees=2, seed=0))


def test_predict_proba_leaf_means():
    t = _table([-1.0, -0.5, 0.5, 1.0], [0, 0, 1, 1])
    mdl = train_forest(t, ForestConfig(n_trees=1, bootstrap=False, seed=0))
    assert predict_proba_matrix(mdl, np.array([[1.0], [-1.0]])).tolist() == [1.0, 0.0]


def test_two_tree_mean():
    # two pure leaves from separable single-feature data
    t = _table([-1.0, 1.0], [0, 1])
    mdl = train_forest(t, ForestConfig(n_trees=2, bootstrap=False, min_samples_leaf=1, seed=1))
    proba = predict_proba_matrix(mdl, np.array([[-1.0], [1.0]]))
    assert proba[0] == 0.0 and proba[1] == 1.0


def test_point_deep_in_class0_region():
    t = _separable_table(seed=4)
    mdl = train_forest(t, ForestConfig(n_trees=30, seed=4))
    assert predict_proba_matrix(mdl, np.array([[-5.0]]))[0] < 0.5


def test_rank_features_by_importance_then_name():
    t = _separable_table()
    mdl = train_forest(t, ForestConfig(n_trees=5, seed=0))
    mdl.feature_names = ["b", "a", "c"]
    mdl.importances = np.array([0.3, 0.7, 0.0])
    assert rank_features(mdl) == ["a", "b", "c"]
    mdl.importances = np.zeros(3)
    assert rank_features(mdl) == ["a", "b", "c"]  # alphabetical on all-zero


def test_informative_feature_ranks_first_across_seeds():
    rng = np.random.default_rng(9)
    n = 60
    labels = np.array([0, 1] * (n // 2))
    informative = labels + rng.normal(0, 0.3, n)
    noise = rng.normal(0, 1, (n, 3))
    values = np.column_stack([informative, noise])
    t = _table(values, labels, names=["signal", "n1", "n2", "n3"])
    wins = 0
    for seed in range(40):
        mdl = train_forest(t, ForestConfig(n_trees=15, seed=seed))
        if rank_features(mdl)[0] == "signal":
            wins += 1
    assert wins >= 38  # >= 95% of seeds


def test_duplicated_rows_same_tree_without_bootstrap():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, (20, 2))
    labels = (x[:, 0] + 0.2 * rng.normal(size=20) > 0).astype(int)
    t1 = _table(x, labels)
    t2 = _table(np.vstack([x, x]), np.concatenate([labels, labels]))
    cfg = ForestConfig(n_trees=5, bootstrap=False, seed=8)
    m1 = train_forest(t1, cfg)
    m2 = train_forest(t2, cfg)
    probe = rng.normal(0, 1, (10, 2))
    assert np.array_equal(predict_proba_matrix(m1, probe), predict_proba_matrix(m2, probe))


def test_probabilities_within_unit_interval():
    t = _separable_table(seed=7)
    mdl = train_forest(t, ForestConfig(n_trees=10, seed=7))
    proba = predict_proba_matrix(mdl, np.linspace(-3, 3, 50)[:, None])
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)


def test_max_depth_and_min_leaf_respected():
    t = _separable_table(seed=3, n=40)
    stump = train_forest(t, ForestConfig(n_trees=3, max_depth=1, bootstrap=False, seed=0))
    for n_nodes in stump.n_nodes:
        assert n_nodes <= 3
    chunky = train_forest(t, ForestConfig(n_trees=3, min_samples_leaf=10, bootstrap=False, seed=0))

    def leaf_sizes(mdl, tree, X):
        # count samples reaching each leaf
        counts = {}
        for row in X:
            node_id = 0
            while mdl.feature[tree, node_id] >= 0:
                node_id = (mdl.left[tree, node_id]
                           if row[mdl.feature[tree, node_id]] <= mdl.threshold[tree, node_id]
                           else mdl.right[tree, node_id])
            counts[node_id] = counts.get(node_id, 0) + 1
        return counts.values()

    for tree in range(chunky.config.n_trees):
        assert all(c >= 10 for c in leaf_sizes(chunky, tree, t.values))


@st.composite
def _forest_cases(draw):
    n = draw(st.integers(2, 30))
    n_features = draw(st.integers(1, 6))
    # few levels give many ties and many levels deep trees; a real-valued
    # scale gives thresholds whose midpoints round
    levels = draw(st.integers(1, 12))
    grid = draw(st.lists(st.integers(0, levels), min_size=n * n_features,
                         max_size=n * n_features))
    scale = draw(st.sampled_from([1.0, 0.25]) | st.floats(1e-3, 1e3))
    values = np.array(grid, dtype=np.float64).reshape(n, n_features) * scale
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[1] = 0, 1
    cfg = dict(
        # past 8 trees a pairwise sum would differ from the tree-order sum
        n_trees=draw(st.integers(1, 12)),
        max_depth=draw(st.none() | st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 3)),
        features_per_split=draw(st.just("sqrt") | st.integers(1, n_features + 1)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )
    return values, np.array(labels), cfg


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_forest_cases())
def test_lockstep_forest_matches_recursive_oracle(case):
    values, labels, cfg = case
    t = _table(values, labels)
    mdl = train_forest(t, ForestConfig(**cfg))
    expected = forest_oracle(values, labels, t.feature_names, **cfg)
    assert (json.dumps(forest_to_json(mdl), sort_keys=True)
            == json.dumps(expected, sort_keys=True))
    probe = np.vstack([values, values[::-1] + 0.5 * values.std()])
    got = predict_proba_matrix(mdl, probe)
    assert got.tobytes() == forest_predict_oracle(expected, probe).tobytes()


def _crafted_tables():
    """Small tables whose split search meets signed zeros, negative values, a
    constant column and duplicated rows."""
    rng = np.random.default_rng(31)
    n = 14
    signed = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    negative = -rng.integers(1, 6, size=n) * 0.75
    constant = np.full(n, -2.5)
    fine = rng.normal(size=n)
    base = np.column_stack([signed, negative, constant, fine])
    labels = rng.integers(0, 2, size=n)
    labels[:2] = 0, 1
    dup = rng.integers(0, 5, size=n)  # only 5 distinct rows
    return [(base, labels), (base[dup], np.r_[0, 1, labels[dup][2:]]),
            (base[:, [2, 0]], labels), (-base, labels)]


# (n + 1)^2 = 225 table cells: one tree with one candidate searches 14 cells a
# round and computes the Gini masses; twelve with three search 504 and read a table
@pytest.mark.parametrize("shape", [dict(n_trees=1, features_per_split=1),
                                   dict(n_trees=12, features_per_split=3)])
def test_split_search_matches_oracle_on_crafted_tables(shape):
    for values, labels in _crafted_tables():
        t = _table(values, labels)
        for seed, leaf, bootstrap in [(0, 1, True), (5, 2, True), (9, 1, False), (13, 3, True)]:
            cfg = dict(shape, min_samples_leaf=leaf, bootstrap=bootstrap, seed=seed)
            mdl = train_forest(t, ForestConfig(**cfg))
            expected = forest_oracle(values, labels, t.feature_names, **cfg)
            assert (json.dumps(forest_to_json(mdl), sort_keys=True)
                    == json.dumps(expected, sort_keys=True))
            got = predict_proba_matrix(mdl, values)
            assert got.tobytes() == forest_predict_oracle(expected, values).tobytes()


def test_split_search_memory_is_not_quadratic_in_rows():
    # a Gini table for 3,000 rows would take 3001^2 floats, about 72 MB
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3000, 2))
    labels = (x[:, 0] > 0).astype(int)
    labels[:30] ^= 1
    t = _table(x, labels)
    tracemalloc.start()
    try:
        train_forest(t, ForestConfig(n_trees=1, features_per_split=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_batch_reuses_search_buffers_for_smaller_rounds_and_blocks():
    # 41 table rows; the widest forest holds 33 of them, so a search block
    # fits 12 * 32 // 40 = 9 nodes: the root round's up to 48 nodes take
    # several blocks, the last one short, and deeper rounds search fewer
    # nodes than a block holds, through the same buffers. The last forest
    # has 3 rows, so most of its slots are padding.
    rng = np.random.default_rng(8)
    n = 41
    labels = rng.integers(0, 2, size=n)
    labels[:2] = 0, 1
    values = np.column_stack([rng.normal(size=n) + 0.5 * labels, rng.normal(size=n),
                              rng.integers(0, 4, size=n) * 0.5, rng.normal(size=n)])
    t = _table(values, labels)
    order = rng.permutation(n)
    three = np.r_[np.flatnonzero(labels == 1)[:1], np.flatnonzero(labels == 0)[:2]]
    rows = [np.sort(order[:33]), order[8:40], np.sort(order[20:]), three]
    cfg = ForestConfig(n_trees=12, features_per_split=2)
    seeds = [4, 5, 6, 7]
    models = train_forests(t, cfg, rows, seeds)
    assert max(int(mdl.n_nodes.max()) for mdl in models[:3]) >= 9  # deep trees
    for mdl, idx, seed in zip(models, rows, seeds, strict=True):
        alone = train_forest(_table(values[idx], labels[idx]), replace(cfg, seed=seed))
        assert (json.dumps(forest_to_json(mdl), sort_keys=True)
                == json.dumps(forest_to_json(alone), sort_keys=True))
        assert [x.hex() for x in mdl.importances.tolist()] == \
            [x.hex() for x in alone.importances.tolist()]
        assert (predict_proba_matrix(mdl, values).tobytes()
                == predict_proba_matrix(alone, values).tobytes())


def test_root_gini_impurity_is_taken_with_python_pow():
    # 41 rows, 33 of class 1, split perfectly at the root: the root's decrease
    # is its Gini impurity alone. Squaring in numpy gives 0x1.41a31a58a2096p-2,
    # two units in the last place above; 41 rows is the smallest node it moves.
    y = (np.arange(41) >= 8).astype(np.int64)
    X = y[:, None].astype(np.float64)
    cfg = ForestConfig(n_trees=1, max_depth=1, features_per_split=1, bootstrap=False)
    nodes, _ = _grow_forest(X, y, np.arange(41)[None, :], np.array([41]),
                            [np.random.default_rng(0)], cfg)
    expected = 1 - ((33 / 41) ** 2 + (8 / 41) ** 2)
    assert nodes["decrease"][0, 0].hex() == expected.hex() == "0x1.41a31a58a2094p-2"
