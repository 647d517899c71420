import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import agglomerate_oracle, cut_oracle, pearson_oracle

from radlearn.cluster import (
    agglomerate,
    correlation_distance_matrix,
    cut,
)
from radlearn.errors import DataValidationError
from radlearn.table import FeatureTable


def _table(columns: dict):
    names = list(columns)
    values = np.column_stack([columns[n] for n in names])
    n = values.shape[0]
    labels = np.array([0, 1] * (n // 2) + [0] * (n % 2))
    return FeatureTable(sample_ids=[f"s{i}" for i in range(n)],
                        feature_names=names, values=values, labels=labels)


def test_distance_self_is_zero_and_scaled_copy_is_zero():
    f = np.array([1.0, 2.0, 3.0, 4.0])
    t = _table({"f": f, "double": 2 * f, "neg": -f})
    d = correlation_distance_matrix(t)
    assert np.all(np.diag(d) == 0)
    assert d[0, 1] == pytest.approx(0.0)  # perfect correlation
    assert d[0, 2] == pytest.approx(0.0)  # absolute value of rho
    assert np.allclose(d, d.T)


def test_distance_hand_pearson():
    t = _table({"f": [1.0, 2.0, 3.0], "g": [1.0, 3.0, 2.0]})
    d = correlation_distance_matrix(t)
    rho = pearson_oracle([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert rho == pytest.approx(0.5)
    assert d[0, 1] == pytest.approx(0.5)


def test_zero_variance_feature_distance_one():
    t = _table({"f": [1.0, 2.0, 3.0], "flat": [5.0, 5.0, 5.0]})
    d = correlation_distance_matrix(t)
    assert d[0, 1] == 1.0
    assert d[1, 1] == 0.0


def test_all_zero_variance_features_distance_one():
    t = _table({"flat": [5.0, 5.0, 5.0], "flat2": [-1.0, -1.0, -1.0]})
    d = correlation_distance_matrix(t)
    assert d.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_distance_needs_two_samples_and_two_features():
    t1 = _table({"f": [1.0], "g": [2.0]})
    with pytest.raises(DataValidationError):
        correlation_distance_matrix(t1)
    t2 = _table({"f": [1.0, 2.0]})
    with pytest.raises(DataValidationError):
        correlation_distance_matrix(t2)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_distance_invariant_under_positive_affine(seed, a, b):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=8)
    g = rng.normal(size=8)
    t1 = _table({"f": f, "g": g})
    t2 = _table({"f": a * f + b, "g": g})
    d1 = correlation_distance_matrix(t1)
    d2 = correlation_distance_matrix(t2)
    assert d1[0, 1] == pytest.approx(d2[0, 1], abs=1e-12)


def test_average_linkage_hand_case():
    d = np.array([
        [0.0, 0.1, 0.9],
        [0.1, 0.0, 0.8],
        [0.9, 0.8, 0.0],
    ])
    dg = agglomerate(d, ["A", "B", "C"])
    assert dg.merges[0][:2] == (0, 1)
    assert dg.merges[0][2] == pytest.approx(0.1)
    assert dg.merges[1][2] == pytest.approx(0.85)  # average of 0.9 and 0.8


def test_equal_distances_tie_break_deterministic():
    d = np.ones((4, 4)) - np.eye(4)
    names = ["d", "c", "b", "a"]
    dg = agglomerate(d, names)
    # first merge joins the lexicographically smallest representative pair (a, b)
    first = dg.merges[0]
    merged_names = {names[first[0]], names[first[1]]}
    assert merged_names == {"a", "b"}
    again = agglomerate(d, names)
    assert again.merges == dg.merges


def test_two_leaves_single_merge():
    d = np.array([[0.0, 0.4], [0.4, 0.0]])
    dg = agglomerate(d, ["x", "y"])
    assert len(dg.merges) == 1
    assert dg.merges[0] == (0, 1, 0.4)


def test_average_linkage_heights_non_decreasing():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    dg = agglomerate(d, [f"f{i}" for i in range(8)])
    heights = [h for _, _, h in dg.merges]
    assert all(h2 >= h1 - 1e-12 for h1, h2 in zip(heights, heights[1:]))


def test_cut_extremes():
    d = np.ones((3, 3)) - np.eye(3)
    dg = agglomerate(d, ["a", "b", "c"])
    assert cut(dg, 3) == [["a"], ["b"], ["c"]]
    assert cut(dg, 1) == [["a", "b", "c"]]
    with pytest.raises(DataValidationError):
        cut(dg, 0)
    with pytest.raises(DataValidationError):
        cut(dg, 4)


def test_cut_partitions_leaves():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(7, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    names = [f"f{i}" for i in range(7)]
    dg = agglomerate(d, names)
    for k in range(1, 8):
        clusters = cut(dg, k)
        assert len(clusters) == k
        flat = sorted(name for c in clusters for name in c)
        assert flat == sorted(names)


def test_cut_matches_union_find_oracle():
    # distances from a few integer values, so many pairs tie, and leaf names
    # in shuffled order, so clusters and members need their sorting
    rng = np.random.default_rng(21)
    for n in range(2, 41):
        upper = np.triu(rng.integers(0, 4, size=(n, n)).astype(np.float64), 1)
        names = [f"f{i:02d}" for i in rng.permutation(n)]
        dg = agglomerate(upper + upper.T, names)
        for k in range(1, n + 1):
            assert cut(dg, k) == cut_oracle(dg, k), (n, k)


def test_planted_pairs_recovered():
    # three correlated pairs; cut at k=3 recovers them exactly
    rng = np.random.default_rng(17)
    n = 40
    base = [rng.normal(size=n) for _ in range(3)]
    columns = {}
    for i, b in enumerate(base):
        columns[f"p{i}_a"] = b + rng.normal(0, 0.05, n)
        columns[f"p{i}_b"] = -b + rng.normal(0, 0.05, n)  # anti-correlated pairs too
    t = _table(columns)
    names = list(columns)
    d = correlation_distance_matrix(t, names)
    dg = agglomerate(d, names)
    clusters = cut(dg, 3)
    assert sorted(map(tuple, clusters)) == [
        ("p0_a", "p0_b"), ("p1_a", "p1_b"), ("p2_a", "p2_b")]


def test_asymmetric_matrix_rejected():
    d = np.array([[0.0, 0.5], [0.4, 0.0]])
    with pytest.raises(DataValidationError):
        agglomerate(d, ["a", "b"])


@st.composite
def _linkage_cases(draw):
    n = draw(st.integers(2, 12))
    # few levels give many exactly equal distances, and so many ties
    levels = draw(st.sampled_from([[0.5], [0.0, 1.0], [0.1, 0.2, 0.3, 1.0]])
                  | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(st.sampled_from(levels))
    # zero-variance features sit at distance 1.0 from everything
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        d[i] = d[:, i] = 1.0
        d[i, i] = 0.0
    names = [f"f{i:02d}" for i in range(n)]
    order = draw(st.sampled_from(["ascending", "reversed", "shuffled"]))
    if order == "reversed":
        names.reverse()
    elif order == "shuffled":
        names = draw(st.permutations(names))
    return d, names


def _bits(merges):
    return [(a, b, float(h).hex()) for a, b, h in merges]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_linkage_cases())
def test_agglomerate_matches_pairwise_scan_oracle(case):
    d, names = case
    assert _bits(agglomerate(d, names).merges) == _bits(agglomerate_oracle(d, names))


def test_agglomerate_matches_oracle_on_correlation_distances():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(12, 5))
    columns = {f"g{i:02d}": base[:, i % 5] * (-1) ** i + (i // 5) * rng.normal(0, 0.1, 12)
               for i in range(20)}
    columns["flat_a"] = np.full(12, 3.0)
    columns["flat_b"] = np.zeros(12)
    names = sorted(columns, reverse=True)
    d = correlation_distance_matrix(_table(columns), names)
    assert _bits(agglomerate(d, names).merges) == _bits(agglomerate_oracle(d, names))


def test_duplicate_leaf_names_rejected():
    d = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(DataValidationError, match="distinct"):
        agglomerate(d, ["a", "b", "a"])
