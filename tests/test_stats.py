import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mwu_by_pair_counting, mwu_exact_p_oracle

from radlearn.errors import DataValidationError
from radlearn.metrics import auroc
from radlearn.stats import filter_significant, mann_whitney_u, modality_intersection
from radlearn.table import FeatureTable
from radlearn.volume import PhantomSpec, generate_phantom
from radlearn.features import extract_all
import radlearn.table as table_mod


def test_separated_samples_exact_p():
    r = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert r.u_statistic == 0.0
    assert r.method == "exact"
    assert r.p_value == pytest.approx(0.1)  # 2/20 assignments reach min-U 0


def test_identical_samples_exact():
    r = mann_whitney_u([1, 2], [1, 2])
    assert r.u_statistic == pytest.approx(2.0)  # n1*n2/2 with midranks
    assert r.p_value == pytest.approx(1.0)


def test_identical_multisets_u_half():
    x = [3, 1, 4, 1, 5]
    r = mann_whitney_u(x, list(x))
    assert r.u_statistic == pytest.approx(len(x) ** 2 / 2)


def test_empty_sample_rejected():
    with pytest.raises(DataValidationError):
        mann_whitney_u([], [1.0])


def test_normal_approximation_path():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 10)
    y = rng.normal(2, 1, 10)
    r = mann_whitney_u(x, y)
    assert r.method == "normal_approx"
    assert r.p_value < 0.01


def test_all_tied_large_sample():
    r = mann_whitney_u([1.0] * 10, [1.0] * 10)
    assert r.method == "normal_approx"
    assert r.p_value == 1.0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_u_matches_pair_counting_and_p_matches_enumeration(n1, n2, seed):
    rng = np.random.default_rng(seed)
    # draw from a small integer range so ties are frequent
    x = rng.integers(0, 5, n1).astype(float)
    y = rng.integers(0, 5, n2).astype(float)
    r = mann_whitney_u(x, y)
    ux, uy = mwu_by_pair_counting(x.tolist(), y.tolist())
    assert r.u_x == pytest.approx(ux, abs=1e-12)
    assert r.u_y == pytest.approx(uy, abs=1e-12)
    assert r.u_statistic == pytest.approx(min(ux, uy), abs=1e-12)
    assert r.p_value == pytest.approx(mwu_exact_p_oracle(x.tolist(), y.tolist()), abs=1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_u_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=5)
    y = rng.normal(size=4)

    def transform(a):
        return np.exp(a) + a ** 3  # strictly increasing

    r1 = mann_whitney_u(x, y)
    r2 = mann_whitney_u(transform(x), transform(y))
    assert r1.u_statistic == r2.u_statistic
    assert r1.p_value == r2.p_value


def test_exact_close_to_normal_band():
    # sanity band from the module contract: |exact - approx| <= 0.05 at n1=n2=6
    rng = np.random.default_rng(7)
    from radlearn.stats import _normal_two_sided_p

    for _ in range(25):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        r = mann_whitney_u(x, y)
        approx = _normal_two_sided_p(np.concatenate([x, y]), 6, 6, r.u_statistic)
        assert abs(r.p_value - approx) <= 0.05


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_auroc_u_identity(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(4, 30)
    labels = np.zeros(n, dtype=int)
    labels[: rng.integers(1, n)] = 1
    rng.shuffle(labels)
    if labels.sum() == 0 or labels.sum() == n:
        labels[0] = 1
        labels[-1] = 0
    scores = rng.integers(0, 6, n).astype(float)  # heavy ties
    neg = scores[labels == 0]
    pos = scores[labels == 1]
    r = mann_whitney_u(neg, pos)  # u_y counts wins of the positive sample
    assert auroc(scores, labels) == pytest.approx(r.u_y / (len(neg) * len(pos)), abs=1e-12)


def _toy_table():
    rng = np.random.default_rng(3)
    n = 40
    labels = np.array([0] * 20 + [1] * 20)
    informative = labels * 2.0 + rng.normal(0, 0.5, n)
    flat = np.full(n, 3.14)
    return FeatureTable(
        sample_ids=[f"s{i}" for i in range(n)],
        feature_names=["informative", "flat"],
        values=np.column_stack([informative, flat]),
        labels=labels,
    )


def test_filter_significant_directions():
    report = filter_significant(_toy_table(), alpha=0.05)
    by_name = {f.name: f for f in report.features}
    assert by_name["informative"].significant
    assert not by_name["flat"].significant
    assert by_name["flat"].p_value == 1.0
    assert len(report.features) == 2


def test_filter_boundary_alpha_inclusive():
    report = filter_significant(_toy_table(), alpha=1.0)
    assert all(f.significant for f in report.features)  # p <= alpha inclusive


def test_filter_single_class_rejected():
    t = _toy_table()
    bad = FeatureTable(sample_ids=t.sample_ids, feature_names=t.feature_names,
                       values=t.values, labels=np.zeros(t.n_samples, dtype=int))
    with pytest.raises(DataValidationError):
        filter_significant(bad)


def test_filter_on_phantom_contrast():
    spec = PhantomSpec(n_samples_per_class=10, dims=(10, 10, 10),
                       texture_amplitude=2.0, noise_sigma=0.1, seed=21)
    samples = generate_phantom(spec)
    vectors = [extract_all(v, m, n_bins=8) for v, m, _ in samples]
    t = table_mod.from_rows([f"s{i}" for i in range(len(samples))],
                            [lab for _, _, lab in samples], vectors)
    report = filter_significant(t, alpha=0.05)
    by_name = {f.name: f for f in report.features}
    assert by_name["glcm.Contrast"].significant


def test_modality_intersection_basic():
    summary = modality_intersection({
        "A": {"a", "b"},
        "B": {"b", "c"},
        "C": {"b"},
    })
    assert summary.common == ["b"]
    assert summary.common_size == 1
    assert summary.union_size == 3
    assert summary.pairwise == {"A&B": 1, "A&C": 1, "B&C": 1}


def test_modality_intersection_identical_and_disjoint():
    same = modality_intersection({"A": {"x", "y"}, "B": {"x", "y"}})
    assert same.common == ["x", "y"] and same.common_size == 2
    disjoint = modality_intersection({"A": {"x"}, "B": {"y"}})
    assert disjoint.common == [] and disjoint.common_size == 0
    assert disjoint.union_size == 2


def test_modality_intersection_needs_two():
    with pytest.raises(DataValidationError):
        modality_intersection({"A": {"x"}})
