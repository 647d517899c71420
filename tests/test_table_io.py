import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radlearn.cluster import correlation_distance_matrix
from radlearn.errors import DataValidationError
from radlearn.features.vector import FeatureVector
from radlearn.nn.trace import (
    EpochRecord,
    HistogramRecord,
    LayerEpochRecord,
    MetricRecord,
    TrainTrace,
)
from radlearn.rfe import RfeStep, RfeTrace
from radlearn.table import (
    FeatureTable,
    from_rows,
    read_feature_table,
    write_feature_table,
)


def _table():
    rng = np.random.default_rng(0)
    return FeatureTable(
        sample_ids=[f"s{i}" for i in range(6)],
        feature_names=["a.x", "a.y", "b.z"],
        values=rng.normal(size=(6, 3)) * 1e3,
        labels=np.array([0, 1, 0, 1, 0, 1]),
    )


def test_round_trip_exact_values(tmp_path):
    t = _table()
    path = tmp_path / "features.csv"
    write_feature_table(t, path)
    back = read_feature_table(path)
    assert back.sample_ids == t.sample_ids
    assert back.feature_names == t.feature_names
    assert np.array_equal(back.values, t.values)  # shortest round-trip repr
    assert np.array_equal(back.labels, t.labels)


def test_round_trip_awkward_floats(tmp_path):
    t = FeatureTable(sample_ids=["s0", "s1"], feature_names=["f"],
                     values=np.array([[0.1 + 0.2], [1e-17]]),
                     labels=np.array([0, 1]))
    write_feature_table(t, tmp_path / "f.csv")
    back = read_feature_table(tmp_path / "f.csv")
    assert np.array_equal(back.values, t.values)


def test_duplicate_columns_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,label,f,f\ns0,0,1.0,2.0\n")
    with pytest.raises(DataValidationError, match="duplicate"):
        read_feature_table(tmp_path / "bad.csv")


def test_non_binary_label_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,label,f\ns0,2,1.0\n")
    with pytest.raises(DataValidationError, match="label"):
        read_feature_table(tmp_path / "bad.csv")


def test_ragged_row_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,label,f,g\ns0,0,1.0\n")
    with pytest.raises(DataValidationError, match="ragged"):
        read_feature_table(tmp_path / "bad.csv")


def test_bad_header_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("id,label,f\ns0,0,1.0\n")
    with pytest.raises(DataValidationError, match="header"):
        read_feature_table(tmp_path / "bad.csv")


def test_non_numeric_value_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,label,f\ns0,0,spam\n")
    with pytest.raises(DataValidationError):
        read_feature_table(tmp_path / "bad.csv")


def test_field_beyond_csv_limit_rejected(tmp_path):
    # the csv module refuses fields longer than its field size limit
    (tmp_path / "bad.csv").write_text("sample_id,label,f\n" + "s" * 200_000 + ",0,1.0\n")
    with pytest.raises(DataValidationError, match="not valid CSV"):
        read_feature_table(tmp_path / "bad.csv")


def test_from_rows_requires_matching_names():
    v1 = FeatureVector(names=["a"], values=np.array([1.0]))
    v2 = FeatureVector(names=["b"], values=np.array([2.0]))
    with pytest.raises(DataValidationError):
        from_rows(["s0", "s1"], [0, 1], [v1, v2])


def test_select_and_class_split():
    t = _table()
    sub = t.select(["b.z", "a.x"])
    assert sub.feature_names == ["b.z", "a.x"]
    assert np.array_equal(sub.values[:, 0], t.column("b.z"))
    neg, pos = t.class_split("a.x")
    assert neg.size == 3 and pos.size == 3


def test_unknown_column_is_a_data_error():
    with pytest.raises(DataValidationError, match="'nope'"):
        _table().column("nope")
    with pytest.raises(DataValidationError, match="'nope'"):
        correlation_distance_matrix(_table(), ["nope", "a.x"])


def test_table_invariants():
    with pytest.raises(DataValidationError):
        FeatureTable(sample_ids=["a"], feature_names=["f", "f"],
                     values=np.zeros((1, 2)), labels=np.array([0]))
    with pytest.raises(DataValidationError):
        FeatureTable(sample_ids=["a", "b"], feature_names=["f"],
                     values=np.zeros((2, 1)), labels=np.array([0, 2]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(tmp_path, cell):
    (tmp_path / "bad.csv").write_text(f"sample_id,label,f,g\ns0,0,1.0,2.0\ns1,1,3.0,{cell}\n")
    with pytest.raises(DataValidationError, match="non-finite value .* 'g' of sample 's1'"):
        read_feature_table(tmp_path / "bad.csv")


def test_write_json_sorted_indented_with_trailing_newline(tmp_path):
    from radlearn.jsonio import write_json

    write_json({"b": 1, "a": [1.5, None]}, tmp_path / "x.json")
    assert (tmp_path / "x.json").read_bytes() == \
        b'{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'


_AWKWARD_FLOATS = [-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf, 0.1, 1e-7]
_floats = st.floats() | st.sampled_from(_AWKWARD_FLOATS)
_scalars = (st.none() | st.booleans() | st.integers(-10**40, 10**40) | _floats
            | _floats.map(np.float64)
            | st.text(max_size=12)
            | st.sampled_from(['"', "\\", "é", "\x00\n\t\x1f", 'quo"ted ünï', "\U0001f600"]))


def _records(inner):
    """The repo's dataclasses, holding documents of their field types or any other."""
    hist = st.builds(HistogramRecord, counts=st.lists(st.integers(0, 10**9), max_size=33),
                     lo=_floats, hi=_floats)
    metric = st.builds(MetricRecord, loss=_floats, accuracy=inner, sensitivity=_floats,
                       specificity=_floats)
    layer = st.builds(LayerEpochRecord, weight_l2=_floats, grad_l2=_floats, delta_l2=_floats,
                      weight_hist=hist, grad_hist=hist)
    epoch = st.builds(EpochRecord, layers=st.dictionaries(st.text(max_size=6), layer, max_size=3),
                      train=metric, validation=metric)
    trace = st.builds(TrainTrace, layer_names=st.lists(st.text(max_size=6), max_size=3),
                      epochs=st.lists(epoch, max_size=2))
    step = st.builds(RfeStep, subset=st.lists(st.text(max_size=6), max_size=4).map(tuple),
                     cv_accuracy=_floats)
    rfe = st.builds(RfeTrace, steps=st.lists(step, max_size=3),
                    initial_ranking=st.tuples(st.text(max_size=6)), eliminated_order=st.tuples(),
                    full_accuracy=inner, k_folds=st.integers(), seed=st.integers())
    return hist | metric | trace | step | rfe


_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=5)
                   | st.dictionaries(st.integers(-3, 12), inner, max_size=3)
                   | st.lists(st.integers(), max_size=4) | st.lists(_floats, max_size=4)
                   | st.lists(st.text(max_size=4), max_size=4) | _records(inner)),
    max_leaves=40)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(doc=_documents)
def test_write_json_writes_json_dumps_bytes(tmp_path_factory, doc):
    from radlearn.jsonio import write_json

    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(doc, path)
    expected = json.dumps(doc, sort_keys=True, indent=2, default=dataclasses.asdict) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("doc", [
    np.int64(3), [1, np.int64(3)], {"a": (np.float32(0.5),)}, [np.float32(1.0)],
    MetricRecord(loss=np.int64(1), accuracy=0.5, sensitivity=0.5, specificity=0.5), object()])
def test_write_json_rejects_numpy_ints_and_float32(tmp_path, doc):
    from radlearn.jsonio import write_json

    with pytest.raises(TypeError, match="is not JSON serializable"):
        write_json(doc, tmp_path / "x.json")
