import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_mask, vol_from_values

from radlearn.errors import DataValidationError
from radlearn.quantize import QuantizedVolume, quantize_fixed_bins
from radlearn.volume import RoiMask


def test_constant_region_maps_to_level_one():
    v = vol_from_values([5.0] * 8, dims=(2, 2, 2))
    q = quantize_fixed_bins(v, full_mask((2, 2, 2)), 4)
    assert np.all(q.levels == 1)


def test_hand_applied_formula():
    # lo=0, hi=8, 4 bins: x=3 -> floor(3/8*4)+1 = 2
    v = vol_from_values([0.0, 8.0, 3.0, 1.0], dims=(4, 1, 1))
    q = quantize_fixed_bins(v, full_mask((4, 1, 1)), 4)
    assert q.levels.tolist() == [1, 4, 2, 1]


def test_max_value_clamps_to_n_bins():
    v = vol_from_values([0.0, 1.0, 2.0], dims=(3, 1, 1))
    q = quantize_fixed_bins(v, full_mask((3, 1, 1)), 5)
    assert q.levels[1] == 3  # floor(1/2*5)+1
    assert q.levels[2] == 5


def test_empty_mask_rejected():
    v = vol_from_values([1.0, 2.0], dims=(2, 1, 1))
    m = RoiMask(dims=(2, 1, 1), bits=np.zeros(2, dtype=np.uint8))
    with pytest.raises(DataValidationError):
        quantize_fixed_bins(v, m, 4)


def test_mask_support_equals_nonzero_levels():
    v = vol_from_values(np.arange(8, dtype=np.float32), dims=(2, 2, 2))
    bits = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    q = quantize_fixed_bins(v, RoiMask(dims=(2, 2, 2), bits=bits), 4)
    assert np.array_equal(q.levels > 0, bits.astype(bool))


@pytest.mark.parametrize("dims", [(2.9, 2, 2), (True, 2, 2), (0, 2, 2), (2, 2)])
def test_quantized_dims_must_be_positive_integers(dims):
    with pytest.raises(DataValidationError, match="dims must be 3 positive integers"):
        QuantizedVolume(dims=dims, levels=np.ones(8, dtype=np.int32), n_bins=4)


@pytest.mark.parametrize("n_levels", [0, 5, 28])
def test_level_count_must_match_dims_product(n_levels):
    with pytest.raises(DataValidationError, match="does not match dims product 27"):
        QuantizedVolume(dims=(3, 3, 3), levels=np.ones(n_levels, dtype=np.int32), n_bins=4)


@pytest.mark.parametrize("levels", [[2.7, 1.2], [1.0, np.nan], ["1", "2"]])
def test_non_integral_levels_rejected(levels):
    with pytest.raises(DataValidationError, match="levels must be integers"):
        QuantizedVolume(dims=(2, 1, 1), levels=np.array(levels), n_bins=4)


def test_integral_float_levels_accepted():
    q = QuantizedVolume(dims=(2, 1, 1), levels=np.array([2.0, 0.0]), n_bins=4)
    assert q.levels.dtype == np.int32 and q.levels.tolist() == [2, 0]


@pytest.mark.parametrize("level, n_bins", [(2 ** 32 + 1, 4), (2 ** 31, 2 ** 32)])
def test_out_of_range_levels_do_not_wrap_into_range(level, n_bins):
    with pytest.raises(DataValidationError, match="levels must lie in"):
        QuantizedVolume(dims=(2, 1, 1), levels=np.array([level, 1]), n_bins=n_bins)


@pytest.mark.parametrize("n_bins", [2.5, 4.0, True, "4", 0])
def test_n_bins_must_be_a_positive_integer(n_bins):
    with pytest.raises(DataValidationError, match="n_bins must be an integer >= 1"):
        QuantizedVolume(dims=(2, 1, 1), levels=np.array([1, 1]), n_bins=n_bins)


def test_numpy_integer_n_bins_becomes_int():
    q = QuantizedVolume(dims=(2, 1, 1), levels=np.array([1, 1]), n_bins=np.int64(4))
    assert type(q.n_bins) is int and q.n_bins == 4


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=27),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_monotone_in_intensity(values, n_bins):
    n = len(values)
    v = vol_from_values(values, dims=(n, 1, 1))
    q = quantize_fixed_bins(v, full_mask((n, 1, 1)), n_bins)
    vals32 = v.voxels
    order = np.argsort(vals32, kind="stable")
    assert np.all(np.diff(q.levels[order]) >= 0)


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=27),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=-100, max_value=100),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_affine_invariance(values, a, b, n_bins):
    # integer inputs stay exact in float32, so a*x + b commutes with binning
    n = len(values)
    v1 = vol_from_values(values, dims=(n, 1, 1))
    v2 = vol_from_values([a * x + b for x in values], dims=(n, 1, 1))
    q1 = quantize_fixed_bins(v1, full_mask((n, 1, 1)), n_bins)
    q2 = quantize_fixed_bins(v2, full_mask((n, 1, 1)), n_bins)
    assert np.array_equal(q1.levels, q2.levels)
