import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_mask, vol_from_values
from oracles import first_order_oracle

from radlearn.errors import DataValidationError
from radlearn.features import FIRST_ORDER_FEATURES, first_order
from radlearn.volume import PhantomSpec, RoiMask, generate_phantom


def test_constant_region():
    v = vol_from_values([5.0] * 8, dims=(2, 2, 2))
    fv = first_order(v, full_mask((2, 2, 2)))
    assert fv["firstorder.Mean"] == 5.0
    assert fv["firstorder.Variance"] == 0.0
    assert fv["firstorder.Energy"] == 200.0
    assert fv["firstorder.Skewness"] == 0.0
    assert fv["firstorder.Kurtosis"] == 0.0
    assert fv["firstorder.Entropy"] == 0.0


def test_hand_computed_values():
    v = vol_from_values([1.0, 2.0, 3.0, 4.0], dims=(4, 1, 1))
    fv = first_order(v, full_mask((4, 1, 1)))
    assert fv["firstorder.Mean"] == pytest.approx(2.5)
    assert fv["firstorder.Variance"] == pytest.approx(1.25)
    assert fv["firstorder.Median"] == pytest.approx(2.5)
    assert fv["firstorder.Minimum"] == 1.0
    assert fv["firstorder.Maximum"] == 4.0
    assert fv["firstorder.Energy"] == pytest.approx(30.0)


def test_two_value_entropy_is_one_bit():
    v = vol_from_values([0.0, 0.0, 1.0, 1.0], dims=(4, 1, 1))
    fv = first_order(v, full_mask((4, 1, 1)))
    assert fv["firstorder.Entropy"] == pytest.approx(1.0)


def test_exactly_nine_features():
    v = vol_from_values([1.0, 2.0], dims=(2, 1, 1))
    fv = first_order(v, full_mask((2, 1, 1)))
    assert len(fv) == 9
    assert all(n.startswith("firstorder.") for n in fv.names)


def test_empty_mask_rejected():
    v = vol_from_values([1.0, 2.0], dims=(2, 1, 1))
    m = RoiMask(dims=(2, 1, 1), bits=np.zeros(2, dtype=np.uint8))
    with pytest.raises(DataValidationError):
        first_order(v, m)


@given(st.lists(st.integers(min_value=-500, max_value=500), min_size=2, max_size=30),
       st.integers(min_value=-100, max_value=100))
@settings(max_examples=60, deadline=None)
def test_translation_behaviour(values, shift):
    n = len(values)
    base = first_order(vol_from_values(values, dims=(n, 1, 1)), full_mask((n, 1, 1)))
    moved = first_order(vol_from_values([v + shift for v in values], dims=(n, 1, 1)),
                        full_mask((n, 1, 1)))
    for name in ("Mean", "Median", "Minimum", "Maximum"):
        assert moved[f"firstorder.{name}"] == pytest.approx(
            base[f"firstorder.{name}"] + shift, abs=1e-9)
    for name in ("Variance", "Skewness", "Kurtosis", "Entropy"):
        assert moved[f"firstorder.{name}"] == pytest.approx(
            base[f"firstorder.{name}"], abs=1e-9)


def _phantom(dims, sigma, amplitude, seed=7):
    spec = PhantomSpec(n_samples_per_class=1, dims=dims, texture_amplitude=amplitude,
                       noise_sigma=sigma, seed=seed)
    return generate_phantom(spec)


@pytest.mark.parametrize("sigma", [0.0, 0.1, 3.0])
@pytest.mark.parametrize("amplitude", [0.0, 0.37, 2.0])
def test_matches_per_statistic_oracle_bytes(sigma, amplitude):
    for v, m, _ in _phantom((24, 24, 24), sigma, amplitude):
        x = v.voxels[m.bits.astype(bool)].astype(np.float64)
        got = first_order(v, m)
        assert got.names == [f"firstorder.{n}" for n in FIRST_ORDER_FEATURES]
        assert got.values.tobytes() == first_order_oracle(x, FIRST_ORDER_FEATURES).tobytes()


@pytest.mark.parametrize("values, dims", [
    ([5.25] * 24, (4, 3, 2)),  # constant region: variance 0
    ([-3.5], (1, 1, 1)),  # single-voxel ROI
    ([0.1, 1e-3, 7.0, -2.5, 0.1, 3.3, 1e4, -1e-4], (2, 2, 2)),
])
def test_degenerate_regions_match_oracle_bytes(values, dims):
    v = vol_from_values(values, dims=dims)
    x = v.voxels.astype(np.float64)
    got = first_order(v, full_mask(dims))
    assert got.values.tobytes() == first_order_oracle(x, FIRST_ORDER_FEATURES).tobytes()
