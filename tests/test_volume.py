import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mask_from_zyx, vol_from_values
from oracles import glcm_counts_oracle, phantom_full_grid_reference, phantom_reference

from radlearn.errors import ConfigError, DataValidationError
from radlearn.quantize import quantize_fixed_bins
from radlearn.volume import (
    PhantomSpec,
    RoiMask,
    Volume,
    generate_phantom,
    iter_phantom,
    load_mask,
    load_volume,
    roi_slice_index,
    save_mask,
    save_volume,
)


def test_save_writes_header_and_raw_sizes(tmp_path):
    v = vol_from_values([1, 2, 3, 4], dims=(2, 2, 1))
    base = tmp_path / "vol"
    save_volume(v, base)
    header = json.loads((tmp_path / "vol.json").read_text())
    assert header["dims"] == [2, 2, 1]
    assert header["dtype"] == "f32le"
    assert (tmp_path / "vol.raw").stat().st_size == 16


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    v = vol_from_values(rng.normal(size=24).astype(np.float32), dims=(2, 3, 4))
    save_volume(v, tmp_path / "v")
    loaded = load_volume(tmp_path / "v")
    assert loaded.dims == v.dims
    assert loaded.spacing == v.spacing
    assert loaded.modality_tag == v.modality_tag
    assert loaded.voxels.tobytes() == v.voxels.tobytes()


def test_nan_voxel_rejected_on_save(tmp_path):
    v = vol_from_values([1, 2, 3, 4], dims=(2, 2, 1))
    v.voxels[0] = np.nan
    with pytest.raises(DataValidationError):
        save_volume(v, tmp_path / "bad")


def test_nan_voxel_rejected_on_construction():
    with pytest.raises(DataValidationError):
        vol_from_values([np.nan, 1, 2, 3], dims=(2, 2, 1))


def test_truncated_raw_detected(tmp_path):
    v = vol_from_values([1, 2, 3, 4], dims=(2, 2, 1))
    save_volume(v, tmp_path / "v")
    raw = (tmp_path / "v.raw").read_bytes()
    (tmp_path / "v.raw").write_bytes(raw[:-4])
    with pytest.raises(DataValidationError, match="length"):
        load_volume(tmp_path / "v")


@pytest.mark.parametrize("cut", [-4, -1, 1, 4])
def test_raw_length_mismatch_keeps_its_message(tmp_path, cut):
    save_volume(vol_from_values([1, 2, 3, 4], dims=(2, 2, 1)), tmp_path / "v")
    raw = (tmp_path / "v.raw").read_bytes()
    (tmp_path / "v.raw").write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
    message = f"raw file length {16 + cut} does not match dims [2, 2, 1] (expected 16)"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_volume(tmp_path / "v")


@pytest.mark.parametrize("cut", [-8, -1, 1])
def test_mask_length_mismatch_keeps_its_message(tmp_path, cut):
    (tmp_path / "v.mask.raw").write_bytes(b"\x01" * (8 + cut))
    message = f"mask file length {8 + cut} does not match dims (2, 2, 2) (expected 8)"
    with pytest.raises(DataValidationError, match=re.escape(message)):
        load_mask(tmp_path / "v", (2, 2, 2))


def test_load_volume_peaks_near_its_voxel_bytes(tmp_path):
    # one array read in place, plus the finiteness check's bool mask
    dims = (40, 40, 40)
    voxels = np.random.default_rng(2).normal(size=math.prod(dims)).astype(np.float32)
    save_volume(vol_from_values(voxels, dims=dims), tmp_path / "v")
    del voxels
    tracemalloc.start()
    try:
        load_volume(tmp_path / "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 4 * math.prod(dims), f"load_volume peaked at {peak} B"


def test_zero_dim_header_rejected(tmp_path):
    v = vol_from_values([1, 2, 3, 4], dims=(2, 2, 1))
    save_volume(v, tmp_path / "v")
    header = json.loads((tmp_path / "v.json").read_text())
    header["dims"] = [0, 2, 2]
    (tmp_path / "v.json").write_text(json.dumps(header))
    with pytest.raises(DataValidationError, match="dims"):
        load_volume(tmp_path / "v")


@pytest.mark.parametrize("header, match", [
    (5, "JSON object"),
    ({"spacing": "abc"}, "spacing"),
    ({"spacing": [1.0, 1.0, 0.0]}, "spacing"),
    ({"dims": 16}, "dims"),
    ({"dims": [2, 2, True]}, "dims"),
    ({"modality": 3}, "modality"),
])
def test_malformed_header_fields_rejected(tmp_path, header, match):
    save_volume(vol_from_values([1, 2, 3, 4], dims=(2, 2, 1)), tmp_path / "v")
    if isinstance(header, dict):
        header = {**json.loads((tmp_path / "v.json").read_text()), **header}
    (tmp_path / "v.json").write_text(json.dumps(header))
    with pytest.raises(DataValidationError, match=match):
        load_volume(tmp_path / "v")


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "nothing")


def test_malformed_header_raises(tmp_path):
    (tmp_path / "v.json").write_text("{not json")
    (tmp_path / "v.raw").write_bytes(b"\x00" * 4)
    with pytest.raises(DataValidationError, match="malformed"):
        load_volume(tmp_path / "v")


def test_mask_round_trip(tmp_path):
    m = mask_from_zyx(np.array([[[1, 0], [0, 1]], [[1, 1], [0, 0]]]))
    save_mask(m, tmp_path / "v")
    loaded = load_mask(tmp_path / "v", m.dims)
    assert np.array_equal(loaded.bits, m.bits)


def test_mask_length_mismatch(tmp_path):
    (tmp_path / "v.mask.raw").write_bytes(b"\x01" * 7)
    with pytest.raises(DataValidationError):
        load_mask(tmp_path / "v", (2, 2, 2))


@given(nx=st.integers(min_value=1, max_value=4), ny=st.integers(min_value=1, max_value=4),
       nz=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(tmp_path_factory, nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    v = vol_from_values(rng.normal(size=nx * ny * nz).astype(np.float32), dims=(nx, ny, nz))
    base = tmp_path_factory.mktemp("rt") / "v"
    save_volume(v, base)
    assert np.array_equal(load_volume(base).voxels, v.voxels)


def test_phantom_is_deterministic():
    spec = PhantomSpec(n_samples_per_class=2, dims=(10, 10, 10), seed=7)
    a = generate_phantom(spec)
    b = generate_phantom(spec)
    for (va, ma, la), (vb, mb, lb) in zip(a, b):
        assert la == lb
        assert va.voxels.tobytes() == vb.voxels.tobytes()
        assert np.array_equal(ma.bits, mb.bits)


def test_phantom_zero_amplitude_pairs_classes():
    spec = PhantomSpec(n_samples_per_class=3, dims=(10, 10, 10),
                       texture_amplitude=0.0, noise_sigma=0.2, seed=11)
    samples = generate_phantom(spec)
    class0 = [s for s in samples if s[2] == 0]
    class1 = [s for s in samples if s[2] == 1]
    for (v0, _, _), (v1, _, _) in zip(class0, class1):
        assert np.array_equal(v0.voxels, v1.voxels)


def test_phantom_glcm_contrast_separates_classes_oracle():
    # verified against the brute-force co-occurrence oracle, not the engine
    spec = PhantomSpec(n_samples_per_class=3, dims=(10, 10, 10),
                       texture_amplitude=2.0, noise_sigma=0.1, seed=13)
    samples = generate_phantom(spec)

    def oracle_contrast(v, m):
        q = quantize_fixed_bins(v, m, 8)
        counts = glcm_counts_oracle(q.as_zyx(), 8)
        p = counts / counts.sum()
        i = np.arange(1, 9)[:, None]
        j = np.arange(1, 9)[None, :]
        return float(np.sum((i - j) ** 2 * p))

    class0 = [s for s in samples if s[2] == 0]
    class1 = [s for s in samples if s[2] == 1]
    for (v0, m0, _), (v1, m1, _) in zip(class0, class1):
        assert oracle_contrast(v1, m1) > oracle_contrast(v0, m0)


def test_phantom_mask_has_at_least_27_voxels():
    for dims in [(8, 8, 8), (9, 12, 8), (16, 16, 16)]:
        samples = generate_phantom(PhantomSpec(n_samples_per_class=1, dims=dims, seed=1))
        assert samples[0][1].count() >= 27


def test_phantom_small_dims_rejected():
    with pytest.raises(ConfigError, match="phantom.dims"):
        generate_phantom(PhantomSpec(n_samples_per_class=1, dims=(7, 8, 8), seed=1))


def test_phantom_output_shape_and_labels():
    spec = PhantomSpec(n_samples_per_class=2, dims=(8, 8, 8), seed=5)
    samples = generate_phantom(spec)
    assert [s[2] for s in samples] == [0, 0, 1, 1]
    for v, m, _ in samples:
        assert v.dims == (8, 8, 8)
        assert m.dims == v.dims


@pytest.mark.parametrize("dims, n, amplitude, sigma", [
    ((16, 16, 16), 2, 2.0, 0.0),
    ((16, 16, 16), 3, 0.0, 0.1),
    ((17, 13, 11), 1, 2.0, 0.1),
    ((17, 13, 11), 2, 0.7, 0.0),
    ((17, 13, 11), 3, 1.5, 0.3),
    ((8, 9, 10), 3, 0.0, 0.0),
])
def test_phantom_matches_reference_bytes(dims, n, amplitude, sigma):
    spec = PhantomSpec(n_samples_per_class=n, dims=dims, texture_amplitude=amplitude,
                       noise_sigma=sigma, seed=11)
    got = generate_phantom(spec)
    expected = phantom_reference(dims, n, amplitude, sigma, 11)
    assert [label for _, _, label in got] == [0] * n + [1] * n
    assert len(got) == len(expected)
    for (v, m, label), (voxels, bits, ref_label) in zip(got, expected):
        assert label == ref_label and v.dims == m.dims == dims
        assert v.voxels.dtype == voxels.dtype and v.voxels.tobytes() == voxels.tobytes()
        assert m.bits.tobytes() == bits.tobytes()


# (67, 45, 50) draws its noise in three chunks, the last one short; a sigma of
# 5e-324 makes noise of -0.0, which the full-grid profile turned into 0.0
@pytest.mark.parametrize("dims, n, amplitude, sigma", [
    ((67, 45, 50), 2, 2.0, 0.1),
    ((67, 45, 50), 1, 0.37, 3.0),
    ((17, 13, 11), 2, 2.0, 0.0),
    ((40, 31, 29), 2, 0.0, 0.3),
    ((40, 31, 29), 1, 1.5, 5e-324),
    ((300, 300, 9), 1, 2.0, 0.1),
])
def test_iter_phantom_matches_full_grid_reference_bytes(dims, n, amplitude, sigma):
    spec = PhantomSpec(n_samples_per_class=n, dims=dims, texture_amplitude=amplitude,
                       noise_sigma=sigma, seed=7)
    drawn = list(iter_phantom(spec))
    expected = phantom_full_grid_reference(dims, n, amplitude, sigma, 7)
    assert len(drawn) == len(expected) == 2 * n
    for (i, label, v, m), (ref_i, ref_label, voxels, bits) in zip(drawn, expected):
        assert (i, label) == (ref_i, ref_label) and v.dims == m.dims == dims
        assert v.voxels.dtype == voxels.dtype and v.voxels.tobytes() == voxels.tobytes()
        assert m.bits.tobytes() == bits.tobytes()


def test_iter_phantom_yields_generate_phantoms_volumes_in_draw_order():
    n = 3
    spec = PhantomSpec(n_samples_per_class=n, dims=(11, 9, 8), texture_amplitude=0.37,
                       noise_sigma=0.3, seed=4)
    listed = generate_phantom(spec)
    drawn = list(iter_phantom(spec))
    assert [(i, label) for i, label, _, _ in drawn] == [(i, label) for i in range(n)
                                                        for label in (0, 1)]
    for i, label, v, m in drawn:
        lv, lm, llabel = listed[label * n + i]
        assert llabel == label and v.dims == lv.dims
        assert v.voxels.tobytes() == lv.voxels.tobytes()
        assert m.bits.tobytes() == lm.bits.tobytes()


def test_phantom_peaks_below_reference():
    spec = PhantomSpec(n_samples_per_class=2, dims=(64, 64, 64), seed=5)
    peaks = []
    for generate in (lambda: phantom_reference(spec.dims, 2, spec.texture_amplitude,
                                               spec.noise_sigma, spec.seed),
                     lambda: generate_phantom(spec)):
        tracemalloc.start()
        try:
            generate()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reference, peak = peaks
    assert peak < reference, f"phantom peaked at {peak / 2 ** 20:.1f} MB"


def test_roi_slice_index_prefers_largest_then_lowest():
    bits = np.zeros((3, 4, 4), dtype=np.uint8)
    bits[0, 0, 0] = 1
    bits[1, :2, :2] = 1
    bits[2, 1:3, 1:3] = 1  # same area as z=1
    assert roi_slice_index(mask_from_zyx(bits)) == 1


def test_volume_invariant_checks():
    with pytest.raises(DataValidationError):
        Volume(dims=(0, 2, 2), spacing=(1, 1, 1), modality_tag="T1", voxels=np.zeros(0))
    with pytest.raises(DataValidationError):
        Volume(dims=(2, 2, 1), spacing=(1, 1, 1), modality_tag="T1", voxels=np.zeros(3))
    with pytest.raises(DataValidationError):
        RoiMask(dims=(2, 1, 1), bits=np.array([2, 0], dtype=np.uint8))


@pytest.mark.parametrize("dims", [(2.9, 2, 2), (2.0, 2, 2), (True, 2, 2), (2, 2, "2")])
def test_volume_dims_must_be_integers(dims):
    with pytest.raises(DataValidationError, match="volume dims"):
        Volume(dims=dims, spacing=(1, 1, 1), modality_tag="T1", voxels=np.zeros(8))


@pytest.mark.parametrize("dims", [(True, 2.5, 4), (1, 2.0, 4), (1, 2, False), (1, 2)])
def test_mask_dims_must_be_integers(dims):
    with pytest.raises(DataValidationError, match="mask dims"):
        RoiMask(dims=dims, bits=np.zeros(8, dtype=np.uint8))


def test_numpy_integer_dims_accepted():
    v = Volume(dims=np.array([2, 2, 2]), spacing=(1, 1, 1), modality_tag="T1",
               voxels=np.zeros(8))
    assert v.dims == (2, 2, 2) and all(type(d) is int for d in v.dims)
