import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import vol_from_values

from radlearn.errors import DataValidationError
from radlearn.features import (
    FAMILY_COUNTS,
    TOTAL_FEATURES,
    extract_all,
    first_order,
    glcm,
    glcm_features,
    gldm,
    gldm_features,
    glrlm,
    glrlm_features,
    glszm,
    glszm_features,
    ngtdm,
    ngtdm_features,
    shape_2d,
)
from radlearn.features.extract import _crop_to_roi
from radlearn.features.vector import concat
from radlearn.quantize import quantize_fixed_bins
from radlearn.volume import PhantomSpec, RoiMask, generate_phantom


@pytest.fixture(scope="module")
def phantom_pair():
    spec = PhantomSpec(n_samples_per_class=1, dims=(12, 12, 12),
                       texture_amplitude=2.0, noise_sigma=0.1, seed=42)
    samples = generate_phantom(spec)
    return samples[0], samples[1]  # (class 0, class 1)


def test_census_94_features(phantom_pair):
    (v, m, _), _ = phantom_pair
    fv = extract_all(v, m)
    assert len(fv) == TOTAL_FEATURES == 94
    families = Counter(name.split(".")[0] for name in fv.names)
    assert families == FAMILY_COUNTS


def test_extraction_is_deterministic(phantom_pair):
    (v, m, _), _ = phantom_pair
    a = extract_all(v, m)
    b = extract_all(v, m)
    assert a.names == b.names
    assert np.array_equal(a.values, b.values)


def test_texture_contrast_separates_classes(phantom_pair):
    (v0, m0, _), (v1, m1, _) = phantom_pair
    f0 = extract_all(v0, m0)
    f1 = extract_all(v1, m1)
    assert f1["glcm.Contrast"] > f0["glcm.Contrast"]


def test_all_values_finite(phantom_pair):
    (v, m, _), _ = phantom_pair
    fv = extract_all(v, m)
    assert np.all(np.isfinite(fv.values))


def test_runtime_under_one_second_on_64_cube():
    spec = PhantomSpec(n_samples_per_class=1, dims=(64, 64, 64),
                       texture_amplitude=2.0, noise_sigma=0.1, seed=3)
    v, m, _ = generate_phantom(spec)[0]
    start = time.perf_counter()
    fv = extract_all(v, m)
    elapsed = time.perf_counter() - start
    assert len(fv) == 94
    assert elapsed < 1.0, f"extraction took {elapsed:.2f}s"


@st.composite
def _roi_cases(draw):
    """A random volume whose ROI fills the grid, sits in a corner, is one
    voxel thick, or lies anywhere; plus extraction parameters."""
    nz, ny, nx = (draw(st.integers(1, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    placement = draw(st.sampled_from(["anywhere", "faces", "corner", "thin"]))
    box = []
    for n in (nz, ny, nx):
        lo = int(rng.integers(n))
        hi = int(rng.integers(lo, n)) + 1
        if placement == "faces":
            lo, hi = 0, n
        elif placement == "corner":
            lo, hi = (0, hi - lo) if rng.random() < 0.5 else (n - (hi - lo), n)
        box.append(slice(lo, hi))
    if placement == "thin":
        axis = int(rng.integers(3))
        box[axis] = slice(box[axis].start, box[axis].start + 1)
    bits = np.zeros((nz, ny, nx), dtype=np.uint8)
    bits[tuple(box)] = rng.random(bits[tuple(box)].shape) < draw(st.floats(0.3, 1.0))
    bits[tuple(s.start for s in box)] = 1
    values = rng.normal(size=bits.size) * rng.integers(1, 4, size=bits.size)
    v = vol_from_values(values, (nx, ny, nz), spacing=(0.7, 1.3, 1.0))
    m = RoiMask(dims=(nx, ny, nz), bits=bits.ravel())
    return v, m, draw(st.sampled_from([1, 3, 8])), draw(st.integers(1, 3)), draw(st.integers(0, 2))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataValidationError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_roi_cases())
def test_crop_to_roi_keeps_every_matrix_and_feature(case):
    v, m, n_bins, distance, alpha = case
    q = quantize_fixed_bins(v, m, n_bins)
    cropped = _crop_to_roi(q)
    builders = [(glcm, {"distance": d}) for d in (1, 2, 3)] + [
        (glrlm, {}), (glszm, {}), (ngtdm, {})] + [(gldm, {"alpha": a}) for a in (0, 1, 2)]
    for builder, kwargs in builders:
        full = _outcome(builder, q, **kwargs)
        crop = _outcome(builder, cropped, **kwargs)
        if isinstance(full, str):
            assert crop == full
        else:
            assert crop.data.shape == full.data.shape
            assert crop.data.tobytes() == full.data.tobytes(), builder.__name__

    def uncropped_features():
        return concat([
            first_order(v, m), shape_2d(m, spacing=v.spacing),
            glcm_features(glcm(q, distance=distance)), glrlm_features(glrlm(q)),
            glszm_features(glszm(q)), ngtdm_features(ngtdm(q)),
            gldm_features(gldm(q, alpha=alpha)),
        ])

    expected = _outcome(uncropped_features)
    got = _outcome(extract_all, v, m, n_bins=n_bins, distance=distance, alpha=alpha)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.names == expected.names
        assert got.values.tobytes() == expected.values.tobytes()


def test_feature_reference_matches_the_extractor(phantom_pair):
    """docs/features.md: each `## family (n)` heading gives the family's count, and
    each emitted name appears in its family's section (GLSZM's names are prose)."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "features.md").read_text(
        encoding="utf-8")
    sections = {match[1]: (int(match[2]), match[3]) for match in re.finditer(
        r"^## (\w+) \((\d+)\)\n(.*?)(?=^## |\Z)", doc, re.M | re.S)}
    assert {family: count for family, (count, _) in sections.items()} == FAMILY_COUNTS
    (v, m, _), _ = phantom_pair
    for name in extract_all(v, m).names:
        family, feature = name.split(".")
        assert re.search(rf"\b{feature}\b", sections[family][1]), name
