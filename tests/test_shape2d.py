import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mask_from_zyx
from oracles import max_diameter_oracle

from radlearn.errors import DataValidationError
from radlearn.features import shape_2d
from radlearn.volume import RoiMask


def _single_pixel_mask():
    bits = np.zeros((1, 3, 3), dtype=np.uint8)
    bits[0, 1, 1] = 1
    return mask_from_zyx(bits)


def test_single_pixel_conventions():
    fv = shape_2d(_single_pixel_mask())
    assert fv["shape2d.PixelSurface"] == 1.0
    assert fv["shape2d.Perimeter"] == 4.0
    assert fv["shape2d.MaximumDiameter"] == 0.0
    assert fv["shape2d.Elongation"] == 1.0
    assert fv["shape2d.MeshSurface"] == 1.0


def test_square_hand_geometry():
    bits = np.zeros((1, 4, 4), dtype=np.uint8)
    bits[0, 1:3, 1:3] = 1
    fv = shape_2d(mask_from_zyx(bits))
    assert fv["shape2d.PixelSurface"] == 4.0
    assert fv["shape2d.Perimeter"] == 8.0
    assert fv["shape2d.MaximumDiameter"] == pytest.approx(math.sqrt(2))
    assert fv["shape2d.PerimeterSurfaceRatio"] == pytest.approx(2.0)
    assert fv["shape2d.Sphericity"] == pytest.approx(2 * math.sqrt(math.pi * 4) / 8)
    assert fv["shape2d.SphericalDisproportion"] == pytest.approx(1 / fv["shape2d.Sphericity"])
    # square is isotropic: equal axis lengths, elongation 1
    assert fv["shape2d.MajorAxisLength"] == pytest.approx(fv["shape2d.MinorAxisLength"])
    assert fv["shape2d.Elongation"] == pytest.approx(1.0)


def test_bar_elongation():
    bits = np.zeros((1, 3, 6), dtype=np.uint8)
    bits[0, 1, 1:5] = 1  # 1x4 bar
    fv = shape_2d(mask_from_zyx(bits))
    assert fv["shape2d.Elongation"] < 1.0
    assert fv["shape2d.MajorAxisLength"] > fv["shape2d.MinorAxisLength"]
    assert fv["shape2d.MaximumDiameter"] == pytest.approx(3.0)


def test_exactly_ten_features():
    fv = shape_2d(_single_pixel_mask())
    assert len(fv) == 10


def test_slice_selection_largest_area_lowest_z():
    bits = np.zeros((3, 4, 4), dtype=np.uint8)
    bits[0, 0, 0] = 1           # area 1
    bits[1, 0:2, 0:2] = 1       # area 4  <- selected
    bits[2, 0, 0:4] = 1         # area 4, higher z
    fv = shape_2d(mask_from_zyx(bits))
    # the 2x2 block at z=1 wins the tie against the 1x4 bar at z=2
    assert fv["shape2d.PixelSurface"] == 4.0
    assert fv["shape2d.Elongation"] == pytest.approx(1.0)


def test_spacing_scales_geometry():
    fv = shape_2d(_single_pixel_mask(), spacing=(2.0, 3.0, 1.0))
    assert fv["shape2d.PixelSurface"] == 6.0
    # two x-exposed faces of length sy=3, two y-exposed faces of length sx=2
    assert fv["shape2d.Perimeter"] == 10.0


def test_empty_mask_rejected():
    m = RoiMask(dims=(2, 2, 1), bits=np.zeros(4, dtype=np.uint8))
    with pytest.raises(DataValidationError):
        shape_2d(m)


@st.composite
def _slice_masks(draw):
    """One-slice masks: random fill, holes, single rows, single pixels."""
    ny, nx = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "holes", "row", "pixel"]))
    bits = np.zeros((1, ny, nx), dtype=np.uint8)
    if kind == "random":
        bits[0] = rng.random((ny, nx)) < draw(st.floats(0.05, 1.0))
    elif kind == "holes":
        bits[0] = rng.random((ny, nx)) > 0.2
    elif kind == "row":
        y = rng.integers(ny)
        bits[0, y] = rng.random(nx) < 0.7
    bits[0, rng.integers(ny), rng.integers(nx)] = 1  # never empty; "pixel" keeps one
    spacing = draw(st.sampled_from([(1.0, 1.0), (0.7, 1.3), (1.3, 0.7), (0.1, 3.0),
                                    (3.0, 0.1), (0.37, 2.9)]))
    return bits, spacing


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_slice_masks())
def test_max_diameter_equals_all_pairs_oracle(case):
    bits, (sx, sy) = case
    fv = shape_2d(mask_from_zyx(bits), spacing=(sx, sy, 1.0))
    ys, xs = np.nonzero(bits[0])
    centers = np.stack([xs * sx, ys * sy], axis=1).astype(np.float64)
    assert fv["shape2d.MaximumDiameter"] == max_diameter_oracle(centers)


def test_large_slice_memory_stays_small():
    # a ~20k-pixel disk; the all-pairs difference array alone would be ~6.4 GB
    y, x = np.ogrid[:161, :161]
    bits = ((x - 80) ** 2 + (y - 80) ** 2 <= 80 ** 2).astype(np.uint8)[None]
    m = mask_from_zyx(bits)
    assert 19_000 < m.count() < 21_000
    tracemalloc.start()
    try:
        fv = shape_2d(m, spacing=(0.7, 1.3, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fv["shape2d.MaximumDiameter"] == pytest.approx(160 * 1.3)
    assert peak < 8 * 2 ** 20, f"shape_2d peaked at {peak / 2 ** 20:.1f} MB"
