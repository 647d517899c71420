"""Matrix builders against brute-force enumeration oracles and hand cases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import qvol
from oracles import (
    DIRS_13,
    glcm_counts_oracle,
    glcm_float_reference,
    gldm_float_reference,
    gldm_oracle,
    glrlm_float_reference,
    glrlm_oracle,
    glszm_oracle,
    ngtdm_float_reference,
    ngtdm_oracle,
    random_level_grid,
)

from radlearn.errors import DataValidationError
from radlearn.features import glcm, gldm, glrlm, glszm, ngtdm
from radlearn.features.extract import _crop_to_roi
from radlearn.quantize import quantize_fixed_bins
from radlearn.volume import PhantomSpec, generate_phantom

N_RANDOM = 40  # the acceptance suite runs the full 200-volume sweep


def _random_grids():
    rng = np.random.default_rng(20240901)
    return [random_level_grid(rng, shape=(4, 4, 4), n_levels=5) for _ in range(N_RANDOM)]


def _edge_grids():
    # extents of 1 or 2, where some directions do not fit the grid and every
    # neighbor pair touches a face
    rng = np.random.default_rng(20240902)
    shapes = [(1, 5, 6), (2, 3, 1), (5, 1, 1), (2, 2, 2), (1, 2, 7), (2, 1, 3)]
    return [random_level_grid(rng, shape=shape, n_levels=5) for shape in shapes]


GRIDS = _random_grids() + _edge_grids()


@pytest.mark.parametrize("idx", range(len(GRIDS)))
def test_glcm_matches_oracle(idx):
    lvl = GRIDS[idx]
    counts = glcm_counts_oracle(lvl, 5)
    if counts.sum() == 0:
        with pytest.raises(DataValidationError):
            glcm(qvol(lvl, 5))
        return
    engine = glcm(qvol(lvl, 5))
    np.testing.assert_allclose(engine.data, counts / counts.sum(), atol=1e-12, rtol=0)


@pytest.mark.parametrize("idx", range(len(GRIDS)))
def test_glrlm_matches_oracle(idx):
    lvl = GRIDS[idx]
    engine = glrlm(qvol(lvl, 5))
    np.testing.assert_array_equal(engine.data, glrlm_oracle(lvl, 5))


@pytest.mark.parametrize("idx", range(len(GRIDS)))
def test_glszm_matches_oracle(idx):
    lvl = GRIDS[idx]
    engine = glszm(qvol(lvl, 5))
    np.testing.assert_array_equal(engine.data, glszm_oracle(lvl, 5))


@pytest.mark.parametrize("idx", range(len(GRIDS)))
def test_ngtdm_matches_oracle(idx):
    lvl = GRIDS[idx]
    engine = ngtdm(qvol(lvl, 5))
    expected = ngtdm_oracle(lvl, 5)
    np.testing.assert_array_equal(engine.data[:, 0], expected[:, 0])
    np.testing.assert_allclose(engine.data[:, 1:], expected[:, 1:], atol=1e-12, rtol=0)


@pytest.mark.parametrize("idx", range(len(GRIDS)))
@pytest.mark.parametrize("alpha", [0, 1])
def test_gldm_matches_oracle(idx, alpha):
    lvl = GRIDS[idx]
    engine = gldm(qvol(lvl, 5), alpha=alpha)
    np.testing.assert_array_equal(engine.data, gldm_oracle(lvl, 5, alpha=alpha))


# --- hand-enumerable cases ---


def test_glcm_two_by_two_single_direction():
    lvl = np.array([[[1, 1], [2, 2]]])  # (z=1, y=2, x=2)
    m = glcm(qvol(lvl, 2), directions=[(1, 0, 0)])
    np.testing.assert_allclose(m.data, [[0.5, 0.0], [0.0, 0.5]])


def test_glcm_constant_volume_all_diagonal():
    lvl = np.ones((2, 2, 2), dtype=np.int32)
    m = glcm(qvol(lvl, 3))
    assert m.data[0, 0] == pytest.approx(1.0)
    assert m.data.sum() == pytest.approx(1.0)


def test_glcm_is_symmetric():
    rng = np.random.default_rng(5)
    lvl = random_level_grid(rng, (3, 4, 5), 4)
    m = glcm(qvol(lvl, 4))
    np.testing.assert_allclose(m.data, m.data.T, atol=0)


def test_glcm_singleton_mask_rejected():
    lvl = np.zeros((2, 2, 2), dtype=np.int32)
    lvl[0, 0, 0] = 1
    with pytest.raises(DataValidationError):
        glcm(qvol(lvl, 2))


def test_glcm_distance_two():
    lvl = np.zeros((1, 1, 5), dtype=np.int32)
    lvl[0, 0, :] = [1, 2, 1, 2, 1]
    m = glcm(qvol(lvl, 2), distance=2, directions=[(1, 0, 0)])
    # pairs at distance 2 along x: (1,1), (2,2), (1,1) -> symmetric counts 4,2
    np.testing.assert_allclose(m.data, [[4 / 6, 0], [0, 2 / 6]])


def test_glrlm_row_single_direction():
    lvl = np.array([[[1, 1, 2]]])
    m = glrlm(qvol(lvl, 2), directions=[(1, 0, 0)])
    assert m.data[0, 1] == 1  # R(1,2)
    assert m.data[1, 0] == 1  # R(2,1)
    assert m.data.sum() == 2


def test_glrlm_single_voxel_volume():
    lvl = np.ones((1, 1, 1), dtype=np.int32)
    m = glrlm(qvol(lvl, 1))
    assert m.data.shape == (1, 1)
    assert m.data[0, 0] == 13  # one run of length 1 per direction


def test_glrlm_runs_partition_voxels_per_direction():
    rng = np.random.default_rng(17)
    for _ in range(10):
        lvl = random_level_grid(rng, (3, 3, 3), 3)
        n_voxels = int((lvl > 0).sum())
        for direction in [(1, 0, 0), (0, 1, 0), (1, 1, -1)]:
            m = glrlm(qvol(lvl, 3), directions=[direction])
            j = np.arange(1, m.data.shape[1] + 1)
            assert int(np.sum(m.data * j[None, :])) == n_voxels


def test_glszm_two_by_two_zones():
    lvl = np.array([[[1, 1], [1, 2]]])
    m = glszm(qvol(lvl, 2))
    assert m.data[0, 2] == 1  # Z(1,3)
    assert m.data[1, 0] == 1  # Z(2,1)


def test_glszm_constant_volume_single_zone():
    lvl = np.ones((2, 3, 2), dtype=np.int32)
    m = glszm(qvol(lvl, 2))
    assert m.data[0, 11] == 1
    assert m.data.sum() == 1


def test_glszm_zones_partition_voxels():
    rng = np.random.default_rng(23)
    for _ in range(10):
        lvl = random_level_grid(rng, (3, 4, 3), 4)
        m = glszm(qvol(lvl, 4))
        s = np.arange(1, m.data.shape[1] + 1)
        assert int(np.sum(m.data * s[None, :])) == int((lvl > 0).sum())


def test_ngtdm_constant_volume():
    lvl = np.ones((2, 2, 2), dtype=np.int32)
    m = ngtdm(qvol(lvl, 2))
    assert m.data[0, 0] == 8
    assert m.data[0, 1] == pytest.approx(1.0)
    assert m.data[0, 2] == 0.0


def test_ngtdm_hand_case_1x3():
    lvl = np.array([[[1], [2], [1]]])  # (z=1, y=3, x=1)
    m = ngtdm(qvol(lvl, 2))
    # edges see the center (mean 2, deviation 1 each); center sees two 1s
    np.testing.assert_allclose(m.data[:, 0], [2, 1])
    np.testing.assert_allclose(m.data[:, 1], [2 / 3, 1 / 3])
    np.testing.assert_allclose(m.data[:, 2], [2.0, 1.0])


def test_ngtdm_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    lvl = random_level_grid(rng, (4, 4, 4), 5)
    m = ngtdm(qvol(lvl, 5))
    assert m.data[:, 1].sum() == pytest.approx(1.0)


def test_gldm_two_by_two_alpha_zero():
    lvl = np.array([[[1, 1], [1, 2]]])
    m = gldm(qvol(lvl, 2), alpha=0)
    assert m.data[0, 2] == 3  # P(1,2): each 1 sees two other 1s
    assert m.data[1, 0] == 1  # P(2,0): the 2 has no equal neighbor


def test_gldm_constant_cube_center_dependence():
    lvl = np.ones((3, 3, 3), dtype=np.int32)
    m = gldm(qvol(lvl, 1))
    assert m.data[0, 26] == 1  # only the center voxel has all 26 neighbors


def test_gldm_counts_partition_voxels():
    rng = np.random.default_rng(37)
    lvl = random_level_grid(rng, (4, 4, 4), 5)
    m = gldm(qvol(lvl, 5), alpha=1)
    assert int(m.data.sum()) == int((lvl > 0).sum())


def test_storage_order_does_not_matter():
    # two storage layouts of the same geometry produce identical matrices
    rng = np.random.default_rng(41)
    lvl = random_level_grid(rng, (3, 3, 3), 4)
    q1 = qvol(lvl, 4)
    q2 = qvol(np.ascontiguousarray(lvl.copy()), 4)
    np.testing.assert_array_equal(glrlm(q1).data, glrlm(q2).data)
    np.testing.assert_allclose(glcm(q1).data, glcm(q2).data, atol=0)


# --- zone labeling on shapes that need many hooking rounds ---


def _serpentine(n, background):
    """A one-voxel-wide path snaking through an n x n slice."""
    lvl = np.full((1, n, n), background, dtype=np.int32)
    for y in range(0, n, 2):
        lvl[0, y, :] = 1
        if y + 1 < n:
            lvl[0, y + 1, n - 1 if y % 4 == 0 else 0] = 1
    return lvl


def _spiral(n, background):
    """Nested square rings, each joined to the next one inward by a diagonal step."""
    lvl = np.full((n, n), background, dtype=np.int32)
    lo, hi = 0, n - 1
    while lo <= hi:
        lvl[lo, lo:hi + 1] = lvl[hi, lo:hi + 1] = 1
        lvl[lo:hi + 1, lo] = lvl[lo:hi + 1, hi] = 1
        if lo + 1 <= hi - 1:
            lvl[lo + 1, lo] = background
        if lo + 2 <= hi - 2:
            lvl[lo + 1, lo + 1] = 1
        lo, hi = lo + 2, hi - 2
    return lvl[None]


def _checkerboard(shape):
    return (np.indices(shape).sum(axis=0) % 2 + 1).astype(np.int32)


@pytest.mark.parametrize("lvl", [
    _serpentine(15, 0), _serpentine(14, 2), _spiral(15, 0), _spiral(16, 2),
    _checkerboard((5, 6, 7)), _checkerboard((1, 9, 9)),
    np.ones((5, 6, 7), dtype=np.int32), np.ones((1, 1, 1), dtype=np.int32),
    np.concatenate([_serpentine(9, 0), _spiral(9, 2), _serpentine(9, 2)]),
], ids=["serpentine", "serpentine-2", "spiral", "spiral-2", "checkerboard",
        "checkerboard-slice", "constant", "single-voxel", "stacked"])
def test_glszm_matches_oracle_on_long_zones(lvl):
    n_bins = int(lvl.max())
    engine = glszm(qvol(lvl, n_bins))
    np.testing.assert_array_equal(engine.data, glszm_oracle(lvl, n_bins))


def test_glszm_memory_grows_with_voxels_not_edges():
    # one zone of 110,592 voxels has ~1.4M equal-level neighbor pairs; holding
    # them all as index arrays would take well over 100 MB
    q = qvol(np.ones((48, 48, 48), dtype=np.int32), 1)
    tracemalloc.start()
    try:
        m = glszm(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.shape == (1, 48 ** 3) and m.data[0, -1] == 1
    assert peak < 12 * 2 ** 20, f"glszm peaked at {peak / 2 ** 20:.1f} MB"


# --- byte-for-byte equality with the float reference builders ---
#
# The oracle tests above compare NGTDM and GLCM with a tolerance, so they
# would not see a change of rounding; these compare the bytes.


def _assert_same_bytes(got, expected):
    assert got.data.dtype == expected.dtype
    assert got.data.shape == expected.shape
    assert got.data.tobytes() == expected.tobytes()


def _assert_pinned(lvl, n_bins, glcm_cases=((1, None),), glrlm_dirs=(None,), alphas=(0,)):
    q = qvol(lvl, n_bins)
    for distance, dirs in glcm_cases:
        expected = glcm_float_reference(lvl, n_bins, distance, dirs)
        if expected is None:
            with pytest.raises(DataValidationError):
                glcm(q, distance=distance, directions=dirs)
        else:
            _assert_same_bytes(glcm(q, distance=distance, directions=dirs), expected)
    for dirs in glrlm_dirs:
        _assert_same_bytes(glrlm(q, directions=dirs), glrlm_float_reference(lvl, n_bins, dirs))
    _assert_same_bytes(ngtdm(q), ngtdm_float_reference(lvl, n_bins))
    for alpha in alphas:
        _assert_same_bytes(gldm(q, alpha=alpha), gldm_float_reference(lvl, n_bins, alpha))


@st.composite
def _pinned_cases(draw):
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    n_bins = draw(st.sampled_from([1, 2, 5, 32, 255, 256, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a few levels spread over 1..n_bins, so runs and equal neighbors occur
    # even when n_bins is large
    palette = rng.choice(np.arange(1, n_bins + 1), size=min(n_bins, draw(st.integers(1, 6))),
                         replace=False)
    lvl = palette[rng.integers(palette.size, size=shape)]
    lvl = np.where(rng.random(shape) < draw(st.floats(0.2, 1.0)), lvl, 0).astype(np.int32)
    lvl[tuple(rng.integers(n) for n in shape)] = palette[0]
    subset = draw(st.lists(st.sampled_from(DIRS_13), min_size=1, max_size=4, unique=True))
    glcm_cases = [(d, None) for d in (1, 2, 3)] + [(draw(st.integers(1, 3)), subset)]
    return lvl, n_bins, glcm_cases, (None, [draw(st.sampled_from(DIRS_13))])


def _short_axis_case(shape, seed):
    """GLCM at distance 5 on a grid with one axis of extent 3 or 4: the
    directions along that axis do not fit, although their unclamped slices
    would not be empty, and along that axis alone no pair co-occurs."""
    rng = np.random.default_rng(seed)
    lvl = rng.integers(0, 4, size=shape).astype(np.int32)
    lvl[0, 0, 0] = 1
    short = shape.index(min(shape))  # (z, y, x) axis; directions are (dx, dy, dz)
    along = tuple(int(i == 2 - short) for i in range(3))
    glcm_cases = [(5, None), (5, [(1, 1, 1), (1, -1, -1)]), (5, [along]), (1, None)]
    return lvl, 3, glcm_cases, (None,)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_pinned_cases())
@example(_short_axis_case((4, 9, 9), 0))
@example(_short_axis_case((9, 4, 9), 1))
@example(_short_axis_case((9, 9, 4), 2))
@example(_short_axis_case((3, 9, 9), 3))
@example(_short_axis_case((9, 3, 9), 4))
@example(_short_axis_case((9, 9, 3), 5))
def test_builders_match_float_reference_bytes(case):
    lvl, n_bins, glcm_cases, glrlm_dirs = case
    _assert_pinned(lvl, n_bins, glcm_cases, glrlm_dirs, alphas=(0, 1, 2, 3))


@pytest.mark.parametrize("n_bins", [1, 32, 1000])
def test_constant_cube_reaches_26_neighbors_bytes(n_bins):
    # the center voxel sums 26 levels and counts 26 neighbors, all dependent
    lvl = np.full((3, 3, 3), n_bins, dtype=np.int32)
    _assert_pinned(lvl, n_bins, alphas=(0, 1))
    assert gldm(qvol(lvl, n_bins)).data[-1, 26] == 1


def test_phantom_roi_box_matches_float_reference_bytes():
    spec = PhantomSpec(n_samples_per_class=1, dims=(48, 48, 48), seed=7)
    for v, m, _ in generate_phantom(spec):
        lvl = _crop_to_roi(quantize_fixed_bins(v, m, 32)).as_zyx()
        _assert_pinned(lvl, 32, glcm_cases=((1, None), (2, None)), alphas=(0, 1))


def test_ngtdm_and_gldm_memory_is_bounded_by_the_grid():
    # a few narrow per-voxel arrays: int64 level sums, uint8 counts, masks
    rng = np.random.default_rng(43)
    lvl = random_level_grid(rng, (64, 64, 64), n_levels=32, mask_prob=0.5)
    q = qvol(lvl, 32)
    for builder, bound in ((ngtdm, 32), (gldm, 16)):
        tracemalloc.start()
        try:
            builder(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_voxel = peak / lvl.size
        assert per_voxel < bound, f"{builder.__name__} peaked at {per_voxel:.1f} B/voxel"
