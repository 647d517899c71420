"""Feature formulas on hand-enumerable matrices and degenerate conventions."""

import tracemalloc

import numpy as np
import pytest

from helpers import qvol
from oracles import mcc_q_reference, random_level_grid, run_style_features_reference

from radlearn.errors import DataValidationError
from radlearn.features import (
    GLCM_FEATURES,
    GLDM_FEATURES,
    GLRLM_FEATURES,
    GLSZM_FEATURES,
    NGTDM_FEATURES,
    TextureMatrix,
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
)
from radlearn.features.extract import _crop_to_roi
from radlearn.features.texture_features import _run_style_features
from radlearn.quantize import quantize_fixed_bins
from radlearn.volume import PhantomSpec, iter_phantom


def test_glcm_two_level_diagonal_matrix():
    m = TextureMatrix(kind="GLCM", data=np.array([[0.5, 0.0], [0.0, 0.5]]))
    fv = glcm_features(m)
    assert fv["glcm.JointEnergy"] == pytest.approx(0.5)
    assert fv["glcm.Contrast"] == 0.0
    assert fv["glcm.MaximumProbability"] == pytest.approx(0.5)
    assert fv["glcm.JointEntropy"] == pytest.approx(1.0)
    assert fv["glcm.JointAverage"] == pytest.approx(1.5)
    assert fv["glcm.SumAverage"] == pytest.approx(3.0)
    assert fv["glcm.Correlation"] == pytest.approx(1.0)  # perfectly diagonal
    assert fv["glcm.SumSquares"] == pytest.approx(0.25)
    assert fv["glcm.Autocorrelation"] == pytest.approx(2.5)
    assert fv["glcm.Id"] == pytest.approx(1.0)
    assert fv["glcm.Idm"] == pytest.approx(1.0)
    assert fv["glcm.DifferenceAverage"] == 0.0
    assert fv["glcm.InverseVariance"] == 0.0


def test_glcm_constant_image_conventions():
    lvl = np.ones((2, 2, 2), dtype=np.int32)
    fv = glcm_features(glcm(qvol(lvl, 4)))
    assert fv["glcm.JointEntropy"] == 0.0
    assert fv["glcm.Id"] == 1.0
    assert fv["glcm.Contrast"] == 0.0
    assert fv["glcm.Correlation"] == 1.0
    assert fv["glcm.MCC"] == 1.0
    assert fv["glcm.Imc1"] == 0.0
    assert fv["glcm.Imc2"] == 0.0
    assert fv["glcm.MaximumProbability"] == 1.0


def test_glcm_checkerboard_contrast_one():
    # alternating two-level pattern along x, single direction: all mass at |i-j|=1
    lvl = np.zeros((1, 1, 6), dtype=np.int32)
    lvl[0, 0, :] = [1, 2, 1, 2, 1, 2]
    fv = glcm_features(glcm(qvol(lvl, 2), directions=[(1, 0, 0)]))
    assert fv["glcm.Contrast"] == pytest.approx(1.0)
    assert fv["glcm.DifferenceAverage"] == pytest.approx(1.0)
    assert fv["glcm.JointEnergy"] == pytest.approx(0.5)


def test_glcm_unnormalized_matrix_rejected():
    m = TextureMatrix(kind="GLCM", data=np.array([[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DataValidationError, match="normalized"):
        glcm_features(m)


def test_glcm_feature_count_and_order():
    lvl = np.ones((2, 2, 2), dtype=np.int32)
    fv = glcm_features(glcm(qvol(lvl, 2)))
    assert fv.names == [f"glcm.{n}" for n in GLCM_FEATURES]
    assert len(fv) == 24


def test_glrlm_short_run_emphasis_hand_case():
    lvl = np.array([[[1, 1, 2]]])
    fv = glrlm_features(glrlm(qvol(lvl, 2), directions=[(1, 0, 0)]))
    assert fv["glrlm.ShortRunEmphasis"] == pytest.approx(0.625)
    assert fv["glrlm.LongRunEmphasis"] == pytest.approx((4 + 1) / 2)
    assert fv["glrlm.RunPercentage"] == pytest.approx(2 / 3)
    assert fv["glrlm.GrayLevelNonUniformity"] == pytest.approx(1.0)
    assert fv["glrlm.RunEntropy"] == pytest.approx(1.0)


def test_glrlm_constant_single_voxel_run_percentage_one():
    lvl = np.ones((1, 1, 1), dtype=np.int32)
    fv = glrlm_features(glrlm(qvol(lvl, 1)))
    assert fv["glrlm.RunPercentage"] == pytest.approx(1.0)
    assert fv["glrlm.ShortRunEmphasis"] == pytest.approx(1.0)


def test_glrlm_feature_count():
    lvl = np.ones((2, 2, 1), dtype=np.int32)
    fv = glrlm_features(glrlm(qvol(lvl, 1)))
    assert fv.names == [f"glrlm.{n}" for n in GLRLM_FEATURES]


def test_glszm_hand_case():
    # zones: one 3-voxel zone of level 1, one singleton of level 2
    lvl = np.array([[[1, 1], [1, 2]]])
    fv = glszm_features(glszm(qvol(lvl, 2)))
    # SAE = (1/9 + 1)/2
    assert fv["glszm.SmallAreaEmphasis"] == pytest.approx((1 / 9 + 1) / 2)
    assert fv["glszm.ZonePercentage"] == pytest.approx(2 / 4)
    assert fv["glszm.GrayLevelNonUniformity"] == pytest.approx(1.0)


def test_glszm_feature_count():
    lvl = np.ones((2, 2, 1), dtype=np.int32)
    fv = glszm_features(glszm(qvol(lvl, 1)))
    assert fv.names == [f"glszm.{n}" for n in GLSZM_FEATURES]


def test_ngtdm_constant_volume_conventions():
    lvl = np.ones((2, 2, 2), dtype=np.int32)
    fv = ngtdm_features(ngtdm(qvol(lvl, 2)))
    assert fv["ngtdm.Contrast"] == 0.0
    assert fv["ngtdm.Coarseness"] == 1e6
    assert fv["ngtdm.Busyness"] == 0.0
    assert fv["ngtdm.Strength"] == 0.0


def test_ngtdm_hand_case_1x3():
    # n = [2,1], p = [2/3,1/3], s = [2,1]
    lvl = np.array([[[1], [2], [1]]])
    fv = ngtdm_features(ngtdm(qvol(lvl, 2)))
    assert fv["ngtdm.Coarseness"] == pytest.approx(0.6)
    assert fv["ngtdm.Contrast"] == pytest.approx(2 / 9)
    assert fv["ngtdm.Busyness"] == 0.0  # |1*2/3 - 2*1/3| = 0 denominator
    assert fv["ngtdm.Complexity"] == pytest.approx(10 / 9)
    assert fv["ngtdm.Strength"] == pytest.approx(2 / 3)


def test_ngtdm_feature_count():
    lvl = np.ones((2, 2, 1), dtype=np.int32)
    fv = ngtdm_features(ngtdm(qvol(lvl, 1)))
    assert fv.names == [f"ngtdm.{n}" for n in NGTDM_FEATURES]


def test_gldm_hand_case():
    # P(1,2)=3, P(2,0)=1; dependence j uses j+1 in formulas
    lvl = np.array([[[1, 1], [1, 2]]])
    fv = gldm_features(gldm(qvol(lvl, 2), alpha=0))
    # SDE = (3/(3^2) + 1/(1^2))/4
    assert fv["gldm.SmallDependenceEmphasis"] == pytest.approx((3 / 9 + 1) / 4)
    assert fv["gldm.LargeDependenceEmphasis"] == pytest.approx((3 * 9 + 1) / 4)
    assert fv["gldm.GrayLevelNonUniformity"] == pytest.approx((9 + 1) / 4)
    assert fv["gldm.HighGrayLevelEmphasis"] == pytest.approx((3 * 1 + 1 * 4) / 4)


def test_gldm_feature_count():
    lvl = np.ones((2, 2, 1), dtype=np.int32)
    fv = gldm_features(gldm(qvol(lvl, 1)))
    assert fv.names == [f"gldm.{n}" for n in GLDM_FEATURES]


def test_all_families_finite_on_random_and_degenerate_grids():
    rng = np.random.default_rng(99)
    grids = [random_level_grid(rng, (4, 4, 4), 5) for _ in range(20)]
    grids.append(np.ones((3, 3, 3), dtype=np.int32))  # constant
    two = np.ones((2, 2, 2), dtype=np.int32)
    two[0, 0, 0] = 2
    grids.append(two)
    for lvl in grids:
        q = qvol(lvl, 5)
        vectors = [
            glcm_features(glcm(q)),
            glrlm_features(glrlm(q)),
            glszm_features(glszm(q)),
            ngtdm_features(ngtdm(q)),
            gldm_features(gldm(q)),
        ]
        for fv in vectors:
            assert np.all(np.isfinite(fv.values))


@pytest.mark.parametrize("kind, features", [("GLRLM", glrlm_features),
                                             ("GLSZM", glszm_features),
                                             ("GLDM", gldm_features)])
def test_empty_run_style_matrix_rejected(kind, features):
    with pytest.raises(DataValidationError, match=f"^{kind} matrix has no occupied cell$"):
        features(TextureMatrix(kind=kind, data=np.zeros((3, 4))))


def test_kind_mismatch_rejected():
    lvl = np.ones((2, 2, 1), dtype=np.int32)
    with pytest.raises(DataValidationError):
        glcm_features(glrlm(qvol(lvl, 1)))


def _assert_same_run_style_bytes(counts):
    got, expected = _run_style_features(counts), run_style_features_reference(counts)
    assert list(got) == list(expected)
    assert np.array(list(got.values())).tobytes() == np.array(list(expected.values())).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (8, 27), (32, 300), (100, 41)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_style_features_match_plain_expressions_bytes(shape, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=shape) * (rng.random(shape) < 0.3)
    counts.flat[rng.integers(counts.size)] += 1  # at least one count
    _assert_same_run_style_bytes(counts.astype(np.float64))
    # GLRLM passes a column slice, not a contiguous array
    wide = np.zeros((shape[0], shape[1] + 3))
    wide[:, : shape[1]] = counts
    _assert_same_run_style_bytes(wide[:, : shape[1]])


def _class1_96_cubed_glszm():
    *_, (_, label, v, m) = iter_phantom(PhantomSpec(n_samples_per_class=1, dims=(96, 96, 96),
                                                    seed=91))
    assert label == 1
    matrix = glszm(_crop_to_roi(quantize_fixed_bins(v, m, 32))).data
    assert matrix.shape[1] > 10_000
    return matrix


def test_run_style_features_match_plain_expressions_on_a_96_cubed_glszm():
    _assert_same_run_style_bytes(_class1_96_cubed_glszm())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_style_features_ignore_zero_padding(seed):
    rng = np.random.default_rng(seed)
    counts = (rng.integers(0, 50, size=(8, 27)) * (rng.random((8, 27)) < 0.3)).astype(np.float64)
    counts[rng.integers(8), rng.integers(27)] += 1
    padded = np.pad(counts, ((0, 5), (0, 400)))
    got, expected = _run_style_features(padded), _run_style_features(counts)
    assert np.array(list(got.values())).tobytes() == np.array(list(expected.values())).tobytes()


def test_run_style_features_memory_is_bounded_by_the_occupied_cells():
    matrix = _class1_96_cubed_glszm()  # 32 x 17,412 cells, 149 of them occupied
    tracemalloc.start()
    try:
        _run_style_features(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"_run_style_features peaked at {peak} B"


def _random_glcm(rng, n_levels):
    """A normalized symmetric matrix with about half its cells zero and every
    level occupied."""
    p = rng.random((n_levels, n_levels)) * (rng.random((n_levels, n_levels)) < 0.5)
    p = p + p.T + np.eye(n_levels)
    return p / p.sum()


def _mcc(p):
    return glcm_features(TextureMatrix(kind="GLCM", data=np.asarray(p)))["glcm.MCC"]


def _assert_mcc_squared_is_the_second_eigenvalue_of_q(p):
    """MCC^2 against Q built as one (L, L, L) array; the tests keep the names of
    the byte checks of a blocked Q sum that this replaced."""
    occ = p.sum(axis=1) > 0
    p_occ = p[np.ix_(occ, occ)]
    eigs = np.sort(np.linalg.eigvals(mcc_q_reference(p_occ, p_occ.sum(axis=1))).real)
    assert abs(_mcc(p) ** 2 - eigs[-2]) <= 1e-12


@pytest.mark.parametrize("n_levels", [2, 5, 40, 97, 200])
@pytest.mark.parametrize("seed", [0, 1])
def test_mcc_matrix_matches_one_3d_array_bytes(n_levels, seed):
    _assert_mcc_squared_is_the_second_eigenvalue_of_q(
        _random_glcm(np.random.default_rng(seed), n_levels))


@pytest.mark.parametrize("n_bins", [32, 256])
def test_mcc_matrix_matches_one_3d_array_on_phantom_glcms(n_bins):
    for _, _, v, m in iter_phantom(PhantomSpec(n_samples_per_class=1, dims=(16, 16, 16),
                                               seed=5)):
        _assert_mcc_squared_is_the_second_eigenvalue_of_q(
            glcm(quantize_fixed_bins(v, m, n_bins)).data)


def test_mcc_hand_cases():
    # each level co-occurs only with itself: fully dependent
    assert abs(_mcc(np.diag([0.1, 0.2, 0.3, 0.4])) - 1.0) <= 1e-15
    # independent levels, p = px px^T: no correlation at all
    px = np.array([0.1, 0.2, 0.3, 0.4])
    assert abs(_mcc(np.outer(px, px))) <= 1e-12
    # two levels that only ever meet each other
    assert abs(_mcc([[0.0, 0.5], [0.5, 0.0]]) - 1.0) <= 1e-15


def test_glcm_features_memory_is_quadratic_in_the_levels():
    # one (L, L, L) array of MCC terms would be 140 MB at 260 levels and take
    # the call near 271 MB; MCC takes the eigenvalues of one (L, L) matrix, so
    # the call's peak is (L, L) temporaries
    m = TextureMatrix(kind="GLCM", data=_random_glcm(np.random.default_rng(3), 260))
    glcm_features(m)  # the first call also imports what numpy loads lazily
    tracemalloc.start()
    try:
        glcm_features(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, f"glcm_features peaked at {peak / 2 ** 20:.1f} MB"
