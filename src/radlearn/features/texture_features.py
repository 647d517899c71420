"""Feature formulas over the texture matrices.

The formulas follow the widely used reference definitions; every name below
is the contract, and the math is as docs/features.md documents it.
Degenerate single-level regions take fixed conventional values
(Correlation/MCC 1, Imc1/Imc2 0, NGTDM Coarseness capped at 1e6, ...) so
the pipeline never emits a non-finite number.

Gray level values are the bin indices 1..n_bins; formulas that need a level
use the value, not the row position. 0*log(0) is taken to be 0 throughout.
GLRLM, GLSZM and GLDM sum over their occupied cells alone, each sum exactly
rounded (math.fsum); only their entropies take numpy's log2, whose last bit
can differ between SIMD levels.
"""

from __future__ import annotations

from math import fsum

import numpy as np

from ..errors import DataValidationError
from ..histogram import entropy_bits
from .matrices import TextureMatrix
from .vector import FeatureVector, family_vector

NGTDM_COARSENESS_CAP = 1e6

GLCM_FEATURES = [
    "Autocorrelation", "JointAverage", "ClusterProminence", "ClusterShade",
    "ClusterTendency", "Contrast", "Correlation", "DifferenceAverage",
    "DifferenceEntropy", "DifferenceVariance", "JointEnergy", "JointEntropy",
    "Imc1", "Imc2", "Idm", "Idmn", "Id", "Idn", "InverseVariance",
    "MaximumProbability", "SumAverage", "SumEntropy", "SumSquares", "MCC",
]

GLRLM_FEATURES = [
    "ShortRunEmphasis", "LongRunEmphasis", "GrayLevelNonUniformity",
    "GrayLevelNonUniformityNormalized", "RunLengthNonUniformity",
    "RunLengthNonUniformityNormalized", "RunPercentage", "GrayLevelVariance",
    "RunVariance", "RunEntropy", "LowGrayLevelRunEmphasis",
    "HighGrayLevelRunEmphasis", "ShortRunLowGrayLevelEmphasis",
    "ShortRunHighGrayLevelEmphasis", "LongRunLowGrayLevelEmphasis",
    "LongRunHighGrayLevelEmphasis",
]

GLSZM_FEATURES = [
    "SmallAreaEmphasis", "LargeAreaEmphasis", "GrayLevelNonUniformity",
    "GrayLevelNonUniformityNormalized", "SizeZoneNonUniformity",
    "SizeZoneNonUniformityNormalized", "ZonePercentage", "GrayLevelVariance",
    "ZoneVariance", "ZoneEntropy", "LowGrayLevelZoneEmphasis",
    "HighGrayLevelZoneEmphasis", "SmallAreaLowGrayLevelEmphasis",
    "SmallAreaHighGrayLevelEmphasis", "LargeAreaLowGrayLevelEmphasis",
    "LargeAreaHighGrayLevelEmphasis",
]

NGTDM_FEATURES = ["Coarseness", "Contrast", "Busyness", "Complexity", "Strength"]

GLDM_FEATURES = [
    "SmallDependenceEmphasis", "LargeDependenceEmphasis",
    "GrayLevelNonUniformity", "DependenceNonUniformity",
    "DependenceNonUniformityNormalized", "GrayLevelVariance",
    "DependenceVariance", "DependenceEntropy", "LowGrayLevelEmphasis",
    "HighGrayLevelEmphasis", "SmallDependenceLowGrayLevelEmphasis",
    "SmallDependenceHighGrayLevelEmphasis", "LargeDependenceLowGrayLevelEmphasis",
    "LargeDependenceHighGrayLevelEmphasis",
]


def _check_kind(m: TextureMatrix, kind: str) -> None:
    if m.kind != kind:
        raise DataValidationError(f"expected a {kind} matrix, got {m.kind}")


def glcm_features(m: TextureMatrix) -> FeatureVector:
    _check_kind(m, "GLCM")
    if abs(float(m.data.sum()) - 1.0) > 1e-9:
        raise DataValidationError("GLCM must be normalized to sum 1")
    occ = m.data.sum(axis=1) > 0  # symmetric, so row and column support agree
    iv = np.flatnonzero(occ).astype(np.float64) + 1.0
    p = m.data[np.ix_(occ, occ)]
    n_occ = iv.size
    degenerate = n_occ < 2

    px = p.sum(axis=1)  # equals py by symmetry
    mu = float(np.sum(iv * px))
    sigma2 = float(np.sum((iv - mu) ** 2 * px))
    i_mat = iv[:, None]
    j_mat = iv[None, :]

    ksum = (i_mat + j_mat).astype(np.int64)
    p_plus = np.bincount(ksum.ravel(), weights=p.ravel())
    kplus = np.arange(p_plus.size, dtype=np.float64)
    kdiff = np.abs(i_mat - j_mat).astype(np.int64)
    p_minus = np.bincount(kdiff.ravel(), weights=p.ravel())
    kminus = np.arange(p_minus.size, dtype=np.float64)

    autocorrelation = float(np.sum(i_mat * j_mat * p))
    cluster_arg = i_mat + j_mat - 2.0 * mu
    # products, not ** 3 and ** 4: the same bits on every numpy SIMD level
    c2 = cluster_arg * cluster_arg
    contrast = float(np.sum((i_mat - j_mat) ** 2 * p))
    diff_avg = float(np.sum(kminus * p_minus))
    joint_entropy = entropy_bits(p)
    hx = entropy_bits(px)
    pxpy = px[:, None] * px[None, :]
    pos = p > 0
    hxy1 = float(-np.sum(p[pos] * np.log2(pxpy[pos])))
    hxy2 = entropy_bits(pxpy)
    ng = float(iv.max())

    if degenerate:
        correlation, imc1, imc2, mcc = 1.0, 0.0, 0.0, 1.0
    else:
        correlation = 1.0 if sigma2 == 0 else float((autocorrelation - mu * mu) / sigma2)
        imc1 = 0.0 if hx == 0 else float((joint_entropy - hxy1) / hx)
        imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - joint_entropy)))))
        # the second-largest singular value of p / sqrt(px_i px_j), the largest
        # being 1; Q = D^-1 p D^-1 p, D = diag(px), is similar to its square
        mcc = min(float(np.sort(np.abs(np.linalg.eigvalsh(p / np.sqrt(pxpy))))[-2]), 1.0)

    values = {
        "Autocorrelation": autocorrelation,
        "JointAverage": mu,
        "ClusterProminence": float(np.sum(c2 * c2 * p)),
        "ClusterShade": float(np.sum(c2 * cluster_arg * p)),
        "ClusterTendency": float(np.sum(c2 * p)),
        "Contrast": contrast,
        "Correlation": correlation,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": entropy_bits(p_minus),
        "DifferenceVariance": float(np.sum((kminus - diff_avg) ** 2 * p_minus)),
        "JointEnergy": float(np.sum(p ** 2)),
        "JointEntropy": joint_entropy,
        "Imc1": imc1,
        "Imc2": imc2,
        "Idm": float(np.sum(p_minus / (1.0 + kminus ** 2))),
        "Idmn": float(np.sum(p_minus / (1.0 + (kminus / ng) ** 2))),
        "Id": float(np.sum(p_minus / (1.0 + kminus))),
        "Idn": float(np.sum(p_minus / (1.0 + kminus / ng))),
        "InverseVariance": float(np.sum(p_minus[1:] / kminus[1:] ** 2)) if p_minus.size > 1 else 0.0,
        "MaximumProbability": float(p.max()),
        "SumAverage": float(np.sum(kplus * p_plus)),
        "SumEntropy": entropy_bits(p_plus),
        "SumSquares": float(np.sum((i_mat - mu) ** 2 * p)),
        "MCC": mcc,
    }
    return family_vector("glcm", GLCM_FEATURES, [values[n] for n in GLCM_FEATURES])


def _run_style_features(counts: np.ndarray):
    """Shared math for GLRLM (runs), GLSZM (zones) and GLDM (dependences).

    counts is (n_levels, max_j). The percentage denominator sum(count * j) is
    voxels*directions for runs and voxels for zones; GLDM has no percentage.
    Every sum runs over the occupied cells alone and is exactly rounded
    (math.fsum), so zero rows and columns change no bit.
    """
    flat = np.flatnonzero(counts)
    i, j = np.divmod(flat, counts.shape[1])
    c = counts.ravel()[flat]
    row2 = fsum(np.bincount(i, weights=c) ** 2)
    col2 = fsum(np.bincount(j, weights=c) ** 2)
    n = fsum(c)
    p = c / n
    iv, jv = i + 1.0, j + 1.0
    iv2, jv2 = iv ** 2, jv ** 2
    mu_i, mu_j = fsum(iv * p), fsum(jv * p)
    return {
        "short": fsum(c / jv2) / n,
        "long": fsum(c * jv2) / n,
        "gln": row2 / n,
        "glnn": row2 / n ** 2,
        "jn": col2 / n,
        "jnn": col2 / n ** 2,
        "percentage": n / fsum(c * jv),
        "glv": fsum((iv - mu_i) ** 2 * p),
        "jv": fsum((jv - mu_j) ** 2 * p),
        "entropy": -fsum(p * np.log2(p)),
        "lgl": fsum(c / iv2) / n,
        "hgl": fsum(c * iv2) / n,
        "short_lgl": fsum(c / (iv2 * jv2)) / n,
        "short_hgl": fsum(c * iv2 / jv2) / n,
        "long_lgl": fsum(c * jv2 / iv2) / n,
        "long_hgl": fsum(c * iv2 * jv2) / n,
    }


def _run_family(m: TextureMatrix, kind: str, names, keys=None) -> FeatureVector:
    """``names`` in the key order of _run_style_features, or of ``keys``."""
    _check_kind(m, kind)
    if not m.data.any():
        raise DataValidationError(f"{kind} matrix has no occupied cell")
    stats = _run_style_features(m.data)
    return family_vector(kind.lower(), names, [stats[k] for k in keys or stats])


def glrlm_features(m: TextureMatrix) -> FeatureVector:
    return _run_family(m, "GLRLM", GLRLM_FEATURES)


def glszm_features(m: TextureMatrix) -> FeatureVector:
    return _run_family(m, "GLSZM", GLSZM_FEATURES)


def ngtdm_features(m: TextureMatrix) -> FeatureVector:
    _check_kind(m, "NGTDM")
    n_i, p_i, s_i = m.data[:, 0], m.data[:, 1], m.data[:, 2]
    occ = p_i > 0
    iv = np.flatnonzero(occ).astype(np.float64) + 1.0
    pv = p_i[occ]
    sv = s_i[occ]
    n_vp = float(n_i.sum())
    n_gp = int(occ.sum())

    ps = float(np.sum(pv * sv))
    coarseness = NGTDM_COARSENESS_CAP if ps == 0 else min(1.0 / ps, NGTDM_COARSENESS_CAP)

    if n_gp < 2:
        contrast = busyness = strength = 0.0
        complexity = 0.0
    else:
        di = iv[:, None] - iv[None, :]
        pp = pv[:, None] * pv[None, :]
        contrast = float(np.sum(pp * di ** 2) / (n_gp * (n_gp - 1)) * (sv.sum() / n_vp))
        busy_den = float(np.sum(np.abs(iv[:, None] * pv[:, None] - iv[None, :] * pv[None, :])))
        busyness = 0.0 if busy_den == 0 else float(ps / busy_den)
        ps_pair = pv[:, None] * sv[:, None] + pv[None, :] * sv[None, :]
        complexity = float(np.sum(np.abs(di) * ps_pair / (pv[:, None] + pv[None, :])) / n_vp)
        s_total = float(sv.sum())
        strength = 0.0 if s_total == 0 else float(np.sum((pv[:, None] + pv[None, :]) * di ** 2) / s_total)

    values = [coarseness, contrast, busyness, complexity, strength]
    return family_vector("ngtdm", NGTDM_FEATURES, values)


# GLDM_FEATURES in order, as quantities of _run_style_features with the
# dependence count (+1) in the role of the run length
_GLDM_KEY_ORDER = ["short", "long", "gln", "jn", "jnn", "glv", "jv", "entropy",
                   "lgl", "hgl", "short_lgl", "short_hgl", "long_lgl", "long_hgl"]


def gldm_features(m: TextureMatrix) -> FeatureVector:
    return _run_family(m, "GLDM", GLDM_FEATURES, _GLDM_KEY_ORDER)
