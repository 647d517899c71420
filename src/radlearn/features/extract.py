"""Whole-sample feature extraction: all seven families in a fixed order."""

from __future__ import annotations

import numpy as np

from ..quantize import QuantizedVolume, quantize_fixed_bins
from ..volume import RoiMask, Volume, check_pair
from . import vector
from .firstorder import FIRST_ORDER_FEATURES, first_order
from .matrices import glcm, gldm, glrlm, glszm, ngtdm
from .shape2d import SHAPE_2D_FEATURES, shape_2d
from .texture_features import (
    GLCM_FEATURES,
    GLDM_FEATURES,
    GLRLM_FEATURES,
    GLSZM_FEATURES,
    NGTDM_FEATURES,
    gldm_features,
    glcm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)

FAMILY_COUNTS = {family: len(names) for family, names in (
    ("firstorder", FIRST_ORDER_FEATURES), ("shape2d", SHAPE_2D_FEATURES),
    ("glcm", GLCM_FEATURES), ("glrlm", GLRLM_FEATURES), ("glszm", GLSZM_FEATURES),
    ("ngtdm", NGTDM_FEATURES), ("gldm", GLDM_FEATURES))}
TOTAL_FEATURES = sum(FAMILY_COUNTS.values())


def _crop_to_roi(q: QuantizedVolume) -> QuantizedVolume:
    """The ROI bounding box plus a one-voxel pad (clipped to the grid).

    Every texture builder treats out-of-grid voxels like level 0, and all
    in-mask voxels stay inside the box, so the matrices do not change.
    """
    inside = q.as_zyx() > 0
    box = []
    for axis in range(3):
        hit = np.flatnonzero(inside.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(max(int(hit[0]) - 1, 0), int(hit[-1]) + 2))
    levels = q.as_zyx()[tuple(box)]
    nz, ny, nx = levels.shape
    return QuantizedVolume(dims=(nx, ny, nz), levels=levels, n_bins=q.n_bins)


def extract_all(v: Volume, m: RoiMask, n_bins: int = 32, distance: int = 1,
                alpha: int = 0) -> vector.FeatureVector:
    """94 named features: firstorder, shape2d, glcm, glrlm, glszm, ngtdm, gldm.

    Texture matrices are built on the ROI bounding box, so their cost grows
    with the ROI and not with the grid.
    """
    check_pair(v, m)
    q = _crop_to_roi(quantize_fixed_bins(v, m, n_bins))
    parts = [
        first_order(v, m),
        shape_2d(m, spacing=v.spacing),
        glcm_features(glcm(q, distance=distance)),
        glrlm_features(glrlm(q)),
        glszm_features(glszm(q)),
        ngtdm_features(ngtdm(q)),
        gldm_features(gldm(q, alpha=alpha)),
    ]
    return vector.concat(parts)
