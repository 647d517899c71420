"""Whole-sample feature extraction: all seven families in a fixed order."""

from __future__ import annotations

from dataclasses import replace

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


def _roi_box(grid: np.ndarray) -> tuple[slice, slice, slice]:
    """The tight box of a (nz, ny, nx) grid's nonzero voxels."""
    hits = [np.flatnonzero(grid.any(axis=tuple(a for a in range(3) if a != axis)))
            for axis in range(3)]
    return tuple(slice(int(hit[0]), int(hit[-1]) + 1) for hit in hits)


def _crop_to_roi(q: QuantizedVolume) -> QuantizedVolume:
    """The ROI bounding box.

    Every texture builder borders its grid with level 0, and all in-mask
    voxels stay inside the box, so the matrices do not change.
    """
    levels = q.as_zyx()[_roi_box(q.as_zyx())]
    nz, ny, nx = levels.shape
    return QuantizedVolume(dims=(nx, ny, nz), levels=levels, n_bins=q.n_bins)


def extract_all(v: Volume, m: RoiMask, n_bins: int = 32, distance: int = 1,
                alpha: int = 0) -> vector.FeatureVector:
    """94 named features: firstorder, shape2d, glcm, glrlm, glszm, ngtdm, gldm.

    The volume and mask are cropped to the ROI box before quantizing, as
    ``_crop_to_roi`` crops levels: the in-mask values keep their order, so no value
    changes, and the cost grows with the ROI, not the grid. Shape reads the
    whole mask, since its pixel coordinates depend on the grid.
    """
    check_pair(v, m)
    box = _roi_box(m.as_zyx())
    voxels = v.as_zyx()[box]
    roi_v = replace(v, dims=voxels.shape[::-1], voxels=voxels)
    roi_m = replace(m, dims=roi_v.dims, bits=m.as_zyx()[box])
    q = quantize_fixed_bins(roi_v, roi_m, n_bins)
    parts = [first_order(roi_v, roi_m)]
    del roi_v, roi_m  # the texture matrices need only q
    parts += [
        shape_2d(m, spacing=v.spacing),
        glcm_features(glcm(q, distance=distance)),
        glrlm_features(glrlm(q)),
        glszm_features(glszm(q)),
        ngtdm_features(ngtdm(q)),
        gldm_features(gldm(q, alpha=alpha)),
    ]
    return vector.concat(parts)
