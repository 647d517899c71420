"""2D shape features of the ROI, pixel-grid convention.

Computed on the axial slice with the largest in-mask pixel count (ties go to
the lowest z), so the result is deterministic for any mask. Intensity is never
consulted. Axis lengths come from the eigenvalues of the population covariance
of pixel centers (4*sqrt(lambda)); degenerate conventions: a single pixel has
Elongation 1, a collinear mask has Elongation 0.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataValidationError
from ..volume import RoiMask, roi_slice_index
from .vector import FeatureVector

SHAPE_2D_FEATURES = [
    "PixelSurface",
    "Perimeter",
    "PerimeterSurfaceRatio",
    "Sphericity",
    "SphericalDisproportion",
    "MaximumDiameter",
    "MajorAxisLength",
    "MinorAxisLength",
    "Elongation",
    "MeshSurface",
]


def _perimeter(slice_mask: np.ndarray, sx: float, sy: float) -> float:
    """Total boundary edge length: an exposed x-neighbor face contributes sy,
    an exposed y-neighbor face contributes sx (edges run along the other axis)."""
    padded = np.pad(slice_mask, 1)
    inner = padded[1:-1, 1:-1]
    exposed_x = (inner & ~padded[1:-1, :-2]).sum() + (inner & ~padded[1:-1, 2:]).sum()
    exposed_y = (inner & ~padded[:-2, 1:-1]).sum() + (inner & ~padded[2:, 1:-1]).sum()
    return float(exposed_x) * sy + float(exposed_y) * sx


def _max_diameter(centers: np.ndarray, ys: np.ndarray) -> float:
    """Largest center-to-center distance, taken over row ends only.

    For a fixed pair of rows every step of the computed distance (x*sx,
    difference, square, sum with the fixed y term, sqrt) rounds monotonically
    in |x_a - x_b|, so the all-pairs maximum is attained at the leftmost or
    rightmost pixel of each row, bit for bit. Pixels come row-major from
    np.nonzero, so a row's ends are the first and last entries of its run.
    """
    if centers.shape[0] < 2:
        return 0.0
    first = np.flatnonzero(np.diff(ys, prepend=-1))
    last = np.append(first[1:] - 1, ys.size - 1)
    ends = centers[np.concatenate([first, last])]
    diff = ends[:, None, :] - ends[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


def shape_2d(m: RoiMask, spacing=(1.0, 1.0, 1.0)) -> FeatureVector:
    """Ten 2D shape features of the largest-area axial ROI slice.

    spacing is (sx, sy, sz) in mm/voxel; only the in-plane components are
    used. Defaults to the unit grid.
    """
    if m.count() == 0:
        raise DataValidationError("mask is empty; at least one voxel must be set")
    z = roi_slice_index(m)
    slice_mask = m.as_zyx()[z].astype(bool)  # (ny, nx)
    sx, sy = float(spacing[0]), float(spacing[1])
    ys, xs = np.nonzero(slice_mask)
    centers = np.stack([xs * sx, ys * sy], axis=1).astype(np.float64)
    n = centers.shape[0]

    pixel_area = sx * sy
    surface = n * pixel_area
    perimeter = _perimeter(slice_mask, sx, sy)
    sphericity = 2.0 * math.sqrt(math.pi * surface) / perimeter
    cov = np.cov(centers.T, ddof=0) if n > 1 else np.zeros((2, 2))
    eigs = np.sort(np.maximum(np.linalg.eigvalsh(np.atleast_2d(cov)), 0.0))
    lam_minor, lam_major = float(eigs[0]), float(eigs[-1])
    major = 4.0 * math.sqrt(lam_major)
    minor = 4.0 * math.sqrt(lam_minor)
    elongation = math.sqrt(lam_minor / lam_major) if lam_major > 0 else 1.0

    values = {
        "PixelSurface": surface,
        "Perimeter": perimeter,
        "PerimeterSurfaceRatio": perimeter / surface,
        "Sphericity": sphericity,
        "SphericalDisproportion": 1.0 / sphericity,
        "MaximumDiameter": _max_diameter(centers, ys),
        "MajorAxisLength": major,
        "MinorAxisLength": minor,
        "Elongation": elongation,
        "MeshSurface": surface,  # equals PixelSurface under the pixel-grid convention
    }
    return FeatureVector(
        names=[f"shape2d.{name}" for name in SHAPE_2D_FEATURES],
        values=np.array([values[name] for name in SHAPE_2D_FEATURES]),
    )
