"""Gray-level discretization of masked voxels.

Fixed bin COUNT (default 32) rather than fixed bin width, so texture matrix
sizes stay bounded regardless of intensity scale. Levels are 1..n_bins inside
the mask and 0 outside; a constant in-mask region maps everything to level 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .volume import RoiMask, Volume, _dims, check_pair

DEFAULT_BINS = 32


@dataclass
class QuantizedVolume:
    dims: tuple[int, int, int]
    levels: np.ndarray  # flat int32, x-fastest, 0 outside the mask
    n_bins: int

    def __post_init__(self):
        self.dims = _dims(self.dims, "quantized volume")
        # a bool, a non-integer or a non-integral value is an error, not truncated
        if (not isinstance(self.n_bins, (int, np.integer)) or isinstance(self.n_bins, bool)
                or self.n_bins < 1):
            raise DataValidationError(f"n_bins must be an integer >= 1, got {self.n_bins!r}")
        self.n_bins = int(self.n_bins)
        levels = np.asarray(self.levels).ravel()
        if levels.dtype.kind not in "biuf" or (
                levels.dtype.kind == "f" and not np.array_equal(levels, np.trunc(levels))):
            raise DataValidationError("levels must be integers")
        n = self.dims[0] * self.dims[1] * self.dims[2]
        if levels.size != n:
            raise DataValidationError(f"level count {levels.size} does not match dims product {n}")
        # checked before the cast, so an out-of-range value cannot wrap into range
        if levels.min() < 0 or levels.max() > min(self.n_bins, np.iinfo(np.int32).max):
            raise DataValidationError("levels must lie in {0} union [1, n_bins] and fit int32")
        self.levels = np.ascontiguousarray(levels, dtype=np.int32)

    def as_zyx(self) -> np.ndarray:
        nx, ny, nz = self.dims
        return self.levels.reshape(nz, ny, nx)

    def mask_count(self) -> int:
        return int(np.count_nonzero(self.levels))


def quantize_fixed_bins(v: Volume, m: RoiMask, n_bins: int = DEFAULT_BINS) -> QuantizedVolume:
    """Map in-mask intensities to levels 1..n_bins over the in-mask range.

    level = min(n_bins, floor((x - lo) / (hi - lo) * n_bins) + 1); a
    degenerate range (hi == lo) maps every in-mask voxel to level 1.
    """
    check_pair(v, m)
    if n_bins < 1:
        raise DataValidationError("n_bins must be >= 1")
    inside = m.bits.astype(bool)
    levels = np.zeros(v.voxels.size, dtype=np.int32)
    vals = v.voxels[inside].astype(np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        levels[inside] = 1
    else:
        scaled = np.floor((vals - lo) / (hi - lo) * n_bins).astype(np.int64) + 1
        levels[inside] = np.minimum(scaled, n_bins).astype(np.int32)
    return QuantizedVolume(dims=v.dims, levels=levels, n_bins=n_bins)
