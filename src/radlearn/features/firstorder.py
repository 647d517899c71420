"""First-order intensity statistics over the ROI.

The nine most common statistics. Entropy uses a 32-bin equal-width histogram
(log base 2, 0*log0 = 0); Variance is the population variance; Kurtosis is
Fisher's excess kurtosis. Skewness and Kurtosis are 0 by convention when the
variance is 0, which keeps every output finite on constant regions.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataValidationError
from ..histogram import entropy_bits, histogram
from ..volume import RoiMask, Volume, check_pair
from .vector import FeatureVector, family_vector

_ENTROPY_BINS = 32

FIRST_ORDER_FEATURES = ["Mean", "Median", "Variance", "Skewness", "Kurtosis",
                        "Energy", "Entropy", "Minimum", "Maximum"]


def first_order(v: Volume, m: RoiMask, names=None) -> FeatureVector:
    """The first-order statistics over in-mask voxels; ``names`` picks a subset
    of FIRST_ORDER_FEATURES, in its own order."""
    check_pair(v, m)
    names = FIRST_ORDER_FEATURES if names is None else names
    unknown = [n for n in names if n not in FIRST_ORDER_FEATURES]
    if unknown:
        raise DataValidationError(f"unknown first-order features: {unknown}")
    x = v.voxels[m.bits.astype(bool)].astype(np.float64)
    mean = np.mean(x)
    dev = x - mean
    var = np.mean(dev * dev)  # np.var's own steps, so the same bits
    counts = histogram(x, _ENTROPY_BINS)
    values = {
        "Mean": mean,
        "Median": np.median(x),
        "Variance": var,
        "Skewness": 0.0 if var == 0 else np.mean(dev ** 3) / var ** 1.5,
        "Kurtosis": 0.0 if var == 0 else np.mean(dev ** 4) / var ** 2 - 3.0,
        "Energy": np.sum(x ** 2),
        "Entropy": entropy_bits(counts / counts.sum()),
        "Minimum": np.min(x),
        "Maximum": np.max(x),
    }
    return family_vector("firstorder", names, [values[n] for n in names])
