"""First-order intensity statistics over the ROI.

The nine most common statistics. Entropy uses a 32-bin equal-width histogram
(log base 2, 0*log0 = 0); Variance is the population variance; Kurtosis is
Fisher's excess kurtosis. Skewness and Kurtosis are 0 by convention when the
variance is 0, which keeps every output finite on constant regions.
"""

from __future__ import annotations

import numpy as np

from ..histogram import entropy_bits, histogram
from ..volume import RoiMask, Volume, check_pair
from .vector import FeatureVector, family_vector

_ENTROPY_BINS = 32

FIRST_ORDER_FEATURES = ["Mean", "Median", "Variance", "Skewness", "Kurtosis",
                        "Energy", "Entropy", "Minimum", "Maximum"]


def first_order(v: Volume, m: RoiMask) -> FeatureVector:
    """The FIRST_ORDER_FEATURES over in-mask voxels."""
    check_pair(v, m)
    x = v.voxels[m.bits.astype(bool)].astype(np.float64)
    mean = np.mean(x)
    dev = x - mean
    sq = dev * dev
    var = np.mean(sq)  # np.var's own steps, so the same bits
    # products in place, not dev ** 3 and ** 4: numpy's pow rounds differently per SIMD level
    m3 = np.mean(np.multiply(sq, dev, out=dev))
    m4 = np.mean(np.multiply(sq, sq, out=sq))
    del dev, sq
    counts = histogram(x, _ENTROPY_BINS)[0]
    # np.median's own steps, so the same bits, without its import of numpy.ma
    h = x.size // 2
    p = np.partition(x, h if x.size % 2 else [h - 1, h])
    values = {
        "Mean": mean,
        "Median": p[h] if x.size % 2 else (p[h - 1] + p[h]) / 2,
        "Variance": var,
        "Skewness": 0.0 if var == 0 else m3 / var ** 1.5,
        "Kurtosis": 0.0 if var == 0 else m4 / var ** 2 - 3.0,
        "Energy": np.sum(x ** 2),
        "Entropy": entropy_bits(counts / counts.sum()),
        "Minimum": np.min(x),
        "Maximum": np.max(x),
    }
    return family_vector("firstorder", FIRST_ORDER_FEATURES,
                         [values[n] for n in FIRST_ORDER_FEATURES])
