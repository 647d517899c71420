"""Equal-width histogram shared by first-order entropy and the training trace,
and the Shannon entropy in bits that first-order and texture features share."""

from __future__ import annotations

import numpy as np

from .errors import DataValidationError


def histogram(values, n_bins: int = 32) -> tuple[np.ndarray, float, float]:
    """(counts, lo, hi): bin counts over [lo, hi] = [min, max], last bin
    right-inclusive.

    A constant input puts all mass in the first bin, so downstream entropy
    and trace plots stay defined for degenerate data.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise DataValidationError("cannot histogram an empty list")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        counts = np.zeros(n_bins, dtype=np.int64)
        counts[0] = values.size
    else:
        counts = np.histogram(values, bins=n_bins, range=(lo, hi))[0].astype(np.int64)
    return counts, lo, hi


def entropy_bits(p) -> float:
    """``-sum(p * log2(p))`` over the entries of ``p`` above 0 (0*log0 = 0)."""
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))
