"""Equal-width histogram shared by first-order entropy and the training trace,
and the Shannon entropy in bits that first-order and texture features share."""

from __future__ import annotations

import math

import numpy as np

from .errors import DataValidationError

_BLOCK = 65536  # values binned at a time, as np.histogram does


def histogram(values, n_bins: int = 32) -> tuple[np.ndarray, float, float]:
    """(counts, lo, hi): bin counts over [lo, hi] = [min, max], last bin
    right-inclusive.

    The bins are np.histogram's with ``range=(lo, hi)``, by its own rule for
    equal bins, without its per-call set-up: a value's bin is
    ``(v - lo) / (hi - lo) * n_bins`` truncated, hi's moved into the last
    bin, then moved one bin down or up where that misses the value's
    ``np.linspace(lo, hi, n_bins + 1)`` edges. Values are binned 65,536 at
    a time, so temporaries stay that size. A span too narrow for n_bins
    distinct edges, which np.histogram refuses, is binned by the same rule.

    A constant input puts all mass in the first bin, so downstream entropy
    and trace plots stay defined for degenerate data. Non-finite values are
    a DataValidationError.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise DataValidationError("cannot histogram an empty list")
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataValidationError(f"cannot histogram non-finite values (range [{lo}, {hi}])")
    counts = np.zeros(n_bins, dtype=np.int64)
    if lo == hi:
        counts[0] = values.size
        return counts, lo, hi
    edges = np.linspace(lo, hi, n_bins + 1)
    span = hi - lo
    for start in range(0, values.size, _BLOCK):
        v = values[start:start + _BLOCK]
        at = ((v - lo) / span * n_bins).astype(np.intp)
        at[at == n_bins] -= 1
        at[v < edges[at]] -= 1
        at[(v >= edges[at + 1]) & (at != n_bins - 1)] += 1
        counts += np.bincount(at, minlength=n_bins)
    return counts, lo, hi


def entropy_bits(p) -> float:
    """``-sum(p * log2(p))`` over the entries of ``p`` above 0 (0*log0 = 0)."""
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))
