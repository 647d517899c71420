"""Mann-Whitney U significance filtering and cross-modality set intersection.

The U statistic comes from midrank sums; the reported statistic is
min(U_x, U_y). The two-sided p-value is exact (full enumeration of the
C(n1+n2, n1) group assignments, tie-aware) when n1+n2 <= 12, and otherwise a
normal approximation with tie-corrected variance and a 0.5 continuity
correction, clamped to <= 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError
from .jsonio import from_json, read_json
from .metrics import midranks, tie_runs
from .table import FeatureTable

EXACT_LIMIT = 12


@dataclass
class UTestResult:
    u_statistic: float  # min(u_x, u_y)
    p_value: float
    method: str  # "exact" | "normal_approx"
    u_x: float
    u_y: float


@dataclass
class FeatureSignificance:
    name: str
    p_value: float
    significant: bool


@dataclass
class SignificanceReport:
    """Also the ``significance.json`` format, which ``load_report`` reads back."""

    alpha: float
    features: list[FeatureSignificance] = field(default_factory=list)
    n_significant: int = 0

    def significant_names(self) -> list[str]:
        return [f.name for f in self.features if f.significant]


@dataclass
class IntersectionSummary:
    pairwise: dict[str, int]  # "A&B" -> |A intersect B|, names sorted
    common: list[str]  # all-way intersection, sorted
    common_size: int
    union_size: int
    set_sizes: dict[str, int]


def _exact_two_sided_p(ranks: np.ndarray, n1: int, u_obs: float) -> float:
    """Share of assignments whose min-U is at most the observed min-U."""
    n = ranks.size
    n2 = n - n1
    offset = n1 * (n1 + 1) / 2.0
    idx = np.array(list(itertools.combinations(range(n), n1)), dtype=np.intp)
    u_x = ranks[idx].sum(axis=1) - offset
    u_min = np.minimum(u_x, n1 * n2 - u_x)
    return float(np.count_nonzero(u_min <= u_obs + 1e-9) / u_min.size)


def _normal_two_sided_p(values: np.ndarray, n1: int, n2: int, u_obs: float) -> float:
    n = n1 + n2
    tie_counts = tie_runs(values)[2]
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        return 1.0  # every observation tied
    z = (u_obs - n1 * n2 / 2.0 + 0.5) / math.sqrt(sigma2)
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return min(p, 1.0)


def mann_whitney_u(x, y) -> UTestResult:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size == 0 or y.size == 0:
        raise DataValidationError("both samples must be nonempty")
    n1, n2 = x.size, y.size
    combined = np.concatenate([x, y])
    ranks = midranks(combined)
    u_x = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    u_y = n1 * n2 - u_x
    u = min(u_x, u_y)
    if n1 + n2 <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, n1, u)
        method = "exact"
    else:
        p = _normal_two_sided_p(combined, n1, n2, u)
        method = "normal_approx"
    return UTestResult(u_statistic=u, p_value=p, method=method, u_x=u_x, u_y=u_y)


def filter_significant(t: FeatureTable, alpha: float = 0.05) -> SignificanceReport:
    """Per-feature class-0 vs class-1 test; boundary p == alpha is significant."""
    labels = t.labels
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataValidationError("significance filtering requires both classes")
    report = SignificanceReport(alpha=alpha)
    for name in t.feature_names:
        result = mann_whitney_u(*t.class_split(name))
        report.features.append(FeatureSignificance(
            name=name, p_value=result.p_value, significant=result.p_value <= alpha))
    report.n_significant = len(report.significant_names())
    return report


def load_report(path) -> SignificanceReport:
    """A ``significance.json`` (from ``filter``) read back by the typed reader."""
    return from_json(SignificanceReport, read_json(path), "significance report")


def modality_intersection(sets: dict[str, set]) -> IntersectionSummary:
    if len(sets) < 2:
        raise DataValidationError("intersection analysis needs at least 2 modalities")
    names = sorted(sets)
    pairwise = {
        f"{a}&{b}": len(set(sets[a]) & set(sets[b]))
        for a, b in itertools.combinations(names, 2)
    }
    common = set(sets[names[0]])
    union = set()
    for name in names:
        common &= set(sets[name])
        union |= set(sets[name])
    return IntersectionSummary(
        pairwise=pairwise,
        common=sorted(common),
        common_size=len(common),
        union_size=len(union),
        set_sizes={name: len(sets[name]) for name in names},
    )
