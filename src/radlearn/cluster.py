"""Correlation-distance hierarchical clustering of features.

Distance is 1 - |Pearson correlation|, so strongly anti-correlated features
group together with strongly correlated ones; a zero-variance feature sits at
distance 1 from everything. The correlations are numpy's pairwise sums
(``metrics.correlations``), with no BLAS call, so the distances and the
dendrogram have the same bits whichever BLAS core the host runs.

Agglomeration uses average linkage; among minimum-distance pairs it merges
the pair whose (representative, representative) names, a cluster's smallest
member names, are lexicographically smallest. Node ids are scipy's: leaves
0..n-1, the i-th merge creates node n+i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .jsonio import write_json
from .metrics import correlations
from .table import FeatureTable


@dataclass
class Dendrogram:
    merges: list[tuple[int, int, float]]  # (node_a, node_b, height)
    leaf_names: list[str]


def correlation_distance_matrix(t: FeatureTable, names=None) -> np.ndarray:
    """Symmetric matrix d(f,g) = 1 - |pearson(f,g)| with zero diagonal."""
    names = list(names) if names is not None else list(t.feature_names)
    if len(names) < 2:
        raise DataValidationError("need at least 2 features to build distances")
    if t.n_samples < 2:
        raise DataValidationError("need at least 2 samples to correlate features")
    cols = np.stack([t.column(n) for n in names])
    dist = np.clip(1.0 - np.abs(correlations(cols)), 0.0, None)
    np.fill_diagonal(dist, 0.0)
    return dist


def agglomerate(d: np.ndarray, leaf_names) -> Dendrogram:
    """Average-linkage merges of the leaves, with distances from the upper
    triangle of ``d``.

    Distances live in one n x n matrix: a merge writes the new cluster's
    Lance-Williams row into the slot of its first member and retires the
    other slot. The tie rule compares representatives by their rank in the
    sorted names, which orders them as the names do.
    """
    d = np.asarray(d, dtype=np.float64)
    leaf_names = list(leaf_names)
    n = len(leaf_names)
    if d.shape != (n, n):
        raise DataValidationError("distance matrix shape must match leaf count")
    if not np.allclose(d, d.T):
        raise DataValidationError("distance matrix must be symmetric")
    if len(set(leaf_names)) != n:
        raise DataValidationError("leaf names must be distinct")

    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    dist = np.where(upper, d, d.T)
    live = upper | upper.T  # pairs of distinct active slots
    rep = np.empty(n, dtype=np.int64)  # per slot, its representative's rank among the names
    rep[sorted(range(n), key=leaf_names.__getitem__)] = np.arange(n)
    node = list(range(n))  # per slot, the id of the cluster it holds
    size = [1] * n

    merges: list[tuple[int, int, float]] = []
    for next_id in range(n, 2 * n - 1):
        best = dist[live].min()
        i, j = np.nonzero(live & (dist == best))
        # the lexicographically smallest (representative, representative) pair
        k = np.argmin(np.minimum(rep[i], rep[j]) * n + np.maximum(rep[i], rep[j]))
        a, b = sorted((int(i[k]), int(j[k])), key=node.__getitem__)
        merges.append((node[a], node[b], float(best)))
        # Lance-Williams update for average linkage
        row = (size[a] * dist[a] + size[b] * dist[b]) / (size[a] + size[b])
        dist[a] = dist[:, a] = row
        live[b] = live[:, b] = False
        rep[a] = min(rep[a], rep[b])
        node[a], size[a] = next_id, size[a] + size[b]
    return Dendrogram(merges=merges, leaf_names=leaf_names)


def cut(dg: Dendrogram, k: int) -> list[list[str]]:
    """k clusters obtained by undoing the last k-1 merges.

    Clusters are sorted by their smallest member name; members are sorted.
    """
    n = len(dg.leaf_names)
    if k < 1 or k > n:
        raise DataValidationError(f"k must be in [1, {n}], got {k}")
    members = {leaf: [name] for leaf, name in enumerate(dg.leaf_names)}
    for idx, (a, b, _) in enumerate(dg.merges[: n - k]):
        members[n + idx] = members.pop(a) + members.pop(b)
    return sorted((sorted(c) for c in members.values()), key=lambda c: c[0])


def save_dendrogram(dg: Dendrogram, path) -> None:
    write_json({"leaf_names": dg.leaf_names,
                "merges": [{"node_a": a, "node_b": b, "height": h} for a, b, h in dg.merges]},
               path)
