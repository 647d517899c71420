"""Random-forest classifier with Gini importances, built for determinism.

Trees are grown greedily on Gini impurity with midpoint thresholds between
consecutive distinct sorted values. The split search sorts nothing per node:
each feature column is sorted once per forest, and a node is described by how
many of its bootstrap rows are each table row, so running sums in a column's
order count the rows left of every threshold. Gini terms come from a
per-forest table over (rows, class-1 rows) when its (n + 1)^2 cells are no
more than the root round's search array, and are computed otherwise; both are
the same float expression, so the table changes no bit.

A forest draws from one generator, ``default_rng(seed)``, in a fixed order:
first the bootstrap rows of all trees as one ``(n_trees, n)`` integer block
(no draw without bootstrap), then one ``(n_trees, n_features)`` block of
uniform keys per round. All trees grow in lockstep: round r handles the r-th
preorder node of every tree that has one, with one batched split search, and
its key block is the r-th of the stream whether or not any node splits
(blocks are drawn when a round searches, so rounds after the last search draw
none). The candidates of node r of tree t are the m features with the
smallest keys in row t, in ascending feature order. A fixed seed therefore
pins the whole ensemble. Importance is mean impurity decrease across trees,
normalized to sum 1 when any split occurred; ranking ties break by ascending
feature name so the elimination loop has a total order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataValidationError
from .jsonio import check
from .table import FeatureTable

_MIN_GAIN = 1e-12


@dataclass
class ForestConfig:
    """Also the ``forest`` config section, except ``seed``, which comes from
    ``seeds.forest``."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: str | int = "sqrt"
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        check("forest", self, [
            ("n_trees", lambda n: n >= 1, ">= 1"),
            ("min_samples_leaf", lambda n: n >= 1, ">= 1"),
            ("max_depth", lambda d: d is None or d >= 1, "null or >= 1"),
            # a string (str(f) == f) must be "sqrt"; an integer must be >= 1
            ("features_per_split", lambda f: f == "sqrt" if str(f) == f else f >= 1,
             "\"sqrt\" or >= 1"),
        ])


@dataclass
class ForestModel:
    """Row t of each node array holds tree t, its nodes in preorder from
    column 0 to column n_nodes[t] - 1; the columns past that are padding."""

    feature_names: list[str]
    feature: np.ndarray  # (n_trees, width) split feature index; -1 marks a leaf
    threshold: np.ndarray  # a row goes left when its feature value <= threshold
    left: np.ndarray  # child node ids; -1 at leaves
    right: np.ndarray
    p1: np.ndarray  # class-1 probability at a leaf
    n_nodes: np.ndarray  # (n_trees,)
    importances: np.ndarray  # per feature, sums to 1 unless no split anywhere
    config: ForestConfig


def _side_mass(packed, side: int, min_leaf: int):
    """Gini impurity times row count of the split sides ``packed`` as
    ``a + side * b`` (a rows, b of them class 1); +inf for a side of fewer
    than ``min_leaf`` rows, so that a split leaving one scores -inf."""
    a, b = np.divmod(packed, side)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a >= min_leaf, a * (1.0 - ((b / a) ** 2 + ((a - b) / a) ** 2)), np.inf)


def _best_splits(columns, v, count, n1, cand, side, min_leaf, table):
    """Best (feature, threshold, gain) of each node, searched over all nodes
    and all their candidate features at once, with no sort.

    ``columns`` is ``(order, values, gap)``: per feature, the table rows in
    ascending value order, those values, and whether each is below the next.
    ``v[e, i]`` packs node e's multiplicity of table row i with its class-1
    part (see ``_side_mass``), so running sums of ``v`` in a column's order
    give both sides of every boundary. A boundary between equal values reads
    as an empty left side. One after a value absent from the node repeats the
    previous boundary's counts and gain, and the first of equal gains wins,
    so the split is the one just after a present value. Side masses are read
    from ``table`` (``_side_mass`` of every packed pair) when there is one.
    ``cand[e]`` lists node e's candidate features in ascending order. A
    node's gain is -inf when no candidate has a split that leaves
    ``min_leaf`` rows on each side; among equal gains the lowest threshold of
    the first candidate wins.
    """
    order, values, gap = columns
    n_nodes, n = v.shape
    at = order[:, :-1].take(cand, axis=0)
    at += (np.arange(n_nodes) * n)[:, None, None]
    lhs = v.take(at)
    np.cumsum(lhs, axis=2, out=lhs)  # packed counts left of each boundary
    rhs = np.subtract((count + side * n1)[:, None, None], lhs, out=at)  # at is spent
    lhs *= gap.take(cand, axis=0)
    if table is not None:
        mass = table.take(lhs)
        mass += table.take(rhs)
    else:
        mass = _side_mass(lhs, side, min_leaf) + _side_mass(rhs, side, min_leaf)
    parent = np.array([1.0 - ((c1 / c) ** 2 + ((c - c1) / c) ** 2)
                       for c, c1 in zip(count.tolist(), n1.tolist())])
    mass /= count[:, None, None]
    gain = np.subtract(parent[:, None, None], mass, out=mass).reshape(n_nodes, -1)

    e = np.arange(n_nodes)
    flat = np.argmax(gain, axis=1)  # row-major first: first candidate, lowest threshold
    best, p = np.divmod(flat, n - 1)
    f = cand[e, best]
    later = (v[e[:, None], order[f]] > 0) & (np.arange(n) > p[:, None])
    q = np.argmax(later, axis=1)  # the next value present in the node
    return f, (values[f, p] + values[f, q]) / 2.0, gain[e, flat]


def _grow_forest(X, y, boot, rng, cfg: ForestConfig):
    """Grow one tree per row of ``boot`` (its bootstrap rows) in lockstep,
    drawing each round's candidate keys from ``rng``.

    Each tree's pending nodes form a depth-first stack whose slots are the
    tree's rows' homes: row i of tree t waits in stack slot ``slot[t, i]``,
    or -1 once its leaf is closed. Round r pops the top slot of every tree
    with a nonempty stack, so the node it handles is that tree's node r in
    preorder. A split pushes the right child into the popped slot and the
    left child above it.
    """
    n_trees, n = boot.shape
    n_features = X.shape[1]
    if cfg.features_per_split == "sqrt":
        m = max(1, int(np.sqrt(n_features)))
    else:
        m = min(int(cfg.features_per_split), n_features)
    yb = y[boot]
    order = np.argsort(X, axis=0).T.copy()  # (n_features, n)
    values = np.take_along_axis(X.T, order, axis=1)
    columns = (order, values, values[:, :-1] < values[:, 1:])
    side = n + 1  # a node's counts pack as rows + side * class-1 rows
    pack = 1 + side * y
    # a Gini table only when its side^2 floats are no more than the root
    # round's search array holds, so memory never grows as the rows squared
    table = None
    if side ** 2 <= n_trees * m * n:
        table = _side_mass(np.arange(side ** 2), side, cfg.min_samples_leaf)
    # leaves hold >= 1 row, so a tree has <= 2n - 1 nodes, each a leaf until split
    shape = (n_trees, 2 * n - 1)
    feature, left, right = (np.full(shape, -1, dtype=np.int64) for _ in range(3))
    threshold, p1 = np.zeros(shape), np.zeros(shape)
    nodes = dict(feature=feature, threshold=threshold, left=left, right=right, p1=p1)
    acc = np.zeros((n_trees, n_features))  # per-tree impurity decrease

    slot = np.zeros((n_trees, n), dtype=np.int64)
    top = np.zeros(n_trees, dtype=np.int64)  # -1 when the stack is empty
    depth = np.zeros((n_trees, n), dtype=np.int64)  # per slot
    waiting = np.full((n_trees, n), -1, dtype=np.int64)  # node whose right child a slot holds

    n_nodes = np.zeros(n_trees, dtype=np.int64)
    r = 0
    undrawn = 0  # key blocks of rounds that searched no node, drawn when one searches
    while True:
        trees = np.flatnonzero(top >= 0)
        if trees.size == 0:
            break
        n_nodes[trees] += 1
        s = top[trees]
        member = slot[trees] == s[:, None]
        count = member.sum(axis=1)
        n1 = (member * yb[trees]).sum(axis=1)
        parent = waiting[trees, s]
        linked = parent >= 0
        right[trees[linked], parent[linked]] = r
        d = depth[trees, s]

        eligible = (n1 > 0) & (n1 < count) & (count >= 2 * cfg.min_samples_leaf)
        if cfg.max_depth is not None:
            eligible &= d < cfg.max_depth
        split = np.zeros(trees.size, dtype=bool)
        e = np.flatnonzero(eligible)
        if e.size:
            for _ in range(undrawn + 1):
                keys = rng.random((n_trees, n_features))
            undrawn = 0
            cand = np.sort(np.argpartition(keys[trees[e]], m - 1, axis=1)[:, :m], axis=1)
            # how many of node e[k]'s bootstrap rows are table row i, packed
            at = boot[trees[e]] + (np.arange(e.size) * n)[:, None]
            w = np.bincount(at[member[e]], minlength=e.size * n).reshape(e.size, n)
            f, thr, gain = _best_splits(columns, w * pack, count[e], n1[e], cand, side,
                                        cfg.min_samples_leaf, table)
            found = gain > _MIN_GAIN
            e, f, thr, gain = e[found], f[found], thr[found], gain[found]
            split[e] = True

            ts, se = trees[e], s[e]
            feature[ts, r] = f
            threshold[ts, r] = thr
            left[ts, r] = r + 1
            acc[ts, f] += (count[e] / n) * gain
            go_left = member[e] & (X[boot[ts], f[:, None]] <= thr[:, None])
            slot[ts] = np.where(go_left, (se + 1)[:, None], slot[ts])
            depth[ts, se] = depth[ts, se + 1] = d[e] + 1
            waiting[ts, se] = r
            waiting[ts, se + 1] = -1
            top[ts] = se + 1
        else:
            undrawn += 1

        leaf = ~split
        tl = trees[leaf]
        p1[tl, r] = n1[leaf] / count[leaf]
        slot[tl] = np.where(member[leaf], -1, slot[tl])
        top[tl] = s[leaf] - 1
        r += 1

    return {key: arr[:, :r] for key, arr in nodes.items()}, n_nodes, acc


def train_forest(t: FeatureTable, cfg: ForestConfig) -> ForestModel:
    X = t.values
    y = t.labels
    if t.n_samples < 2:
        raise DataValidationError("forest training needs at least 2 samples")
    if not ((y == 0).any() and (y == 1).any()):
        raise DataValidationError("forest training needs both classes present")
    rng = np.random.default_rng(cfg.seed)
    if cfg.bootstrap:
        boot = rng.integers(0, t.n_samples, size=(cfg.n_trees, t.n_samples))
    else:
        boot = np.broadcast_to(np.arange(t.n_samples), (cfg.n_trees, t.n_samples))
    nodes, n_nodes, acc = _grow_forest(X, y, boot, rng, cfg)
    # added tree by tree, in tree order, so the sum is the same to the bit
    importances = np.cumsum(acc, axis=0)[-1] / cfg.n_trees
    total = importances.sum()
    if total > 0:
        importances /= total
    return ForestModel(feature_names=list(t.feature_names), **nodes, n_nodes=n_nodes,
                       importances=importances, config=cfg)


def predict_proba_matrix(mdl: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean per-tree class-1 leaf probability for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    trees = np.arange(mdl.feature.shape[0])
    rows = np.arange(X.shape[0])[:, None]
    node = np.zeros((X.shape[0], trees.size), dtype=np.int64)  # (row, tree)
    while True:
        f = mdl.feature[trees, node]
        inner = f >= 0
        if not inner.any():
            break
        go_left = X[rows, f] <= mdl.threshold[trees, node]
        node = np.where(inner, np.where(go_left, mdl.left[trees, node],
                                        mdl.right[trees, node]), node)
    # summed tree by tree, in tree order, so the mean is the same to the bit
    return np.cumsum(mdl.p1[trees, node], axis=1)[:, -1] / trees.size


def rank_features(mdl: ForestModel) -> list[str]:
    """Names sorted by importance high to low; ties by ascending name."""
    order = sorted(range(len(mdl.feature_names)),
                   key=lambda i: (-mdl.importances[i], mdl.feature_names[i]))
    return [mdl.feature_names[i] for i in order]


def forest_to_json(mdl: ForestModel) -> dict:
    return {
        "feature_names": mdl.feature_names,
        "importances": mdl.importances.tolist(),
        "config": asdict(mdl.config),
        "trees": [
            {key: getattr(mdl, key)[t, :k].tolist()
             for key in ("feature", "threshold", "left", "right", "p1")}
            for t, k in enumerate(mdl.n_nodes.tolist())
        ],
    }
