"""Random-forest classifier with Gini importances, built for determinism.

Trees are grown greedily on Gini impurity with midpoint thresholds between
consecutive distinct sorted values. The split search sorts nothing per node:
each feature column is sorted once per grow call, and a node is described by
how many of its bootstrap rows are each table row, so running sums in a
column's order count the rows left of every threshold. Gini terms come from
a table over (rows, class-1 rows) when its (n + 1)^2 cells are no more than
one forest's root round search array, and are computed otherwise; both are
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

Several forests on row subsets of one table (the folds of a cross-validation)
grow in one lockstep batch, each with its own generator and stream, over the
whole table: rows a forest did not draw are rows absent from its nodes, which
the search already skips, so each forest is the one grown alone on its rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

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


def _best_splits(columns, v, count, n1, cand, side, min_leaf, table, work):
    """Best (feature, threshold, gain) of each node, searched over all nodes
    and all their candidate features at once, with no sort.

    ``columns`` is ``(order, head, values, gap)``: per feature, the table rows
    in ascending value order, that order without its last row, those values,
    and 1 where a value is below the next (else 0). ``v[e, i]`` packs node
    e's multiplicity of table row i with its class-1 part (see
    ``_side_mass``), so running sums of ``v`` in a column's order give both
    sides of every boundary. A boundary between equal values reads as an
    empty left side. One after a value absent from the node repeats the
    previous boundary's counts and gain, and the first of equal gains wins,
    so the split is the one just after a present value. Side masses are read
    from ``table`` (``_side_mass`` of every packed pair) when there is one.
    ``cand[e]`` lists node e's candidate features in ascending order. A
    node's gain is -inf when no candidate has a split that leaves
    ``min_leaf`` rows on each side; among equal gains the lowest threshold of
    the first candidate wins.

    The search writes through ``work``: two int64 buffers and one float64
    buffer, each of at least (nodes, candidates, boundaries) elements.
    """
    order, head, values, gap = columns
    n_nodes, n = v.shape
    shape = (n_nodes, cand.shape[1], n - 1)
    at, lhs, mass = (buf[:n_nodes * shape[1] * shape[2]].reshape(shape) for buf in work)
    # every index is in range by construction; mode="raise" would take into
    # a fresh copy and only then into out, so "clip" is what writes in place
    head.take(cand, axis=0, out=at, mode="clip")
    at += (np.arange(n_nodes) * n)[:, None, None]
    v.take(at, out=lhs, mode="clip")
    np.cumsum(lhs, axis=2, out=lhs)  # packed counts left of each boundary
    lhs *= gap.take(cand, axis=0, out=at, mode="clip")  # at is spent
    # a masked boundary's right side is the whole node; its empty left side
    # alone makes the mass +inf, as it would with any right side
    rhs = np.subtract((count + side * n1)[:, None, None], lhs, out=at)
    if table is not None:
        table.take(lhs, out=mass, mode="clip")
        # the left sums are spent, so their memory takes the right masses
        mass += table.take(rhs, out=lhs.view(np.float64), mode="clip")
    else:
        np.add(_side_mass(lhs, side, min_leaf), _side_mass(rhs, side, min_leaf), out=mass)
    # must stay Python ** (libm pow): numpy squaring rounds 880 of the 1,127,250
    # impurities with counts <= 1,500 differently, the first at 41 rows, and no
    # artifact stores the gains (tests/test_forest.py pins one)
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


_NODE_FILL = dict(feature=-1, threshold=0.0, left=-1, right=-1, p1=0.0, decrease=0.0)


def _grow_forest(X, y, boot, n, rngs, cfg: ForestConfig):
    """Grow the forests of one batch, one tree per row of ``boot``, all in
    lockstep over the table ``X``.

    Forest g owns trees g * n_trees up to (g + 1) * n_trees; its trees'
    rows of ``boot`` hold the table rows of their bootstrap draws in the
    first ``n[g]`` columns. Each forest draws its own candidate keys from
    ``rngs[g]``, at the rounds where it searches. Table rows a forest never
    drew are in no node of its trees, so the search meets them as rows
    absent from a node.

    Each tree's pending nodes form a depth-first stack whose slots are the
    tree's rows' homes: row i of tree t waits in stack slot ``slot[t, i]``,
    or -1 once its leaf is closed (as are a shorter forest's padding
    columns). Round r pops the top slot of every tree with a nonempty stack,
    so the node it handles is that tree's node r in preorder. A split pushes
    the right child into the popped slot and the left child above it.
    """
    n_total, width = boot.shape
    n_trees = cfg.n_trees
    n_rows, n_features = X.shape
    if cfg.features_per_split == "sqrt":
        m = max(1, int(np.sqrt(n_features)))
    else:
        m = min(int(cfg.features_per_split), n_features)
    tree_n = np.repeat(n, n_trees)  # the row count of each tree's forest
    yb = y[boot] == 1
    order = np.argsort(X, axis=0).T.copy()  # (n_features, n_rows)
    values = np.take_along_axis(X.T, order, axis=1)
    gap = (values[:, :-1] < values[:, 1:]).astype(np.int64)
    columns = (order, order[:, :-1].copy(), values, gap)
    side = width + 1  # a node's counts pack as rows + side * class-1 rows
    pack = 1 + side * y
    # a Gini table only when its side^2 floats are no more than one forest's
    # root round searches, so memory never grows as the rows squared
    table = None
    if side ** 2 <= n_trees * m * width:
        table = _side_mass(np.arange(side ** 2), side, cfg.min_samples_leaf)
    # the search runs in blocks of nodes that fit one forest's root round,
    # through buffers that live as long as this call
    block = max(1, n_trees * (width - 1) // (n_rows - 1))
    size = block * m * (n_rows - 1)
    work = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(size))
    # node arrays grow by doubling as rounds need columns; "decrease" holds
    # a split node's weighted impurity decrease
    nodes = {key: np.full((n_total, 4), fill) for key, fill in _NODE_FILL.items()}
    keys = np.empty((n_trees, n_features))  # one forest's key block

    # slots, depths and node ids are below 2n, so the per-slot state is int32
    slot = np.where(np.arange(width) < tree_n[:, None], 0, -1).astype(np.int32)
    top = np.zeros(n_total, dtype=np.int64)  # -1 when the stack is empty
    depth = np.zeros((n_total, width), dtype=np.int32)  # per slot
    waiting = np.full((n_total, width), -1, dtype=np.int32)  # node whose right child a slot holds

    n_nodes = np.zeros(n_total, dtype=np.int64)
    r = 0
    undrawn = np.zeros(len(rngs), dtype=np.int64)  # per forest, key blocks not drawn yet
    while True:
        trees = np.flatnonzero(top >= 0)
        if trees.size == 0:
            break
        if r == nodes["feature"].shape[1]:
            for key, arr in nodes.items():  # one at a time, each old array freed
                nodes[key] = np.concatenate([arr, np.full_like(arr, _NODE_FILL[key])], axis=1)
        n_nodes[trees] += 1
        s = top[trees]
        homes = slot[trees]
        member = homes == s[:, None]
        count = member.sum(axis=1)
        n1 = (member & yb[trees]).sum(axis=1)
        parent = waiting[trees, s]
        linked = parent >= 0
        nodes["right"][trees[linked], parent[linked]] = r
        d = depth[trees, s]

        eligible = (n1 > 0) & (n1 < count) & (count >= 2 * cfg.min_samples_leaf)
        if cfg.max_depth is not None:
            eligible &= d < cfg.max_depth
        split = np.zeros(trees.size, dtype=bool)
        moved = np.zeros(member.shape, dtype=bool)  # rows that go to the left child
        e = np.flatnonzero(eligible)
        undrawn += 1
        if e.size:
            # a forest draws the key blocks of its rounds that searched no
            # node when one of its rounds searches; its nodes are a run of e
            te = trees[e]
            per_forest = np.bincount(te // n_trees, minlength=len(rngs)).tolist()
            cand = np.empty((e.size, m), dtype=np.int64)
            start = 0
            for g, k in enumerate(per_forest):
                if k:
                    for _ in range(undrawn[g]):
                        rngs[g].random(out=keys)
                    undrawn[g] = 0
                    mine = slice(start, start + k)
                    cand[mine] = np.sort(np.argpartition(keys[te[mine] - g * n_trees], m - 1,
                                                         axis=1)[:, :m], axis=1)
                start += k
            f = np.empty(e.size, dtype=np.int64)
            thr, gain = np.empty(e.size), np.empty(e.size)
            for lo in range(0, e.size, block):
                b = e[lo:lo + block]
                # how many of node b[k]'s bootstrap rows are table row i, packed
                at = boot[trees[b]] + (np.arange(b.size) * n_rows)[:, None]
                v = np.bincount(at[member[b]], minlength=b.size * n_rows).reshape(b.size, n_rows)
                v *= pack
                f[lo:lo + block], thr[lo:lo + block], gain[lo:lo + block] = _best_splits(
                    columns, v, count[b], n1[b], cand[lo:lo + block], side,
                    cfg.min_samples_leaf, table, work)
            found = gain > _MIN_GAIN
            e, f, thr, gain = e[found], f[found], thr[found], gain[found]
            split[e] = True

            ts, se = trees[e], s[e]
            nodes["feature"][ts, r] = f
            nodes["threshold"][ts, r] = thr
            nodes["left"][ts, r] = r + 1
            nodes["decrease"][ts, r] = (count[e] / tree_n[ts]) * gain
            moved[e] = X[boot[ts], f[:, None]] <= thr[:, None]
            depth[ts, se] = depth[ts, se + 1] = d[e] + 1
            waiting[ts, se] = r
            waiting[ts, se + 1] = -1
            top[ts] = se + 1

        leaf = ~split
        tl = trees[leaf]
        nodes["p1"][tl, r] = n1[leaf] / count[leaf]
        top[tl] = s[leaf] - 1
        # a split node's rows stay in its slot (right child) or move up one
        # (left child); a leaf's rows close
        slot[trees] = np.where(member, np.where(split, s, -1)[:, None] + moved, homes)
        r += 1

    return nodes, n_nodes


def train_forests(t: FeatureTable, cfg: ForestConfig, rows, seeds) -> list[ForestModel]:
    """One forest per (``rows[g]``, ``seeds[g]``), grown together: forest g
    is, to the bit, ``train_forest`` on the table's rows ``rows[g]`` with
    ``cfg`` seeded by ``seeds[g]``.

    Each forest draws from its own ``default_rng(seeds[g])``: its bootstrap
    block as row numbers among its own rows, then its key blocks.
    """
    X = t.values
    y = t.labels
    rows = [np.asarray(idx, dtype=np.int64) for idx in rows]
    seeds = list(seeds)
    for idx in rows:
        if idx.size < 2:
            raise DataValidationError("forest training needs at least 2 samples")
        if not ((y[idx] == 0).any() and (y[idx] == 1).any()):
            raise DataValidationError("forest training needs both classes present")
    n = np.array([idx.size for idx in rows])
    boot = np.zeros((len(rows) * cfg.n_trees, n.max()), dtype=np.int64)
    rngs = []
    for g, (idx, seed) in enumerate(zip(rows, seeds, strict=True)):
        rng = np.random.default_rng(seed)
        if cfg.bootstrap:
            draw = rng.integers(0, idx.size, size=(cfg.n_trees, idx.size))
        else:
            draw = np.arange(idx.size)
        boot[g * cfg.n_trees:(g + 1) * cfg.n_trees, :idx.size] = idx[draw]
        rngs.append(rng)
    nodes, n_nodes = _grow_forest(X, y, boot, n, rngs, cfg)
    decrease = nodes.pop("decrease")
    models = []
    for g, seed in enumerate(seeds):
        trees = slice(g * cfg.n_trees, (g + 1) * cfg.n_trees)
        # per tree, the split nodes' decreases added in preorder (add.at
        # adds in index order), then the trees added in tree order, so the
        # sums are the same to the bit
        acc = np.zeros((cfg.n_trees, t.n_features))
        tree, node = np.nonzero(nodes["feature"][trees] >= 0)
        np.add.at(acc, (tree, nodes["feature"][trees][tree, node]),
                  decrease[trees][tree, node])
        importances = np.cumsum(acc, axis=0)[-1] / cfg.n_trees
        total = importances.sum()
        if total > 0:
            importances /= total
        width = n_nodes[trees].max()
        models.append(ForestModel(
            feature_names=list(t.feature_names),
            **{key: arr[trees, :width] for key, arr in nodes.items()},
            n_nodes=n_nodes[trees], importances=importances, config=replace(cfg, seed=seed)))
    return models


def train_forest(t: FeatureTable, cfg: ForestConfig) -> ForestModel:
    """The forest on all of the table's rows: a batch of one."""
    return train_forests(t, cfg, [np.arange(t.n_samples)], [cfg.seed])[0]


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
