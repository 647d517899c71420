"""Independent brute-force oracles used to verify the fast builders.

Everything here is deliberately naive: explicit nested loops over voxels,
neighbors, and assignments, with no code shared with the package. Shapes and
conventions mirror the documented matrix layouts so results compare exactly.
"""

import itertools
import math

import numpy as np

DIRS_13 = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0),
    (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
]

NEIGHBORS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def _in_grid(lvl, x, y, z):
    nz, ny, nx = lvl.shape
    return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz


def glcm_counts_oracle(lvl, n_bins, distance=1, directions=None):
    """Symmetric merged-direction co-occurrence counts by pair enumeration."""
    dirs = DIRS_13 if directions is None else directions
    nz, ny, nx = lvl.shape
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                a = lvl[z, y, x]
                if a == 0:
                    continue
                for dx, dy, dz in dirs:
                    x2, y2, z2 = x + dx * distance, y + dy * distance, z + dz * distance
                    if not _in_grid(lvl, x2, y2, z2):
                        continue
                    b = lvl[z2, y2, x2]
                    if b == 0:
                        continue
                    counts[a - 1, b - 1] += 1
                    counts[b - 1, a - 1] += 1
    return counts


def glrlm_oracle(lvl, n_bins, directions=None):
    """Run counts by walking every maximal run in every direction."""
    dirs = DIRS_13 if directions is None else directions
    nz, ny, nx = lvl.shape
    runs = {}
    for dx, dy, dz in dirs:
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    v = lvl[z, y, x]
                    if v == 0:
                        continue
                    px, py, pz = x - dx, y - dy, z - dz
                    if _in_grid(lvl, px, py, pz) and lvl[pz, py, px] == v:
                        continue  # not a run start
                    length = 1
                    cx, cy, cz = x + dx, y + dy, z + dz
                    while _in_grid(lvl, cx, cy, cz) and lvl[cz, cy, cx] == v:
                        length += 1
                        cx, cy, cz = cx + dx, cy + dy, cz + dz
                    runs[(v, length)] = runs.get((v, length), 0) + 1
    max_len = max(l for _, l in runs)
    matrix = np.zeros((n_bins, max_len), dtype=np.int64)
    for (v, length), c in runs.items():
        matrix[v - 1, length - 1] = c
    return matrix


def glszm_oracle(lvl, n_bins):
    """Zone counts via flood fill over 26-connected equal-level components."""
    nz, ny, nx = lvl.shape
    seen = np.zeros(lvl.shape, dtype=bool)
    zones = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if lvl[z, y, x] == 0 or seen[z, y, x]:
                    continue
                level = lvl[z, y, x]
                stack = [(x, y, z)]
                seen[z, y, x] = True
                size = 0
                while stack:
                    cx, cy, cz = stack.pop()
                    size += 1
                    for dx, dy, dz in NEIGHBORS_26:
                        qx, qy, qz = cx + dx, cy + dy, cz + dz
                        if (_in_grid(lvl, qx, qy, qz) and not seen[qz, qy, qx]
                                and lvl[qz, qy, qx] == level):
                            seen[qz, qy, qx] = True
                            stack.append((qx, qy, qz))
                zones.append((level, size))
    max_size = max(s for _, s in zones)
    matrix = np.zeros((n_bins, max_size), dtype=np.int64)
    for level, size in zones:
        matrix[level - 1, size - 1] += 1
    return matrix


def ngtdm_oracle(lvl, n_bins):
    """Per-level [n_i, p_i, s_i] by direct neighborhood averaging."""
    nz, ny, nx = lvl.shape
    n = np.zeros(n_bins)
    s = np.zeros(n_bins)
    total = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                v = lvl[z, y, x]
                if v == 0:
                    continue
                total += 1
                n[v - 1] += 1
                neighbor_levels = []
                for dx, dy, dz in NEIGHBORS_26:
                    qx, qy, qz = x + dx, y + dy, z + dz
                    if _in_grid(lvl, qx, qy, qz) and lvl[qz, qy, qx] > 0:
                        neighbor_levels.append(lvl[qz, qy, qx])
                if neighbor_levels:
                    s[v - 1] += abs(v - sum(neighbor_levels) / len(neighbor_levels))
    p = n / total
    return np.column_stack([n, p, s])


def gldm_oracle(lvl, n_bins, alpha=0):
    """Dependence counts by per-voxel neighbor enumeration."""
    nz, ny, nx = lvl.shape
    matrix = np.zeros((n_bins, 27), dtype=np.int64)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                v = lvl[z, y, x]
                if v == 0:
                    continue
                dep = 0
                for dx, dy, dz in NEIGHBORS_26:
                    qx, qy, qz = x + dx, y + dy, z + dz
                    if (_in_grid(lvl, qx, qy, qz) and lvl[qz, qy, qx] > 0
                            and abs(int(lvl[qz, qy, qx]) - int(v)) <= alpha):
                        dep += 1
                matrix[v - 1, dep] += 1
    return matrix


def max_diameter_oracle(centers):
    """Largest distance over all pairs of (n, 2) pixel centers (0 below 2)."""
    if centers.shape[0] < 2:
        return 0.0
    diff = centers[:, None, :] - centers[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


def mwu_by_pair_counting(x, y):
    """(U_x, U_y) by direct comparison of every (x_i, y_j) pair."""
    ux = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                ux += 1.0
            elif xi == yj:
                ux += 0.5
    return ux, len(x) * len(y) - ux


def mwu_exact_p_oracle(x, y):
    """Two-sided exact p: share of assignments with min-U <= observed min-U."""
    combined = list(x) + list(y)
    n1 = len(x)
    ux_obs, uy_obs = mwu_by_pair_counting(x, y)
    u_obs = min(ux_obs, uy_obs)
    hits = 0
    total = 0
    for idx in itertools.combinations(range(len(combined)), n1):
        chosen = set(idx)
        gx = [combined[i] for i in idx]
        gy = [combined[i] for i in range(len(combined)) if i not in chosen]
        ux, uy = mwu_by_pair_counting(gx, gy)
        if min(ux, uy) <= u_obs + 1e-9:
            hits += 1
        total += 1
    return hits / total


def auroc_by_pair_counting(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def pearson_oracle(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((ai - ma) * (bi - mb) for ai, bi in zip(a, b))
    va = sum((ai - ma) ** 2 for ai in a)
    vb = sum((bi - mb) ** 2 for bi in b)
    if va == 0 or vb == 0:
        return 0.0
    return cov / math.sqrt(va * vb)


def random_level_grid(rng, shape=(4, 4, 4), n_levels=5, mask_prob=0.85):
    """Random quantized grid with a random (always nonempty) mask."""
    lvl = rng.integers(1, n_levels + 1, size=shape)
    mask = rng.random(shape) < mask_prob
    if not mask.any():
        mask[tuple(rng.integers(0, s) for s in shape)] = True
    return np.where(mask, lvl, 0).astype(np.int32)


def _best_split_oracle(X, y, candidates, min_leaf):
    """Best (feature, threshold, gain) over candidate features, one feature at
    a time; None when no valid split strictly reduces impurity."""
    n = y.size
    n1_total = int(y.sum())
    parent = 1.0 - ((n1_total / n) ** 2 + ((n - n1_total) / n) ** 2)
    best = None
    for f in candidates:
        col = X[:, f]
        order = np.argsort(col, kind="mergesort")
        vs = col[order]
        ys = y[order]
        distinct = np.flatnonzero(vs[:-1] < vs[1:])  # split after position i
        if distinct.size == 0:
            continue
        cum1 = np.cumsum(ys)
        nl = distinct + 1
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not ok.any():
            continue
        nl, nr, pos = nl[ok], nr[ok], distinct[ok]
        l1 = cum1[pos]
        r1 = n1_total - l1
        gini_l = 1.0 - ((l1 / nl) ** 2 + ((nl - l1) / nl) ** 2)
        gini_r = 1.0 - ((r1 / nr) ** 2 + ((nr - r1) / nr) ** 2)
        gain = parent - (nl * gini_l + nr * gini_r) / n
        k = int(np.argmax(gain))  # first (lowest threshold) among equal gains
        if gain[k] > 1e-12 and (best is None or gain[k] > best[2]):
            threshold = (vs[pos[k]] + vs[pos[k] + 1]) / 2.0
            best = (int(f), float(threshold), float(gain[k]))
    return best


def forest_oracle(X, y, feature_names, n_trees, max_depth=None, min_samples_leaf=1,
                  features_per_split="sqrt", bootstrap=True, seed=0):
    """Forest document (the layout of ``forest_to_json``) grown one tree at a
    time by recursion, each tree drawing its bootstrap and then one candidate
    set per split-eligible node in preorder from its own spawned stream."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_samples, n_features = X.shape
    if features_per_split == "sqrt":
        m = max(1, int(np.sqrt(n_features)))
    else:
        m = min(int(features_per_split), n_features)
    importances = np.zeros(n_features)
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = (rng.integers(0, n_samples, size=n_samples) if bootstrap
                else np.arange(n_samples))
        Xt, yt = X[rows], y[rows]
        acc = np.zeros(n_features)
        nodes = []  # [feature, threshold, left, right, p1]

        def build(idx, depth):
            node_id = len(nodes)
            nodes.append([-1, 0.0, -1, -1, 0.0])
            ys = yt[idx]
            n = ys.size
            n1 = int(ys.sum())
            split = None
            if (0 < n1 < n and (max_depth is None or depth < max_depth)
                    and n >= 2 * min_samples_leaf):
                candidates = np.sort(rng.choice(n_features, size=m, replace=False))
                split = _best_split_oracle(Xt[idx], ys, candidates, min_samples_leaf)
            if split is None:
                nodes[node_id][4] = n1 / n
                return node_id
            f, threshold, gain = split
            acc[f] += (n / n_samples) * gain
            go_left = Xt[idx, f] <= threshold
            left = build(idx[go_left], depth + 1)
            right = build(idx[~go_left], depth + 1)
            nodes[node_id][:4] = [f, threshold, left, right]
            return node_id

        build(np.arange(n_samples), 0)
        trees.append({key: [node[i] for node in nodes] for i, key in
                      enumerate(("feature", "threshold", "left", "right", "p1"))})
        importances += acc
    importances /= n_trees
    total = importances.sum()
    if total > 0:
        importances /= total
    return {
        "feature_names": list(feature_names),
        "importances": importances.tolist(),
        "config": {"n_trees": n_trees, "max_depth": max_depth,
                   "min_samples_leaf": min_samples_leaf,
                   "features_per_split": features_per_split,
                   "bootstrap": bootstrap, "seed": seed},
        "trees": trees,
    }


def forest_predict_oracle(doc, X):
    """Mean class-1 leaf probability, walking each row down each tree in turn."""
    out = np.zeros(len(X))
    for tree in doc["trees"]:
        for i, row in enumerate(X):
            node = 0
            while tree["feature"][node] >= 0:
                f = tree["feature"][node]
                node = tree["left"][node] if row[f] <= tree["threshold"][node] \
                    else tree["right"][node]
            out[i] += tree["p1"][node]
    return out / len(doc["trees"])
