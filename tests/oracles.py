"""Independent brute-force oracles used to verify the fast builders.

Everything here is deliberately naive: explicit nested loops over voxels,
neighbors, and assignments, with no code shared with the package. Shapes and
conventions mirror the documented matrix layouts so results compare exactly.
The ``*_float_reference`` builders are the exception: earlier vectorized
builders (NGTDM's with its exact s_i rule), kept so tests can pin their
successors byte for byte.
"""

import itertools
import math
from fractions import Fraction

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


# --- float references: the vectorized builders with float64 and int64
# accumulators, as they were before the narrow integer ones


def _axis_slices_ref(n, d):
    if d >= 0:
        return slice(0, n - d), slice(d, n)
    return slice(-d, n), slice(0, n + d)


def _neighbors_ref(lvl, directions=DIRS_13, distance=1):
    nz, ny, nx = lvl.shape
    for dx, dy, dz in directions:
        dx, dy, dz = dx * distance, dy * distance, dz * distance
        if abs(dx) >= nx or abs(dy) >= ny or abs(dz) >= nz:
            continue
        sz, tz = _axis_slices_ref(nz, dz)
        sy, ty = _axis_slices_ref(ny, dy)
        sx, tx = _axis_slices_ref(nx, dx)
        yield (sz, sy, sx), (tz, ty, tx), dz * ny * nx + dy * nx + dx


def glcm_float_reference(lvl, n_bins, distance=1, directions=None):
    """Normalized GLCM with float64 counts and a per-direction valid-pair mask;
    None when no pair co-occurs."""
    nb = n_bins
    dirs = DIRS_13 if directions is None else tuple(directions)
    counts = np.zeros((nb, nb), dtype=np.float64)
    for src, dst, _ in _neighbors_ref(lvl, dirs, distance):
        a = lvl[src].ravel()
        b = lvl[dst].ravel()
        valid = (a > 0) & (b > 0)
        if not valid.any():
            continue
        pair = np.bincount((a[valid] - 1).astype(np.int64) * nb + (b[valid] - 1),
                           minlength=nb * nb).reshape(nb, nb)
        counts += pair + pair.T
    total = counts.sum()
    if total == 0:
        return None
    return counts / total


def glrlm_float_reference(lvl, n_bins, directions=None):
    """GLRLM walking every run start of every direction, float64 counts."""
    nb = n_bins
    dirs = DIRS_13 if directions is None else tuple(directions)
    matrix = np.zeros((nb, max(lvl.shape)), dtype=np.float64)
    flat = lvl.ravel()
    walked = 0
    for src, dst, stride in _neighbors_ref(lvl, dirs):
        walked += 1
        cont = np.zeros(lvl.shape, dtype=bool)
        cont[src] = (lvl[src] > 0) & (lvl[src] == lvl[dst])
        run_start = lvl > 0
        run_start[dst] &= ~cont[src]
        cont_flat = cont.ravel()
        pos = np.flatnonzero(run_start.ravel())
        length = 1
        while pos.size:
            advancing = cont_flat[pos]
            done = pos[~advancing]
            if done.size:
                matrix[:, length - 1] += np.bincount(flat[done] - 1, minlength=nb)
            pos = pos[advancing] + stride
            length += 1
    if walked < len(dirs):
        matrix[:, 0] += (len(dirs) - walked) * np.bincount(flat[flat > 0] - 1, minlength=nb)
    last = int(np.max(np.nonzero(matrix.any(axis=0))[0])) if matrix.any() else 0
    return matrix[:, : last + 1]


def ngtdm_float_reference(lvl_int, n_bins):
    """NGTDM with int64 level sums and neighbor counts, and s_i = sum over k of
    N(i, k) / k, N(i, k) the int64 sum of |level * k - level sum| over the
    level-i voxels with k in-mask neighbors, binned with ``np.add.at``."""
    lvl = lvl_int.astype(np.int64)
    nb = n_bins
    mask = lvl > 0
    nsum = np.zeros(lvl.shape, dtype=np.int64)
    ncnt = np.zeros(lvl.shape, dtype=np.int64)
    for src, dst, _ in _neighbors_ref(lvl):
        nsum[src] += lvl[dst]
        nsum[dst] += lvl[src]
        ncnt[src] += mask[dst]
        ncnt[dst] += mask[src]
    num = np.zeros((nb, 27), dtype=np.int64)
    np.add.at(num, (lvl[mask] - 1, ncnt[mask]), np.abs(lvl[mask] * ncnt[mask] - nsum[mask]))
    s_i = (num[:, 1:].astype(np.float64) / np.arange(1, 27)).sum(axis=1)
    n_i = np.bincount(lvl_int[mask] - 1, minlength=nb).astype(np.float64)
    p_i = n_i / n_i.sum()
    return np.column_stack([n_i, p_i, s_i])


def gldm_float_reference(lvl, n_bins, alpha=0):
    """GLDM with int64 dependence counts and float64 ``np.add.at`` binning."""
    nb = n_bins
    mask = lvl > 0
    dep = np.zeros(lvl.shape, dtype=np.int64)
    for src, dst, _ in _neighbors_ref(lvl):
        ok = mask[src] & mask[dst] & (np.abs(lvl[src].astype(np.int64) - lvl[dst]) <= alpha)
        dep[src] += ok
        dep[dst] += ok
    matrix = np.zeros((nb, 27), dtype=np.float64)
    np.add.at(matrix, (lvl[mask] - 1, dep[mask]), 1.0)
    return matrix


def phantom_reference(dims, n_samples_per_class, texture_amplitude, noise_sigma, seed):
    """The phantom generator as it was before the one-draw-per-pair version:
    meshgrid cubes and one noise draw per (label, sample). A list of
    (float32 voxels, uint8 mask bits, label), all of class 0 first."""
    nx, ny, nz = dims
    z, y, x = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    ax, ay, az = 0.35 * nx, 0.35 * ny, 0.35 * nz
    r2 = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2
    support = r2 <= 1.0
    profile = np.where(support, 1.0 - r2, 0.0)
    checker = np.where((x + y + z) % 2 == 0, 1.0, -1.0) * support
    bits = np.ascontiguousarray(support, dtype=np.uint8).ravel()
    out = []
    for label in (0, 1):
        for i in range(n_samples_per_class):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            noise = rng.normal(0.0, noise_sigma, size=dims[::-1]) if noise_sigma > 0 \
                else np.zeros(dims[::-1])
            field3d = profile + noise
            if label == 1:
                field3d = field3d + texture_amplitude * checker
            out.append((field3d.astype(np.float32).ravel(), bits, label))
    return out


def phantom_full_grid_reference(dims, n_samples_per_class, texture_amplitude, noise_sigma,
                                seed):
    """The one-draw-per-pair phantom generator before its fields shrank to the ROI:
    a full-grid float64 profile and field, one noise draw over the whole grid per
    index, each volume a float32 copy of the field. A list of (index, label,
    float32 voxels, uint8 mask bits) in draw order: index 0's class 0, then its
    class 1, then index 1's, and so on."""
    nx, ny, nz = dims
    z, y, x = np.ogrid[:nz, :ny, :nx]
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    ax, ay, az = 0.35 * nx, 0.35 * ny, 0.35 * nz
    r2 = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2
    support = r2 <= 1.0
    profile = np.subtract(1.0, r2, out=r2)
    profile[~support] = 0.0
    shift = np.where(((x + y) % 2 == z % 2)[support], 1.0, -1.0) * texture_amplitude
    bits = np.ascontiguousarray(support, dtype=np.uint8).ravel()
    field3d = np.empty(dims[::-1])
    out = []
    for i in range(n_samples_per_class):
        if noise_sigma > 0:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            rng.standard_normal(out=field3d)
            field3d *= noise_sigma
        else:
            field3d.fill(0.0)
        field3d += profile
        out.append((i, 0, field3d.astype(np.float32).ravel(), bits))
        field3d[support] += shift
        out.append((i, 1, field3d.astype(np.float32).ravel(), bits))
    return out


def run_style_features_reference(counts):
    """The GLRLM/GLSZM/GLDM quantities over the occupied cells of ``counts`` in
    row-major order: each per-cell term is one numpy expression, and each sum
    is exact in Fraction and rounded once to float; keys in the package's order."""
    def exact_sum(terms):
        return float(sum((Fraction(t) for t in terms.tolist()), Fraction(0)))

    occupied = counts > 0
    c = counts[occupied]
    iv = np.broadcast_to(np.arange(1.0, counts.shape[0] + 1)[:, None], counts.shape)[occupied]
    jv = np.broadcast_to(np.arange(1.0, counts.shape[1] + 1)[None, :], counts.shape)[occupied]
    row2 = counts.sum(axis=1) ** 2
    col2 = counts.sum(axis=0) ** 2
    n = exact_sum(c)
    p = c / n
    mu_i = exact_sum(iv * p)
    mu_j = exact_sum(jv * p)
    return {
        "short": exact_sum(c / jv ** 2) / n,
        "long": exact_sum(c * jv ** 2) / n,
        "gln": exact_sum(row2) / n,
        "glnn": exact_sum(row2) / n ** 2,
        "jn": exact_sum(col2) / n,
        "jnn": exact_sum(col2) / n ** 2,
        "percentage": n / exact_sum(c * jv),
        "glv": exact_sum((iv - mu_i) ** 2 * p),
        "jv": exact_sum((jv - mu_j) ** 2 * p),
        "entropy": -exact_sum(p * np.log2(p)),
        "lgl": exact_sum(c / iv ** 2) / n,
        "hgl": exact_sum(c * iv ** 2) / n,
        "short_lgl": exact_sum(c / (iv ** 2 * jv ** 2)) / n,
        "short_hgl": exact_sum(c * iv ** 2 / jv ** 2) / n,
        "long_lgl": exact_sum(c * jv ** 2 / iv ** 2) / n,
        "long_hgl": exact_sum(c * iv ** 2 * jv ** 2) / n,
    }


def mcc_q_reference(p, px):
    """GLCM's MCC matrix Q(i, j) = sum_k p(i, k) p(j, k) / (px(i) px(k)) as one
    (L, L, L) array summed over its last axis."""
    q = (p[:, None, :] * p[None, :, :]) / (px[:, None, None] * px[None, None, :])
    return q.sum(axis=2)


def first_order_oracle(x, names):
    """The first-order statistics of the float64 voxels ``x`` as the package computed
    them with one function per statistic, for ``names`` in order. The entropy
    histogram's equal-width binning is written out here."""
    def entropy(x):
        lo, hi = float(x.min()), float(x.max())
        if lo == hi:
            counts = np.zeros(32, dtype=np.int64)
            counts[0] = x.size
        else:
            counts = np.histogram(x, bins=32, range=(lo, hi))[0].astype(np.int64)
        p = counts[counts > 0] / counts.sum()
        return float(-np.sum(p * np.log2(p)))

    def skewness(x):
        var = np.var(x)
        if var == 0:
            return 0.0
        d = x - np.mean(x)
        m3 = np.mean(d * d * d)
        return float(m3 / var ** 1.5)

    def kurtosis(x):
        var = np.var(x)
        if var == 0:
            return 0.0
        d = x - np.mean(x)
        m4 = np.mean((d * d) * (d * d))
        return float(m4 / var ** 2 - 3.0)

    statistics = {
        "Mean": lambda x: float(np.mean(x)),
        "Median": lambda x: float(np.median(x)),
        "Variance": lambda x: float(np.var(x)),
        "Skewness": skewness,
        "Kurtosis": kurtosis,
        "Energy": lambda x: float(np.sum(x ** 2)),
        "Entropy": entropy,
        "Minimum": lambda x: float(np.min(x)),
        "Maximum": lambda x: float(np.max(x)),
    }
    return np.array([statistics[n](x) for n in names])


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


def midranks_oracle(values):
    """1-based midranks by a nested loop over the mergesort order: a tie run
    extends while the next sorted value equals the run's first value."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def agglomerate_oracle(d, leaf_names):
    """Average-linkage merges (node_a, node_b, height) by a scan over a dict
    of every pair per merge; among minimum-distance pairs the one with the
    lexicographically smallest sorted (representative, representative)
    names wins, a cluster's representative being its smallest member name."""
    n = len(leaf_names)
    active = {i: (1, leaf_names[i]) for i in range(n)}  # id -> (size, representative)
    dist = {(i, j): float(d[i, j]) for i in range(n) for j in range(i + 1, n)}
    merges = []
    next_id = n
    while len(active) > 1:
        best_pair = best_d = best_reps = None
        for (a, b), value in dist.items():
            reps = tuple(sorted((active[a][1], active[b][1])))
            if best_d is None or value < best_d or (value == best_d and reps < best_reps):
                best_pair, best_d, best_reps = (a, b), value, reps
        a, b = best_pair
        size_a, rep_a = active[a]
        size_b, rep_b = active[b]
        merges.append((a, b, best_d))
        for other in list(active):
            if other in (a, b):
                continue
            da = dist.pop((min(a, other), max(a, other)))
            db = dist.pop((min(b, other), max(b, other)))
            dist[(other, next_id)] = (size_a * da + size_b * db) / (size_a + size_b)
        del dist[(a, b)], active[a], active[b]
        active[next_id] = (size_a + size_b, min(rep_a, rep_b))
        next_id += 1
    return merges


def cut_oracle(dg, k):
    """The k clusters of a dendrogram by union-find over its first n - k merges;
    clusters sorted by their smallest member name, members sorted."""
    n = len(dg.leaf_names)
    parent = list(range(n + len(dg.merges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (a, b, _) in enumerate(dg.merges[: n - k]):
        new_id = n + idx
        parent[find(a)] = new_id
        parent[find(b)] = new_id
    groups = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(dg.leaf_names[leaf])
    return sorted((sorted(members) for members in groups.values()), key=lambda c: c[0])


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
    time by recursion. One generator draws the bootstrap rows of all trees,
    then a key for every (preorder node, tree, feature), up front; node r of
    tree t takes as candidates the m features with the smallest keys[r, t]."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_samples, n_features = X.shape
    if features_per_split == "sqrt":
        m = max(1, int(np.sqrt(n_features)))
    else:
        m = min(int(features_per_split), n_features)
    rng = np.random.default_rng(seed)
    boot = (rng.integers(0, n_samples, size=(n_trees, n_samples)) if bootstrap
            else np.tile(np.arange(n_samples), (n_trees, 1)))
    # a tree has at most 2n - 1 nodes; the forest draws only the rounds it grows
    keys = rng.random((2 * n_samples - 1, n_trees, n_features))
    importances = np.zeros(n_features)
    trees = []
    for t, rows in enumerate(boot):
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
                candidates = np.sort(np.argsort(keys[node_id, t], kind="stable")[:m])
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


def cv_predictions_oracle(t, names, forest_cfg, split, seed, tag):
    """``rfe.cv_predictions`` as a per-fold loop: fold f's forest is
    ``train_forest`` on a table of the fold's training rows alone, seeded
    from (seed, tag, f). Returns (probabilities, predictions, fold models)."""
    from dataclasses import replace

    from radlearn.forest import predict_proba_matrix, train_forest
    from radlearn.rfe import _derived_seed
    from radlearn.table import FeatureTable

    names = list(names)
    labels = t.labels
    if not names:
        majority = int(labels.sum() * 2 >= labels.size)
        return np.full(t.n_samples, 0.5), np.full(t.n_samples, majority, dtype=int), []
    sub = t.select(names)
    proba = np.empty(t.n_samples)
    models = []
    for fold in range(split.k):
        test_idx = split.fold_indices(fold)
        train_idx = np.flatnonzero(split.fold_assignments != fold)
        fold_table = FeatureTable(
            sample_ids=[sub.sample_ids[i] for i in train_idx],
            feature_names=sub.feature_names,
            values=sub.values[train_idx],
            labels=labels[train_idx],
        )
        mdl = train_forest(fold_table, replace(forest_cfg, seed=_derived_seed(seed, tag, fold)))
        models.append(mdl)
        proba[test_idx] = predict_proba_matrix(mdl, sub.values[test_idx])
    return proba, (proba >= 0.5).astype(int), models


# -- reference trainer: one array per parameter, one optimizer call per array --
# The network, optimizers, training loop and gradient check below are the
# per-parameter design the flat-buffer trainer replaced. The losses, metrics,
# histograms and trace records they use are shared with the package.


def _im2col_oracle(xp, k):
    from numpy.lib.stride_tricks import sliding_window_view

    n, c, h, w = xp.shape
    out_h, out_w = h - k + 1, w - k + 1
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, out_h * out_w)
    return np.ascontiguousarray(cols)


class NetworkOracle:
    def __init__(self, cfg, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params = {}
        self.layer_names = []
        rng = np.random.default_rng(cfg.seed)
        h, w = cfg.input_dims
        in_c = 1
        for i, out_c in enumerate(cfg.conv_blocks, start=1):
            wgt = rng.normal(0.0, np.sqrt(2.0 / (in_c * 9)), size=(out_c, in_c, 3, 3))
            self._add(f"conv{i}", wgt, np.zeros(out_c))
            in_c = out_c
            h, w = h // 2, w // 2
        in_features = in_c * h * w
        for i, width in enumerate(cfg.hidden_dense, start=1):
            wgt = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(width, in_features))
            self._add(f"fc{i}", wgt, np.zeros(width))
            in_features = width
        wgt = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(1, in_features))
        self._add("fc_out", wgt, np.zeros(1))

    def _add(self, name, w, b):
        self.layer_names.append(name)
        self.params[name] = {"W": w.astype(self.dtype), "b": b.astype(self.dtype)}

    def _forward(self, x):
        caches = []
        out = x
        for i in range(1, len(self.cfg.conv_blocks) + 1):
            name = f"conv{i}"
            wgt, b = self.params[name]["W"], self.params[name]["b"]
            cols = _im2col_oracle(np.pad(out, ((0, 0), (0, 0), (1, 1), (1, 1))), 3)
            n, _, hh, ww = out.shape
            out_c = wgt.shape[0]
            conv = np.einsum("of,nfp->nop", wgt.reshape(out_c, -1), cols) + b[None, :, None]
            conv = conv.reshape(n, out_c, hh, ww)
            relu_mask = conv > 0
            act = conv * relu_mask
            h2, w2 = hh // 2 * 2, ww // 2 * 2
            windows = act[:, :, :h2, :w2].reshape(n, out_c, h2 // 2, 2, w2 // 2, 2)
            windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
                n, out_c, h2 // 2, w2 // 2, 4)
            amax = windows.argmax(axis=-1)
            pooled = np.take_along_axis(windows, amax[..., None], axis=-1)[..., 0]
            caches.append({"name": name, "kind": "conv", "cols": cols,
                           "in_shape": out.shape, "relu_mask": relu_mask,
                           "amax": amax, "act_shape": act.shape})
            out = pooled
        flat_shape = out.shape
        out = out.reshape(out.shape[0], -1)
        caches.append({"kind": "flatten", "shape": flat_shape})
        for i in range(1, len(self.cfg.hidden_dense) + 1):
            name = f"fc{i}"
            wgt, b = self.params[name]["W"], self.params[name]["b"]
            z = out @ wgt.T + b
            relu_mask = z > 0
            caches.append({"name": name, "kind": "dense", "x": out, "relu_mask": relu_mask})
            out = z * relu_mask
        wgt, b = self.params["fc_out"]["W"], self.params["fc_out"]["b"]
        caches.append({"name": "fc_out", "kind": "dense", "x": out, "relu_mask": None})
        return (out @ wgt.T + b)[:, 0], caches

    def forward(self, x):
        x = np.asarray(x, dtype=self.dtype)[:, None, :, :]
        return self._forward(x)[0]

    def _backward(self, caches, dlogits):
        grads = {}
        d = dlogits[:, None].astype(self.dtype)
        for cache in reversed(caches):
            if cache["kind"] == "dense":
                name = cache["name"]
                if cache["relu_mask"] is not None:
                    d = d * cache["relu_mask"]
                grads[name] = {"W": d.T @ cache["x"], "b": d.sum(axis=0)}
                d = d @ self.params[name]["W"]
            elif cache["kind"] == "flatten":
                d = d.reshape(cache["shape"])
            else:
                name = cache["name"]
                wgt = self.params[name]["W"]
                n, out_c, hh, ww = cache["act_shape"]
                h2, w2 = hh // 2 * 2, ww // 2 * 2
                dwin = np.zeros((n, out_c, h2 // 2, w2 // 2, 4), dtype=self.dtype)
                np.put_along_axis(dwin, cache["amax"][..., None], d[..., None], axis=-1)
                dact = np.zeros(cache["act_shape"], dtype=self.dtype)
                dact[:, :, :h2, :w2] = (
                    dwin.reshape(n, out_c, h2 // 2, w2 // 2, 2, 2)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(n, out_c, h2, w2)
                )
                dconv2d = (dact * cache["relu_mask"]).reshape(n, out_c, -1)
                cols = cache["cols"]
                grads[name] = {
                    "W": np.einsum("nop,nfp->of", dconv2d, cols).reshape(wgt.shape),
                    "b": dconv2d.sum(axis=(0, 2)),
                }
                dcols = np.einsum("of,nop->nfp", wgt.reshape(out_c, -1), dconv2d)
                in_n, in_c, in_h, in_w = cache["in_shape"]
                dxp = np.zeros((in_n, in_c, in_h + 2, in_w + 2), dtype=self.dtype)
                dcols6 = dcols.reshape(in_n, in_c, 3, 3, in_h, in_w)
                for di in range(3):
                    for dj in range(3):
                        dxp[:, :, di:di + in_h, dj:dj + in_w] += dcols6[:, :, di, dj]
                d = dxp[:, :, 1:-1, 1:-1]
        return grads

    def loss_and_grads(self, x, y, loss_name):
        from radlearn.nn.losses import LOSSES

        x = np.asarray(x, dtype=self.dtype)[:, None, :, :]
        y = np.asarray(y, dtype=self.dtype).ravel()
        logits, caches = self._forward(x)
        loss_vec, dz = LOSSES[loss_name](logits, y)
        return float(loss_vec.mean()), self._backward(caches, dz / y.size), logits


class AdamOracle:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m, self._v, self._t = {}, {}, {}

    def update(self, key, theta, grad):
        m = self._m.get(key, np.zeros_like(theta))
        v = self._v.get(key, np.zeros_like(theta))
        t = self._t.get(key, 0) + 1
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        theta = theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self._m[key], self._v[key], self._t[key] = m, v, t
        return theta


class RmsPropOracle:
    def __init__(self, lr, decay=0.9, eps=1e-8):
        self.lr, self.decay, self.eps = lr, decay, eps
        self._v = {}

    def update(self, key, theta, grad):
        v = self.decay * self._v.get(key, np.zeros_like(theta)) + (1.0 - self.decay) * grad ** 2
        self._v[key] = v
        return theta - self.lr * grad / (np.sqrt(v) + self.eps)


def train_oracle(images, labels, net_cfg, train_cfg, init=None, val_images=None,
                 val_labels=None):
    """(network, trace) from the per-parameter training loop."""
    from radlearn.histogram import histogram
    from radlearn.metrics import confusion, metrics
    from radlearn.nn.losses import LOSSES
    from radlearn.nn.trace import (
        EpochRecord, HistogramRecord, LayerEpochRecord, MetricRecord, TrainTrace)

    def values(layer):
        return np.concatenate([layer[p].ravel() for p in ("W", "b")])

    def l2(arr):
        return float(np.sqrt(np.sum(arr.astype(np.float64) ** 2)))

    def hist(arr):
        counts, lo, hi = histogram(arr.astype(np.float64), 32)
        return HistogramRecord(counts=counts.tolist(), lo=lo, hi=hi)

    def metric(imgs, labs):
        logits = net.forward(imgs)
        loss_vec, _ = LOSSES[train_cfg.loss](logits, labs.astype(np.float64))
        m = metrics(confusion((logits >= 0).astype(int), labs))
        return MetricRecord(loss=float(loss_vec.mean()), accuracy=m["accuracy"],
                            sensitivity=m["sensitivity"], specificity=m["specificity"])

    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels).ravel().astype(np.int64)
    net = NetworkOracle(net_cfg, dtype=np.float32)
    if init is not None:
        for name in net.layer_names:
            for pname in ("W", "b"):
                net.params[name][pname] = init.layers[name][pname].astype(net.dtype)
    frozen = set(train_cfg.freeze_layers)
    opt_cls = AdamOracle if train_cfg.optimizer == "adam" else RmsPropOracle
    optimizer = opt_cls(train_cfg.learning_rate)
    rng = np.random.default_rng(train_cfg.seed)
    n = labels.size
    trace = TrainTrace(layer_names=list(net.layer_names))
    prev = {name: values(net.params[name]) for name in net.layer_names}
    for _ in range(train_cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            _, grads, _ = net.loss_and_grads(images[batch], labels[batch], train_cfg.loss)
            for name in net.layer_names:
                if name in frozen:
                    continue
                for pname in ("W", "b"):
                    net.params[name][pname] = optimizer.update(
                        (name, pname), net.params[name][pname], grads[name][pname])
        records = {}
        for name in net.layer_names:
            weights = values(net.params[name])
            gradient = values(grads[name])
            records[name] = LayerEpochRecord(
                weight_l2=l2(weights), grad_l2=l2(gradient),
                delta_l2=l2(weights - prev[name]),
                weight_hist=hist(weights), grad_hist=hist(gradient))
            prev[name] = weights
        train_metrics = metric(images, labels)
        if val_images is not None:
            val_metrics = metric(np.asarray(val_images, dtype=np.float32),
                                 np.asarray(val_labels).ravel().astype(np.int64))
        else:
            val_metrics = MetricRecord(**vars(train_metrics))
        trace.epochs.append(EpochRecord(layers=records, train=train_metrics,
                                        validation=val_metrics))
    return net, trace


def gradient_check_oracle(net_cfg, images, labels, loss="bce_logit", n_probe=200, h=1e-4,
                          probe_seed=0):
    """Worst relative error over (layer, parameter, index) slots, probed one by one."""
    net = NetworkOracle(net_cfg, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    _, grads, _ = net.loss_and_grads(images, labels, loss)
    slots = [(name, pname, i) for name in net.layer_names for pname in ("W", "b")
             for i in range(net.params[name][pname].size)]
    if len(slots) > n_probe:
        chosen = np.random.default_rng(probe_seed).choice(len(slots), size=n_probe,
                                                           replace=False)
        slots = [slots[i] for i in chosen]
    worst = 0.0
    for name, pname, i in slots:
        arr = net.params[name][pname]
        original = arr.flat[i]
        arr.flat[i] = original + h
        loss_plus, _, _ = net.loss_and_grads(images, labels, loss)
        arr.flat[i] = original - h
        loss_minus, _, _ = net.loss_and_grads(images, labels, loss)
        arr.flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = grads[name][pname].flat[i]
        worst = max(worst, abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)))
    return worst
