"""Gray-level texture matrix builders (GLCM, GLRLM, GLSZM, NGTDM, GLDM).

All builders share the same geometric conventions:

* 13 unique 3D direction offsets at Chebyshev distance 1 (26-connectivity up
  to sign); GLCM scales them by its distance parameter.
* co-occurrence/run/zone/dependence counts are summed ("merged") over
  directions before any normalization.
* level 0 marks out-of-mask voxels; in-mask levels are 1..n_bins.

Matrix layouts:

* GLCM:  (n_bins, n_bins) symmetric, normalized to sum 1.
* GLRLM: (n_bins, J) integer run counts, J = longest observed run.
* GLSZM: (n_bins, S) integer zone counts, S = largest observed zone,
  zones being 26-connected equal-level components.
* NGTDM: (n_bins, 3) columns [n_i, p_i, s_i].
* GLDM:  (n_bins, 27) integer counts, column j = number of in-mask
  26-neighbors within the level tolerance alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataValidationError
from ..quantize import QuantizedVolume

# (dx, dy, dz) offsets covering 26-connectivity up to sign
DIRECTIONS_13 = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0),
    (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
)

OFFSETS_26 = DIRECTIONS_13 + tuple((-dx, -dy, -dz) for dx, dy, dz in DIRECTIONS_13)


@dataclass
class TextureMatrix:
    kind: str  # GLCM | GLRLM | GLSZM | NGTDM | GLDM
    data: np.ndarray
    n_levels: int


def _axis_slices(n: int, d: int):
    if d >= 0:
        return slice(0, n - d), slice(d, n)
    return slice(-d, n), slice(0, n + d)


def _shift_slices(shape, offset):
    """(src, dst) index tuples such that dst = src + offset, both in-grid.

    shape is (nz, ny, nx); offset is (dx, dy, dz). Returns None when the
    offset exceeds the grid extent.
    """
    nz, ny, nx = shape
    dx, dy, dz = offset
    if abs(dx) >= nx or abs(dy) >= ny or abs(dz) >= nz:
        return None
    sz, tz = _axis_slices(nz, dz)
    sy, ty = _axis_slices(ny, dy)
    sx, tx = _axis_slices(nx, dx)
    return (sz, sy, sx), (tz, ty, tx)


def _require_mask(q: QuantizedVolume, minimum: int = 1) -> None:
    n = q.mask_count()
    if n < minimum:
        raise DataValidationError(f"mask has {n} voxels; at least {minimum} required")


def glcm(q: QuantizedVolume, distance: int = 1, directions=None) -> TextureMatrix:
    """Symmetric merged-direction co-occurrence matrix, normalized to sum 1."""
    _require_mask(q, 2)
    if distance < 1:
        raise DataValidationError("co-occurrence distance must be >= 1")
    lvl = q.as_zyx()
    nb = q.n_bins
    dirs = DIRECTIONS_13 if directions is None else tuple(directions)
    counts = np.zeros((nb, nb), dtype=np.float64)
    for dx, dy, dz in dirs:
        sl = _shift_slices(lvl.shape, (dx * distance, dy * distance, dz * distance))
        if sl is None:
            continue
        src, dst = sl
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
        raise DataValidationError("no co-occurring voxel pairs at the requested distance")
    return TextureMatrix(kind="GLCM", data=counts / total, n_levels=nb)


def glrlm(q: QuantizedVolume, directions=None) -> TextureMatrix:
    """Run-length counts R(level, run length), runs truncated at the mask edge."""
    _require_mask(q, 1)
    lvl = q.as_zyx()
    nb = q.n_bins
    nz, ny, nx = lvl.shape
    dirs = DIRECTIONS_13 if directions is None else tuple(directions)
    max_len = max(nz, ny, nx)
    matrix = np.zeros((nb, max_len), dtype=np.float64)
    flat = lvl.ravel()
    mask = flat > 0
    for dx, dy, dz in dirs:
        sl = _shift_slices(lvl.shape, (dx, dy, dz))
        if sl is None:
            # direction longer than the grid: every in-mask voxel is a run of 1
            matrix[:, 0] += np.bincount(flat[mask] - 1, minlength=nb)
            continue
        src, dst = sl
        # cont[p] = run continues from p to p+d
        cont = np.zeros(lvl.shape, dtype=bool)
        a = lvl[src]
        b = lvl[dst]
        cont[src] = (a > 0) & (a == b)
        # run starts where no same-level in-mask predecessor feeds into p
        cont_prev = np.zeros(lvl.shape, dtype=bool)
        cont_prev[dst] = cont[src]
        run_start = (lvl > 0) & ~cont_prev
        stride = dz * (ny * nx) + dy * nx + dx
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
    last = int(np.max(np.nonzero(matrix.any(axis=0))[0])) if matrix.any() else 0
    return TextureMatrix(kind="GLRLM", data=matrix[:, : last + 1], n_levels=nb)


def _equal_level_edges(lvl: np.ndarray):
    """Flat index pairs (u, v) of equal-level in-mask neighbors, one direction
    of DIRECTIONS_13 at a time, so that no full edge list is ever held."""
    nz, ny, nx = lvl.shape
    for dx, dy, dz in DIRECTIONS_13:
        sl = _shift_slices(lvl.shape, (dx, dy, dz))
        if sl is None:
            continue
        src, dst = sl
        same = np.zeros(lvl.shape, dtype=bool)
        same[src] = (lvl[src] > 0) & (lvl[src] == lvl[dst])
        u = np.flatnonzero(same)
        yield u, u + (dz * ny * nx + dy * nx + dx)


def _compress(root: np.ndarray) -> np.ndarray:
    """Jump pointers until every entry points at its root."""
    jumped = root[root]
    while not np.array_equal(jumped, root):
        root, jumped = jumped, jumped[jumped]
    return root


def _zone_roots(lvl: np.ndarray) -> np.ndarray:
    """Per-voxel zone id (the smallest flat index in the zone) of a level grid.

    Zones are 26-connected equal-level in-mask components, found by rounds of
    min-root hooking: every root that shares an edge with a smaller root is
    hooked to the smallest such root, then pointers are compressed; rounds
    repeat until no edge joins two roots. In the first round every voxel is a
    root, so its edges are hooked one direction at a time; only the edges
    that still join two roots after it are kept for the later rounds.
    Out-of-mask voxels stay their own roots.
    """
    root = np.arange(lvl.size)
    for u, v in _equal_level_edges(lvl):
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
    root = _compress(root)
    edges = [np.zeros((2, 0), dtype=np.intp)]
    for u, v in _equal_level_edges(lvl):
        joins = root[u] != root[v]
        edges.append(np.stack([u[joins], v[joins]]))
    u, v = np.concatenate(edges, axis=1)
    while True:
        ru, rv = root[u], root[v]
        joins = ru != rv
        if not joins.any():
            return root
        u, v, ru, rv = u[joins], v[joins], ru[joins], rv[joins]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        root = _compress(root)


def glszm(q: QuantizedVolume) -> TextureMatrix:
    """Zone-size counts Z(level, size) over 26-connected equal-level components."""
    _require_mask(q, 1)
    lvl = q.as_zyx()
    nb = q.n_bins
    flat = lvl.ravel()
    sizes = np.bincount(_zone_roots(lvl)[flat > 0], minlength=flat.size)
    zones = np.flatnonzero(sizes)
    max_size = int(sizes.max())
    matrix = np.zeros((nb, max_size), dtype=np.float64)
    np.add.at(matrix, (flat[zones] - 1, sizes[zones] - 1), 1.0)
    return TextureMatrix(kind="GLSZM", data=matrix, n_levels=nb)


def ngtdm(q: QuantizedVolume) -> TextureMatrix:
    """Columns [n_i, p_i, s_i]: level counts, probabilities, and summed
    absolute deviation from the mean in-mask 26-neighborhood level.

    Voxels with no in-mask neighbors keep their count but contribute 0 to s_i.
    """
    _require_mask(q, 1)
    lvl = q.as_zyx().astype(np.float64)
    nb = q.n_bins
    mask = lvl > 0
    nsum = np.zeros(lvl.shape, dtype=np.float64)
    ncnt = np.zeros(lvl.shape, dtype=np.int64)
    for offset in OFFSETS_26:
        sl = _shift_slices(lvl.shape, offset)
        if sl is None:
            continue
        src, dst = sl
        nsum[src] += lvl[dst]  # out-of-mask levels are 0, so masking is implicit
        ncnt[src] += mask[dst]
    has_nb = mask & (ncnt > 0)
    deviation = np.zeros(lvl.shape, dtype=np.float64)
    deviation[has_nb] = np.abs(lvl[has_nb] - nsum[has_nb] / ncnt[has_nb])
    levels_in = q.as_zyx()[mask] - 1
    n_i = np.bincount(levels_in, minlength=nb).astype(np.float64)
    s_i = np.bincount(q.as_zyx()[has_nb] - 1, weights=deviation[has_nb], minlength=nb)
    p_i = n_i / n_i.sum()
    return TextureMatrix(kind="NGTDM", data=np.column_stack([n_i, p_i, s_i]), n_levels=nb)


def gldm(q: QuantizedVolume, alpha: int = 0) -> TextureMatrix:
    """Dependence counts P(level, j), j = in-mask 26-neighbors within alpha."""
    _require_mask(q, 1)
    if alpha < 0:
        raise DataValidationError("gldm alpha must be >= 0")
    lvl = q.as_zyx()
    nb = q.n_bins
    mask = lvl > 0
    dep = np.zeros(lvl.shape, dtype=np.int64)
    for offset in OFFSETS_26:
        sl = _shift_slices(lvl.shape, offset)
        if sl is None:
            continue
        src, dst = sl
        ok = mask[src] & mask[dst] & (np.abs(lvl[src].astype(np.int64) - lvl[dst]) <= alpha)
        dep[src] += ok
    matrix = np.zeros((nb, 27), dtype=np.float64)
    np.add.at(matrix, (lvl[mask] - 1, dep[mask]), 1.0)
    return TextureMatrix(kind="GLDM", data=matrix, n_levels=nb)
