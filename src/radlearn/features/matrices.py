"""Gray-level texture matrix builders (GLCM, GLRLM, GLSZM, NGTDM, GLDM).

All builders share the same geometric conventions:

* 13 unique 3D direction offsets at Chebyshev distance 1 (26-connectivity up
  to sign); GLCM scales them by its distance parameter.
* one neighbor walk, ``_neighbors``, visits every direction, one that does not
  fit the grid as empty slices; NGTDM and GLDM walk the 26-neighborhood as
  these 13 directions, each neighbor pair feeding both of its ends.
* co-occurrence/run/zone/dependence counts are summed ("merged") over
  directions before any normalization.
* level 0 marks out-of-mask voxels; in-mask levels are 1..n_bins.
* accumulators are exact integers of the narrowest safe width, and values
  become float64 only after accumulation: a voxel has at most 26 neighbors,
  so NGTDM neighbor counts and GLDM dependence counts are uint8 and NGTDM
  level sums (of at most 26 levels) are int64; GLCM pair counts are int64.
  Every matrix is therefore the one float64 accumulation gives, bit for bit.

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


@dataclass
class TextureMatrix:
    kind: str  # GLCM | GLRLM | GLSZM | NGTDM | GLDM
    data: np.ndarray
    n_levels: int


def _axis_slices(n: int, d: int):
    """(src, dst) slices with dst = src + d; both are empty when |d| >= n."""
    if d >= 0:
        return slice(0, max(n - d, 0)), slice(d, n)
    return slice(-d, n), slice(0, max(n + d, 0))


def _neighbors(lvl: np.ndarray, directions=DIRECTIONS_13, distance: int = 1):
    """(src, dst, stride) for each (dx, dy, dz) direction: index tuples on the
    (nz, ny, nx) grid with dst = src + distance * direction, both in-grid and
    empty when the direction does not fit, and the flat offset from src to dst."""
    nz, ny, nx = lvl.shape
    for dx, dy, dz in directions:
        dx, dy, dz = dx * distance, dy * distance, dz * distance
        sz, tz = _axis_slices(nz, dz)
        sy, ty = _axis_slices(ny, dy)
        sx, tx = _axis_slices(nx, dx)
        yield (sz, sy, sx), (tz, ty, tx), dz * ny * nx + dy * nx + dx


def _same_level(lvl: np.ndarray, src, dst) -> np.ndarray:
    """Grid mask of the in-mask voxels whose src -> dst neighbor has their level."""
    same = np.zeros(lvl.shape, dtype=bool)
    same[src] = (lvl[src] > 0) & (lvl[src] == lvl[dst])
    return same


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
    # joint codes a * (nb + 1) + b over the whole grid, levels 0..nb; row and
    # column 0 (pairs with an out-of-mask end) are dropped after the loop
    counts = np.zeros((nb + 1) ** 2, dtype=np.int64)
    row = np.multiply(lvl, nb + 1, dtype=np.intp)
    for src, dst, _ in _neighbors(lvl, dirs, distance):
        counts += np.bincount(np.add(row[src], lvl[dst]).ravel(), minlength=counts.size)
    pairs = counts.reshape(nb + 1, nb + 1)[1:, 1:]
    counts = (pairs + pairs.T).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise DataValidationError("no co-occurring voxel pairs at the requested distance")
    return TextureMatrix(kind="GLCM", data=counts / total, n_levels=nb)


def glrlm(q: QuantizedVolume, directions=None) -> TextureMatrix:
    """Run-length counts R(level, run length), runs truncated at the mask edge."""
    _require_mask(q, 1)
    lvl = q.as_zyx()
    nb = q.n_bins
    dirs = DIRECTIONS_13 if directions is None else tuple(directions)
    matrix = np.zeros((nb, max(lvl.shape)), dtype=np.float64)
    flat = lvl.ravel()
    inside = lvl > 0
    # per voxel, the number of directions in which it is a run of length 1;
    # at most len(dirs), so the narrowest type that holds that is exact
    singles = np.zeros(lvl.shape, dtype=np.min_scalar_type(len(dirs)))
    for src, dst, stride in _neighbors(lvl, dirs):
        # cont[p] = run continues from p to p+d
        cont = _same_level(lvl, src, dst)
        # run starts where no same-level in-mask predecessor feeds into p
        run_start = inside.copy()
        run_start[dst] &= ~cont[src]
        singles += run_start & ~cont
        # walk only the runs that continue past their start
        run_start &= cont
        cont_flat = cont.ravel()
        pos = np.flatnonzero(run_start.ravel()) + stride
        length = 2
        while pos.size:
            advancing = cont_flat[pos]
            done = pos[~advancing]
            if done.size:
                matrix[:, length - 1] += np.bincount(flat[done] - 1, minlength=nb)
            pos = pos[advancing] + stride
            length += 1
    matrix[:, 0] = np.bincount(flat[inside.ravel()] - 1, weights=singles[inside], minlength=nb)
    last = int(np.max(np.nonzero(matrix.any(axis=0))[0])) if matrix.any() else 0
    return TextureMatrix(kind="GLRLM", data=matrix[:, : last + 1], n_levels=nb)


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
    that still join two roots after it are kept for the later rounds. Each
    direction's equal-level mask is built once and kept as a mask, not as
    index arrays. Out-of-mask voxels stay their own roots.
    """
    same = [(_same_level(lvl, src, dst), stride) for src, dst, stride in _neighbors(lvl)]
    root = np.arange(lvl.size)
    for edge, stride in same:
        u = np.flatnonzero(edge)  # hook the larger end of each edge to the smaller
        np.minimum.at(root, u + max(stride, 0), u + min(stride, 0))
    root = _compress(root)
    edges = [np.zeros((2, 0), dtype=np.intp)]
    for edge, stride in same:
        u = np.flatnonzero(edge)
        v = u + stride
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
    lvl = q.as_zyx()
    nb = q.n_bins
    mask = lvl > 0
    mask_u8 = mask.view(np.uint8)
    # out-of-mask levels are 0, so masking is implicit; each pair feeds both
    # ends. A voxel sums at most 26 levels and counts at most 26 neighbors,
    # so int64 sums and uint8 counts are exact
    nsum = np.zeros(lvl.shape, dtype=np.int64)
    ncnt = np.zeros(lvl.shape, dtype=np.uint8)
    for src, dst, _ in _neighbors(lvl):
        nsum[src] += lvl[dst]
        nsum[dst] += lvl[src]
        ncnt[src] += mask_u8[dst]
        ncnt[dst] += mask_u8[src]
    has_nb = mask & (ncnt > 0)
    level = lvl[has_nb]
    # the division casts both operands to float64, as if they had been
    # summed in float64; |mean - level| is |level - mean| to the bit
    deviation = nsum[has_nb] / ncnt[has_nb]
    deviation -= level
    np.abs(deviation, out=deviation)
    n_i = np.bincount(lvl[mask] - 1, minlength=nb).astype(np.float64)
    s_i = np.bincount(level - 1, weights=deviation, minlength=nb)
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
    # a voxel has at most 26 dependent neighbors, so uint8 counts are exact
    dep = np.zeros(lvl.shape, dtype=np.uint8)
    for src, dst, _ in _neighbors(lvl):
        a, b = lvl[src], lvl[dst]
        if alpha == 0:
            ok = (a > 0) & (a == b)
        else:
            # levels lie in 0..nb, so the int32 difference cannot overflow
            ok = (a > 0) & (b > 0) & (np.abs(a - b) <= min(alpha, nb))
        dep[src] += ok
        dep[dst] += ok
    code = (lvl[mask] - 1).astype(np.intp) * 27 + dep[mask]
    matrix = np.bincount(code, minlength=nb * 27).reshape(nb, 27).astype(np.float64)
    return TextureMatrix(kind="GLDM", data=matrix, n_levels=nb)
