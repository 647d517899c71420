"""Gray-level texture matrix builders (GLCM, GLRLM, GLSZM, NGTDM, GLDM).

All builders share the same geometric conventions:

* 13 unique 3D direction offsets at Chebyshev distance 1 (26-connectivity up
  to sign); GLCM scales them by its distance parameter.
* ``_levels`` gives the grid a zero border, so one neighbor walk,
  ``_neighbors``, gives each direction's pairs as two slices of the flat
  grid, src and dst = src + stride: a pair that wraps across a row or slice
  edge has a border voxel at one end, and counts as a pair with an
  out-of-mask end does. A direction that does not fit the grid is skipped.
  NGTDM and GLDM walk the 26-neighborhood as these 13 directions, each
  neighbor pair feeding both of its ends.
* co-occurrence/run/zone/dependence counts are summed ("merged") over
  directions before any normalization.
* level 0 marks out-of-mask voxels; in-mask levels are 1..n_bins.
* accumulators are exact integers of the narrowest safe width, and values
  become float64 only after accumulation: a voxel has at most 26 neighbors,
  so NGTDM neighbor counts and GLDM dependence counts are uint8, NGTDM level
  sums (of at most 26 levels) take the narrowest signed type that holds
  26 * n_bins, GLCM joint codes are intp, and GLCM pair counts are int64.
  No voxel order or array layout therefore enters any matrix.

Matrix layouts:

* GLCM:  (n_bins, n_bins) symmetric, normalized to sum 1.
* GLRLM: (n_bins, J) integer run counts, J = longest observed run.
* GLSZM: (n_bins, S) integer zone counts, S = largest observed zone,
  zones being 26-connected equal-level components.
* NGTDM: (n_bins, 3) columns [n_i, p_i, s_i], s_i from exact integer sums.
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


def _neighbors(lvl: np.ndarray, directions=DIRECTIONS_13, distance: int = 1):
    """(src, dst, stride) for each (dx, dy, dz) direction in -1..1 that fits a
    ``_levels`` grid: slices of ``lvl.ravel()`` with dst = src + stride, the
    flat offset of distance * direction. An axis longer than 3 * distance is
    one with a border."""
    nz, ny, nx = lvl.shape
    for dx, dy, dz in directions:
        if all(n > 3 * distance for d, n in ((dz, nz), (dy, ny), (dx, nx)) if d):
            s, n = distance * (dz * ny * nx + dy * nx + dx), lvl.size
            yield slice(max(-s, 0), n - max(s, 0)), slice(max(s, 0), n - max(-s, 0)), s


def _levels(q: QuantizedVolume, minimum: int = 1, distance: int = 1):
    """(level grid, its flat view, n_bins) of a volume with at least ``minimum``
    in-mask voxels.

    The grid is an (nz, ny, nx) copy bordered with zeros, ``distance`` wide on
    each axis longer than that, in the narrowest unsigned type that holds
    n_bins; levels fit int32, so that type is at most uint32.
    """
    n = q.mask_count()
    if n < minimum:
        raise DataValidationError(f"mask has {n} voxels; at least {minimum} required")
    if distance < 1:
        raise DataValidationError("co-occurrence distance must be >= 1")
    nb = q.n_bins
    grid = q.as_zyx()
    pad = [distance if distance < e else 0 for e in grid.shape]
    lvl = np.zeros([e + 2 * p for e, p in zip(grid.shape, pad)],
                   dtype=np.min_scalar_type(min(nb, np.iinfo(np.int32).max)))
    lvl[tuple(slice(p, p + e) for e, p in zip(grid.shape, pad))] = grid
    return lvl, lvl.ravel(), nb


def glcm(q: QuantizedVolume, distance: int = 1, directions=None) -> TextureMatrix:
    """Symmetric merged-direction co-occurrence matrix, normalized to sum 1."""
    lvl, flat, nb = _levels(q, 2, distance)
    dirs = DIRECTIONS_13 if directions is None else tuple(directions)
    # joint codes a * (nb + 1) + b from each in-mask voxel a, whose neighbors
    # b lie in the grid; column 0 (an out-of-mask end) is dropped after the loop
    counts = np.zeros((nb + 1) ** 2, dtype=np.int64)
    ins = np.flatnonzero(flat)
    row = np.multiply(flat[ins], nb + 1, dtype=np.intp)
    for _, _, stride in _neighbors(lvl, dirs, distance):
        counts += np.bincount(row + flat[ins + stride], minlength=counts.size)
    pairs = counts.reshape(nb + 1, nb + 1)[1:, 1:]
    counts = (pairs + pairs.T).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise DataValidationError("no co-occurring voxel pairs at the requested distance")
    return TextureMatrix(kind="GLCM", data=counts / total)


def glrlm(q: QuantizedVolume, directions=None) -> TextureMatrix:
    """Run-length counts R(level, run length), runs truncated at the mask edge."""
    lvl, flat, nb = _levels(q)
    dirs = DIRECTIONS_13 if directions is None else tuple(directions)
    matrix = np.zeros((nb, max(lvl.shape)), dtype=np.float64)
    for src, dst, stride in _neighbors(lvl, dirs):
        a = flat[src]
        # cont[i] = the run continues from a[i] to a[i + stride]
        cont = (a > 0) & (a == flat[dst])
        # walk the runs longer than 1 from their second voxel; a run starts
        # at i where cont[i - stride] does not continue into it
        s, n = stride, cont.size
        pos = cont.copy()
        pos[max(s, 0):n - max(-s, 0)] &= ~cont[max(-s, 0):n - max(s, 0)]
        pos = np.flatnonzero(pos) + stride
        length = 2
        while pos.size:
            advancing = cont[pos]
            done = pos[~advancing]
            if done.size:
                matrix[:, length - 1] += np.bincount(a[done] - 1, minlength=nb)
            pos = pos[advancing] + stride
            length += 1
    # each direction parts a level's voxels into runs, so the runs of 1 are
    # the rest; every term is an integer below 2^53, so exact
    n_i = np.bincount(flat, minlength=nb + 1)[1:]
    matrix[:, 0] = len(dirs) * n_i - matrix @ np.arange(1, matrix.shape[1] + 1)
    last = int(np.max(np.nonzero(matrix.any(axis=0))[0])) if matrix.any() else 0
    return TextureMatrix(kind="GLRLM", data=matrix[:, : last + 1])


def _zone_roots(lvl: np.ndarray) -> np.ndarray:
    """Per-voxel zone id (the smallest flat index in the zone) of a ``_levels`` grid.

    Zones are 26-connected equal-level in-mask components, found by rounds of
    min-root hooking and pointer jumping (Shiloach & Vishkin 1982). In the
    first round every voxel is a root, so its edges are hooked one direction
    at a time; only the pairs of roots that an edge still joins after it are
    kept (the two slices' roots are compared before any gather), and the
    later rounds hook and jump pointers among those roots alone, so one final
    ``root[root]`` reaches every voxel. Roots are int32 on any grid that fits;
    edge indices stay numpy's intp, since int32 copies of the many small edge
    arrays only fill numpy's small-buffer cache. Out-of-mask voxels stay their
    own roots.
    """
    flat = lvl.ravel()

    def edges():
        for src, dst, stride in _neighbors(lvl):
            a = flat[src]
            yield src, dst, stride, (a > 0) & (a == flat[dst])

    root = np.arange(lvl.size, dtype=np.int32 if lvl.size <= np.iinfo(np.int32).max else np.intp)
    for _, _, stride, same in edges():  # hook the larger end of each edge to the smaller
        u = np.flatnonzero(same)  # the smaller end's flat index
        # values in root's own dtype keep ufunc.at on its fast path (6x on a one-zone grid)
        smaller = u.astype(root.dtype)
        u += abs(stride)
        np.minimum.at(root, u, smaller)
        del u, smaller, same
    jumped = root[root]
    while not np.array_equal(jumped, root):
        root, jumped = jumped, jumped[jumped]
    del jumped
    kept = [np.zeros((2, 0), dtype=root.dtype)]
    for src, dst, _, same in edges():
        ru, rv = root[src], root[dst]
        same &= ru != rv
        joins = np.flatnonzero(same)
        kept.append(np.stack([ru[joins], rv[joins]]))
        del same, joins
    a, b = np.concatenate(kept, axis=1)
    del kept  # the rounds below need only the joined copy
    if not a.size:
        return root
    # the joined roots (np.unique would import numpy.ma); hooking only ever
    # points one of them at another
    joined = np.zeros(root.size, dtype=bool)
    joined[a] = joined[b] = True
    joined = np.flatnonzero(joined)
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        parent = root[joined]
        while True:
            jumped = root[parent]
            if np.array_equal(jumped, parent):
                break
            root[joined] = parent = jumped
        a, b = root[a], root[b]
        joins = a != b
        a, b = a[joins], b[joins]
    return root[root]


def glszm(q: QuantizedVolume) -> TextureMatrix:
    """Zone-size counts Z(level, size) over 26-connected equal-level components."""
    lvl, flat, nb = _levels(q)
    sizes = np.bincount(_zone_roots(lvl)[flat > 0], minlength=flat.size)
    zones = np.flatnonzero(sizes)
    sizes = sizes[zones]  # the box-sized counts go before the matrix comes
    matrix = np.zeros((nb, sizes.max()), dtype=np.float64)
    np.add.at(matrix, (flat[zones] - 1, sizes - 1), 1.0)
    return TextureMatrix(kind="GLSZM", data=matrix)


def ngtdm(q: QuantizedVolume) -> TextureMatrix:
    """Columns [n_i, p_i, s_i]: level counts, probabilities, and summed
    absolute deviation from the mean in-mask 26-neighborhood level.

    Voxels with no in-mask neighbors keep their count but contribute 0 to s_i.
    """
    lvl, flat, nb = _levels(q)
    mask = flat > 0
    mask_u8 = mask.view(np.uint8)
    # out-of-mask levels are 0, so masking is implicit; each pair feeds both
    # ends. A voxel sums at most 26 levels and counts at most 26 neighbors, so
    # sums in the narrowest signed type that holds 26 * nb and uint8 counts are exact
    nsum = np.zeros(flat.size, dtype=np.min_scalar_type(-26 * nb))
    ncnt = np.zeros(flat.size, dtype=np.uint8)
    for src, dst, _ in _neighbors(lvl):
        nsum[src] += flat[dst]
        nsum[dst] += flat[src]
        ncnt[src] += mask_u8[dst]
        ncnt[dst] += mask_u8[src]
    level, k = flat[mask], ncnt[mask]
    # s_i = sum_k N(i, k) / k, N(i, k) = sum |level * k - nsum| over the level-i
    # voxels with k neighbors: integers of at most 26 * nb, which one float64
    # bincount sums exactly, in any order, while 26 * nb * voxels < 2^53
    dev = np.abs(nsum[mask] - np.multiply(level, k, dtype=nsum.dtype))
    num = np.bincount((level - 1).astype(np.intp) * 27 + k, weights=dev, minlength=nb * 27)
    s_i = (num.reshape(nb, 27)[:, 1:] / np.arange(1, 27)).sum(axis=1)
    n_i = np.bincount(level - 1, minlength=nb).astype(np.float64)
    p_i = n_i / n_i.sum()
    return TextureMatrix(kind="NGTDM", data=np.column_stack([n_i, p_i, s_i]))


def gldm(q: QuantizedVolume, alpha: int = 0) -> TextureMatrix:
    """Dependence counts P(level, j), j = in-mask 26-neighbors within alpha."""
    lvl, flat, nb = _levels(q)
    if alpha < 0:
        raise DataValidationError("gldm alpha must be >= 0")
    mask = flat > 0
    # a voxel has at most 26 dependent neighbors, so uint8 counts are exact
    dep = np.zeros(flat.size, dtype=np.uint8)
    for src, dst, _ in _neighbors(lvl):
        a, b = flat[src], flat[dst]
        if alpha == 0:
            ok = (a > 0) & (a == b)
        else:
            # levels lie in 0..nb: taken in a wider signed type, a - b cannot wrap
            wide = np.subtract(a, b, dtype=np.promote_types(lvl.dtype, np.int8))
            ok = (a > 0) & (b > 0) & (np.abs(wide) <= min(alpha, nb))
        dep[src] += ok
        dep[dst] += ok
    code = (flat[mask] - 1).astype(np.intp) * 27 + dep[mask]
    matrix = np.bincount(code, minlength=nb * 27).reshape(nb, 27).astype(np.float64)
    return TextureMatrix(kind="GLDM", data=matrix)
