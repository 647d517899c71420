"""Volume and ROI-mask data model, bit-exact on-disk format, synthetic phantoms.

A volume is stored as a pair of files: ``<base>.json`` (header with dims,
spacing, dtype and modality) and ``<base>.raw`` (little-endian 32-bit floats,
x-fastest order). Masks are stored next to their volume as ``<base>.mask.raw``,
one byte per voxel (0/1), same ordering.

Phantoms substitute for a real MRI cohort: class 0 is a smooth ellipsoidal
blob plus Gaussian noise, class 1 adds a 3D checkerboard texture inside the
ROI. The checkerboard moves texture-family features while leaving first-order
means nearly unchanged, which is exactly the "no visible cue" regime the rest
of the toolkit studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .jsonio import check, from_json, read_json, read_raw, write_json

_HEADER_DTYPE = "f32le"
_BLOB_FRACTION = 0.35  # ellipsoid semi-axes as a fraction of the grid


def _dims(dims, what: str) -> tuple[int, int, int]:
    """``dims`` as 3 ints >= 1; a bool or a non-integer is an error, not truncated."""
    dims = tuple(dims)
    if len(dims) != 3 or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
                                 and d >= 1 for d in dims):
        raise DataValidationError(f"{what} dims must be 3 positive integers, got {dims}")
    return tuple(int(d) for d in dims)


@dataclass
class Volume:
    """Dense 3D scalar image.

    dims is (nx, ny, nz); voxels is a flat float32 array of length
    nx*ny*nz in x-fastest order (index = x + nx*(y + ny*z)).
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    modality_tag: str
    voxels: np.ndarray

    def __post_init__(self):
        self.dims = _dims(self.dims, "volume")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or not all(0 < s < float("inf") for s in self.spacing):
            raise DataValidationError(f"spacing must be 3 finite reals > 0, got {self.spacing}")
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.float32).ravel()
        n = self.dims[0] * self.dims[1] * self.dims[2]
        if self.voxels.size != n:
            raise DataValidationError(
                f"voxel count {self.voxels.size} does not match dims product {n}"
            )
        if not np.all(np.isfinite(self.voxels)):
            raise DataValidationError("volume contains non-finite voxel values")

    def as_zyx(self) -> np.ndarray:
        """View the flat buffer as a (nz, ny, nx) array (x varies fastest)."""
        nx, ny, nz = self.dims
        return self.voxels.reshape(nz, ny, nx)


@dataclass
class RoiMask:
    """Binary region-of-interest mask paired with a Volume of equal dims."""

    dims: tuple[int, int, int]
    bits: np.ndarray

    def __post_init__(self):
        self.dims = _dims(self.dims, "mask")
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8).ravel()
        n = self.dims[0] * self.dims[1] * self.dims[2]
        if self.bits.size != n:
            raise DataValidationError(f"mask length {self.bits.size} does not match dims product {n}")
        if self.bits.max() > 1:  # unsigned and non-empty, so this is "all 0 or 1"
            raise DataValidationError("mask entries must be 0 or 1")

    def as_zyx(self) -> np.ndarray:
        nx, ny, nz = self.dims
        return self.bits.reshape(nz, ny, nx)

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass
class PhantomSpec:
    """Recipe for a paired two-class synthetic dataset; also the ``phantom``
    config section, except ``seed``, which comes from ``seeds.phantom``."""

    n_samples_per_class: int = 20
    dims: tuple[int, int, int] = (16, 16, 16)
    texture_amplitude: float = 2.0
    noise_sigma: float = 0.1
    seed: int = 0
    modality: str = "SYN"

    def __post_init__(self):
        check("phantom", self, [
            ("n_samples_per_class", lambda n: n >= 1, ">= 1"),
            ("dims", lambda d: min(d) >= 8, "all >= 8"),
            ("texture_amplitude", lambda a: a >= 0, ">= 0"),
            ("noise_sigma", lambda s: s >= 0, ">= 0"),
            ("modality", lambda m: m != "", "non-empty"),
        ])


def check_pair(v: Volume, m: RoiMask) -> None:
    """Validate that a mask belongs to a volume and is nonempty."""
    if v.dims != m.dims:
        raise DataValidationError(f"mask dims {m.dims} do not match volume dims {v.dims}")
    if m.count() == 0:
        raise DataValidationError("mask is empty; at least one voxel must be set")


@dataclass
class _Header:
    dims: list[int]
    spacing: list[float]
    dtype: str
    modality: str


def save_volume(v: Volume, path_base) -> None:
    """Write ``<path_base>.json`` + ``<path_base>.raw``."""
    path_base = str(path_base)
    if not np.all(np.isfinite(v.voxels)):
        raise DataValidationError("refusing to save volume with non-finite voxels")
    write_json(_Header(dims=list(v.dims), spacing=list(v.spacing), dtype=_HEADER_DTYPE,
                       modality=v.modality_tag), path_base + ".json")
    with open(path_base + ".raw", "wb") as fh:
        fh.write(np.ascontiguousarray(v.voxels, "<f4").data)


def load_volume(path_base) -> Volume:
    """Read a volume written by save_volume, verifying all invariants."""
    path_base = str(path_base)
    header = from_json(_Header, read_json(path_base + ".json"), "volume header")
    if header.dtype != _HEADER_DTYPE:
        raise DataValidationError(f"unsupported dtype {header.dtype!r}")
    n = math.prod(header.dims)  # Volume checks dims and spacing
    voxels = read_raw(path_base + ".raw", "<f4", n, lambda size, expected: (
        f"raw file length {size} does not match dims {header.dims} (expected {expected})"))
    return Volume(dims=header.dims, spacing=header.spacing, modality_tag=header.modality,
                  voxels=voxels)


def save_mask(m: RoiMask, path_base) -> None:
    """Write ``<path_base>.mask.raw`` (one byte per voxel, 0/1)."""
    with open(str(path_base) + ".mask.raw", "wb") as fh:
        fh.write(m.bits.tobytes())


def load_mask(path_base, dims) -> RoiMask:
    """Read a mask written by save_mask; dims come from the paired volume."""
    dims = _dims(dims, "mask")
    n = math.prod(dims)
    bits = read_raw(str(path_base) + ".mask.raw", np.uint8, n, lambda size, expected: (
        f"mask file length {size} does not match dims {dims} (expected {expected})"))
    return RoiMask(dims=dims, bits=bits)


def roi_slice_index(m: RoiMask) -> int:
    """Axial slice with the largest in-mask pixel count; ties -> lowest z."""
    counts = m.as_zyx().sum(axis=(1, 2))
    return int(np.argmax(counts))


def _blob_field(dims):
    """(support, profile, signs): the ROI, a quadratic-falloff ellipsoid centered
    in the grid, and at its voxels in x-fastest order the profile 1 - r^2 and
    the checkerboard sign, +1.0 where x + y + z is even and -1.0 elsewhere."""
    nx, ny, nz = dims
    z, y, x = np.ogrid[:nz, :ny, :nx]
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    ax, ay, az = _BLOB_FRACTION * nx, _BLOB_FRACTION * ny, _BLOB_FRACTION * nz
    r2 = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2
    support = r2 <= 1.0
    # x + y + z is even where x + y and z have the same parity
    return support, 1.0 - r2[support], np.where(((x + y) % 2 == z % 2)[support], 1.0, -1.0)


def iter_phantom(spec: PhantomSpec):
    """The phantom set one sample at a time: ``(index, label, volume, mask)`` for
    index 0's class-0 volume, then its class-1 volume, then index 1's, and so on.

    Each volume is a fresh float32 array, so a caller that writes and drops it
    holds one sample, not the cohort (class 1's starts as a copy of class 0's,
    taken when class 1 is drawn). Index i draws its noise from a generator keyed
    by i alone, a few z-slices at a time into one small buffer (the same values
    as one draw over the grid), and both classes share that draw. Float64 fields
    are kept at ROI voxels only: outside the ROI the profile (+0.0) and class 1's
    checkerboard term (+-0.0) would change no voxel, since noise drawn as
    normal(0, sigma) draws it, 0.0 + sigma * z, is never -0.0.
    """
    support, profile, shift = _blob_field(spec.dims)
    shift *= spec.texture_amplitude
    mask = RoiMask(dims=spec.dims, bits=np.ascontiguousarray(support, dtype=np.uint8).ravel())
    support = support.ravel()
    nx, ny, _ = spec.dims
    step = nx * ny * max(1, 2 ** 16 // (nx * ny))  # whole z-slices, about 64K voxels
    chunk = np.zeros(min(step, support.size))
    field = np.empty(profile.size)

    def volume(voxels):
        return Volume(dims=spec.dims, spacing=(1.0, 1.0, 1.0), modality_tag=spec.modality,
                      voxels=voxels)

    for i in range(spec.n_samples_per_class):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(i,)))
        voxels = np.empty(support.size, dtype=np.float32)
        at = 0
        for lo in range(0, support.size, step):
            noise = chunk[:support.size - lo]
            if spec.noise_sigma > 0:  # the draws of normal(0, sigma): 0.0 + sigma * z
                rng.standard_normal(out=noise)
                noise *= spec.noise_sigma
                noise += 0.0
            roi = noise[support[lo:lo + noise.size]]
            field[at:at + roi.size] = roi
            at += roi.size
            voxels[lo:lo + noise.size] = noise
        field += profile
        voxels[support] = field
        yield i, 0, volume(voxels), mask
        voxels = voxels.copy()  # class 0's array is the caller's now
        field += shift
        voxels[support] = field
        yield i, 1, volume(voxels), mask


def generate_phantom(spec: PhantomSpec) -> list[tuple[Volume, RoiMask, int]]:
    """Deterministic paired two-class phantom set as one list of
    ``(volume, mask, label)``: all of class 0, then all of class 1, sharing one mask.

    ``iter_phantom`` draws index 0's class-0 and class-1 volumes, then index 1's,
    and so on; this puts each in its place. Sample i of both classes shares one
    noise draw, so at texture_amplitude 0 they are voxel-identical.
    """
    n = spec.n_samples_per_class
    out: list[tuple[Volume, RoiMask, int]] = [None] * (2 * n)
    for i, label, volume, mask in iter_phantom(spec):
        out[label * n + i] = (volume, mask, label)
    return out
