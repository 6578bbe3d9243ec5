"""Volumes: container, MVOL I/O, intensity maps, symmetries, filtering, tiling.

A ``Volume`` wraps a 3D scalar grid indexed ``[x, y, z]`` with voxel spacing
in millimetres and a declared intensity space, which every caller that needs
one space checks through ``Volume.check_space``:

* ``HU``       raw CT numbers (air -1000, water 0, dense bone ~ +2000)
* ``activity`` raw PET tracer activity (non-negative, arbitrary units)
* ``unit01``   normalized to [0, 1]
* ``sym11``    normalized to [-1, 1]

On disk the MVOL format stores the voxels as little-endian float32 with the
x index varying fastest. A ``Volume`` keeps the dtype it was read or made
in: float32 as read from a file, float64 for any other array. So a volume
stays float32 from ``read_volume`` through ``normalize``, inference and
``write_volume``. Every float64 computation on its values (the intensity
maps, the HU outputs of each slice or cube, the evaluation metrics) widens
one ``SLAB`` at a time, and widening float32 to float64 is exact, so the
values are those of the whole volume widened at once. Every slice or cube
enters the graph as a ``model.GRAPH_DTYPE`` (float32) cast
(``model.graph_input``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product

import numpy as np

from .atomic import is_json_int, is_json_number, read_framed, write_framed
from .errors import DomainError, FormatError, ShapeError

__all__ = [
    "Volume",
    "HU_MIN",
    "HU_MAX",
    "INTENSITY_SPACES",
    "NORMALIZED_AIR",
    "PET_REFERENCE_PERCENTILE",
    "N_GRID_SYMMETRIES",
    "SLAB",
    "MAX_VOXELS",
    "check_voxels",
    "checked_spacing",
    "check_cube_size",
    "read_volume",
    "write_volume",
    "normalize",
    "hu_to_normalized",
    "normalized_to_hu",
    "activity_to_normalized",
    "apply_cube_symmetry",
    "apply_plane_symmetry",
    "extract_cubes",
    "stitch_cubes",
    "pad_to_multiple",
    "correlate_valid",
]

MAGIC = b"MVOL0001"

HU_MIN = -1024.0
HU_MAX = 2976.0

PET_REFERENCE_PERCENTILE = 99.5

INTENSITY_SPACES = ("HU", "activity", "unit01", "sym11")

_NORMALIZED_BOUNDS = {"unit01": (0.0, 1.0), "sym11": (-1.0, 1.0)}

# Pad value of each normalized space: the low end of its interval, which
# is air (the HU_MIN clamp) for CT and zero activity for PET.
NORMALIZED_AIR = {mode: lo for mode, (lo, _) in _NORMALIZED_BOUNDS.items()}

# The most voxels one grid may hold: 512^3, whose float64 array alone is
# 1 GiB. Phantom and texture grids and tiled cubes are checked against it in
# plain integers, before any array is allocated.
MAX_VOXELS = 512 ** 3

# Planes per slab in the whole-volume passes that run one slab at a time
# (normalizing, writing a volume, fusing the planes, SSIM), so that their
# working memory is a slab's, not a volume's.
SLAB = 8


@dataclass
class Volume:
    """A 3D scalar grid with spacing and intensity-space metadata.

    ``voxels`` is indexed ``[x, y, z]``. A float32 array stays float32 (the
    dtype an MVOL file stores); any other becomes float64. ``meta`` carries
    optional bookkeeping such as the normalization reference of a PET volume.
    """

    voxels: np.ndarray
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    intensity_space: str = "HU"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        voxels = np.asarray(self.voxels)
        if voxels.dtype != np.float32:
            voxels = voxels.astype(np.float64, copy=False)
        self.voxels = voxels
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume must be 3D, got shape {self.voxels.shape}")
        self.spacing_mm = checked_spacing(self.spacing_mm)
        if self.intensity_space not in INTENSITY_SPACES:
            raise DomainError(f"unknown intensity space {self.intensity_space!r}")
        if not np.all(np.isfinite(self.voxels)):
            raise DomainError("volume contains non-finite voxels")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    def check_space(self, space: str, what: str) -> "Volume":
        """This volume, or DomainError if ``what`` (this volume) is not in ``space``."""
        if self.intensity_space != space:
            raise DomainError(f"{what} holds {self.intensity_space} voxels, expected {space}")
        return self

    def copy(self) -> "Volume":
        return Volume(self.voxels.copy(), self.spacing_mm, self.intensity_space,
                      dict(self.meta))


# ---------------------------------------------------------------------------
# MVOL I/O
# ---------------------------------------------------------------------------

def write_volume(volume: Volume, path) -> None:
    """Write a volume as MVOL, ``atomic``'s framed container of little-endian f32 voxels.

    Voxels are stored x-fastest, so each ``SLAB`` of z-planes, converted
    and written in turn, is one contiguous run of the file. A volume read
    back from disk re-serializes to the identical byte stream.
    """
    header = {
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing_mm),
        "intensity_space": volume.intensity_space,
        "meta": volume.meta,
    }
    slabs = (volume.voxels[:, :, z:z + SLAB].astype("<f4", order="F").tobytes(order="F")
             for z in range(0, volume.dims[2], SLAB))
    write_framed(path, MAGIC, header, slabs)


def _is_triple(value, check) -> bool:
    """A JSON list of exactly three values that pass ``check``."""
    return isinstance(value, list) and len(value) == 3 and all(check(v) for v in value)


def read_volume(path) -> Volume:
    """Read an MVOL file; malformed framing, header, or payload raise FormatError.

    The voxels are a read-only float32 view of the payload, never widened;
    ``Volume.copy`` gives a writable one.
    """
    header, payload = read_framed(path, MAGIC, "an MVOL volume")
    required = ("dims", "spacing_mm", "intensity_space")
    if any(k not in header for k in required):
        raise FormatError(f"{path}: header needs {', '.join(required)}")
    dims, spacing = header["dims"], header["spacing_mm"]
    space, meta = header["intensity_space"], header.get("meta", {})
    if not _is_triple(dims, is_json_int) or any(d < 1 for d in dims):
        raise FormatError(f"{path}: dims must be 3 positive integers, got {dims!r}")
    if not _is_triple(spacing, is_json_number):
        raise FormatError(f"{path}: spacing_mm must be 3 numbers, got {spacing!r}")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta must be an object, got {meta!r}")
    expected = 4 * dims[0] * dims[1] * dims[2]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, dims {dims} require {expected}")
    voxels = np.frombuffer(payload, dtype="<f4").reshape(dims, order="F")
    try:
        return Volume(voxels, spacing, space, meta)
    except (DomainError, ShapeError, OverflowError) as exc:  # or a spacing beyond float range
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Intensity normalization
# ---------------------------------------------------------------------------

def _map_interval(values: np.ndarray, source, target) -> np.ndarray:
    """Clamp to the ``source`` interval and map it affinely onto ``target``."""
    (a, b), (lo, hi) = source, target
    out = np.clip(values, a, b)  # a new array, mapped in place
    out -= a
    out *= (hi - lo) / (b - a)
    out += lo
    return out


def hu_to_normalized(values: np.ndarray, mode: str) -> np.ndarray:
    """Clamp to [-1024, 2976] HU and map affinely onto [0,1] or [-1,1]."""
    return _map_interval(values, (HU_MIN, HU_MAX), _NORMALIZED_BOUNDS[mode])


def normalized_to_hu(values: np.ndarray, mode: str) -> np.ndarray:
    """Inverse of hu_to_normalized; inputs clamped to the normalized interval."""
    return _map_interval(values, _NORMALIZED_BOUNDS[mode], (HU_MIN, HU_MAX))


def activity_to_normalized(values: np.ndarray, reference: float, mode: str) -> np.ndarray:
    """Clamp to [0, reference] activity and map affinely onto the target interval."""
    if not np.isfinite(reference) or reference <= 0:
        raise DomainError(f"activity reference must be positive, got {reference}")
    return _map_interval(values, (0.0, reference), _NORMALIZED_BOUNDS[mode])


def _linear_percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values.astype(np.float64), q)``, without the float64 copy.

    The two order statistics that the linear method interpolates are taken
    from one partition of a copy of ``values`` in its own dtype (the upper
    one is the least value after the lower), then widened
    and interpolated in float64 as ``np.percentile`` does: virtual index
    ``(n - 1) * q / 100``, both neighbours the last value at or beyond
    index ``n - 1``, and the two-sided lerp that counts from the upper
    neighbour when the weight is at least 0.5. Widening is exact and
    monotone, so the result is the same float.
    """
    n = values.size
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:  # np.percentile indexes the last value as -1
        lo = hi = n - 1
        below = -1.0
    else:
        lo = int(virtual)  # the floor: virtual >= 0
        hi = lo + 1
        below = float(lo)
    part = values.flatten(order="K")
    part.partition(lo)
    a = float(part[lo])
    # the next order statistic is the least value partitioned after lo
    b = float(part[lo + 1:].min()) if hi > lo else a
    gamma = virtual - below
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def normalize(volume: Volume, mode: str) -> Volume:
    """Map an HU or activity volume into unit01 or sym11, in the volume's dtype.

    HU volumes use the fixed [-1024, 2976] window. Activity volumes use
    [0, P99.5 of the volume] (:func:`_linear_percentile`). Each z-slab is
    widened to float64 and mapped, and the result is stored in the input's
    dtype: a float32 volume gives the float32 cast of what its float64
    widening gives. ``meta`` records the source space under ``norm_source``
    and, for activity, the reference under ``norm_ref`` as provenance; no
    inverse map back to activity is shipped.
    """
    if mode not in _NORMALIZED_BOUNDS:
        raise DomainError(f"normalize mode must be unit01 or sym11, got {mode!r}")
    meta = dict(volume.meta)
    if volume.intensity_space == "HU":
        mapped = partial(hu_to_normalized, mode=mode)
        meta["norm_source"] = "HU"
    elif volume.intensity_space == "activity":
        reference = _linear_percentile(volume.voxels, PET_REFERENCE_PERCENTILE)
        if reference <= 0:
            raise DomainError("degenerate activity volume: normalization reference is 0")
        mapped = partial(activity_to_normalized, reference=reference, mode=mode)
        meta["norm_source"] = "activity"
        meta["norm_ref"] = reference
    else:
        raise DomainError(f"cannot normalize a volume already in {volume.intensity_space}")
    out = np.empty_like(volume.voxels)
    for z in range(0, volume.dims[2], SLAB):
        out[:, :, z:z + SLAB] = mapped(np.asarray(volume.voxels[:, :, z:z + SLAB], np.float64))
    return Volume(out, volume.spacing_mm, mode, meta)


# ---------------------------------------------------------------------------
# Grid symmetries (augmentation)
# ---------------------------------------------------------------------------

# Symmetries of a square and of a cube: rank! axis permutations x 2^rank flips.
N_GRID_SYMMETRIES = {2: 8, 3: 48}


def apply_plane_symmetry(values: np.ndarray, element: int) -> np.ndarray:
    """One of the 8 symmetries of a square, on a 2D array (see :func:`_grid_symmetry`)."""
    return _grid_symmetry(values, element, 2)


def apply_cube_symmetry(values: np.ndarray, element: int) -> np.ndarray:
    """One of the 48 symmetries of a cube, on a 3D array (see :func:`_grid_symmetry`)."""
    return _grid_symmetry(values, element, 3)


def _grid_symmetry(values, element: int, rank: int) -> np.ndarray:
    """Apply one axis-aligned grid symmetry to the axes of a ``rank``-D array.

    ``element >> rank`` selects a permutation of the axes (lexicographic
    ``itertools.permutations`` order), and bit ``k`` of ``element`` flips
    permuted axis ``k``; element 0 is the identity. The result is a new
    C-ordered array in the input's dtype.
    """
    arr = np.asarray(values)
    if arr.ndim != rank:
        raise ShapeError(f"expected a {rank}D array, got shape {arr.shape}")
    if not 0 <= element < N_GRID_SYMMETRIES[rank]:
        raise DomainError(f"rank-{rank} symmetry element must be in "
                          f"[0, {N_GRID_SYMMETRIES[rank]}), got {element}")
    perm = list(permutations(range(rank)))[element >> rank]
    flips = tuple(k for k in range(rank) if element >> k & 1)
    return np.flip(np.transpose(arr, perm), flips).copy()


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def correlate_valid(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``a`` with a symmetric odd-length ``kernel`` along ``axis``.

    Only centers whose full window fits are kept ("valid"), so the axis
    shrinks by ``len(kernel) - 1``. Each output is its middle tap plus the
    taps at +-j summed pairwise, ``(a[i - j] + a[i + j]) * kernel[r - j]``,
    added for j from the half-width ``r`` down to 1; the phantom and
    evaluation bytes depend on this order.
    """
    half = len(kernel) // 2
    n = a.shape[axis] - 2 * half

    def window(start):
        return a[(slice(None),) * axis + (slice(start, start + n),)]

    out = window(half) * kernel[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(window(half - j), window(half + j), out=pair)
        pair *= kernel[half - j]
        out += pair
    return out


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------

def pad_to_multiple(values: np.ndarray, multiple: int, pad_value: float = 0.0) -> np.ndarray:
    """Pad each axis at the high end up to the next multiple of ``multiple``.

    The result keeps the input's dtype; an input that needs no padding is
    returned as it is.
    """
    if multiple < 1:
        raise DomainError(f"multiple must be >= 1, got {multiple}")
    arr = np.asarray(values)
    pads = [(0, (-n) % multiple) for n in arr.shape]
    if not any(hi for _, hi in pads):
        return arr
    return np.pad(arr, pads, mode="constant", constant_values=pad_value)


def check_voxels(count: int, what: str) -> None:
    """Raise DomainError if ``what`` hold ``count`` voxels, more than ``MAX_VOXELS``."""
    if count > MAX_VOXELS:
        raise DomainError(f"{what} hold {count} voxels, "
                          f"above the limit of {MAX_VOXELS} (512^3)")


def checked_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as three floats; DomainError unless each is finite and > 0."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):
        raise DomainError(f"spacing must be 3 finite positive values, got {spacing}")
    return spacing


def check_cube_size(edge: int) -> None:
    """Raise DomainError unless cubes of ``edge`` voxels are at least 8 and within the limit."""
    if edge < 8:
        raise DomainError(f"cube edge must be >= 8, got {edge}")
    check_voxels(edge ** 3, f"cubes of edge {edge}")


def extract_cubes(volume: Volume, edge: int, pad_value: float):
    """Tile a volume into non-overlapping edge^3 cubes, padding the high sides.

    Returns an iterator of ``(cube, origin)`` pairs in x, y, z order of their
    origins. A cube that lies inside the grid is a view of ``volume.voxels``;
    only a border cube is a copy, padded up to ``edge`` with ``pad_value``
    (``NORMALIZED_AIR[space]`` for a normalized volume). The origins index
    the grid, so ``stitch_cubes`` can reassemble the volume exactly.
    """
    check_cube_size(edge)
    grid = volume.voxels
    origins = product(*(range(0, n, edge) for n in grid.shape))
    return ((pad_to_multiple(grid[ox:ox + edge, oy:oy + edge, oz:oz + edge], edge, pad_value),
             (ox, oy, oz)) for ox, oy, oz in origins)


def stitch_cubes(tiles, dims) -> np.ndarray:
    """Reassemble extract_cubes tiles and crop to ``dims``.

    ``pipeline.reconstruct_cubes`` writes each cube's output straight into
    its place instead; this inverse of :func:`extract_cubes` stays for its
    tests and because perfbench traces its name.
    """
    if not tiles:
        raise DomainError("cannot stitch an empty tile list")
    edge = tiles[0][0].shape[0]
    padded_dims = [(-n) % edge + n for n in dims]
    out = np.zeros(padded_dims, dtype=np.float64)
    for cube, origin in tiles:
        if cube.shape != (edge, edge, edge):
            raise ShapeError(f"tile shape {cube.shape} is not a cube of edge {edge}")
        ox, oy, oz = origin
        out[ox:ox + edge, oy:oy + edge, oz:oz + edge] = cube
    return out[: dims[0], : dims[1], : dims[2]].copy()
