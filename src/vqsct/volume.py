"""Volumes: container type, MVOL file I/O, intensity maps, tiling.

A ``Volume`` wraps a 3D scalar grid indexed ``[x, y, z]`` with voxel spacing
in millimetres and a declared intensity space:

* ``HU``       raw CT numbers (air -1000, water 0, dense bone ~ +2000)
* ``activity`` raw PET tracer activity (non-negative, arbitrary units)
* ``unit01``   normalized to [0, 1]
* ``sym11``    normalized to [-1, 1]

On disk the MVOL format stores the voxels as little-endian float32 with the
x index varying fastest; in memory everything is float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .atomic import atomic_open
from .errors import DomainError, FormatError, ShapeError

__all__ = [
    "Volume",
    "HU_MIN",
    "HU_MAX",
    "HU_RANGE",
    "INTENSITY_SPACES",
    "NORMALIZED_AIR",
    "PET_REFERENCE_PERCENTILE",
    "N_CUBE_SYMMETRIES",
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
]

MAGIC = b"MVOL0001"

HU_MIN = -1024.0
HU_MAX = 2976.0
HU_RANGE = HU_MAX - HU_MIN  # 4000

PET_REFERENCE_PERCENTILE = 99.5

INTENSITY_SPACES = ("HU", "activity", "unit01", "sym11")

_NORMALIZED_BOUNDS = {"unit01": (0.0, 1.0), "sym11": (-1.0, 1.0)}

# Pad value of each normalized space: the low end of its interval, which
# is air (the HU_MIN clamp) for CT and zero activity for PET.
NORMALIZED_AIR = {mode: lo for mode, (lo, _) in _NORMALIZED_BOUNDS.items()}


@dataclass
class Volume:
    """A 3D scalar grid with spacing and intensity-space metadata.

    ``voxels`` is float64, indexed ``[x, y, z]``. ``meta`` carries optional
    bookkeeping such as the normalization reference of a PET volume.
    """

    voxels: np.ndarray
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    intensity_space: str = "HU"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float64)
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume must be 3D, got shape {self.voxels.shape}")
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3 or not all(0 < s < np.inf for s in self.spacing_mm):
            raise DomainError(f"spacing must be 3 finite positive values, got {self.spacing_mm}")
        if self.intensity_space not in INTENSITY_SPACES:
            raise DomainError(f"unknown intensity space {self.intensity_space!r}")
        if not np.all(np.isfinite(self.voxels)):
            raise DomainError("volume contains non-finite voxels")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    def copy(self) -> "Volume":
        return Volume(self.voxels.copy(), self.spacing_mm, self.intensity_space,
                      dict(self.meta))


# ---------------------------------------------------------------------------
# MVOL I/O
# ---------------------------------------------------------------------------

def write_volume(volume: Volume, path) -> None:
    """Write a volume as MVOL: magic, u32 header length, JSON header, f32 voxels.

    Voxels are stored little-endian float32 with x varying fastest. A volume
    read back from disk re-serializes to the identical byte stream.
    """
    header = {
        "dims": list(volume.dims),
        "spacing_mm": list(volume.spacing_mm),
        "intensity_space": volume.intensity_space,
        "meta": volume.meta,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = volume.voxels.astype("<f4").ravel(order="F").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _is_triple(value, types) -> bool:
    """A JSON list of exactly three values of ``types`` (booleans excluded)."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, types) and not isinstance(v, bool) for v in value))


def read_volume(path) -> Volume:
    """Read an MVOL file; malformed magic, header, or payload raise FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not an MVOL file (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if header_end > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad text or JSON, or nested too deep
        raise FormatError(f"{path}: invalid header JSON ({exc})") from None
    required = ("dims", "spacing_mm", "intensity_space")
    if not isinstance(header, dict) or any(k not in header for k in required):
        raise FormatError(f"{path}: header needs {', '.join(required)}")
    dims, spacing = header["dims"], header["spacing_mm"]
    space, meta = header["intensity_space"], header.get("meta", {})
    if not _is_triple(dims, int) or any(d < 1 for d in dims):
        raise FormatError(f"{path}: dims must be 3 positive integers, got {dims!r}")
    if not _is_triple(spacing, (int, float)):
        raise FormatError(f"{path}: spacing_mm must be 3 numbers, got {spacing!r}")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta must be an object, got {meta!r}")
    expected = 4 * dims[0] * dims[1] * dims[2]
    payload = blob[header_end:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, dims {dims} require {expected}")
    voxels = np.frombuffer(payload, dtype="<f4").reshape(dims, order="F")
    try:
        return Volume(voxels.astype(np.float64), spacing, space, meta)
    except (DomainError, ShapeError, OverflowError) as exc:  # or a spacing beyond float range
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Intensity normalization
# ---------------------------------------------------------------------------

def hu_to_normalized(values: np.ndarray, mode: str) -> np.ndarray:
    """Clamp to [-1024, 2976] HU and map affinely onto [0,1] or [-1,1]."""
    lo, hi = _NORMALIZED_BOUNDS[mode]
    clamped = np.clip(values, HU_MIN, HU_MAX)
    return lo + (clamped - HU_MIN) * ((hi - lo) / HU_RANGE)


def normalized_to_hu(values: np.ndarray, mode: str) -> np.ndarray:
    """Inverse of hu_to_normalized; inputs clamped to the normalized interval."""
    lo, hi = _NORMALIZED_BOUNDS[mode]
    clamped = np.clip(values, lo, hi)
    return HU_MIN + (clamped - lo) * (HU_RANGE / (hi - lo))


def activity_to_normalized(values: np.ndarray, reference: float, mode: str) -> np.ndarray:
    """Clamp to [0, reference] activity and map affinely onto the target interval."""
    if not np.isfinite(reference) or reference <= 0:
        raise DomainError(f"activity reference must be positive, got {reference}")
    lo, hi = _NORMALIZED_BOUNDS[mode]
    clamped = np.clip(values, 0.0, reference)
    return lo + clamped * ((hi - lo) / reference)


def normalize(volume: Volume, mode: str) -> Volume:
    """Map an HU or activity volume into unit01 or sym11.

    HU volumes use the fixed [-1024, 2976] window. Activity volumes use
    [0, P99.5 of the volume]. ``meta`` records the source space under
    ``norm_source`` and, for activity, the reference under ``norm_ref`` as
    provenance; no inverse map back to activity is shipped.
    """
    if mode not in _NORMALIZED_BOUNDS:
        raise DomainError(f"normalize mode must be unit01 or sym11, got {mode!r}")
    meta = dict(volume.meta)
    if volume.intensity_space == "HU":
        out = hu_to_normalized(volume.voxels, mode)
        meta["norm_source"] = "HU"
    elif volume.intensity_space == "activity":
        reference = float(np.percentile(volume.voxels, PET_REFERENCE_PERCENTILE))
        if reference <= 0:
            raise DomainError("degenerate activity volume: normalization reference is 0")
        out = activity_to_normalized(volume.voxels, reference, mode)
        meta["norm_source"] = "activity"
        meta["norm_ref"] = reference
    else:
        raise DomainError(f"cannot normalize a volume already in {volume.intensity_space}")
    return Volume(out, volume.spacing_mm, mode, meta)


# ---------------------------------------------------------------------------
# Grid symmetries (augmentation)
# ---------------------------------------------------------------------------

_PERMS3 = tuple(permutations(range(3)))
N_CUBE_SYMMETRIES = len(_PERMS3) * 8  # 6 axis permutations x 8 flip patterns

_PERMS2 = ((0, 1), (1, 0))
N_PLANE_SYMMETRIES = len(_PERMS2) * 4


def apply_cube_symmetry(values: np.ndarray, element: int) -> np.ndarray:
    """Apply one of the 48 axis-aligned cube symmetries to a 3D array.

    ``element // 8`` selects an axis permutation (lexicographic order) and
    the low three bits flip the permuted axes. Element 0 is the identity.
    """
    if not 0 <= element < N_CUBE_SYMMETRIES:
        raise DomainError(f"cube symmetry element must be in [0, 48), got {element}")
    arr = np.asarray(values)
    if arr.ndim != 3:
        raise ShapeError(f"cube symmetry expects a 3D array, got shape {arr.shape}")
    out = np.transpose(arr, _PERMS3[element // 8])
    for axis in range(3):
        if element & (1 << axis):
            out = np.flip(out, axis=axis)
    return out.copy()


def apply_plane_symmetry(values: np.ndarray, element: int) -> np.ndarray:
    """Apply one of the 8 square symmetries (transpose x flips) to a 2D array."""
    if not 0 <= element < N_PLANE_SYMMETRIES:
        raise DomainError(f"plane symmetry element must be in [0, 8), got {element}")
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeError(f"plane symmetry expects a 2D array, got shape {arr.shape}")
    out = np.transpose(arr, _PERMS2[element // 4])
    for axis in range(2):
        if element & (1 << axis):
            out = np.flip(out, axis=axis)
    return out.copy()


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------

def pad_to_multiple(values: np.ndarray, multiple: int, pad_value: float = 0.0) -> np.ndarray:
    """Pad each axis at the high end up to the next multiple of ``multiple``."""
    if multiple < 1:
        raise DomainError(f"multiple must be >= 1, got {multiple}")
    arr = np.asarray(values, dtype=np.float64)
    pads = [(0, (-n) % multiple) for n in arr.shape]
    if not any(hi for _, hi in pads):
        return arr
    return np.pad(arr, pads, mode="constant", constant_values=pad_value)


def extract_cubes(volume: Volume, edge: int, pad_value: float):
    """Tile a volume into non-overlapping edge^3 cubes, padding the high sides.

    ``pad_value`` fills the high sides: ``NORMALIZED_AIR[space]`` for a
    normalized volume.
    Returns a list of (cube, origin) pairs; origins index the padded grid so
    ``stitch_cubes`` can reassemble the volume exactly.
    """
    if edge < 8:
        raise DomainError(f"cube edge must be >= 8, got {edge}")
    padded = pad_to_multiple(volume.voxels, edge, pad_value)
    tiles = []
    for ox in range(0, padded.shape[0], edge):
        for oy in range(0, padded.shape[1], edge):
            for oz in range(0, padded.shape[2], edge):
                cube = padded[ox:ox + edge, oy:oy + edge, oz:oz + edge].copy()
                tiles.append((cube, (ox, oy, oz)))
    return tiles


def stitch_cubes(tiles, dims) -> np.ndarray:
    """Reassemble extract_cubes tiles and crop to ``dims``."""
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
