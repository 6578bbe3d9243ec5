"""Volume-level inference: tri-planar slicing plus fusion, and cube tiling.

The 2D path slices a normalized volume along each anatomical plane, runs
every slice through a 2D checkpoint, reassembles three candidate volumes,
and fuses them by voxelwise median. The 3D path tiles the volume into
cubes, reconstructs each, and stitches them back. All outputs are in HU.

Slice layouts (ascending along the fixed axis, remaining axes in x,y,z
order): axial slices are ``[x, y]`` at fixed z, coronal ``[x, z]`` at fixed
y, sagittal ``[y, z]`` at fixed x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .model import Checkpoint, forward, value_space
from .volume import (NORMALIZED_AIR, Volume, extract_cubes, normalized_to_hu,
                     pad_to_multiple, stitch_cubes)

__all__ = [
    "PLANES",
    "TriplanarResult",
    "slice_volume",
    "restack_slices",
    "translate_slices",
    "fuse_median",
    "translate_volume",
    "reconstruct_cubes",
]

PLANES = ("axial", "coronal", "sagittal")


@dataclass
class TriplanarResult:
    """Per-plane reconstructions and their voxelwise median, all in HU."""

    axial: Volume
    coronal: Volume
    sagittal: Volume
    fused: Volume


def slice_volume(volume: Volume, plane: str) -> list[np.ndarray]:
    """Split a volume into ordered 2D slices along one plane."""
    vox = volume.voxels
    if plane == "axial":
        return [vox[:, :, z].copy() for z in range(vox.shape[2])]
    if plane == "coronal":
        return [vox[:, y, :].copy() for y in range(vox.shape[1])]
    if plane == "sagittal":
        return [vox[x, :, :].copy() for x in range(vox.shape[0])]
    raise DomainError(f"plane must be one of {PLANES}, got {plane!r}")


def restack_slices(slices, plane: str) -> np.ndarray:
    """Inverse of slice_volume: rebuild the 3D grid from ordered slices."""
    if plane == "axial":
        return np.stack(slices, axis=2)
    if plane == "coronal":
        return np.stack(slices, axis=1)
    if plane == "sagittal":
        return np.stack(slices, axis=0)
    raise DomainError(f"plane must be one of {PLANES}, got {plane!r}")


def translate_slices(ckpt: Checkpoint, slices) -> list[np.ndarray]:
    """Run normalized 2D slices through a 2D checkpoint; outputs are HU.

    Each slice is padded up to the next multiple of 2^depth with the
    normalized air value of the checkpoint's space, translated, cropped
    back, and mapped to HU.
    """
    if ckpt.config.spatial_rank != 2:
        raise DomainError(
            f"translate_slices needs a 2D checkpoint, got rank {ckpt.config.spatial_rank}")
    space = value_space(ckpt)
    div = 2 ** ckpt.config.depth
    out = []
    for sl in slices:
        arr = np.asarray(sl, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"expected 2D slices, got shape {arr.shape}")
        padded = pad_to_multiple(arr, div, NORMALIZED_AIR[space])
        pred = forward(ckpt, padded[None]).output.data[0]
        pred = pred[: arr.shape[0], : arr.shape[1]]
        out.append(normalized_to_hu(pred, space))
    return out


def fuse_median(a: Volume, b: Volume, c: Volume) -> Volume:
    """Voxelwise median of three aligned volumes."""
    for other in (b, c):
        if other.dims != a.dims:
            raise ShapeError(f"volume dims differ: {a.dims} vs {other.dims}")
        if other.spacing_mm != a.spacing_mm:
            raise DomainError(
                f"volume spacings differ: {a.spacing_mm} vs {other.spacing_mm}")
        if other.intensity_space != a.intensity_space:
            raise DomainError("cannot fuse volumes in different intensity spaces")
    fused = np.median(np.stack([a.voxels, b.voxels, c.voxels]), axis=0)
    return Volume(fused, a.spacing_mm, a.intensity_space, dict(a.meta))


def translate_volume(ckpt: Checkpoint, volume: Volume) -> TriplanarResult:
    """Tri-planar translation: slice, translate, restack per plane, fuse.

    The input must already be normalized into the checkpoint's value space
    (sym11 for fine-tuned translation models, unit01 for pretrained
    reconstruction models); the four returned volumes are HU.
    """
    space = value_space(ckpt)
    if volume.intensity_space != space:
        raise DomainError(
            f"checkpoint expects {space} input, volume is {volume.intensity_space}")
    per_plane = {}
    for plane in PLANES:
        translated = translate_slices(ckpt, slice_volume(volume, plane))
        per_plane[plane] = Volume(restack_slices(translated, plane),
                                  volume.spacing_mm, "HU")
    fused = fuse_median(per_plane["axial"], per_plane["coronal"], per_plane["sagittal"])
    return TriplanarResult(per_plane["axial"], per_plane["coronal"],
                           per_plane["sagittal"], fused)


def reconstruct_cubes(ckpt: Checkpoint, volume: Volume, edge: int = 64) -> Volume:
    """3D reconstruction: tile into cubes, run each, stitch, map to HU."""
    if ckpt.config.spatial_rank != 3:
        raise DomainError(
            f"reconstruct_cubes needs a 3D checkpoint, got rank {ckpt.config.spatial_rank}")
    space = value_space(ckpt)
    if volume.intensity_space != space:
        raise DomainError(
            f"checkpoint expects {space} input, volume is {volume.intensity_space}")
    div = 2 ** ckpt.config.depth
    if edge % div:
        raise DomainError(f"cube edge {edge} must be divisible by {div}")
    tiles = extract_cubes(volume, edge, NORMALIZED_AIR[space])
    done = [(forward(ckpt, cube[None]).output.data[0], origin)
            for cube, origin in tiles]
    stitched = stitch_cubes(done, volume.dims)
    return Volume(normalized_to_hu(stitched, space), volume.spacing_mm, "HU")
