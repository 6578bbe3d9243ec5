"""Volume-level inference: tri-planar slicing plus fusion, and cube tiling.

The 2D path slices a normalized volume along each anatomical plane, runs
every slice through a 2D checkpoint, reassembles three candidate volumes,
and fuses them by voxelwise median. The 3D path tiles the volume into
cubes, reconstructs each, and writes each output into its place.
``model.graph_input`` prepares every slice and cube for the graph. All
outputs are in HU.

Slice layouts (ascending along the fixed axis, remaining axes in x,y,z
order): axial slices are ``[x, y]`` at fixed z, coronal ``[x, z]`` at fixed
y, sagittal ``[y, z]`` at fixed x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .model import (GRAPH_DTYPE, Checkpoint, forward, graph_input, param_tensors,
                    value_space, with_sub_pixel_kernels)
from .volume import NORMALIZED_AIR, SLAB, Volume, extract_cubes, normalized_to_hu

__all__ = [
    "PLANES",
    "PLANE_AXIS",
    "TriplanarResult",
    "slice_volume",
    "restack_slices",
    "translate_slices",
    "fuse_median",
    "translate_volume",
    "reconstruct_cubes",
]

PLANES = ("axial", "coronal", "sagittal")
# The axis each plane's slices are taken along.
PLANE_AXIS = {"axial": 2, "coronal": 1, "sagittal": 0}


@dataclass
class TriplanarResult:
    """Per-plane reconstructions and their voxelwise median, all in HU."""

    axial: Volume
    coronal: Volume
    sagittal: Volume
    fused: Volume


def _plane_axis(plane: str) -> int:
    if plane not in PLANE_AXIS:
        raise DomainError(f"plane must be one of {PLANES}, got {plane!r}")
    return PLANE_AXIS[plane]


def slice_volume(volume: Volume, plane: str) -> list[np.ndarray]:
    """Split a volume into ordered 2D slices along one plane."""
    return [sl.copy() for sl in np.moveaxis(volume.voxels, _plane_axis(plane), 0)]


def restack_slices(slices, plane: str) -> np.ndarray:
    """Inverse of slice_volume: rebuild the 3D grid from ordered slices."""
    return np.stack(slices, axis=_plane_axis(plane))


def _check_planar(ckpt: Checkpoint, extents, what: str) -> None:
    """A 2D checkpoint whose 2^depth fits the in-plane ``extents``."""
    if ckpt.config.spatial_rank != 2:
        raise DomainError(
            f"tri-planar translation needs a 2D checkpoint, got rank {ckpt.config.spatial_rank}")
    ckpt.config.check_extents(extents, what)


def translate_slices(ckpt: Checkpoint, slices, out: np.ndarray) -> np.ndarray:
    """Run normalized 2D slices through a 2D checkpoint into ``out``, in HU.

    ``out`` is a float64 ``[n, *shape]`` array for ``n`` slices of one
    2D ``shape``, such as a view of a volume along its plane's axis; it is
    returned. Each slice enters the graph through :func:`model.graph_input`,
    which pads it with the air of the checkpoint's space; its output is
    cropped back and mapped to HU in float64 straight into ``out[i]``. The
    parameter leaves and the decoder's sub-pixel kernels are built once per call.
    """
    shape = out.shape[1:]
    if (out.ndim != 3 or len(slices) != len(out)
            or any(np.shape(sl) != shape for sl in slices)):
        raise ShapeError(f"output {out.shape} does not hold {len(slices)} 2D slices "
                         f"of its trailing shape")
    _check_planar(ckpt, shape, "slices")
    space = value_space(ckpt)
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
    for sl, dest in zip(slices, out):
        pred = forward(ckpt, graph_input(ckpt.config, sl, space), params).output.data[0]
        dest[...] = normalized_to_hu(pred[: shape[0], : shape[1]].astype(np.float64), space)
    return out


def _median_slabs(planes, out: np.ndarray) -> np.ndarray:
    """Voxelwise median of three aligned arrays, into ``out`` one x-slab at a time.

    Each slab of ``SLAB`` x-planes of the three is stacked and handed to
    ``np.median``, whose values do not depend on the other slabs, so the
    bytes are those of ``np.median`` over the whole stack while no
    whole-volume copy is made.
    """
    for x in range(0, out.shape[0], SLAB):
        slab = np.stack([p[x:x + SLAB] for p in planes])
        np.median(slab, axis=0, out=out[x:x + SLAB], overwrite_input=True)
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
    fused = _median_slabs((a.voxels, b.voxels, c.voxels), np.empty(a.dims))
    return Volume(fused, a.spacing_mm, a.intensity_space, dict(a.meta))


def translate_volume(ckpt: Checkpoint, volume: Volume) -> TriplanarResult:
    """Tri-planar translation: slice, translate, restack per plane, fuse.

    The input must already be normalized into the checkpoint's value space
    (sym11 for fine-tuned translation models, unit01 for pretrained
    reconstruction models); the four returned volumes are HU.

    Each plane's slices are views of the input, and each translated slice
    is written straight into its place in one float64 ``[3, *dims]``
    array; the three plane volumes are views of that array. The fused
    volume is its voxelwise median, taken one slab at a time by the same
    code as :func:`fuse_median`. Besides the input, the working memory is
    about four volumes of float64.
    """
    space = value_space(ckpt)
    if volume.intensity_space != space:
        raise DomainError(
            f"checkpoint expects {space} input, volume is {volume.intensity_space}")
    # every axis lies in the slice plane of two of the three planes
    _check_planar(ckpt, volume.dims, "the volume's slices")
    stack = np.empty((len(PLANES),) + volume.dims)
    for plane, out in zip(PLANES, stack):
        axis = _plane_axis(plane)
        translate_slices(ckpt, np.moveaxis(volume.voxels, axis, 0), np.moveaxis(out, axis, 0))
    fused = Volume(_median_slabs(stack, np.empty(volume.dims)), volume.spacing_mm, "HU")
    return TriplanarResult(*(Volume(v, volume.spacing_mm, "HU") for v in stack), fused)


def reconstruct_cubes(ckpt: Checkpoint, volume: Volume, edge: int = 64) -> Volume:
    """3D reconstruction: tile into cubes, run each from its graph input, map to HU.

    Each cube from :func:`volume.extract_cubes` is a view of the normalized
    input (a border cube a copy padded to ``edge`` with air) and enters the
    graph through :func:`model.graph_input`. Its output is cropped to the
    grid and mapped to HU in float64 straight into its place in one output
    volume, as :func:`translate_slices` does for slices, so no stitched or
    padded copy of the volume is made.
    """
    if ckpt.config.spatial_rank != 3:
        raise DomainError(
            f"reconstruct_cubes needs a 3D checkpoint, got rank {ckpt.config.spatial_rank}")
    space = value_space(ckpt)
    if volume.intensity_space != space:
        raise DomainError(
            f"checkpoint expects {space} input, volume is {volume.intensity_space}")
    ckpt.config.check_cube_edge(edge)
    tiles = extract_cubes(volume, edge, NORMALIZED_AIR[space])
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
    out = np.empty(volume.dims)
    for cube, (ox, oy, oz) in tiles:
        dest = out[ox:ox + edge, oy:oy + edge, oz:oz + edge]
        pred = forward(ckpt, graph_input(ckpt.config, cube, space), params).output.data[0]
        crop = pred[: dest.shape[0], : dest.shape[1], : dest.shape[2]]
        dest[...] = normalized_to_hu(crop.astype(np.float64), space)
    return Volume(out, volume.spacing_mm, "HU")
