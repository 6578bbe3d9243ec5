"""Volume-level inference: tri-planar slicing plus fusion, and cube tiling.

The 2D path slices a normalized volume along each anatomical plane, runs
every slice through a 2D checkpoint, reassembles three candidate volumes,
and fuses them by voxelwise median. The 3D path tiles the volume into
cubes, reconstructs each, and writes each output into its place.
``model.graph_input`` prepares every slice and cube for the graph. All
outputs are in HU.

Given ``workers > 1``, :func:`translate_volume` and
:func:`reconstruct_cubes` run their slices or cubes as one round of a
:class:`workers.Pool`: the calling process and ``workers - 1`` forked
children take contiguous claims of them from one shared queue until none
is left, so a process the OS runs slower takes less of the work, and every
one writes straight into one anonymous shared ``mmap`` output. The caller
reaps every child before it goes on, and re-raises the error of the
earliest failed claim, which is the error the serial path raises. Where
forking is unsafe the whole work runs in the calling process. Each slice or
cube runs the same code either way, so the outputs are byte-identical at
any worker count.

Slice layouts (ascending along the fixed axis, remaining axes in x,y,z
order): axial slices are ``[x, y]`` at fixed z, coronal ``[x, z]`` at fixed
y, sagittal ``[y, z]`` at fixed x.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import prod

import numpy as np

from .errors import DomainError, ShapeError
from .model import (GRAPH_DTYPE, Checkpoint, forward, graph_input, param_tensors,
                    value_space, with_sub_pixel_kernels)
from .volume import NORMALIZED_AIR, SLAB, Volume, extract_cubes, normalized_to_hu
from .workers import pool_size, run_tasks, shared_array

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

    ``out`` is a float32 or float64 ``[n, *shape]`` array for ``n`` slices
    of one 2D ``shape``, such as a view of a volume along its plane's axis;
    it is returned. Each slice enters the graph through
    :func:`model.graph_input`, which pads it with the air of the
    checkpoint's space; its output is cropped back, mapped to HU in float64
    and cast to ``out``'s dtype as it is stored in ``out[i]``. The parameter
    leaves and the decoder's sub-pixel kernels are built once per call.
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

    The median of ``a, b, c`` is ``max(min(a, b), min(max(a, b), c))``, one
    of its three values, taken per slab of ``SLAB`` x-planes so no
    whole-volume temporary is made. ``np.median`` gives +0.0 for any three
    zeros, also ``-0.0`` ones, and adding ``0.0`` gives the same, so the
    bytes are those of ``np.median`` over the whole stack. A cast is
    monotone, so float32 planes give the float32 cast of their float64
    median, unless a nonzero float64 value flushes to a float32 zero; HU
    values never do.
    """
    a, b, c = planes
    for x in range(0, out.shape[0], SLAB):
        sa, sb, dest = a[x:x + SLAB], b[x:x + SLAB], out[x:x + SLAB]
        np.maximum(np.minimum(sa, sb), np.minimum(np.maximum(sa, sb), c[x:x + SLAB]), out=dest)
        dest += 0.0
    return out


def fuse_median(a: Volume, b: Volume, c: Volume) -> Volume:
    """Voxelwise median of three aligned volumes, in their common dtype."""
    for other in (b, c):
        if other.dims != a.dims:
            raise ShapeError(f"volume dims differ: {a.dims} vs {other.dims}")
        if other.spacing_mm != a.spacing_mm:
            raise DomainError(
                f"volume spacings differ: {a.spacing_mm} vs {other.spacing_mm}")
        if other.intensity_space != a.intensity_space:
            raise DomainError("cannot fuse volumes in different intensity spaces")
    planes = (a.voxels, b.voxels, c.voxels)
    fused = _median_slabs(planes, np.empty(a.dims, np.result_type(*planes)))
    return Volume(fused, a.spacing_mm, a.intensity_space, dict(a.meta))


def translate_volume(ckpt: Checkpoint, volume: Volume, workers: int = 1) -> TriplanarResult:
    """Tri-planar translation: slice, translate, restack per plane, fuse.

    The input must already be normalized into the checkpoint's value space
    (sym11 for fine-tuned translation models, unit01 for pretrained
    reconstruction models); the four returned volumes are HU.

    Each plane's slices are views of the input, and each translated slice
    is mapped to HU in float64 and stored in its place in one float32
    ``[3, *dims]`` array, the dtype the volumes are written in; the three
    plane volumes are views of that array. The fused volume is its float32
    voxelwise median, taken one slab at a time by the same code as
    :func:`fuse_median`; it equals the float32 cast of the float64 median.
    Besides the input, the working memory is about four volumes of float32.

    With ``workers > 1`` the slices (axial, then coronal, then sagittal, in
    order) are claimed in runs by ``workers`` processes, which translate
    them into a shared ``[3, *dims]`` array (see the module docstring);
    each worker holds one slice graph of its own. The bytes do not depend
    on ``workers``.
    """
    space = value_space(ckpt)
    if volume.intensity_space != space:
        raise DomainError(
            f"checkpoint expects {space} input, volume is {volume.intensity_space}")
    # every axis lies in the slice plane of two of the three planes
    _check_planar(ckpt, volume.dims, "the volume's slices")
    axes = [_plane_axis(plane) for plane in PLANES]
    workers = pool_size(sum(volume.dims), workers)
    stack = shared_array((len(PLANES),) + volume.dims, np.float32, workers > 1)
    planes = [(np.moveaxis(volume.voxels, axis, 0), np.moveaxis(out, axis, 0))
              for axis, out in zip(axes, stack)]

    def run(lo, hi):  # the tasks [lo, hi) of the slices of all planes, in order
        for slices, out in planes:
            if lo < len(slices) and hi > 0:
                translate_slices(ckpt, slices[max(lo, 0):hi], out[max(lo, 0):hi])
            lo, hi = lo - len(slices), hi - len(slices)

    run_tasks(sum(volume.dims), run, workers)
    fused = _median_slabs(stack, np.empty(volume.dims, np.float32))
    return TriplanarResult(*(Volume(v, volume.spacing_mm, "HU") for v in (*stack, fused)))


def reconstruct_cubes(ckpt: Checkpoint, volume: Volume, edge: int = 64,
                      workers: int = 1) -> Volume:
    """3D reconstruction: tile into cubes, run each from its graph input, map to HU.

    Each cube from :func:`volume.extract_cubes` is a view of the normalized
    input (a border cube a copy padded to ``edge`` with air) and enters the
    graph through :func:`model.graph_input`. Its output is cropped to the
    grid, mapped to HU in float64 and stored in its place in one float32
    output volume, as :func:`translate_volume` does for slices, so no
    stitched or padded copy of the volume is made.

    With ``workers > 1`` the cubes, in :func:`volume.extract_cubes` order,
    are claimed in runs by ``workers`` processes, which reconstruct them
    into a shared output volume (see the module docstring); each worker
    holds one cube graph of its own, and walks the tiles once, up to its
    last claim. The bytes do not depend on ``workers``.
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
    cubes = prod(-(-n // edge) for n in volume.dims)
    workers = pool_size(cubes, workers)
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
    out = shared_array(volume.dims, np.float32, workers > 1)
    taken = 0  # tiles this process has drawn; its claims come in ascending order

    def run(lo, hi):
        nonlocal taken
        for cube, (ox, oy, oz) in islice(tiles, lo - taken, hi - taken):
            dest = out[ox:ox + edge, oy:oy + edge, oz:oz + edge]
            pred = forward(ckpt, graph_input(ckpt.config, cube, space), params).output.data[0]
            crop = pred[: dest.shape[0], : dest.shape[1], : dest.shape[2]]
            dest[...] = normalized_to_hu(crop.astype(np.float64), space)
        taken = hi

    run_tasks(cubes, run, workers)
    return Volume(out, volume.spacing_mm, "HU")
