"""Volume-level inference: tri-planar slicing plus fusion, and cube tiling.

The 2D path slices a normalized volume along each anatomical plane, runs
every slice through a 2D checkpoint, reassembles the candidate volumes,
and fuses them by voxelwise median (:func:`fuse_median`). It holds the
axial and coronal volumes whole and fuses each slab of sagittal slices
into the axial volume as soon as the slab is translated, so its working
memory is two float32 volumes beside the input, unless the caller keeps
all three planes (:func:`translate_volume`). The 3D path tiles the volume
into cubes, reconstructs each, and writes each output into its place.
``model.graph_input`` prepares every slice and cube for the graph, and
:func:`_store` puts each output in its place. All outputs are in HU.

:func:`reconstruct_cubes` runs its cubes as one round of a
:class:`workers.Pool` of at most ``workers`` processes, and
:func:`translate_volume` its slices as two rounds (the sagittal slices
last); every process writes straight into one shared output
(:func:`workers.shared_array`). Each slice or cube runs the same code in
whichever process takes it, so the outputs are byte-identical at any
worker count.

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
from .workers import Pool, shared_array

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

# One slice's or cube's peak working set (its forward-only graph) per input
# voxel and base channel, rounded up: with criterion 09's model its traced
# peak is 2.8 MB for a 96^2 slice, 1.2 MB for 70x50 and 7.2 MB for a 32^3
# cube at base 8 (38, 42 and 27 bytes per voxel and channel), and fewer
# bytes per channel at base 16.
_FORWARD_BYTES_PER_VOXEL_CHANNEL = 48

PLANES = ("axial", "coronal", "sagittal")
# The axis each plane's slices are taken along.
PLANE_AXIS = {"axial": 2, "coronal": 1, "sagittal": 0}


@dataclass
class TriplanarResult:
    """Per-plane reconstructions and their voxelwise median, all in HU; the
    planes are None unless :func:`translate_volume` was asked to keep them."""

    axial: Volume | None
    coronal: Volume | None
    sagittal: Volume | None
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
    ckpt.config.check_rank(2, "tri-planar translation")
    ckpt.config.check_extents(extents, what)


def _store(ckpt: Checkpoint, params, space: str, item, dest: np.ndarray) -> np.ndarray:
    """Run one slice or cube into ``dest`` and return its output: cropped to
    ``dest.shape``, it is mapped to HU in float64 and cast to ``dest``'s dtype."""
    pred = forward(ckpt, graph_input(ckpt.config, item, space), params).output.data[0]
    dest[...] = normalized_to_hu(pred[tuple(slice(n) for n in dest.shape)].astype(np.float64),
                                 space)
    return pred


def translate_slices(ckpt: Checkpoint, params, slices, out: np.ndarray) -> np.ndarray:
    """Run normalized 2D slices through a 2D checkpoint into ``out``, in HU.

    ``out`` is a float32 or float64 ``[n, *shape]`` array for ``n`` slices
    of one 2D ``shape``, such as a view of a volume along its plane's axis;
    it is returned. Each slice enters the graph through
    :func:`model.graph_input`, which pads it with the air of the
    checkpoint's space, runs over ``params`` (the caller's float32 leaves and
    sub-pixel kernels) and is stored in ``out[i]`` by :func:`_store`.
    """
    shape = out.shape[1:]
    if (out.ndim != 3 or len(slices) != len(out)
            or any(np.shape(sl) != shape for sl in slices)):
        raise ShapeError(f"output {out.shape} does not hold {len(slices)} 2D slices "
                         f"of its trailing shape")
    _check_planar(ckpt, shape, "slices")
    space = value_space(ckpt)
    for sl, dest in zip(slices, out):
        _store(ckpt, params, space, sl, dest)
    return out


def _median_slabs(planes, out: np.ndarray) -> np.ndarray:
    """Voxelwise median of three aligned arrays, into ``out`` one x-slab at a time.

    The median of ``a, b, c`` is ``max(min(a, b), min(max(a, b), c))``, one
    of its three values, taken per slab of ``SLAB`` x-planes so no
    whole-volume temporary is made; ``out`` may be ``planes[0]``, since a
    slab's temporaries are made before the slab is written. ``np.median``
    gives +0.0 for any three zeros, also ``-0.0`` ones, and adding ``0.0``
    gives the same, so the bytes are those of ``np.median`` over the whole
    stack. A cast is
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


def translate_volume(ckpt: Checkpoint, volume: Volume, workers: int = 1, *,
                     dump_planes: bool = False) -> TriplanarResult:
    """Tri-planar translation: slice, translate, restack per plane, fuse.

    The input must already be normalized into the checkpoint's value space
    (sym11 for fine-tuned translation models, unit01 for pretrained
    reconstruction models); the returned volumes are HU.

    Each plane's slices are views of the input, and each translated slice
    is mapped to HU in float64 and stored in its place in a float32 plane
    volume, the dtype the volumes are written in. The fused volume is the
    planes' voxelwise median, taken by :func:`_median_slabs` as
    :func:`fuse_median` takes it, so it equals the float32 cast of the
    float64 median.

    The axial and coronal slices are one round of a pool of at most
    ``workers`` processes, sized for one largest slice's graph each, into a
    shared ``[2, *dims]`` stack. The sagittal slices are the pool's second
    round: each ``SLAB`` of them is translated into a small temporary and
    fused at once into its x-rows of the axial plane, which so becomes the
    fused volume. Besides the input, the working memory is about two float32
    volumes, and the result's planes are None. With ``dump_planes`` (the
    CLI's ``--dump-planes``) the stack holds all three planes, which the
    result returns, and the median goes into a fused volume of its own: four
    volumes. Each claimed run of slices goes through :func:`translate_slices`
    over leaves built once, before the fork.
    """
    volume.check_space(value_space(ckpt), "the volume to translate")
    # every axis lies in the slice plane of two of the three planes
    _check_planar(ckpt, volume.dims, "the volume's slices")
    _, ny, nz = volume.dims
    largest = prod(sorted(volume.dims)[1:])  # voxels of the largest slice
    stack = shared_array((len(PLANES) if dump_planes else 2,) + volume.dims, np.float32)
    fused = shared_array(volume.dims, np.float32) if dump_planes else stack[0]
    runs = [(np.moveaxis(volume.voxels, axis, 0), np.moveaxis(out, axis, 0))
            for axis, out in zip((PLANE_AXIS["axial"], PLANE_AXIS["coronal"]), stack)]
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))

    def run(lo, hi):  # the tasks [lo, hi): axial, coronal, then sagittal slices
        for slices, out in runs:
            if lo < len(slices) and hi > 0:
                translate_slices(ckpt, params, slices[max(lo, 0):hi], out[max(lo, 0):hi])
            lo, hi = lo - len(slices), hi - len(slices)
        for x in range(max(lo, 0), hi, SLAB):  # sagittal slices are x-rows
            rows = slice(x, min(x + SLAB, hi))
            sagittal = (stack[2][rows] if dump_planes
                        else np.empty((rows.stop - x, ny, nz), np.float32))
            translate_slices(ckpt, params, volume.voxels[rows], sagittal)
            _median_slabs((stack[0][rows], stack[1][rows], sagittal), fused[rows])

    with Pool(run, workers, sum(volume.dims),
              largest * ckpt.config.base_channels * _FORWARD_BYTES_PER_VOXEL_CHANNEL) as pool:
        pool.round(0, nz + ny)
        pool.round(nz + ny)
    if not dump_planes:
        return TriplanarResult(None, None, None, Volume(fused, volume.spacing_mm, "HU"))
    return TriplanarResult(*(Volume(v, volume.spacing_mm, "HU") for v in (*stack, fused)))


def reconstruct_cubes(ckpt: Checkpoint, volume: Volume, edge: int = 64,
                      workers: int = 1) -> Volume:
    """3D reconstruction: tile into cubes, run each from its graph input, map to HU.

    Each cube from :func:`volume.extract_cubes` is a view of the normalized
    input (a border cube a copy padded to ``edge`` with air) and enters the
    graph through :func:`model.graph_input`. :func:`_store` crops its output
    to the grid, maps it to HU in float64 and stores it in its place in one
    float32 output volume, as it does for slices, so no stitched or padded
    copy of the volume is made.

    The cubes, in :func:`volume.extract_cubes` order, are one round of a
    pool of at most ``workers`` processes, sized for one cube's graph each;
    each process walks the tiles once, up to its last claim, and holds its
    last output across claims, so that glibc does not trim the heap that the
    next cube's graph would then fault in again.
    """
    ckpt.config.check_rank(3, "reconstruct_cubes")
    space = value_space(ckpt)
    volume.check_space(space, "the volume to reconstruct")
    ckpt.config.check_cube_edge(edge)
    tiles = extract_cubes(volume, edge, NORMALIZED_AIR[space])
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
    out = shared_array(volume.dims, np.float32)
    taken = 0  # tiles this process has drawn; its claims come in ascending order
    held = None  # this process's last cube output, kept below the next cube's graph

    def run(lo, hi):
        nonlocal taken, held
        for cube, (ox, oy, oz) in islice(tiles, lo - taken, hi - taken):
            held = _store(ckpt, params, space, cube,
                          out[ox:ox + edge, oy:oy + edge, oz:oz + edge])
        taken = hi

    with Pool(run, workers, prod(-(-n // edge) for n in volume.dims),
              edge ** 3 * ckpt.config.base_channels * _FORWARD_BYTES_PER_VOXEL_CHANNEL) as pool:
        pool.round()
    return Volume(out, volume.spacing_mm, "HU")
