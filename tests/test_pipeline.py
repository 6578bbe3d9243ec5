"""Slicing, median fusion, tri-planar translation, and cube reconstruction."""

import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import reconstruct_cubes_stitched
from vqsct import autograd as ag
from vqsct import model, pipeline
from vqsct import workers as worker_pool
from vqsct.errors import DomainError, ShapeError, VqsctError
from vqsct.model import (GRAPH_DTYPE, ModelConfig, build_model, param_tensors,
                         with_sub_pixel_kernels)
from vqsct.pipeline import (PLANES, fuse_median, reconstruct_cubes, restack_slices,
                            slice_volume, translate_slices, translate_volume)
from vqsct.training import pretrain_recon
from vqsct.volume import HU_MAX, HU_MIN, SLAB, Volume, normalize, write_volume


def small_config(rank=2, **overrides):
    base = dict(spatial_rank=rank, depth=2, base_channels=4, codebook_size=8,
                codebook_dim=6, pyramid_levels=1, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def leaves(ckpt):
    """The float32 leaves and sub-pixel kernels that translate_slices runs over."""
    return with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))


def hu_volume(rng, dims=(10, 9, 8)):
    return Volume(rng.uniform(-1000, 1500, dims), (1.5, 1.5, 1.5), "HU", {})


# ---------------------------------------------------------------------------
# Slicing and restacking
# ---------------------------------------------------------------------------

def test_slice_axis_conventions():
    vox = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    vol = Volume(vox, (1, 1, 1), "HU", {})
    axial = slice_volume(vol, "axial")
    coronal = slice_volume(vol, "coronal")
    sagittal = slice_volume(vol, "sagittal")
    assert len(axial) == 4 and axial[1].shape == (2, 3)
    assert np.array_equal(axial[1], vox[:, :, 1])
    assert len(coronal) == 3 and coronal[2].shape == (2, 4)
    assert np.array_equal(coronal[2], vox[:, 2, :])
    assert len(sagittal) == 2 and sagittal[0].shape == (3, 4)
    assert np.array_equal(sagittal[0], vox[0, :, :])


@pytest.mark.parametrize("plane", ["axial", "coronal", "sagittal"])
def test_slice_restack_round_trip_bit_exact(plane):
    rng = np.random.default_rng(0)
    vol = hu_volume(rng)
    slices = slice_volume(vol, plane)
    back = restack_slices(slices, plane)
    assert np.array_equal(back, vol.voxels)


def test_slice_rejects_unknown_plane():
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        slice_volume(hu_volume(rng), "oblique")


def test_slices_are_copies():
    rng = np.random.default_rng(2)
    vol = hu_volume(rng)
    slices = slice_volume(vol, "axial")
    slices[0][0, 0] = 12345.0
    assert vol.voxels[0, 0, 0] != 12345.0


# ---------------------------------------------------------------------------
# Median fusion
# ---------------------------------------------------------------------------

def median_oracle(a, b, c):
    """Median of three via explicit sort, voxel by voxel."""
    out = np.empty_like(a)
    flat = [x.ravel() for x in (a, b, c)]
    for i in range(out.size):
        out.ravel()[i] = sorted((flat[0][i], flat[1][i], flat[2][i]))[1]
    return out


def test_fuse_median_matches_sort_oracle():
    rng = np.random.default_rng(3)
    vols = [hu_volume(rng, (5, 4, 3)) for _ in range(3)]
    a, b, c = (Volume(v.voxels, (1, 1, 1), "HU", {}) for v in vols)
    fused = fuse_median(a, b, c)
    assert np.array_equal(fused.voxels, median_oracle(a.voxels, b.voxels,
                                                      c.voxels))


def test_fuse_median_permutation_invariant_and_idempotent():
    rng = np.random.default_rng(4)
    vols = [Volume(rng.uniform(-500, 500, (4, 4, 4)), (1, 1, 1), "HU", {})
            for _ in range(3)]
    base = fuse_median(*vols).voxels
    for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        assert np.array_equal(fuse_median(*(vols[i] for i in order)).voxels,
                              base)
    same = fuse_median(vols[0], vols[0], vols[0])
    assert np.array_equal(same.voxels, vols[0].voxels)


@pytest.mark.parametrize("nx", [2 * SLAB, 2 * SLAB + 3])
def test_slab_median_is_the_whole_stack_median_with_signed_zeros(nx):
    # x extents that are and are not whole slabs; a third of the voxels draw
    # their three values from +-0.0 and +-0.5 (np.median gives +0.0 where a
    # min/max median-of-three can give -0.0)
    rng = np.random.default_rng(15)
    stack = rng.uniform(-1, 1, (3, nx, 6, 5))
    zeros = rng.random((nx, 6, 5)) < 0.3
    stack[:, zeros] = rng.choice([0.0, -0.0, 0.5, -0.5], size=(3, int(zeros.sum())))
    got = pipeline._median_slabs(stack, np.empty(stack.shape[1:]))
    want = np.median(stack, axis=0)
    assert (np.signbit(stack) & (stack == 0.0)).any() and (want == 0.0).any()
    assert got.tobytes() == want.tobytes()


def test_float32_slab_median_is_the_cast_of_the_float64_median():
    # HU-range values; a quarter of the voxels draw their three values from
    # +-0.0 and +-0.5, another quarter three distinct float64 values that
    # round to one float32
    rng = np.random.default_rng(18)
    nx = 2 * SLAB + 3
    stack = rng.uniform(-1024, 2976, (3, nx, 6, 5))
    pick = rng.random((nx, 6, 5))
    zeros, close = pick < 0.25, (pick >= 0.25) & (pick < 0.5)
    stack[:, zeros] = rng.choice([0.0, -0.0, 0.5, -0.5], size=(3, int(zeros.sum())))
    centers = rng.uniform(-1024, 2976, int(close.sum())).astype(np.float32)
    quarter_ulp = np.spacing(centers).astype(np.float64) / 4
    stack[:, close] = centers + np.array([[-1.0], [0.0], [1.0]]) * quarter_ulp
    narrow = stack.astype(np.float32)
    assert (narrow[0][close] == narrow[2][close]).all()
    assert (stack[0][close] != stack[2][close]).all()
    assert (np.signbit(narrow) & (narrow == 0.0)).any()
    got = pipeline._median_slabs(narrow, np.empty(narrow.shape[1:], np.float32))
    want = np.median(stack, axis=0).astype(np.float32)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    fused = fuse_median(*(Volume(v, (1, 1, 1), "HU") for v in narrow))
    assert fused.voxels.dtype == np.float32 and fused.voxels.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_median_of_three_by_min_max_is_np_median(dtype):
    # every ordering of ties, of +-0.0 triples and of large magnitudes, plus
    # random values; the slab median against np.median byte for byte
    special = [0.0, -0.0, 1.0, -1.0, 2.5, np.finfo(dtype).max, -np.finfo(dtype).max,
               np.finfo(dtype).tiny, 1e30, -1e30]
    triples = np.array([(a, b, c) for a in special for b in special for c in special], dtype)
    rng = np.random.default_rng(21)
    noise = rng.uniform(-3000, 3000, (3, 5 * SLAB + 1 - len(triples) % (5 * SLAB + 1)))
    stack = np.concatenate([triples.T, noise.astype(dtype)], axis=1)
    stack = stack.reshape(3, 5 * SLAB + 1, -1, 1)
    assert ((stack == 0.0) & np.signbit(stack)).all(axis=0).any()  # a [-0, -0, -0] triple
    got = pipeline._median_slabs(stack, np.empty(stack.shape[1:], dtype))
    want = np.median(stack, axis=0)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_fuse_median_and_translate_volume_share_the_slab_median(monkeypatch):
    calls = []
    real = pipeline._median_slabs

    def counting(planes, out):
        calls.append(out.shape)
        return real(planes, out)

    monkeypatch.setattr(pipeline, "_median_slabs", counting)
    rng = np.random.default_rng(16)
    vols = [Volume(rng.uniform(0, 1, (9, 4, 3)), (1, 1, 1), "HU", {}) for _ in range(3)]
    fuse_median(*vols)
    translate_volume(trained_2d(steps=0),
                     Volume(rng.uniform(0, 1, (8, 6, 5)), (1, 1, 1), "unit01", {}))
    assert calls == [(9, 4, 3), (8, 6, 5)]


def test_fuse_median_validates_alignment():
    rng = np.random.default_rng(5)
    a = Volume(rng.uniform(0, 1, (4, 4, 4)), (1, 1, 1), "HU", {})
    b = Volume(rng.uniform(0, 1, (4, 4, 5)), (1, 1, 1), "HU", {})
    c = Volume(rng.uniform(0, 1, (4, 4, 4)), (2, 1, 1), "HU", {})
    with pytest.raises(ShapeError):
        fuse_median(a, b, a)
    with pytest.raises(DomainError):
        fuse_median(a, c, a)


# ---------------------------------------------------------------------------
# Tri-planar translation
# ---------------------------------------------------------------------------

def trained_2d(seed=0, steps=150):
    from vqsct.phantom import generate_texture_volume
    vols = [normalize(generate_texture_volume((24, 24, 24), seed=60 + i),
                      "unit01") for i in range(3)]
    return pretrain_recon(small_config(base_channels=8), vols, steps=steps,
                          seed=seed, learning_rate=2e-3, batch_size=8).checkpoint


def test_translate_slices_pads_and_crops_odd_sizes():
    ckpt = trained_2d(steps=5)
    rng = np.random.default_rng(6)
    slices = [rng.uniform(0, 1, (10, 7)) for _ in range(3)]
    outs = translate_slices(ckpt, leaves(ckpt), slices, np.empty((3, 10, 7)))
    assert all(o.shape == (10, 7) for o in outs)
    assert all(np.isfinite(o).all() for o in outs)


def test_translate_slices_writes_views_into_a_view():
    # slices and output both views along a volume's z axis, against copies
    ckpt = trained_2d(steps=0)
    rng = np.random.default_rng(17)
    vox = rng.uniform(0, 1, (10, 7, 4))
    hu = np.full((10, 7, 4), np.nan)
    out = np.moveaxis(hu, 2, 0)
    params = leaves(ckpt)
    assert translate_slices(ckpt, params, np.moveaxis(vox, 2, 0), out) is out
    want = translate_slices(ckpt, params, [vox[:, :, z].copy() for z in range(4)],
                            np.empty((4, 10, 7)))
    assert np.ascontiguousarray(out).tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        translate_slices(ckpt, params, [vox[:, :, 0]] * 4, np.empty((3, 10, 7)))
    with pytest.raises(ShapeError):
        translate_slices(ckpt, params, [vox[:, :, 0], vox[:, :6, 1]], np.empty((2, 10, 7)))


def test_translate_slices_checks_depth_against_the_smallest_extent(monkeypatch):
    # 2^depth = 4: an extent of 4 is padded, one of 3 is refused before any
    # slice is padded
    ckpt = build_model(small_config())
    params = leaves(ckpt)
    translate_slices(ckpt, params, [np.zeros((4, 9))], np.empty((1, 4, 9)))

    def no_padding(*args, **kwargs):
        raise AssertionError("a slice was padded")

    monkeypatch.setattr(model, "pad_to_multiple", no_padding)  # graph_input's padding
    with pytest.raises(DomainError, match="depth 2"):
        translate_slices(ckpt, params, [np.zeros((9, 3))] * 2, np.empty((2, 9, 3)))
    with pytest.raises(DomainError, match="depth 2"):
        translate_volume(ckpt, Volume(np.zeros((9, 8, 3)), (1, 1, 1), "sym11", {}))


def test_translate_volume_requires_matching_space():
    ckpt = trained_2d(steps=5)  # pretrained => unit01
    rng = np.random.default_rng(7)
    vol = Volume(rng.uniform(-1, 1, (8, 8, 8)), (1, 1, 1), "sym11", {})
    with pytest.raises(DomainError):
        translate_volume(ckpt, vol)


def test_translate_volume_self_reconstruction_quality():
    # overfit one volume, then check the full slice/translate/restack/fuse
    # path reproduces it far better than a constant predictor would
    from vqsct.phantom import generate_texture_volume
    vol = generate_texture_volume((24, 24, 24), seed=99)
    normed = normalize(vol, "unit01")
    config = small_config(base_channels=8, codebook_size=32, codebook_dim=16)
    ckpt = pretrain_recon(config, [normed], steps=400, seed=0,
                          learning_rate=2e-3, batch_size=8).checkpoint
    result = translate_volume(ckpt, normed)
    clamped = np.clip(vol.voxels, HU_MIN, HU_MAX)
    fused_err = np.abs(result.fused.voxels - clamped).mean()
    mean_err = np.abs(clamped - clamped.mean()).mean()
    assert result.fused.intensity_space == "HU"
    assert fused_err < 180.0
    assert fused_err < 0.6 * mean_err
    for plane_vol in (result.axial, result.coronal, result.sagittal):
        assert plane_vol.dims == vol.dims
        assert np.abs(plane_vol.voxels - clamped).mean() < 230.0


def test_translate_volume_fused_is_per_voxel_median():
    ckpt = trained_2d(steps=20)
    rng = np.random.default_rng(8)
    vol = Volume(rng.uniform(0, 1, (12, 12, 12)), (1, 1, 1), "unit01", {})
    result = translate_volume(ckpt, vol)
    stack = np.stack([result.axial.voxels, result.coronal.voxels,
                      result.sagittal.voxels])
    assert np.array_equal(result.fused.voxels, np.median(stack, axis=0))


def test_translate_volume_matches_the_per_plane_path_bytes():
    # the planes stacked in place, and their median, against restacked
    # float64 per-plane volumes and fuse_median: each output is float32 and
    # equals the float32 cast of its float64 oracle
    ckpt = trained_2d(steps=5)
    vol = Volume(np.random.default_rng(9).uniform(0, 1, (12, 10, 9)), (1, 1, 2), "unit01", {})
    result = translate_volume(ckpt, vol)
    params = leaves(ckpt)
    planes = []
    for plane in PLANES:
        slices = slice_volume(vol, plane)
        hu = translate_slices(ckpt, params, slices, np.empty((len(slices),) + slices[0].shape))
        planes.append(Volume(restack_slices(hu, plane), vol.spacing_mm, "HU"))
    for got, want in zip((result.axial, result.coronal, result.sagittal), planes):
        assert want.voxels.dtype == np.float64 and got.voxels.dtype == np.float32
        assert got.voxels.tobytes() == want.voxels.astype(np.float32).tobytes()
        assert got.spacing_mm == want.spacing_mm and got.intensity_space == "HU"
    fused = fuse_median(*planes)
    assert fused.voxels.dtype == np.float64 and result.fused.voxels.dtype == np.float32
    assert result.fused.voxels.tobytes() == fused.voxels.astype(np.float32).tobytes()
    assert result.fused.spacing_mm == fused.spacing_mm and result.fused.meta == fused.meta


def test_translate_volume_peak_memory_is_at_most_five_input_volumes():
    # a 96^3 input: its float64 bytes against the traced peak (about 4.5x: the
    # [3, *dims] stack and the fused volume; 8.1x with a copy of each plane's
    # slices, a list of its HU slices and median's copy of the whole stack)
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(12).uniform(0, 1, (96, 96, 96)), (1, 1, 1),
                 "unit01", {})
    tracemalloc.start()
    try:
        translate_volume(ckpt, vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * vol.voxels.nbytes, peak / vol.voxels.nbytes


def test_translate_volume_holds_float32_planes_and_fused_volume():
    # a float32 input, as normalize gives it for a read volume: the [3, *dims]
    # stack and the fused volume are float32 (about 2.3x the input's float64
    # bytes; 4.5x when both were float64)
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(19).uniform(0, 1, (96, 96, 96)).astype(np.float32),
                 (1, 1, 1), "unit01", {})
    float64_bytes = 2 * vol.voxels.nbytes
    tracemalloc.start()
    try:
        result = translate_volume(ckpt, vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.voxels.dtype == np.float32 for v in
               (result.axial, result.coronal, result.sagittal, result.fused))
    assert peak <= 3 * float64_bytes, peak / float64_bytes


def test_translate_volume_collapses_each_decoder_weight_once(monkeypatch):
    # once per call, before the fork, at any worker count: the collapses are
    # counted in shared memory, so a forked worker's would be counted too
    ckpt = trained_2d(steps=0)
    shapes = [ckpt.params[f"dec.{i}.w"].shape for i in range(ckpt.config.depth)]
    assert len(set(shapes)) == len(shapes)
    collapsed = worker_pool.shared_array((len(shapes),), np.int64)
    real = ag._phase_kernels

    def counting(w):
        collapsed[shapes.index(w.shape)] += 1
        return real(w)

    monkeypatch.setattr(ag, "_phase_kernels", counting)
    vol = Volume(np.random.default_rng(13).uniform(0, 1, (12, 10, 9)), (1, 1, 1), "unit01", {})
    for workers in (1, 2):
        collapsed[...] = 0
        translate_volume(ckpt, vol, workers)
        assert collapsed.tolist() == [1] * len(shapes), workers
    params = leaves(ckpt)
    collapsed[...] = 0
    translate_slices(ckpt, params, slice_volume(vol, "axial"), np.empty((9, 12, 10)))
    assert collapsed.tolist() == [0] * len(shapes)  # it runs over the caller's kernels


# ---------------------------------------------------------------------------
# 3D cube reconstruction
# ---------------------------------------------------------------------------

def trained_3d(steps=60):
    from vqsct.phantom import generate_texture_volume
    vols = [normalize(generate_texture_volume((16, 16, 16), seed=70 + i),
                      "unit01") for i in range(2)]
    return pretrain_recon(small_config(rank=3), vols, steps=steps, seed=0,
                          learning_rate=1e-3, batch_size=4,
                          cube_edge=8).checkpoint


def test_reconstruct_cubes_shapes_and_space():
    ckpt = trained_3d(steps=5)
    rng = np.random.default_rng(9)
    vol = Volume(rng.uniform(0, 1, (20, 18, 10)), (1, 1, 1), "unit01", {})
    out = reconstruct_cubes(ckpt, vol, edge=8)
    assert out.dims == vol.dims
    assert out.intensity_space == "HU"


def test_inference_builds_float32_leaves_once_per_command(monkeypatch):
    # builds, and float32 ones, counted in shared memory so that a forked
    # worker's would be counted too; the convs of this process's claims
    builds = worker_pool.shared_array((2,), np.int64)
    builds[...] = 0
    conv_dtypes = set()
    real_fwd = ag.conv_forward_data

    def counting(ckpt, dtype=np.float64):
        builds[0] += 1
        builds[1] += dtype == np.float32
        return param_tensors(ckpt, dtype)

    def fwd(x, w, b=None, stride=1, pad=0):
        conv_dtypes.update(a.dtype for a in (x, w, b) if a is not None)
        return real_fwd(x, w, b, stride, pad)

    monkeypatch.setattr(pipeline, "param_tensors", counting)
    monkeypatch.setattr(ag, "conv_forward_data", fwd)
    rng = np.random.default_rng(11)
    ckpt_2d, ckpt_3d = trained_2d(steps=0), trained_3d(steps=0)
    vol = Volume(rng.uniform(0, 1, (20, 18, 10)), (1, 1, 1), "unit01", {})
    for workers in (1, 2):
        planes = translate_volume(ckpt_2d, vol, workers)
        assert builds.tolist() == [2 * workers - 1] * 2, workers
        cubes = reconstruct_cubes(ckpt_3d, vol, edge=8, workers=workers)
        assert builds.tolist() == [2 * workers] * 2, workers
        assert planes.fused.voxels.dtype == cubes.voxels.dtype == np.float32
    assert conv_dtypes == {np.dtype(np.float32)}


@pytest.mark.parametrize("dims", [(96, 96, 96), (70, 45, 50)])
@pytest.mark.parametrize("edge", [16, 32])
def test_reconstruct_cubes_matches_the_stitched_path(dims, edge):
    ckpt = trained_3d(steps=2)
    vol = Volume(np.random.default_rng(14).uniform(0, 1, dims), (1, 1, 1), "unit01", {})
    out = reconstruct_cubes(ckpt, vol, edge=edge)
    want = reconstruct_cubes_stitched(ckpt, vol, edge)
    assert want.dtype == np.float64 and out.voxels.dtype == np.float32
    assert out.voxels.tobytes() == want.astype(np.float32).tobytes()


def test_reconstruct_cubes_memory_is_bounded_by_a_few_inputs():
    # the output volume, one cube's graph and the parameters; no stitched,
    # padded, cropped or HU copy of the whole volume
    ckpt = trained_3d(steps=0)
    vol = Volume(np.random.default_rng(15).uniform(0, 1, (96, 96, 96)), (1, 1, 1),
                 "unit01", {})
    tracemalloc.start()
    try:
        reconstruct_cubes(ckpt, vol, edge=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * vol.voxels.nbytes, peak / vol.voxels.nbytes


def test_a_one_worker_reconstruct_command_keeps_its_heap(tmp_path):
    # a fresh `vqsct --threads 1 reconstruct` of a 96^3 CT at edge 32 with
    # perfbench's volumetric model: each cube's graph is built below the last
    # cube's held output and reuses the heap (about 10.4k minor faults, 4.9k
    # of them imports); with the output freed first, glibc trims the heap top
    # and every cube faults its pages in again (about 66k). Smaller volumes or
    # edges, or a warm call in this process, do not show the difference.
    ckpt, ct, out = (str(tmp_path / name) for name in ("vol.vqck", "ct.mvol", "rec.mvol"))
    model.save_checkpoint(build_model(ModelConfig(
        spatial_rank=3, depth=2, base_channels=8, pyramid_levels=2, codebook_size=32,
        codebook_dim=16)), ckpt)
    write_volume(Volume(np.random.default_rng(16).uniform(HU_MIN, HU_MAX, (96, 96, 96)),
                        (1, 1, 1), "HU", {}), ct)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "vqsct.cli", "--threads", "1", "reconstruct",
                    "--ckpt", ckpt, "--ct", ct, "--edge", "32", "--out", out],
                   env=env, check=True, timeout=120)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert faults < 25_000, faults


def test_reconstruct_cubes_validates_edge_and_rank():
    ckpt = trained_3d(steps=0)
    rng = np.random.default_rng(10)
    vol = Volume(rng.uniform(0, 1, (16, 16, 16)), (1, 1, 1), "unit01", {})
    with pytest.raises(DomainError):
        reconstruct_cubes(ckpt, vol, edge=10)  # not divisible by 2^depth
    ckpt2d = trained_2d(steps=0)
    with pytest.raises(DomainError):
        reconstruct_cubes(ckpt2d, vol, edge=8)
    with pytest.raises(DomainError):
        translate_volume(ckpt, vol)  # 3D model cannot run the planar path


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The number of times ``os.fork`` returned into the caller."""
    calls = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _translated_bytes(result):
    return [v.voxels.tobytes() for v in (result.axial, result.coronal, result.sagittal,
                                         result.fused)]


@pytest.mark.parametrize("tasks", [1, 2, 7, 60, 165, 5000])
@pytest.mark.parametrize("workers", [2, 3, 13, 100])
def test_claims_cover_every_task_once_in_order(tasks, workers):
    claims = worker_pool._claims(tasks, workers)
    assert len(claims) == min(tasks, worker_pool._CLAIMS_PER_WORKER * workers,
                              worker_pool._MAX_CLAIMS)
    assert claims[0][0] == 0 and claims[-1][1] == tasks
    assert all(a[1] == b[0] for a, b in zip(claims, claims[1:]))
    sizes = {hi - lo for lo, hi in claims}
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    # a round's tokens, its claims and one end token per process, fit one
    # page of the pipe before any worker reads them
    processes = worker_pool.pool_size(tasks, workers, 1)
    assert (len(claims) + processes) * worker_pool._TOKEN <= 4096


def test_pool_size_caps_workers_by_tasks_claims_and_free_memory(monkeypatch):
    case = 96 * 32 ** 3  # one 32^3 phantom case
    for tasks, workers, free, task_bytes, size in [
            (16, 3, None, case, 3), (2, 8, None, case, 2),  # by workers, by tasks
            (1000, 1000, None, 1, worker_pool._MAX_CLAIMS),
            (16, 16, 0, case, 1),  # no free memory still leaves one process
            (16, 16, 3 * case, case, 3), (16, 16, 3 * case - 1, case, 2),
            (16, 16, 8 << 30, 96 * 512 ** 3, 1),  # 8 GiB against a 512^3 case
            (16, 16, None, 96 * 512 ** 3, 16)]:
        monkeypatch.setattr(worker_pool, "_free_bytes", lambda: free)
        assert worker_pool.pool_size(tasks, workers, task_bytes) == size
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert worker_pool.pool_size(16, 16, 1) == 1
    finally:
        release.set()
        other.join()


def test_a_pool_of_no_tasks_forks_nothing_and_its_round_returns(forks):
    # a pool sizes itself to one process at least: with none, no end token
    # would be written and the round would wait on the queue forever
    def expired(signum, frame):
        raise TimeoutError("the round did not return")

    ran = []
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    try:
        with worker_pool.Pool(lambda lo, hi: ran.append((lo, hi)), 3, 0, 1) as pool:
            pool.round()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert ran == [(0, 0)] and forks == []


def test_no_tasks_fork_nothing(forks):
    # a volume with a zero extent has no cubes: nothing forks, as at one worker
    vol = Volume(np.zeros((0, 8, 8)), (1, 1, 1), "unit01", {})
    assert reconstruct_cubes(trained_3d(steps=0), vol, edge=8, workers=3).dims == (0, 8, 8)
    assert forks == []


@pytest.mark.parametrize("dims,many", [((96, 96, 96), None), ((70, 45, 50), None),
                                       ((8, 8, 8), 25)])
def test_translate_volume_bytes_do_not_depend_on_workers(forks, dims, many):
    # all four volumes at 1, 2 and 3 workers; "many" (more workers than the 24
    # slices) only on a small grid, where it forks one child per slice
    ckpt = trained_2d(steps=2)
    vol = Volume(np.random.default_rng(22).uniform(0, 1, dims).astype(np.float32),
                 (1, 1, 2), "unit01", {})
    want = _translated_bytes(translate_volume(ckpt, vol))
    assert forks == []
    for workers in ([many] if many else [2, 3]):
        del forks[:]
        assert _translated_bytes(translate_volume(ckpt, vol, workers)) == want
        assert len(forks) == min(workers, sum(dims)) - 1
        assert _no_child_left()


@pytest.mark.parametrize("edge,workers", [(16, 2), (16, 3), (32, 2), (32, 3), (32, 13)])
def test_reconstruct_cubes_bytes_do_not_depend_on_workers(forks, edge, workers):
    # 70x45x50 holds 60 cubes of edge 16 and 12 of edge 32
    ckpt = trained_3d(steps=2)
    vol = Volume(np.random.default_rng(23).uniform(0, 1, (70, 45, 50)), (1, 1, 1),
                 "unit01", {})
    want = reconstruct_cubes(ckpt, vol, edge=edge).voxels.tobytes()
    assert forks == []
    assert reconstruct_cubes(ckpt, vol, edge=edge, workers=workers).voxels.tobytes() == want
    assert len(forks) == min(workers, 12 if edge == 32 else 60) - 1
    assert _no_child_left()


def test_select_checkpoint_does_not_depend_on_workers(forks, monkeypatch):
    from vqsct.training import select_checkpoint

    outputs = []
    for name in ("translate_volume", "reconstruct_cubes"):
        real = getattr(pipeline, name)

        def recording(*args, _real=real, **kwargs):
            result = _real(*args, **kwargs)
            outputs.append(getattr(result, "fused", result).voxels.tobytes())
            return result

        monkeypatch.setattr(pipeline, name, recording)
    candidates = [trained_2d(steps=0), trained_2d(steps=2), trained_3d(steps=2)]
    vols = [hu_volume(np.random.default_rng(24), dims) for dims in [(20, 18, 16), (16, 24, 20)]]
    picks, runs = [], []
    for workers in (1, 2, 3):
        del outputs[:]
        picks.append(select_checkpoint(candidates, vols, cube_edge=8, workers=workers))
        runs.append(list(outputs))
    assert len(runs[0]) == 6 and runs[0] == runs[1] == runs[2]
    assert picks[0] is picks[1] is picks[2]
    assert len(forks) == 6 * 1 + 6 * 2 and _no_child_left()


def test_one_worker_or_a_second_live_thread_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork was called")

    ckpt, ckpt3 = trained_2d(steps=2), trained_3d(steps=2)
    vol = Volume(np.random.default_rng(25).uniform(0, 1, (20, 18, 16)), (1, 1, 1),
                 "unit01", {})
    want = _translated_bytes(translate_volume(ckpt, vol))
    cubes = reconstruct_cubes(ckpt3, vol, edge=8).voxels.tobytes()
    monkeypatch.setattr(os, "fork", no_fork)
    assert _translated_bytes(translate_volume(ckpt, vol, 1)) == want
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _translated_bytes(translate_volume(ckpt, vol, 3)) == want
        assert reconstruct_cubes(ckpt3, vol, edge=8, workers=3).voxels.tobytes() == cubes
    finally:
        release.set()
        other.join()


def _failing_input(monkeypatch, kind, fail):
    """Patch ``graph_input`` to fail with ``kind`` on the slices ``fail`` picks."""
    real = pipeline.graph_input

    def failing(config, values, space):
        if fail(values):
            if kind == "domain":
                raise DomainError(f"slice of shape {values.shape}, max {float(values.max())}")
            if kind == "memory":
                np.empty(1 << 50)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config, values, space)

    monkeypatch.setattr(pipeline, "graph_input", failing)


@pytest.mark.parametrize("late", [False, True], ids=["in-order", "earlier-fails-later"])
@pytest.mark.parametrize("kind", ["domain", "memory"])
def test_worker_error_is_the_serial_error_of_the_earliest_failed_claim(monkeypatch, kind, late):
    # coronal slice y=10 (task 80) and sagittal slice x=30 (task 145) of
    # 70x45x50 fail; the serial path raises the coronal error first, and so
    # must the pool, whichever process takes which claim, also when the
    # coronal slice fails half a second after the sagittal one
    ckpt = trained_2d(steps=0)
    voxels = np.random.default_rng(26).uniform(0, 1, (70, 45, 50)).astype(np.float32)
    voxels[5, 10, 5], voxels[30, 40, 40] = 7.0, 8.0
    vol = Volume(voxels, (1, 1, 1), "unit01", {})
    marked = {(70, 50): 7.0, (45, 50): 8.0}
    _failing_input(monkeypatch, kind, lambda v: marked.get(v.shape) == v.max())
    if late:
        failing = pipeline.graph_input

        def coronal_late(config, values, space):
            if values.shape == (70, 50) and values.max() == 7.0:
                time.sleep(0.5)
            return failing(config, values, space)

        monkeypatch.setattr(pipeline, "graph_input", coronal_late)
    messages = []
    for workers in (1, 2, 3):
        with pytest.raises(DomainError if kind == "domain" else MemoryError) as err:
            translate_volume(ckpt, vol, workers)
        messages.append(str(err.value))
        assert _no_child_left()
    assert messages[0] == messages[1] == messages[2]
    if kind == "domain":
        assert messages[0] == "slice of shape (70, 50), max 7.0"


def test_killed_worker_is_an_error_and_is_reaped(monkeypatch, forks):
    parent = os.getpid()
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(27).uniform(0, 1, (16, 16, 16)), (1, 1, 1),
                 "unit01", {})
    _failing_input(monkeypatch, "kill", lambda v: os.getpid() != parent)
    with pytest.raises(VqsctError, match="^a worker process was killed by SIGKILL$"):
        translate_volume(ckpt, vol, 2)
    assert len(forks) == 1 and _no_child_left()


def _slow_children(monkeypatch, seconds, once=False):
    """Patch ``graph_input`` so that forked children sleep ``seconds`` per
    slice (only before their first one if ``once``); returns a pipe's read
    end on which each slice writes its process's pid."""
    parent = os.getpid()
    real = pipeline.graph_input
    read_fd, write_fd = os.pipe()
    slept = []

    def slow(config, values, space):
        os.write(write_fd, os.getpid().to_bytes(4, "little"))
        if os.getpid() != parent and not (once and slept):
            slept.append(True)
            time.sleep(seconds)
        return real(config, values, space)

    monkeypatch.setattr(pipeline, "graph_input", slow)
    return read_fd, write_fd


def _pids(read_fd, write_fd):
    os.close(write_fd)
    data = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
    os.close(read_fd)
    return [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)]


def test_a_slower_worker_takes_fewer_claims(monkeypatch):
    # 48 slices on 2 workers: a child slowed to 0.1 s a slice translates a
    # few while the parent takes the rest, where fixed halves would make the
    # child translate 24 (2.4 s); the bytes are those of one worker
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(29).uniform(0, 1, (16, 16, 16)), (1, 1, 1),
                 "unit01", {})
    want = _translated_bytes(translate_volume(ckpt, vol))
    fds = _slow_children(monkeypatch, 0.1)
    start = time.perf_counter()
    assert _translated_bytes(translate_volume(ckpt, vol, 2)) == want
    elapsed = time.perf_counter() - start
    pids = _pids(*fds)
    assert len(pids) == 48 and len(set(pids)) == 2
    assert pids.count(os.getpid()) > 36 and elapsed < 1.5
    assert _no_child_left()


def test_failed_claim_stops_every_worker_after_the_claim_it_holds(monkeypatch):
    # the parent fails its first slice; the children, at 0.5 s a slice, stop
    # after the claim each holds instead of translating the other 47 slices
    parent = os.getpid()
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(28).uniform(0, 1, (16, 16, 16)), (1, 1, 1),
                 "unit01", {})
    fds = _slow_children(monkeypatch, 0.5)
    slow = pipeline.graph_input

    def parent_fails(config, values, space):
        if os.getpid() == parent:
            raise DomainError("the parent's claim failed")
        return slow(config, values, space)

    monkeypatch.setattr(pipeline, "graph_input", parent_fails)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="the parent's claim failed"):
        translate_volume(ckpt, vol, 3)
    assert time.perf_counter() - start < 4
    assert len(_pids(*fds)) <= 2 and _no_child_left()


def test_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    # each child sleeps 40 s in its first slice: it is still running when the
    # parent is interrupted, and must be killed rather than waited for
    parent = os.getpid()
    ckpt = trained_2d(steps=0)
    vol = Volume(np.random.default_rng(30).uniform(0, 1, (16, 16, 16)), (1, 1, 1),
                 "unit01", {})
    fds = _slow_children(monkeypatch, 40, once=True)
    slow = pipeline.graph_input

    def interrupted(config, values, space):
        if os.getpid() == parent:
            time.sleep(0.2)  # the children have taken their first claims
            raise KeyboardInterrupt
        return slow(config, values, space)

    monkeypatch.setattr(pipeline, "graph_input", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        translate_volume(ckpt, vol, 3)
    assert time.perf_counter() - start < 30
    _pids(*fds)
    assert _no_child_left()
