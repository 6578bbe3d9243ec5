"""Volume container, file format, symmetry, and tiling checks."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from oracles import array_symmetry
from vqsct.errors import DomainError, FormatError, ShapeError
from vqsct.phantom import generate_phantom_pair
from vqsct.volume import (HU_MAX, HU_MIN, N_GRID_SYMMETRIES, NORMALIZED_AIR,
                          PET_REFERENCE_PERCENTILE, SLAB, Volume, _linear_percentile,
                          activity_to_normalized, apply_cube_symmetry,
                          apply_plane_symmetry, extract_cubes, hu_to_normalized, normalize,
                          normalized_to_hu, pad_to_multiple, read_volume,
                          stitch_cubes, write_volume)


def random_volume(rng, dims=(6, 5, 4), space="HU"):
    scale = 1000.0 if space == "HU" else 1.0
    return Volume(scale * rng.standard_normal(dims),
                  tuple(rng.uniform(0.5, 3.0, 3)), space, {})


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------

def test_volume_requires_3d_finite_voxels():
    with pytest.raises(ShapeError):
        Volume(np.zeros((4, 4)), (1, 1, 1), "HU", {})
    bad = np.zeros((3, 3, 3))
    bad[1, 1, 1] = np.nan
    with pytest.raises(DomainError):
        Volume(bad, (1, 1, 1), "HU", {})


def test_volume_requires_positive_spacing_and_known_space():
    with pytest.raises(DomainError):
        Volume(np.zeros((3, 3, 3)), (1, 0, 1), "HU", {})
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            Volume(np.zeros((3, 3, 3)), (1, bad, 1), "HU", {})
    with pytest.raises(DomainError):
        Volume(np.zeros((3, 3, 3)), (1, 1, 1), "kelvin", {})


def _wrong_space_sites(tmp_path):
    """Each library site that needs a volume in one intensity space, given one
    in another: ``(call, what, actual, expected)``."""
    from vqsct import cli
    from vqsct.evaluation import body_contour, evaluate_case
    from vqsct.model import ModelConfig, build_model
    from vqsct.pipeline import reconstruct_cubes, translate_volume
    from vqsct.training import pretrain_recon, select_checkpoint

    config = ModelConfig(depth=2, base_channels=4, codebook_size=8, codebook_dim=6)
    ckpt2d = build_model(config)  # a scratch model runs in sym11
    ckpt3d = build_model(ModelConfig(spatial_rank=3, depth=2, base_channels=4,
                                     codebook_size=8, codebook_dim=6))
    hu = Volume(np.zeros((8, 8, 8)), (1, 1, 1), "HU")
    unit = Volume(np.zeros((8, 8, 8)), (1, 1, 1), "unit01")
    path = tmp_path / "ct.mvol"
    write_volume(hu, path)
    return {
        "cli": (lambda: cli._read_space(path, "--pet", "activity"),
                f"--pet {path}", "HU", "activity"),
        "body-contour": (lambda: body_contour(unit), "the body contour's CT", "unit01", "HU"),
        "evaluate-pred": (lambda: evaluate_case(unit, hu), "the predicted volume",
                          "unit01", "HU"),
        "evaluate-gt": (lambda: evaluate_case(hu, unit), "the true volume", "unit01", "HU"),
        "translate": (lambda: translate_volume(ckpt2d, unit), "the volume to translate",
                      "unit01", "sym11"),
        "reconstruct": (lambda: reconstruct_cubes(ckpt3d, unit, edge=8),
                        "the volume to reconstruct", "unit01", "sym11"),
        "pretrain": (lambda: pretrain_recon(config, [hu], steps=0, seed=0),
                     "a pretraining volume", "HU", "unit01"),
        "select": (lambda: select_checkpoint([ckpt2d], [unit]), "an evaluation volume",
                   "unit01", "HU"),
    }


@pytest.mark.parametrize("site", ["cli", "body-contour", "evaluate-pred", "evaluate-gt",
                                  "translate", "reconstruct", "pretrain", "select"])
def test_every_intensity_space_check_raises_the_one_wording(tmp_path, site):
    call, what, actual, expected = _wrong_space_sites(tmp_path)[site]
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == f"{what} holds {actual} voxels, expected {expected}"
    vol = Volume(np.zeros((2, 2, 2)), (1, 1, 1), expected)
    assert vol.check_space(expected, what) is vol


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_mvol_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume(rng.standard_normal((7, 6, 5)).astype(np.float32).astype(np.float64),
                 (1.5, 2.0, 2.5), "HU", {"case": "a1"})
    path = tmp_path / "v.mvol"
    write_volume(vol, path)
    back = read_volume(path)
    assert np.array_equal(back.voxels, vol.voxels)
    assert back.spacing_mm == vol.spacing_mm
    assert back.intensity_space == "HU"
    assert back.meta["case"] == "a1"


def test_mvol_layout_is_x_fastest_little_endian_f32(tmp_path):
    vol = Volume(np.arange(24, dtype=np.float64).reshape(2, 3, 4),
                 (1, 1, 1), "unit01", {})
    path = tmp_path / "v.mvol"
    write_volume(vol, path)
    raw = path.read_bytes()
    assert raw[:8] == b"MVOL0001"
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    assert header["dims"] == [2, 3, 4]
    payload = np.frombuffer(raw[12 + header_len:], dtype="<f4")
    # x varies fastest: walking the payload must match column-major order
    assert np.array_equal(payload.astype(np.float64),
                          vol.voxels.ravel(order="F"))


def test_mvol_payload_written_by_slab_is_the_one_shot_bytes(tmp_path):
    # 70 z-planes: the last slab is a partial one
    vol = Volume(np.random.default_rng(4).uniform(-1000, 3000, (90, 74, 70)),
                 (1, 1, 1), "HU", {})
    assert 70 % SLAB
    path = tmp_path / "v.mvol"
    write_volume(vol, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    assert raw[12 + header_len:] == vol.voxels.astype("<f4").ravel(order="F").tobytes()


def test_mvol_rejects_bad_magic_and_truncation(tmp_path):
    vol = Volume(np.zeros((3, 3, 3)), (1, 1, 1), "HU", {})
    path = tmp_path / "v.mvol"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.mvol"
    bad.write_bytes(b"XXXX0001" + bytes(raw[8:]))
    with pytest.raises(FormatError):
        read_volume(bad)
    short = tmp_path / "short.mvol"
    short.write_bytes(bytes(raw[:-5]))
    with pytest.raises(FormatError):
        read_volume(short)


# ---------------------------------------------------------------------------
# Intensity normalization
# ---------------------------------------------------------------------------

def test_hu_normalization_hits_contract_anchors():
    vals = np.array([-1024.0, 976.0, 2976.0])
    assert np.allclose(hu_to_normalized(vals, "unit01"), [0.0, 0.5, 1.0])
    assert np.allclose(hu_to_normalized(vals, "sym11"), [-1.0, 0.0, 1.0])


def test_normalized_air_is_clamped_air_and_zero_activity():
    for mode in ("unit01", "sym11"):
        assert NORMALIZED_AIR[mode] == hu_to_normalized(np.array([-3000.0]), mode)[0]
        assert NORMALIZED_AIR[mode] == activity_to_normalized(np.array([0.0]), 5.0, mode)[0]
    assert NORMALIZED_AIR == {"unit01": 0.0, "sym11": -1.0}


def test_hu_normalization_clamps_out_of_range():
    vals = np.array([-5000.0, 5000.0])
    assert np.allclose(hu_to_normalized(vals, "unit01"), [0.0, 1.0])


def test_hu_round_trip_within_tolerance():
    rng = np.random.default_rng(2)
    vals = rng.uniform(HU_MIN, HU_MAX, 1000)
    for mode in ("unit01", "sym11"):
        back = normalized_to_hu(hu_to_normalized(vals, mode), mode)
        assert np.max(np.abs(back - vals)) < 1e-3


def test_hu_clamping_is_monotone():
    vals = np.linspace(-3000, 5000, 501)
    normed = hu_to_normalized(vals, "unit01")
    assert np.all(np.diff(normed) >= 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["unit01", "sym11"])
def test_intensity_maps_in_place_match_their_expressions(dtype, mode):
    # each map clips into a new array and maps it in place: the same
    # operations on the same operands as the one-expression forms
    rng = np.random.default_rng(17)
    hu = np.concatenate([rng.uniform(-3000, 5000, 400), [-0.0, 0.0, HU_MIN, HU_MAX]])
    hu = hu.astype(dtype)
    lo, hi = (0.0, 1.0) if mode == "unit01" else (-1.0, 1.0)
    maps = [
        (hu_to_normalized(hu, mode),
         lo + (np.clip(hu, HU_MIN, HU_MAX) - HU_MIN) * ((hi - lo) / (HU_MAX - HU_MIN))),
        (normalized_to_hu(hu / 2000, mode),
         HU_MIN + (np.clip(hu / 2000, lo, hi) - lo) * ((HU_MAX - HU_MIN) / (hi - lo))),
        (activity_to_normalized(np.abs(hu) / 700, 5.0, mode),
         lo + np.clip(np.abs(hu) / 700, 0.0, 5.0) * ((hi - lo) / 5.0)),
    ]
    for got, want in maps:
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


def test_activity_normalization_round_trip():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0, 5.0, 500)
    normed = activity_to_normalized(vals, 5.0, "sym11")
    assert normed.min() >= -1.0 and normed.max() <= 1.0
    # the affine map onto [-1, 1], inverted by hand
    assert np.allclose((normed + 1.0) * (5.0 / 2.0), vals, atol=1e-9)


def test_activity_normalize_uses_percentile_reference():
    rng = np.random.default_rng(4)
    vox = rng.uniform(0, 2.0, (20, 20, 20))
    vol = Volume(vox, (1, 1, 1), "activity", {})
    out = normalize(vol, "unit01")
    ref = float(np.percentile(vox, 99.5))
    assert out.meta["norm_ref"] == pytest.approx(ref)
    assert out.meta["norm_source"] == "activity"
    assert out.voxels.max() == pytest.approx(1.0)
    assert np.allclose(out.voxels * ref, np.clip(vox, 0, ref), atol=1e-12)


def test_normalize_hu_then_denormalize_restores_clamped_hu():
    rng = np.random.default_rng(5)
    vol = random_volume(rng, (6, 6, 6), "HU")
    out = normalize(vol, "sym11")
    assert out.meta["norm_source"] == "HU" and "norm_ref" not in out.meta
    back = normalized_to_hu(out.voxels, "sym11")
    assert np.allclose(back, np.clip(vol.voxels, HU_MIN, HU_MAX),
                       atol=1e-9)


# ---------------------------------------------------------------------------
# Volumes as stored: float32 voxels, float64 one slab at a time
# ---------------------------------------------------------------------------

def test_volume_keeps_float32_and_widens_anything_else():
    f32 = np.zeros((3, 4, 5), np.float32)
    assert Volume(f32).voxels is f32
    f64 = np.zeros((3, 4, 5))
    assert Volume(f64).voxels is f64
    for dtype in (np.float16, np.int16, ">f4"):
        assert Volume(np.zeros((3, 4, 5), dtype)).voxels.dtype == np.float64
    f32[1, 2, 3] = np.inf
    with pytest.raises(DomainError):
        Volume(f32)


def test_read_volume_hands_over_the_float32_payload(tmp_path):
    vol = random_volume(np.random.default_rng(20), (7, 6, 5))
    path = tmp_path / "v.mvol"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.voxels.dtype == np.float32 and back.voxels.flags.f_contiguous
    assert back.voxels.tobytes() == vol.voxels.astype(np.float32).tobytes()
    with pytest.raises(ValueError):
        back.voxels[0, 0, 0] = 1.0  # a read-only view of the file's bytes
    assert back.copy().voxels.flags.writeable


def _percentile_inputs(q):
    """float32 inputs for the percentile check at ``q``.

    Random sizes: spread values, a few distinct values (heavy ties), or tiny
    values up to the lower neighbour and huge ones from the upper, so that
    their difference rounds and each side of the two-sided lerp shows. Then
    one value, two, all values equal, a tie across the two neighbours, and
    96^3 Fortran-ordered grids as read: spread, and mostly zero background
    with a few distinct values, as a PET holds.
    """
    rng = np.random.default_rng(21)
    for trial in range(300):
        n = int(rng.integers(1, 3001))
        if trial % 3 == 0:
            values = rng.gamma(2.0, 1.5, n)
        elif trial % 3 == 1:
            values = rng.choice(rng.uniform(0, 5, int(rng.integers(1, 5))), n)
        else:
            tiny = min(int((n - 1) * (q / 100)) + 1, n)
            values = rng.permutation(np.concatenate(
                [rng.uniform(1, 2, tiny) * 1e-20, rng.uniform(1, 2, n - tiny) * 1e20]))
        x = values.astype(np.float32)
        if n % 6 == 0:  # a Fortran-ordered 3D grid, as read
            x = np.asfortranarray(x.reshape(2, 3, n // 6))
        yield x
    yield np.float32([7.25])
    yield rng.uniform(0, 5, 2).astype(np.float32)
    yield np.full(1000, 2.5, np.float32)
    yield rng.permutation(np.float32([1.0] * 500 + [3.0] * 500 + [2.0]))
    yield np.asfortranarray(rng.gamma(2.0, 1.5, (96, 96, 96)).astype(np.float32))
    yield np.asfortranarray((rng.random((96, 96, 96)) < 0.3)
                            * rng.choice(np.float32([0.5, 1.0, 4.0]), (96, 96, 96)))


@pytest.mark.parametrize("q", [0, 0.5, 50, 99.5, 100])
def test_linear_percentile_is_np_percentile_of_the_widened_values(q):
    for x in _percentile_inputs(q):
        got = _linear_percentile(x, q)
        want = np.percentile(x.astype(np.float64), q)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x.shape, q)


@pytest.mark.parametrize("space", ["HU", "activity"])
@pytest.mark.parametrize("mode", ["unit01", "sym11"])
def test_normalize_float32_is_the_cast_of_normalize_of_its_widening(space, mode):
    # a partial last slab, and values beyond each space's window
    rng = np.random.default_rng(22)
    dims = (13, 11, 2 * SLAB + 3)
    if space == "HU":
        values = rng.uniform(-1500, 3500, dims)
    else:
        values = rng.gamma(2.0, 1.5, dims) * (rng.random(dims) < 0.8)
    f32 = np.asfortranarray(values.astype(np.float32))  # x fastest, as read
    got = normalize(Volume(f32, (1, 1, 2), space, {"case": 1}), mode)
    widened = f32.astype(np.float64)
    want = normalize(Volume(widened, (1, 1, 2), space, {"case": 1}), mode)
    assert got.voxels.dtype == np.float32 and want.voxels.dtype == np.float64
    assert got.voxels.tobytes() == want.voxels.astype(np.float32).tobytes()
    assert got.meta == want.meta and got.intensity_space == mode
    # the float64 path maps the whole widened volume as one expression did
    if space == "HU":
        whole = hu_to_normalized(widened, mode)
    else:
        reference = float(np.percentile(widened, PET_REFERENCE_PERCENTILE))
        assert want.meta["norm_ref"] == reference
        whole = activity_to_normalized(widened, reference, mode)
    assert want.voxels.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kind, bound", [("pet", 3.2), ("ct", 2.6)])
def test_load_path_peak_memory_is_bounded_by_its_float32_result(tmp_path, kind, bound):
    # read and normalize a 96^3 volume: the file's bytes, the float32 result
    # and (PET) a float32 copy to partition; no whole-volume float64 copy
    ct, pet, _ = generate_phantom_pair((96, 96, 96), seed=11)
    path = tmp_path / "v.mvol"
    write_volume(pet if kind == "pet" else ct, path)
    del ct, pet
    tracemalloc.start()
    try:
        normed = normalize(read_volume(path), "sym11")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert normed.voxels.dtype == np.float32
    assert peak <= bound * normed.voxels.nbytes, peak / normed.voxels.nbytes


# ---------------------------------------------------------------------------
# Grid symmetries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rank", [2, 3])
def test_grid_symmetries_are_distinct_invertible_and_checked(rank):
    # every voxel of the marker is distinct, so keeping its sorted values
    # means the map permutes voxels, which makes it invertible
    apply = apply_plane_symmetry if rank == 2 else apply_cube_symmetry
    assert N_GRID_SYMMETRIES[rank] == {2: 8, 3: 48}[rank]
    marker = np.arange(3.0 ** rank).reshape((3,) * rank)
    seen = set()
    for element in range(N_GRID_SYMMETRIES[rank]):
        moved = apply(marker, element)
        seen.add(moved.tobytes())
        assert np.array_equal(np.sort(moved, axis=None), marker.ravel()), element
    assert len(seen) == N_GRID_SYMMETRIES[rank]
    item = np.random.default_rng(6).standard_normal((4, 5, 6)[:rank])
    assert np.array_equal(apply(item, 0), item)
    for element in (-1, N_GRID_SYMMETRIES[rank]):
        with pytest.raises(DomainError):
            apply(marker, element)
    for wrong in (marker[0], marker[None]):  # an axis too few, and a [C, *S] item
        with pytest.raises(ShapeError):
            apply(wrong, 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rank", [2, 3])
def test_grid_symmetry_matches_the_per_channel_stack(rank, dtype):
    # odd, unequal extents, so every permutation changes the shape; each
    # channel of a [C, *S] stack, moved on its own, is the oracle's
    apply = apply_plane_symmetry if rank == 2 else apply_cube_symmetry
    item = np.random.default_rng(12).standard_normal((2, 5, 3, 7)[:rank + 1]).astype(dtype)
    for element in range(N_GRID_SYMMETRIES[rank]):
        for channel in item:
            got = apply(channel, element)
            want = array_symmetry(channel, element)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape, element
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), element


def test_cube_symmetries_are_distinct_and_invertible():
    # every voxel of the marker is distinct, so keeping the sorted values
    # means the map permutes voxels, which makes it invertible
    marker = np.arange(27.0).reshape(3, 3, 3)
    seen = set()
    for element in range(48):
        moved = apply_cube_symmetry(marker, element)
        seen.add(moved.tobytes())
        assert np.array_equal(np.sort(moved, axis=None), marker.ravel()), element
    assert len(seen) == 48


def test_cube_symmetry_identity_element():
    rng = np.random.default_rng(6)
    vox = rng.standard_normal((4, 5, 6))
    assert np.array_equal(apply_cube_symmetry(vox, 0), vox)


def test_cube_symmetry_rejects_bad_element():
    with pytest.raises(DomainError):
        apply_cube_symmetry(np.zeros((3, 3, 3)), 48)


# ---------------------------------------------------------------------------
# Padding and cube tiling
# ---------------------------------------------------------------------------

def test_pad_to_multiple_pads_high_side_only():
    vals = np.ones((5, 8, 3))
    out = pad_to_multiple(vals, 4, pad_value=-1.0)
    assert out.shape == (8, 8, 4)
    assert np.all(out[:5, :, :3][np.ones((5, 8, 3), dtype=bool)] == 1.0)
    assert np.all(out[5:] == -1.0)
    assert np.all(out[:, :, 3:] == -1.0)


def test_pad_to_multiple_noop_when_aligned():
    vals = np.ones((4, 8, 12))
    out = pad_to_multiple(vals, 4)
    assert out.shape == vals.shape
    assert np.array_equal(out, vals)


def test_extract_then_stitch_recovers_volume():
    rng = np.random.default_rng(9)
    vol = Volume(rng.standard_normal((20, 17, 9)), (1, 1, 1), "unit01", {})
    tiles = list(extract_cubes(vol, edge=8, pad_value=0.0))
    assert all(cube.shape == (8, 8, 8) for cube, _ in tiles)
    assert len(tiles) == int(np.ceil(20 / 8) * np.ceil(17 / 8) * np.ceil(9 / 8))
    stitched = stitch_cubes(tiles, vol.dims)
    assert np.array_equal(stitched, vol.voxels)


def test_extract_cubes_yields_views_inside_and_padded_copies_at_the_border():
    rng = np.random.default_rng(12)
    vol = Volume(rng.uniform(0, 1, (20, 17, 16)), (1, 1, 1), "unit01", {})
    padded = np.pad(vol.voxels, [(0, 4), (0, 7), (0, 0)], constant_values=-1.0)
    for cube, (ox, oy, oz) in extract_cubes(vol, edge=8, pad_value=-1.0):
        inside = ox + 8 <= 20 and oy + 8 <= 17
        assert np.shares_memory(cube, vol.voxels) == inside
        assert cube.tobytes() == padded[ox:ox + 8, oy:oy + 8, oz:oz + 8].tobytes()


def test_extract_cubes_origins_tile_the_grid():
    vol = Volume(np.zeros((16, 16, 16)), (1, 1, 1), "unit01", {})
    tiles = extract_cubes(vol, edge=8, pad_value=0.0)
    origins = sorted(origin for _, origin in tiles)
    expected = sorted((x, y, z) for x in (0, 8) for y in (0, 8) for z in (0, 8))
    assert origins == expected


def test_extract_cubes_rejects_tiny_edge():
    vol = Volume(np.zeros((16, 16, 16)), (1, 1, 1), "unit01", {})
    with pytest.raises(DomainError):
        extract_cubes(vol, edge=4, pad_value=0.0)
