"""Body contour, regional metrics, Wilcoxon test, difference maps, reports."""

import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from scipy.ndimage import binary_fill_holes, correlate1d

from oracles import (evaluate_case_whole_volume, flood_fill_body, mae_loop, psnr_loop,
                     ssim_means_whole_case, ssim_window, wilcoxon_enum)
from vqsct import evaluation
from vqsct.errors import DomainError, FormatError, ShapeError
from vqsct.evaluation import (BODY_THRESHOLD_HU, body_contour, colormap_bwr,
                              compare_reports, difference_map, dsc,
                              evaluate_case, mae, psnr, read_report_csv,
                              region_masks, save_difference_maps, ssim,
                              wilcoxon_signed_rank, write_ppm,
                              write_report_csv)
from vqsct.phantom import LABEL_LUNG, generate_phantom_pair
from vqsct.volume import SLAB, Volume, read_volume, write_volume

from test_pipeline import _no_child_left, forks  # noqa: F401


class _Phantom:
    def __init__(self, seed=11):
        self.ct, self.pet, self.truth = generate_phantom_pair((48, 48, 48),
                                                              seed=seed)
        self.labels = self.truth.labels


@pytest.fixture(scope="module")
def phantom():
    return _Phantom()


def hu_volume(vox):
    return Volume(np.asarray(vox, dtype=np.float64), (1.5, 1.5, 1.5), "HU", {})


# ---------------------------------------------------------------------------
# Body contour
# ---------------------------------------------------------------------------

def random_hu_slices(n, rng, shape=(20, 22)):
    """Binary-ish HU slices with hole-rich structure at varying density."""
    for _ in range(n):
        density = rng.uniform(0.25, 0.75)
        fg = rng.random(shape) < density
        yield np.where(fg, 50.0, -1000.0)


def test_body_contour_matches_flood_fill_oracle():
    rng = np.random.default_rng(0)
    for sl in random_hu_slices(200, rng):
        vol = hu_volume(sl[:, :, None])
        got = body_contour(vol)[:, :, 0]
        assert np.array_equal(got, flood_fill_body(sl))


def fill_holes_per_slice(hu):
    raw = hu > BODY_THRESHOLD_HU
    out = np.empty_like(raw)
    for z in range(raw.shape[2]):
        out[:, :, z] = binary_fill_holes(raw[:, :, z])
    return out


def serpentine_slice(n):
    """A walled n x n slice whose only opening leads into a serpentine
    corridor: every turn of the corridor needs another flood sweep."""
    sl = np.full((n, n), -1000.0)
    sl[[0, -1], :] = 100.0
    sl[:, [0, -1]] = 100.0
    sl[0, 1] = -1000.0  # the entrance
    for row in range(2, n - 1, 2):
        sl[row, 1:-1] = 100.0
        gap = n - 2 if row % 4 == 2 else 1
        sl[row, gap] = -1000.0
    return sl


def test_body_contour_matches_fill_holes_per_slice():
    rng = np.random.default_rng(21)
    volumes = []
    for _ in range(60):
        shape = tuple(int(d) for d in rng.integers(1, 24, 3))
        fg = rng.random(shape) < rng.uniform(0.2, 0.8)
        volumes.append(np.where(fg, 50.0, -1000.0))
    volumes += [np.full((1, 17, 3), -1000.0), np.full((17, 1, 3), 50.0),
                np.where(rng.random((1, 19, 4)) < 0.5, 50.0, -1000.0),
                np.where(rng.random((19, 1, 4)) < 0.5, 50.0, -1000.0),
                np.full((9, 8, 3), 50.0), np.full((9, 8, 3), -1000.0)]
    spiral = np.stack([serpentine_slice(31), serpentine_slice(31).T,
                       np.full((31, 31), -1000.0)], axis=2)
    spiral[15, 15, 2] = 100.0
    volumes.append(spiral)
    for hu in volumes:
        assert np.array_equal(body_contour(hu), fill_holes_per_slice(hu)), hu.shape
    # the corridor is reached from outside, so nothing of it is filled
    assert not body_contour(spiral)[1:-1, 1:-1, :2][spiral[1:-1, 1:-1, :2] < 0].any()


def test_body_contour_fills_enclosed_cavity_only():
    sl = np.full((9, 9), -1000.0)
    sl[2:7, 2:7] = 100.0
    sl[4, 4] = -1000.0  # enclosed air pocket
    ring = body_contour(hu_volume(sl[:, :, None]))[:, :, 0]
    assert ring[4, 4]  # pocket filled
    assert not ring[0, 0]  # exterior stays out

    sl[4, 0:4] = -1000.0  # cut a channel from the pocket to the border
    open_shape = body_contour(hu_volume(sl[:, :, None]))[:, :, 0]
    assert not open_shape[4, 4]  # now reachable from outside


def test_body_contour_diagonal_gap_blocks_background():
    # background escaping only through a diagonal step is still enclosed
    # under 4-connectivity
    sl = np.full((7, 7), 100.0)
    sl[3, 3] = -1000.0
    sl[2, 2] = -1000.0
    sl[1, 1] = -1000.0
    sl[0, 0] = -1000.0
    mask = body_contour(hu_volume(sl[:, :, None]))[:, :, 0]
    assert mask[3, 3] and mask[2, 2] and mask[1, 1]
    assert not mask[0, 0]  # touches the border, so it is outside air
    assert np.array_equal(mask, flood_fill_body(sl))


def test_body_contour_threshold_is_strict():
    sl = np.full((5, 5), BODY_THRESHOLD_HU)
    assert not body_contour(hu_volume(sl[:, :, None])).any()
    sl2 = np.full((5, 5), BODY_THRESHOLD_HU + 1e-9)
    assert body_contour(hu_volume(sl2[:, :, None])).all()


def test_body_contour_on_phantom_keeps_lungs_excludes_air(phantom):
    mask = body_contour(phantom.ct)
    assert mask[phantom.labels == LABEL_LUNG].all()  # lungs inside the contour
    corners = [(s1, s2, s3)
               for s1 in (slice(0, 2), slice(-2, None))
               for s2 in (slice(0, 2), slice(-2, None))
               for s3 in (slice(0, 2), slice(-2, None))]
    for c in corners:
        assert not mask[c].any()
    for z in range(mask.shape[2]):
        assert np.array_equal(mask[:, :, z],
                              flood_fill_body(phantom.ct.voxels[:, :, z]))


def test_run_ids_label_runs_in_int32():
    free = np.array([[[True, True, False, True]], [[False, True, True, True]]])
    ids, n_runs = evaluation._run_ids(free, 2)
    assert ids.dtype == np.int32 and n_runs == 3
    assert ids.tolist() == [[[1, 1, 0, 2]], [[0, 3, 3, 3]]]


def test_body_contour_requires_hu():
    vol = Volume(np.zeros((4, 4, 4)), (1, 1, 1), "unit01", {})
    with pytest.raises(DomainError):
        body_contour(vol)


def test_region_masks_partition_body(phantom):
    regions = region_masks(phantom.ct)
    assert np.array_equal(regions["whole"], body_contour(phantom.ct))
    assert np.array_equal(regions["soft"] | regions["bone"], regions["whole"])
    assert not (regions["soft"] & regions["bone"]).any()
    assert regions["bone"].sum() > 0 and regions["soft"].sum() > 0


@pytest.mark.parametrize("bone", [np.nan, np.inf, -np.inf])
def test_non_finite_bone_threshold_is_rejected(phantom, bone):
    with pytest.raises(DomainError, match="bone threshold"):
        region_masks(phantom.ct, bone)
    with pytest.raises(DomainError, match="bone threshold"):
        evaluate_case(phantom.ct, phantom.ct, bone_threshold_hu=bone)


# ---------------------------------------------------------------------------
# MAE / PSNR / SSIM
# ---------------------------------------------------------------------------

def test_mae_psnr_match_loop_oracles():
    rng = np.random.default_rng(1)
    for _ in range(20):
        shape = tuple(rng.integers(3, 7, 3))
        p = rng.uniform(-1000, 2000, shape)
        g = rng.uniform(-1000, 2000, shape)
        m = rng.random(shape) < 0.6
        if not m.any():
            m[0, 0, 0] = True
        assert mae(p, g, m) == pytest.approx(mae_loop(p, g, m), rel=1e-9)
        assert psnr(p, g, m) == pytest.approx(psnr_loop(p, g, m), rel=1e-9)


def test_metric_identities():
    rng = np.random.default_rng(2)
    g = np.round(rng.uniform(-500, 1500, (16, 16, 4)))
    m = np.ones(g.shape, dtype=bool)
    assert mae(g, g, m) == 0.0
    assert psnr(g, g, m) == math.inf
    assert ssim(g, g, m) == pytest.approx(1.0, rel=1e-12)
    assert mae(g + 50.0, g, m) == pytest.approx(50.0, rel=1e-9)
    assert psnr(g + 40.0, g, m) == pytest.approx(40.0, rel=1e-12)


def test_psnr_strictly_decreases_with_mse():
    g = np.zeros((6, 6, 6))
    m = np.ones(g.shape, dtype=bool)
    values = [psnr(g + off, g, m) for off in (1.0, 3.0, 10.0, 250.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_metrics_validate_inputs():
    g = np.zeros((6, 6, 6))
    with pytest.raises(ShapeError):
        mae(np.zeros((6, 6, 5)), g, np.ones_like(g, dtype=bool))
    with pytest.raises(ShapeError):
        mae(g, g, np.ones((5, 6, 6), dtype=bool))
    with pytest.raises(DomainError):
        mae(g, g, np.zeros_like(g, dtype=bool))


def test_ssim_matches_per_window_oracle():
    rng = np.random.default_rng(3)
    p = rng.uniform(-1000, 2000, (16, 16, 1))
    g = p + rng.normal(0, 150, p.shape)
    half = 5
    per_window = []
    for ci in range(half, 16 - half):
        for cj in range(half, 16 - half):
            m = np.zeros(p.shape, dtype=bool)
            m[ci, cj, 0] = True
            got = ssim(p, g, m)
            want = ssim_window(p[:, :, 0], g[:, :, 0], ci, cj)
            assert abs(got - want) <= 1e-6
            per_window.append(want)
    full = np.zeros(p.shape, dtype=bool)
    full[half:-half, half:-half, 0] = True
    assert ssim(p, g, full) == pytest.approx(np.mean(per_window), abs=1e-6)


def test_ssim_weights_slices_by_masked_center_count():
    rng = np.random.default_rng(4)
    p = rng.uniform(0, 1000, (14, 14, 2))
    g = p + rng.normal(0, 80, p.shape)
    m = np.zeros(p.shape, dtype=bool)
    m[6:8, 6:8, 0] = True  # 4 centers
    m[6, 6, 1] = True      # 1 center
    combined = ssim(p, g, m)
    m0 = m.copy()
    m0[:, :, 1] = False
    m1 = m.copy()
    m1[:, :, 0] = False
    expected = (4 * ssim(p, g, m0) + 1 * ssim(p, g, m1)) / 5
    assert combined == pytest.approx(expected, rel=1e-12)


def window_mean_per_slice(a, kernel):
    """``correlate1d`` with zero padding along x, then y, cropped to the
    full-window centres, one axial slice at a time."""
    half = len(kernel) // 2
    out = []
    for z in range(a.shape[2]):
        m = correlate1d(a[:, :, z], kernel, axis=0, mode="constant")
        m = correlate1d(m, kernel, axis=1, mode="constant")
        out.append(m[half:-half, half:-half])
    return np.stack(out, axis=2)


def test_window_mean_matches_correlate1d_bytes():
    rng = np.random.default_rng(22)
    kernel = evaluation._gaussian_kernel_1d()
    for shape in [(11, 11, 2), (16, 23, 3), (40, 31, 5), (12, 96, 1)]:
        a = rng.uniform(-1000.0, 2000.0, shape)
        got = evaluation._window_mean(a, kernel)
        want = window_mean_per_slice(a, kernel)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_ssim_means_keep_per_slice_bytes(phantom):
    # SSIM maps from per-slice correlate1d window means, summed per slice in
    # slice order, give the same float for every region
    rng = np.random.default_rng(23)
    p = phantom.ct.voxels + rng.normal(0, 60, phantom.ct.dims)
    g = phantom.ct.voxels
    masks = [region_masks(phantom.ct)[r] for r in ("whole", "soft", "bone")]
    kernel = evaluation._gaussian_kernel_1d()
    c1, c2 = evaluation._SSIM_C1, evaluation._SSIM_C2
    mu_x = window_mean_per_slice(p, kernel)
    mu_y = window_mean_per_slice(g, kernel)
    var_x = window_mean_per_slice(p * p, kernel) - mu_x * mu_x
    var_y = window_mean_per_slice(g * g, kernel) - mu_y * mu_y
    cov = window_mean_per_slice(p * g, kernel) - mu_x * mu_y
    s = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
         / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))
    want = []
    for m in masks:
        centers = m[5:-5, 5:-5]
        total = 0.0
        for z in range(p.shape[2]):
            total += float(s[:, :, z][centers[:, :, z]].sum())
        want.append(total / int(centers.sum()))
    assert [repr(v) for v in evaluation._ssim_means(p, g, masks)] == [repr(v) for v in want]


@pytest.mark.parametrize("crop", [(slice(None),) * 3,
                                  (slice(0, 40), slice(5, 42), slice(3, 24))])
def test_ssim_means_equal_the_whole_case_map(phantom, crop):
    # the z-slab pass against one SSIM map of the whole case; 48 z-planes are
    # whole slabs, the 21 of the crop are not
    rng = np.random.default_rng(24)
    g = np.ascontiguousarray(phantom.ct.voxels[crop])
    p = g + rng.normal(0, 60, g.shape)
    masks = [region_masks(g)[r] for r in ("whole", "soft", "bone")]
    assert [repr(v) for v in evaluation._ssim_means(p, g, masks)] == [
        repr(v) for v in ssim_means_whole_case(p, g, masks)]


def test_ssim_rejects_small_slices_and_border_masks():
    rng = np.random.default_rng(5)
    small = rng.uniform(0, 1, (8, 8, 2))
    with pytest.raises(DomainError):
        ssim(small, small, np.ones(small.shape, dtype=bool))
    p = rng.uniform(0, 1, (16, 16, 1))
    edge_only = np.zeros(p.shape, dtype=bool)
    edge_only[0, :, 0] = True
    with pytest.raises(DomainError):
        ssim(p, p, edge_only)


# ---------------------------------------------------------------------------
# DSC
# ---------------------------------------------------------------------------

def test_dsc_symmetric_and_matches_formula(phantom):
    rng = np.random.default_rng(6)
    pred = hu_volume(phantom.ct.voxels + rng.normal(0, 120, phantom.ct.dims))
    for region in ("whole", "soft", "bone"):
        ab = dsc(pred, phantom.ct, region)
        ba = dsc(phantom.ct, pred, region)
        assert ab == ba
        masks = []
        for vol in (pred, phantom.ct):
            masks.append(region_masks(vol)[region])
        a, b = masks
        want = 2.0 * (a & b).sum() / (a.sum() + b.sum())
        assert ab == pytest.approx(want, rel=1e-12)
        assert 0.0 < ab <= 1.0


def test_dsc_identical_and_empty():
    rng = np.random.default_rng(7)
    soft = hu_volume(rng.uniform(-100, 200, (8, 8, 8)))
    assert dsc(soft, soft, "bone") == 1.0  # both bone masks empty
    assert dsc(soft, soft, "whole") == 1.0
    air = hu_volume(np.full((8, 8, 8), -1000.0))
    assert dsc(air, air, "whole") == 1.0  # both body masks empty


def test_dsc_rejects_unknown_region():
    vol = hu_volume(np.zeros((6, 6, 6)))
    with pytest.raises(DomainError):
        dsc(vol, vol, "viscera")


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------

def test_wilcoxon_worked_example():
    w, p = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0],
                                [2.0, 4.0, 6.0, 8.0, 10.0])
    assert w == 0.0
    assert p == pytest.approx(0.0625, abs=1e-15)


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(5, 13))
        x = rng.integers(-4, 5, n).astype(np.float64)
        y = rng.integers(-4, 5, n).astype(np.float64)
        if np.count_nonzero(x - y) < 5:
            x = x + np.where(x == y, 1.0, 0.0)
        w_got, p_got = wilcoxon_signed_rank(x, y)
        w_want, p_want = wilcoxon_enum(x, y)
        assert w_got == pytest.approx(w_want, abs=1e-12)
        assert p_got == pytest.approx(p_want, rel=1e-12)


def test_average_ranks_match_rankdata_bytes():
    rng = np.random.default_rng(24)
    arrays = [np.array([3.0]), np.full(7, 2.5), np.arange(9.0)[::-1]]
    for _ in range(500):
        n = int(rng.integers(1, 80))
        arrays.append(np.round(rng.exponential(1.0, n), int(rng.integers(0, 3))))
    for a in arrays:
        got = evaluation._average_ranks(a)
        assert got.tobytes() == scipy.stats.rankdata(a).tobytes()


def test_wilcoxon_shift_invariance():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 40, 10).astype(np.float64)
    y = rng.integers(0, 40, 10).astype(np.float64)
    y += np.where(x == y, 3.0, 0.0)
    w0, p0 = wilcoxon_signed_rank(x, y)
    w1, p1 = wilcoxon_signed_rank(x + 64.0, y + 64.0)
    assert (w0, p0) == (w1, p1)


def test_wilcoxon_identical_samples_rejected():
    x = np.arange(8.0)
    with pytest.raises(DomainError):
        wilcoxon_signed_rank(x, x.copy())


def test_wilcoxon_too_few_nonzero_rejected():
    with pytest.raises(DomainError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])


def test_wilcoxon_validates_shapes_and_values():
    with pytest.raises(ShapeError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        wilcoxon_signed_rank([1.0, np.nan, 3.0, 4.0, 5.0, 6.0],
                             [0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_wilcoxon_large_n_matches_scipy_approximation():
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = rng.normal(0, 1, 40)
        y = x + rng.normal(0.2, 0.5, 40)
        w_got, p_got = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x, y, zero_method="wilcox",
                                   correction=True, alternative="two-sided",
                                   method="approx")
        assert w_got == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p_got == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_wilcoxon_large_n_with_ties_matches_scipy():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 6, 32).astype(np.float64)
    y = rng.integers(0, 6, 32).astype(np.float64)
    y += np.where(x == y, 1.0, 0.0)
    w_got, p_got = wilcoxon_signed_rank(x, y)
    ref = scipy.stats.wilcoxon(x, y, zero_method="wilcox", correction=True,
                               alternative="two-sided", method="approx")
    assert w_got == pytest.approx(float(ref.statistic), abs=1e-9)
    assert p_got == pytest.approx(float(ref.pvalue), rel=1e-9)


# ---------------------------------------------------------------------------
# Difference maps
# ---------------------------------------------------------------------------

def test_colormap_endpoints():
    cap = 200.0
    vals = np.array([cap, -cap, 0.0, cap / 2, -cap / 2, 3 * cap, -3 * cap])
    rgb = colormap_bwr(vals, cap)
    assert tuple(rgb[0]) == (255, 0, 0)
    assert tuple(rgb[1]) == (0, 0, 255)
    assert tuple(rgb[2]) == (255, 255, 255)
    assert tuple(rgb[3]) == (255, 128, 128)
    assert tuple(rgb[4]) == (128, 128, 255)
    assert tuple(rgb[5]) == (255, 0, 0)  # clamped
    assert tuple(rgb[6]) == (0, 0, 255)
    for bad in (0.0, -cap, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="cap"):
            colormap_bwr(vals, bad)


def test_write_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    rgb = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(rgb, path)
    raw = path.read_bytes()
    header = b"P6\n5 7\n255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert np.array_equal(body.reshape(7, 5, 3), rgb)
    with pytest.raises(ShapeError):
        write_ppm(rgb.astype(np.float64), path)


def test_difference_map_orientation_and_masking():
    gt = np.zeros((6, 8, 3))
    pred = gt.copy()
    pred[2, 5, 1] = 200.0  # +cap at (x=2, y=5, z=1)
    pred[0, 0, 0] = 500.0  # outside the mask, must vanish
    mask = np.ones(gt.shape, dtype=bool)
    mask[0, 0, 0] = False
    diff, images = difference_map(pred, gt, mask, cap=200.0)
    assert diff[0, 0, 0] == 0.0
    assert diff[2, 5, 1] == 200.0
    assert len(images) == 3
    assert images[1].shape == (8, 6, 3)  # rows along y, columns along x
    assert tuple(images[1][5, 2]) == (255, 0, 0)
    assert tuple(images[0][0, 0]) == (255, 255, 255)


def test_save_difference_maps_writes_ordered_files(tmp_path):
    rng = np.random.default_rng(13)
    gt = rng.uniform(-100, 100, (5, 5, 4))
    pred = gt + rng.normal(0, 50, gt.shape)
    out = tmp_path / "maps"
    paths = save_difference_maps(pred, gt, np.ones(gt.shape, dtype=bool), out)
    assert [os.path.basename(p) for p in paths] == [
        f"slice_{z:03d}.ppm" for z in range(4)]
    assert all(os.path.exists(p) for p in paths)


# ---------------------------------------------------------------------------
# Case evaluation and reports
# ---------------------------------------------------------------------------

def test_evaluate_case_rows(phantom, monkeypatch):
    rng = np.random.default_rng(14)
    pred = hu_volume(phantom.ct.voxels + rng.normal(0, 40, phantom.ct.dims))
    calls = {"body_contour": 0, "_window_mean": 0}

    def counting(name):
        original = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, wrapper)

    for name in calls:
        counting(name)
    rows = evaluate_case(pred, phantom.ct, case_id="c0")
    monkeypatch.undo()
    regions = region_masks(phantom.ct)
    # one contour per volume per z-slab, and five window means per z-slab
    # (48 = 6 slabs of 8)
    assert SLAB == 8
    assert calls == {"body_contour": 12, "_window_mean": 30}

    assert len(rows) == 12
    assert [(r["region"], r["metric"]) for r in rows] == [
        (region, metric)
        for region in ("whole", "soft", "bone")
        for metric in ("mae", "psnr", "ssim", "dsc")]
    assert all(r["case_id"] == "c0" for r in rows)
    by_key = {(r["region"], r["metric"]): r["value"] for r in rows}
    for region in ("whole", "soft", "bone"):
        m = regions[region]
        assert by_key[(region, "mae")] == mae(pred, phantom.ct, m)
        assert by_key[(region, "psnr")] == psnr(pred, phantom.ct, m)
        assert by_key[(region, "ssim")] == ssim(pred, phantom.ct, m)
        assert by_key[(region, "dsc")] == dsc(pred, phantom.ct, region)


def _random_hu(rng, dims):
    """HU voxels of hole-rich body-like structure: foreground at a random density."""
    return np.where(rng.random(dims) < rng.uniform(0.3, 0.7), rng.uniform(-400, 1500, dims),
                    rng.uniform(-1100, -600, dims))


@pytest.mark.parametrize("dims", [None, (23, 17, 13), (30, 30, 21), (16, 12, 1), (9, 40, 35)])
def test_each_slab_contour_equals_that_slab_of_the_whole_contour(phantom, dims):
    # the phantom's 48 slices are whole slabs; the random grids' slice counts are not
    vox = (phantom.ct.voxels if dims is None
           else _random_hu(np.random.default_rng(sum(dims)), dims))
    whole = body_contour(vox)
    for z0 in range(0, vox.shape[2], SLAB):
        zs = slice(z0, z0 + SLAB)
        assert np.array_equal(body_contour(vox[:, :, zs]), whole[:, :, zs]), z0


def _cases(phantom):
    """(pred, gt, bone HU) triples: the phantom with float32 noise, a crop of it
    whose 21 slices end in a partial slab, and random grids of 13 and 20 slices."""
    rng = np.random.default_rng(31)
    gt = phantom.ct.voxels.astype(np.float32)
    noisy = gt + rng.normal(0, 40, gt.shape).astype(np.float32)
    yield Volume(noisy, (1, 1, 1), "HU"), Volume(gt, (1, 1, 1), "HU"), 300.0
    crop = np.ascontiguousarray(phantom.ct.voxels[:40, 5:42, 3:24])
    yield hu_volume(crop + rng.normal(0, 60, crop.shape)), hu_volume(crop), 250.0
    for dims in [(23, 17, 13), (30, 24, 20)]:
        g = _random_hu(rng, dims)
        yield hu_volume(g + rng.normal(0, 80, dims)), hu_volume(g), 300.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_evaluate_case_equals_the_whole_volume_oracle_at_any_worker_count(phantom, forks,
                                                                         workers):
    for pred, gt, bone in _cases(phantom):
        del forks[:]
        truth = {}
        rows = evaluate_case(pred, gt, "c", bone, truth=truth, workers=workers)
        want = evaluate_case_whole_volume(pred, gt, "c", bone)
        assert [(r["region"], r["metric"], repr(r["value"])) for r in rows] == [
            (r["region"], r["metric"], repr(r["value"])) for r in want], gt.dims
        masks = region_masks(gt, bone)
        assert truth.keys() == masks.keys()
        assert all(np.array_equal(truth[region], masks[region]) for region in masks)
        assert len(forks) == min(workers, -(-gt.dims[2] // SLAB)) - 1
        assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failed_slab_raises_the_serial_error_and_leaves_no_child(phantom, monkeypatch,
                                                                  forks, workers):
    # slabs 2 and 4 of 6 hold a voxel marked with their number; the contour of
    # a marked slab fails, and every worker count raises slab 2's error
    gt = phantom.ct.voxels.copy()
    for k in (4, 2):
        gt[0, 0, k * SLAB] = -700.0 - k  # air either way
    real = evaluation.body_contour

    def failing(ct):  # called with each slab's bare voxels
        marks = ct[(ct < -699.0) & (ct > -710.0)]
        if marks.size:
            raise DomainError(f"slab {int(-700.0 - marks[0])} failed")
        return real(ct)

    monkeypatch.setattr(evaluation, "body_contour", failing)
    with pytest.raises(DomainError, match="^slab 2 failed$"):
        evaluate_case(phantom.ct, hu_volume(gt), workers=workers)
    assert len(forks) == workers - 1 and _no_child_left()


def _soft_and_bone(shape):
    vox = np.full(shape, 50.0)
    vox[::2] = 500.0
    return vox


def _border_body():
    vox = np.full((20, 20, 12), -1000.0)
    vox[:2], vox[-2:] = 500.0, 50.0  # no full-window center inside the body
    return vox


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("gt,bone,message", [
    (_soft_and_bone((9, 40, 35)), 300.0, r"in-plane extents \(9, 40\) are smaller than the 11x11"),
    (np.full((20, 20, 20), -1000.0), 300.0, "empty evaluation mask"),
    (np.full((20, 20, 20), 60.0), 300.0, "empty evaluation mask"),  # no bone
    (_border_body(), 300.0, "mask contains no full-window centers"),
    (_soft_and_bone((20, 21, 19)), math.nan, "bone threshold must be finite, got nan")])
def test_evaluate_case_raises_the_errors_of_one_whole_volume_pass(gt, bone, message, workers):
    # the first of: a slab's bone threshold, an empty truth mask (MAE), the
    # SSIM window, and a mask without window centers
    with pytest.raises(DomainError, match=f"^{message}"):
        evaluate_case(hu_volume(gt + 3.0), hu_volume(gt), bone_threshold_hu=bone,
                      workers=workers)


@pytest.mark.parametrize("n", [48, 96])
def test_evaluate_case_peak_memory_is_at_most_three_input_volumes(n):
    # the traced peak against one input's float64 bytes (0.9x at 96, 1.5x at
    # 48, where a slab is a larger share; 2.3x with both volumes' whole masks,
    # 7.5x with the five window means and the SSIM map of the whole case).
    # The truth's masks are shared mmaps, which tracing does not see.
    ct, _, _ = generate_phantom_pair((n, n, n), seed=11)
    pred = hu_volume(ct.voxels + np.random.default_rng(14).normal(0, 40, ct.dims))
    tracemalloc.start()
    try:
        evaluate_case(pred, ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ct.voxels.nbytes, peak / ct.voxels.nbytes


# 300.3 HU rounds down in float32: a voxel at that float32 value is below
# the float64 threshold, but not below its float32 rounding
INEXACT_BONE_HU = 300.3


@pytest.mark.parametrize("bone_hu", [evaluation.BONE_THRESHOLD_HU, INEXACT_BONE_HU])
def test_float32_cases_score_and_draw_as_their_float64_widening(phantom, tmp_path, bone_hu):
    assert float(np.float32(INEXACT_BONE_HU)) < INEXACT_BONE_HU
    rng = np.random.default_rng(23)
    gt = phantom.ct.voxels.astype(np.float32)
    pred = (phantom.ct.voxels + rng.normal(0, 40, phantom.ct.dims)).astype(np.float32)
    # voxels on both thresholds, as float32 values
    for vox in (gt, pred):
        on = rng.random(vox.shape) < 0.02
        vox[on] = rng.choice(np.float32([bone_hu, BODY_THRESHOLD_HU]), int(on.sum()))
    narrow = [Volume(v, (1.5, 1.5, 1.5), "HU") for v in (pred, gt)]
    wide = [Volume(v.astype(np.float64), (1.5, 1.5, 1.5), "HU") for v in (pred, gt)]
    rows = [evaluate_case(*pair, "c", bone_hu) for pair in (narrow, wide)]
    assert [repr(r["value"]) for r in rows[0]] == [repr(r["value"]) for r in rows[1]]
    images = []
    for name, (p, g) in (("narrow", narrow), ("wide", wide)):
        mask = region_masks(g, bone_hu)["whole"]
        paths = save_difference_maps(p, g, mask, tmp_path / name, cap=150.0)
        images.append([open(path, "rb").read() for path in paths])
    assert len(images[0]) == gt.shape[2] and images[0] == images[1]


def test_evaluate_read_volumes_peak_memory_is_at_most_3_5_float64_volumes(tmp_path):
    # read two 96^3 float32 files and score them, against one volume's float64
    # bytes (about 1.8x, with the truth's masks in untraced shared mmaps; 3.25x
    # with both volumes' whole masks, 4.25x when read_volume widened both to
    # float64)
    ct, _, _ = generate_phantom_pair((96, 96, 96), seed=11)
    pred = hu_volume(ct.voxels + np.random.default_rng(14).normal(0, 40, ct.dims))
    write_volume(ct, tmp_path / "gt.mvol")
    write_volume(pred, tmp_path / "pred.mvol")
    float64_bytes = ct.voxels.nbytes
    del ct, pred
    tracemalloc.start()
    try:
        evaluate_case(read_volume(tmp_path / "pred.mvol"), read_volume(tmp_path / "gt.mvol"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * float64_bytes, peak / float64_bytes


def test_evaluate_case_perfect_prediction(phantom):
    rows = evaluate_case(phantom.ct, phantom.ct, case_id="same")
    by_key = {(r["region"], r["metric"]): r["value"] for r in rows}
    for region in ("whole", "soft", "bone"):
        assert by_key[(region, "mae")] == 0.0
        assert by_key[(region, "psnr")] == math.inf
        assert by_key[(region, "ssim")] == pytest.approx(1.0, rel=1e-12)
        assert by_key[(region, "dsc")] == 1.0


def test_evaluate_case_validates(phantom):
    with pytest.raises(DomainError):
        evaluate_case(Volume(np.zeros(phantom.ct.dims), (1, 1, 1), "unit01", {}),
                      phantom.ct)
    with pytest.raises(ShapeError):
        evaluate_case(hu_volume(np.zeros((8, 8, 8))), phantom.ct)


def test_report_csv_round_trip(tmp_path):
    rows = [
        {"case_id": "a", "region": "whole", "metric": "mae",
         "value": 12.3456789012345},
        {"case_id": "a", "region": "whole", "metric": "psnr",
         "value": 31.09},
        {"case_id": "b", "region": "bone", "metric": "dsc", "value": 0.875},
    ]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    back = read_report_csv(path)
    assert back == rows  # repr round-trips doubles exactly


def test_report_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case,region,metric,value\na,whole,mae,1.0\n")
    with pytest.raises(FormatError):
        read_report_csv(path)


def test_compare_reports_pairs_by_case(tmp_path):
    def report(values, extra=None):
        rows = [{"case_id": f"c{i}", "region": "whole", "metric": "mae",
                 "value": v} for i, v in enumerate(values)]
        rows += [{"case_id": f"c{i}", "region": "bone", "metric": "mae",
                  "value": v + 100} for i, v in enumerate(values)]
        if extra is not None:
            rows.append({"case_id": "only", "region": "whole",
                         "metric": "mae", "value": extra})
        return rows

    a_vals = [50.0, 60.0, 55.0, 70.0, 65.0, 58.0]
    b_vals = [55.0, 66.0, 60.0, 77.0, 71.0, 64.0]
    res = compare_reports(report(a_vals, extra=1.0), report(b_vals),
                          "mae", "whole", label_a="L", label_b="R")
    w, p = wilcoxon_signed_rank(np.array(a_vals), np.array(b_vals))
    assert res["comparison"] == "L vs R"
    assert res["n"] == 6
    assert res["W"] == w and res["p_two_sided"] == p
    assert res["significant"] == (p < 0.05)
    assert res["metric"] == "mae" and res["region"] == "whole"


def test_compare_reports_requires_shared_cases():
    rows_a = [{"case_id": "a", "region": "whole", "metric": "mae", "value": 1.0}]
    rows_b = [{"case_id": "b", "region": "whole", "metric": "mae", "value": 2.0}]
    with pytest.raises(DomainError):
        compare_reports(rows_a, rows_b, "mae", "whole")
