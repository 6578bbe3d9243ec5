"""Body contour, regional metrics, Wilcoxon test, difference maps, reports."""

import math
import os

import numpy as np
import pytest
import scipy.stats

from oracles import (flood_fill_body, mae_loop, psnr_loop, ssim_window,
                     wilcoxon_enum)
from vqsct import evaluation
from vqsct.errors import DomainError, FormatError, ShapeError
from vqsct.evaluation import (BODY_THRESHOLD_HU, body_contour, colormap_bwr,
                              compare_reports, difference_map, dsc,
                              evaluate_case, mae, psnr, read_report_csv,
                              region_masks, save_difference_maps, ssim,
                              wilcoxon_signed_rank, write_ppm,
                              write_report_csv)
from vqsct.phantom import LABEL_LUNG, generate_phantom_pair
from vqsct.volume import Volume


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
    with pytest.raises(DomainError):
        colormap_bwr(vals, 0.0)


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
    # one contour per volume, and five window means per slice that holds
    # a full-window center of any region (the whole region covers the others)
    centered = regions["whole"][5:-5, 5:-5, :].any(axis=(0, 1)).sum()
    assert calls == {"body_contour": 2, "_window_mean": 5 * int(centered)}

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
