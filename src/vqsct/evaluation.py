"""Masked evaluation: body contour, regional metrics, paired statistics.

Metrics are computed inside boolean masks: the body contour of the
ground-truth CT (threshold HU > -500, then slice-wise hole filling), split
into whole / soft / bone regions at a configurable HU boundary. A case is
evaluated with one partition per volume and one SSIM map per slice. The
paired Wilcoxon signed-rank test is exact (full distribution over sign
assignments) up to n = 25 and uses the tie-corrected normal approximation
with continuity correction beyond. Difference maps are emitted as binary
PPM images under a blue-white-red colormap.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy.ndimage import binary_fill_holes, correlate1d
from scipy.stats import rankdata

from .atomic import atomic_open
from .errors import DomainError, FormatError, ShapeError
from .volume import Volume

__all__ = [
    "REGIONS",
    "BODY_THRESHOLD_HU",
    "BONE_THRESHOLD_HU",
    "PSNR_PEAK",
    "body_contour",
    "region_masks",
    "mae",
    "psnr",
    "ssim",
    "dsc",
    "wilcoxon_signed_rank",
    "colormap_bwr",
    "write_ppm",
    "difference_map",
    "save_difference_maps",
    "evaluate_case",
    "write_report_csv",
    "read_report_csv",
    "compare_reports",
]

REGIONS = ("whole", "soft", "bone")
METRICS = ("mae", "psnr", "ssim", "dsc")
_REPORT_HEADER = ["case_id", "region", "metric", "value"]

BODY_THRESHOLD_HU = -500.0
BONE_THRESHOLD_HU = 300.0
PSNR_PEAK = 4000.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01 * 4000.0) ** 2
_SSIM_C2 = (0.03 * 4000.0) ** 2


def _voxels(v) -> np.ndarray:
    return v.voxels if isinstance(v, Volume) else np.asarray(v, dtype=np.float64)


def body_contour(ct: Volume) -> np.ndarray:
    """Boolean body mask: threshold HU > -500, then fill holes per axial slice.

    A background voxel becomes foreground when it is not 4-connected to the
    border of its slice, so air cavities inside the body (lungs, bowel gas)
    are included while exterior air stays out. ``ct`` is an HU volume or a
    bare array of HU values.
    """
    if isinstance(ct, Volume) and ct.intensity_space != "HU":
        raise DomainError(f"body contour needs an HU volume, got {ct.intensity_space}")
    raw = _voxels(ct) > BODY_THRESHOLD_HU
    filled = np.empty_like(raw)
    for z in range(raw.shape[2]):
        filled[:, :, z] = binary_fill_holes(raw[:, :, z])
    return filled


def region_masks(ct: Volume, bone_threshold_hu: float = BONE_THRESHOLD_HU) -> dict:
    """Body contour of ``ct`` (``whole``), split into ``soft`` and ``bone`` at an HU boundary."""
    vox = _voxels(ct)
    whole = body_contour(ct)
    return {"whole": whole, "soft": whole & (vox < bone_threshold_hu),
            "bone": whole & (vox >= bone_threshold_hu)}


def _check_aligned(pred, gt, mask=None):
    p = _voxels(pred)
    g = _voxels(gt)
    if p.shape != g.shape:
        raise ShapeError(f"volume shapes differ: {p.shape} vs {g.shape}")
    if mask is None:
        return p, g, None
    m = np.asarray(mask, dtype=bool)
    if m.shape != p.shape:
        raise ShapeError(f"mask shape {m.shape} != volume shape {p.shape}")
    if not m.any():
        raise DomainError("empty evaluation mask")
    return p, g, m


def mae(pred, gt, mask) -> float:
    """Mean absolute error over masked voxels, in HU."""
    p, g, m = _check_aligned(pred, gt, mask)
    return float(np.abs(p[m] - g[m]).mean())


def psnr(pred, gt, mask, peak: float = PSNR_PEAK) -> float:
    """10*log10(peak^2 / masked MSE); identical volumes give +inf."""
    p, g, m = _check_aligned(pred, gt, mask)
    mse = float(((p[m] - g[m]) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def _gaussian_kernel_1d():
    half = _SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * _SSIM_SIGMA ** 2))
    return k / k.sum()


def _window_mean(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Gaussian-window means at every full-window center of a 2D array."""
    half = len(kernel) // 2
    out = correlate1d(a, kernel, axis=0, mode="constant")
    out = correlate1d(out, kernel, axis=1, mode="constant")
    return out[half:-half, half:-half]


def _ssim_means(p: np.ndarray, g: np.ndarray, masks) -> list[float]:
    """Masked mean SSIM for each of ``masks``, from one SSIM map per slice."""
    half = _SSIM_WINDOW // 2
    if p.shape[0] < _SSIM_WINDOW or p.shape[1] < _SSIM_WINDOW:
        raise DomainError(
            f"in-plane extents {p.shape[:2]} are smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")
    kernel = _gaussian_kernel_1d()
    weighted = [0.0] * len(masks)
    weight = [0] * len(masks)
    for z in range(p.shape[2]):
        centers = [m[half:-half, half:-half, z] for m in masks]
        if not any(c.any() for c in centers):
            continue
        x = p[:, :, z]
        y = g[:, :, z]
        mu_x = _window_mean(x, kernel)
        mu_y = _window_mean(y, kernel)
        var_x = _window_mean(x * x, kernel) - mu_x * mu_x
        var_y = _window_mean(y * y, kernel) - mu_y * mu_y
        cov = _window_mean(x * y, kernel) - mu_x * mu_y
        s = ((2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
             / ((mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)))
        for i, c in enumerate(centers):
            weighted[i] += float(s[c].sum())  # adds 0.0 for a slice outside mask i
            weight[i] += int(c.sum())
    if 0 in weight:
        raise DomainError("mask contains no full-window centers")
    return [w / n for w, n in zip(weighted, weight)]


def ssim(pred, gt, mask) -> float:
    """Masked mean structural similarity over axial slices.

    Local SSIM uses an 11x11 Gaussian window (sigma 1.5) with the stabilizers
    C1 = (0.01 * 4000)^2 and C2 = (0.03 * 4000)^2, evaluated at window
    centers whose full window fits in the slice. Slice means over masked
    centers are combined weighted by their masked-center counts.
    """
    p, g, m = _check_aligned(pred, gt, mask)
    return _ssim_means(p, g, [m])[0]


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    total = int(a.sum()) + int(b.sum())
    return 2.0 * int((a & b).sum()) / total if total else 1.0


def dsc(pred_ct, gt_ct, region: str, bone_threshold_hu: float = BONE_THRESHOLD_HU) -> float:
    """Dice overlap of the region mask derived independently from each volume.

    Both volumes go through the same body-contour + HU-partition rules; if
    both derived masks are empty the score is 1.0.
    """
    if region not in REGIONS:
        raise DomainError(f"region must be one of {REGIONS}, got {region!r}")
    _check_aligned(pred_ct, gt_ct)
    return _dice(region_masks(pred_ct, bone_threshold_hu)[region],
                 region_masks(gt_ct, bone_threshold_hu)[region])


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

def wilcoxon_signed_rank(x, y) -> tuple[float, float]:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped; ties share mid-ranks; W is the smaller of
    the positive and negative rank sums. For n <= 25 the p-value is exact,
    computed from the full null distribution over the 2^n sign assignments
    (via subset-sum counting over doubled mid-ranks, which are integers);
    beyond that a normal approximation with tie correction and continuity
    correction is used.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"paired samples must be equal-length 1D, got {x.shape} and {y.shape}")
    diffs = x - y
    if not np.all(np.isfinite(diffs)):
        raise DomainError("paired differences contain non-finite values")
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n < 5:
        raise DomainError(f"need at least 5 nonzero differences, got {n}")
    ranks = rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)

    if n <= 25:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        total = int(doubled.sum())
        dist = np.zeros(total + 1)
        dist[0] = 1.0
        for r in doubled:
            shifted = np.zeros_like(dist)
            shifted[r:] = dist[:-r]
            dist += shifted
        sums = np.arange(total + 1)
        w2 = int(np.rint(2.0 * w))
        count = dist[np.minimum(sums, total - sums) <= w2].sum()
        p = count / 2.0 ** n
    else:
        mu = n * (n + 1) / 4.0
        _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
        tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum())
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
        z = (w - mu + 0.5) / math.sqrt(var)
        p = math.erfc(-z / math.sqrt(2.0))
    return w, float(min(p, 1.0))


# ---------------------------------------------------------------------------
# Difference maps
# ---------------------------------------------------------------------------

def colormap_bwr(values: np.ndarray, cap: float) -> np.ndarray:
    """Map signed values onto blue(-cap) / white(0) / red(+cap) RGB."""
    if cap <= 0:
        raise DomainError(f"colormap cap must be positive, got {cap}")
    t = np.clip(np.asarray(values, dtype=np.float64) / cap, -1.0, 1.0)
    r = np.where(t >= 0, 255.0, 255.0 * (1.0 + t))
    g = 255.0 * (1.0 - np.abs(t))
    b = np.where(t >= 0, 255.0 * (1.0 - t), 255.0)
    return np.floor(np.stack([r, g, b], axis=-1) + 0.5).astype(np.uint8)


def write_ppm(rgb: np.ndarray, path) -> None:
    """Write an [H, W, 3] uint8 image as a binary (P6) portable pixmap."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ShapeError(f"PPM image must be uint8 [H, W, 3], got {rgb.dtype} {rgb.shape}")
    h, w = rgb.shape[:2]
    with atomic_open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def difference_map(pred, gt, mask, cap: float = 200.0):
    """Signed HU difference (zero outside the mask) plus per-slice images.

    Returns ``(diff_volume, images)`` where images[z] is the axial slice at
    z rendered blue-white-red, rows running along y and columns along x.
    """
    p, g, m = _check_aligned(pred, gt, mask)
    diff = np.where(m, p - g, 0.0)
    images = [colormap_bwr(diff[:, :, z].T, cap) for z in range(diff.shape[2])]
    return diff, images


def save_difference_maps(pred, gt, mask, out_dir, cap: float = 200.0) -> list[str]:
    """Render difference_map images to out_dir/slice_###.ppm; returns paths."""
    diff, images = difference_map(pred, gt, mask, cap)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for z, rgb in enumerate(images):
        path = os.path.join(out_dir, f"slice_{z:03d}.ppm")
        write_ppm(rgb, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Case evaluation and reports
# ---------------------------------------------------------------------------

def evaluate_case(pred: Volume, gt: Volume, case_id: str = "case",
                  bone_threshold_hu: float = BONE_THRESHOLD_HU) -> list[dict]:
    """All four metrics over the three regions for one predicted/true pair.

    MAE, PSNR and SSIM use region masks derived from the ground truth; DSC
    compares the masks derived independently from each volume. Each value
    equals what :func:`mae`, :func:`psnr`, :func:`ssim` or :func:`dsc`
    returns for its region. Returns CSV row dicts (case_id, region, metric,
    value).
    """
    for vol in (pred, gt):
        if vol.intensity_space != "HU":
            raise DomainError(f"evaluation needs HU volumes, got {vol.intensity_space}")
    if pred.dims != gt.dims:
        raise ShapeError(f"volume dims differ: {pred.dims} vs {gt.dims}")
    truth = region_masks(gt, bone_threshold_hu)
    derived = region_masks(pred, bone_threshold_hu)
    masks = [truth[region] for region in REGIONS]
    values = {"mae": [mae(pred, gt, m) for m in masks],
              "psnr": [psnr(pred, gt, m) for m in masks],
              "ssim": _ssim_means(pred.voxels, gt.voxels, masks),
              "dsc": [_dice(derived[region], truth[region]) for region in REGIONS]}
    return [{"case_id": str(case_id), "region": region, "metric": metric,
             "value": float(values[metric][i])}
            for i, region in enumerate(REGIONS) for metric in METRICS]


def write_report_csv(rows, path) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_HEADER)
        for row in rows:
            writer.writerow([row["case_id"], row["region"], row["metric"],
                             repr(float(row["value"]))])


def read_report_csv(path) -> list[dict]:
    """Read a report written by :func:`write_report_csv`.

    Each row needs four fields, a known region and metric, and a value that
    is a finite number or +inf (identical volumes have infinite PSNR), and
    no two rows may share a (case_id, region, metric); anything else raises
    FormatError naming the offending line, as does text that is not UTF-8 CSV.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lines = [(reader.line_num, fields) for fields in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable report ({exc})") from None
    header = lines[0][1] if lines else None
    if header != _REPORT_HEADER:
        raise FormatError(f"{path}: unexpected report header {header}")
    rows = []
    seen = {}
    for line_num, fields in lines[1:]:
        if not fields:
            continue
        where = f"{path}:{line_num}"
        if len(fields) != len(_REPORT_HEADER):
            raise FormatError(f"{where}: expected 4 fields, got {len(fields)}")
        case_id, region, metric, text = fields
        if region not in REGIONS:
            raise FormatError(f"{where}: unknown region {region!r}")
        if metric not in METRICS:
            raise FormatError(f"{where}: unknown metric {metric!r}")
        try:
            value = float(text)
        except ValueError:
            raise FormatError(f"{where}: value {text!r} is not a number") from None
        if math.isnan(value) or value == -math.inf:
            raise FormatError(f"{where}: value must be finite or +inf, got {text!r}")
        key = (case_id, region, metric)
        if key in seen:
            raise FormatError(f"{where}: duplicate row for {key}, "
                              f"first on line {seen[key]}")
        seen[key] = line_num
        rows.append({"case_id": case_id, "region": region,
                     "metric": metric, "value": value})
    return rows


def compare_reports(rows_a, rows_b, metric: str, region: str,
                    label_a: str = "A", label_b: str = "B",
                    alpha: float = 0.05) -> dict:
    """Paired Wilcoxon test between two reports on one metric and region.

    Cases are paired by case_id (the intersection, sorted); the JSON-ready
    result records the comparison, the number of nonzero differences, W,
    the two-sided p, and significance at ``alpha``.
    """
    def pick(rows):
        return {r["case_id"]: r["value"] for r in rows
                if r["metric"] == metric and r["region"] == region}

    a = pick(rows_a)
    b = pick(rows_b)
    common = sorted(set(a) & set(b))
    if not common:
        raise DomainError(f"no shared cases for metric {metric!r}, region {region!r}")
    x = np.array([a[c] for c in common])
    y = np.array([b[c] for c in common])
    w, p = wilcoxon_signed_rank(x, y)
    n_nonzero = int(np.count_nonzero(x - y))
    return {
        "comparison": f"{label_a} vs {label_b}",
        "metric": metric,
        "region": region,
        "n": n_nonzero,
        "W": w,
        "p_two_sided": p,
        "significant": bool(p < alpha),
    }
