"""Masked evaluation: body contour, regional metrics, paired statistics.

Metrics are computed inside boolean masks: the body contour of the
ground-truth CT (threshold HU > -500, then slice-wise hole filling by a
flood from each slice's border), split into whole / soft / bone regions at
a configurable HU boundary. Everything a case needs slice by slice (both
volumes' contours and region masks, the Dice counts, the SSIM map, whose
every value depends on its own slice alone) is formed one z-slab of
``SLAB`` axial slices at a time: :func:`evaluate_case` runs its slabs as
one round of a :class:`workers.Pool` of at most ``workers`` processes, so
the working memory of each process is one slab's maps, and the calling
process keeps the truth's three masks besides the two volumes. The volumes
may be float32, as read from file: every difference and every SSIM slab is
formed in float64 from the widened values, and every threshold is compared
in float64, so the metrics are those of the float64 widening.
The paired Wilcoxon signed-rank test is exact (full distribution over sign
assignments) up to n = 25 and uses the tie-corrected normal approximation
with continuity correction beyond.
Difference maps are emitted as binary PPM images under a blue-white-red
colormap. Everything here is plain numpy.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .atomic import atomic_open
from .errors import DomainError, FormatError, ShapeError
from .volume import SLAB, Volume, correlate_valid
from .workers import Pool, shared_array

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
    "check_region",
    "check_metric",
    "check_alpha",
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

# One slab task's peak working set per voxel of its slab, rounded up: its
# traced peak is about 78 bytes per voxel at 96x96 and 110x90 slices (both
# volumes' region masks, float64 copies of both slabs, the window means
# and the SSIM map).
_SLAB_BYTES_PER_VOXEL = 80


def _voxels(v) -> np.ndarray:
    return v.voxels if isinstance(v, Volume) else np.asarray(v, dtype=np.float64)


def _run_ids(free: np.ndarray, axis: int):
    """Label each run of ``free`` voxels along ``axis``; 0 marks a blocked voxel.

    Returns the labels, indexed like ``free``, and the number of runs.
    """
    lines = np.moveaxis(free, axis, -1)
    starts = lines.copy()
    starts[..., 1:] &= ~lines[..., :-1]
    # int32 labels hold any count of runs up to one per voxel
    ids = np.cumsum(starts, dtype=np.int32 if free.size < 2 ** 31 else np.int64)
    ids = ids.reshape(lines.shape)
    ids[~lines] = 0
    return np.ascontiguousarray(np.moveaxis(ids, -1, axis)), int(ids.max(initial=0))


def body_contour(ct: Volume) -> np.ndarray:
    """Boolean body mask: threshold HU > -500, then fill holes per axial slice.

    A background voxel becomes foreground when it is not 4-connected to the
    border of its slice, so air cavities inside the body (lungs, bowel gas)
    are included while exterior air stays out. ``ct`` is an HU volume or a
    bare array of HU values.

    The flood from the border runs on all slices at once: sweeps along x
    and y alternate, and each marks every run of background voxels along
    its axis that holds a reached voxel, until two sweeps in a row reach
    nothing new.
    """
    if isinstance(ct, Volume):
        ct.check_space("HU", "the body contour's CT")
    free = ~(_voxels(ct) > np.float64(BODY_THRESHOLD_HU))
    reach = free.copy()
    reach[1:-1, 1:-1] = False  # the flood starts from each slice's border
    runs = [_run_ids(free, 0), _run_ids(free, 1)]
    reached = int(np.count_nonzero(reach))
    quiet = 0
    sweep = 0
    while quiet < 2:
        ids, n_runs = runs[sweep % 2]
        hit = np.zeros(n_runs + 1, dtype=bool)
        hit[ids[reach]] = True
        reach = hit[ids]
        count = int(np.count_nonzero(reach))
        quiet = quiet + 1 if count == reached else 0
        reached = count
        sweep += 1
    return ~reach


def region_masks(ct: Volume, bone_threshold_hu: float = BONE_THRESHOLD_HU) -> dict:
    """Body contour of ``ct`` (``whole``), split into ``soft`` and ``bone`` at an HU boundary."""
    if not abs(bone_threshold_hu) < np.inf:
        raise DomainError(f"bone threshold must be finite, got {bone_threshold_hu}")
    vox = _voxels(ct)
    bone = np.float64(bone_threshold_hu)  # compared in float64 on float32 voxels too
    whole = body_contour(ct)
    return {"whole": whole, "soft": whole & (vox < bone), "bone": whole & (vox >= bone)}


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


def _masked_diff(p: np.ndarray, g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``p[m] - g[m]`` in float64."""
    return np.subtract(p[m], g[m], dtype=np.float64)


def _mae(d: np.ndarray) -> float:
    return float(np.abs(d).mean())


def _psnr(d: np.ndarray, peak: float = PSNR_PEAK) -> float:
    mse = float((d ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def mae(pred, gt, mask) -> float:
    """Mean absolute error over masked voxels, in HU."""
    return _mae(_masked_diff(*_check_aligned(pred, gt, mask)))


def psnr(pred, gt, mask, peak: float = PSNR_PEAK) -> float:
    """10*log10(peak^2 / masked MSE); identical volumes give +inf."""
    return _psnr(_masked_diff(*_check_aligned(pred, gt, mask)), peak)


def _gaussian_kernel_1d():
    half = _SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * _SSIM_SIGMA ** 2))
    return k / k.sum()


def _window_mean(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Gaussian-window means at every full-window center of each axial slice.

    ``a`` is [X, Y, Z]; the window spans axes 0 and 1, filtered in turn by
    :func:`volume.correlate_valid` (taps summed pairwise from the outside
    in). Every value depends on its own slice alone, and report bytes
    depend on this order.
    """
    return correlate_valid(correlate_valid(a, kernel, 0), kernel, 1)


def _ssim_map(p: np.ndarray, g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Local SSIM at every full-window center of each axial slice of ``p`` and ``g``."""
    mu_x = _window_mean(p, kernel)
    mu_y = _window_mean(g, kernel)
    var_x = _window_mean(p * p, kernel) - mu_x * mu_x
    var_y = _window_mean(g * g, kernel) - mu_y * mu_y
    cov = _window_mean(p * g, kernel) - mu_x * mu_y
    return ((2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
            / ((mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)))


def _check_window(shape) -> None:
    """Raise DomainError unless an axial slice of ``shape`` holds a full SSIM window."""
    if shape[0] < _SSIM_WINDOW or shape[1] < _SSIM_WINDOW:
        raise DomainError(
            f"in-plane extents {tuple(shape[:2])} are smaller than the "
            f"{_SSIM_WINDOW}x{_SSIM_WINDOW} window")


def _centers(mask: np.ndarray) -> np.ndarray:
    """The part of ``mask`` at full-window centers of each axial slice."""
    half = _SSIM_WINDOW // 2
    return mask[half:-half, half:-half]


def _ssim_slab(p: np.ndarray, g: np.ndarray, centers, out: np.ndarray) -> None:
    """Masked SSIM sums of one z-slab: ``out[k, z]`` sums the SSIM map of
    slice ``z`` over ``centers[k][:, :, z]``.

    The five window means and the SSIM map are formed from float64 copies
    of the slab, so a process holds one slab's maps, never a case's.
    """
    # contiguous float64 copies: numpy runs the window sums far slower on
    # strided slabs
    s = _ssim_map(np.ascontiguousarray(p, dtype=np.float64),
                  np.ascontiguousarray(g, dtype=np.float64), _gaussian_kernel_1d())
    for k, c in enumerate(centers):
        for z in range(s.shape[2]):
            out[k, z] = s[:, :, z][c[:, :, z]].sum()


def _slice_order_means(sums: np.ndarray, weights) -> list[float]:
    """Each row of per-slice masked SSIM sums, added in slice order, over its center count.

    The sum does not depend on the slab size, nor on which process formed a slab.
    """
    if 0 in weights:
        raise DomainError("mask contains no full-window centers")
    means = []
    for row, weight in zip(sums, weights):
        weighted = 0.0
        for value in row:
            weighted += float(value)
        means.append(weighted / weight)
    return means


def _ssim_means(p: np.ndarray, g: np.ndarray, masks) -> list[float]:
    """Masked mean SSIM for each of ``masks``, one z-slab (:func:`_ssim_slab`) at a time."""
    _check_window(p.shape)
    centers = [_centers(m) for m in masks]
    sums = np.empty((len(masks), p.shape[2]))
    for z0 in range(0, p.shape[2], SLAB):
        zs = slice(z0, z0 + SLAB)
        _ssim_slab(p[:, :, zs], g[:, :, zs], [c[:, :, zs] for c in centers], sums[:, zs])
    return _slice_order_means(sums, [int(np.count_nonzero(c)) for c in centers])


def ssim(pred, gt, mask) -> float:
    """Masked mean structural similarity over axial slices.

    Local SSIM uses an 11x11 Gaussian window (sigma 1.5) with the stabilizers
    C1 = (0.01 * 4000)^2 and C2 = (0.03 * 4000)^2, evaluated at window
    centers whose full window fits in the slice. Slice means over masked
    centers are combined weighted by their masked-center counts.
    """
    p, g, m = _check_aligned(pred, gt, mask)
    return _ssim_means(p, g, [m])[0]


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """``|a|``, ``|b|`` and ``|a & b|`` of two boolean masks."""
    return int(np.count_nonzero(a)), int(np.count_nonzero(b)), int(np.count_nonzero(a & b))


def _dice(size_a: int, size_b: int, both: int) -> float:
    """Dice overlap from the sizes of two masks and of their intersection."""
    total = size_a + size_b
    return 2.0 * both / total if total else 1.0


def dsc(pred_ct, gt_ct, region: str, bone_threshold_hu: float = BONE_THRESHOLD_HU) -> float:
    """Dice overlap of the region mask derived independently from each volume.

    Both volumes go through the same body-contour + HU-partition rules; if
    both derived masks are empty the score is 1.0.
    """
    check_region(region)
    _check_aligned(pred_ct, gt_ct)
    return _dice(*_overlap(region_masks(pred_ct, bone_threshold_hu)[region],
                           region_masks(gt_ct, bone_threshold_hu)[region]))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``, each tie group sharing the mean of its ranks."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


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
    ranks = _average_ranks(np.abs(diffs))
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
    if not 0.0 < cap < np.inf:
        raise DomainError(f"colormap cap must be finite and > 0, got {cap}")
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
    diff = np.where(m, np.subtract(p, g, dtype=np.float64), 0.0)
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
                  bone_threshold_hu: float = BONE_THRESHOLD_HU, *,
                  truth: dict | None = None, workers: int = 1) -> list[dict]:
    """All four metrics over the three regions for one predicted/true pair.

    MAE, PSNR and SSIM use region masks derived from the ground truth; DSC
    compares the masks derived independently from each volume. Each value
    equals what :func:`mae`, :func:`psnr`, :func:`ssim` or :func:`dsc`
    returns for its region. Returns CSV row dicts (case_id, region, metric,
    value).

    The z-slabs of ``SLAB`` axial slices are one round of a pool of at most
    ``workers`` processes. Each slab's task builds both volumes' region
    masks of its slices (each contour is filled per axial slice, so a
    slab's masks are that slab of the whole volume's), writes the truth's
    masks into shared arrays, and writes its per-slice masked SSIM sums and
    the mask sizes that SSIM and Dice need; the prediction's masks are
    never stored. The calling process then adds the SSIM sums in slice
    order and takes MAE and PSNR over the truth's whole-volume masks, so
    the rows are the same at any worker count. A caller that also needs
    the truth's masks (``region_masks(gt, bone_threshold_hu)``) passes a
    dict as ``truth``, which receives them, so no contour is built twice.
    """
    pred.check_space("HU", "the predicted volume")
    gt.check_space("HU", "the true volume")
    if pred.dims != gt.dims:
        raise ShapeError(f"volume dims differ: {pred.dims} vs {gt.dims}")
    p, g = pred.voxels, gt.voxels
    nx, ny, nz = gt.dims
    slabs = -(-nz // SLAB)
    fits = min(nx, ny) >= _SSIM_WINDOW  # else the SSIM check below raises
    masks = {region: shared_array(gt.dims, bool) for region in REGIONS}
    sums = shared_array((len(REGIONS), nz), np.float64)
    # per slab and region: SSIM centers, then |derived|, |truth|, |derived & truth|
    counts = shared_array((slabs, 4, len(REGIONS)), np.int64)

    def run(lo, hi):
        for k in range(lo, hi):
            zs = slice(k * SLAB, (k + 1) * SLAB)
            own = region_masks(g[:, :, zs], bone_threshold_hu)
            derived = region_masks(p[:, :, zs], bone_threshold_hu)
            for i, region in enumerate(REGIONS):
                masks[region][:, :, zs] = own[region]
                counts[k, :, i] = (np.count_nonzero(_centers(own[region])),
                                   *_overlap(derived[region], own[region]))
            if fits:
                _ssim_slab(p[:, :, zs], g[:, :, zs],
                           [_centers(own[region]) for region in REGIONS], sums[:, zs])

    with Pool(run, workers, slabs, nx * ny * SLAB * _SLAB_BYTES_PER_VOXEL) as pool:
        pool.round()
    if truth is not None:
        truth.update(masks)
    values = {"mae": [], "psnr": []}
    for region in REGIONS:  # one masked difference per region for MAE and PSNR
        d = _masked_diff(*_check_aligned(pred, gt, masks[region]))
        values["mae"].append(_mae(d))
        values["psnr"].append(_psnr(d))
    _check_window(gt.dims)
    centers, *overlaps = counts.sum(axis=0).tolist()
    values["ssim"] = _slice_order_means(sums, centers)
    values["dsc"] = [_dice(*sizes) for sizes in zip(*overlaps)]
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
    is a finite number or +inf (identical volumes have infinite PSNR) in the
    text the writer gives it, the ``repr`` of a float, and
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
        if repr(value) != text:
            raise FormatError(f"{where}: value {text!r} is not a float repr ({value!r})")
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


def check_region(region: str) -> None:
    """Raise DomainError unless ``region`` is one of ``REGIONS``."""
    if region not in REGIONS:
        raise DomainError(f"region must be one of {REGIONS}, got {region!r}")


def check_metric(metric: str) -> None:
    """Raise DomainError unless ``metric`` is one of ``METRICS``."""
    if metric not in METRICS:
        raise DomainError(f"metric must be one of {METRICS}, got {metric!r}")


def check_alpha(alpha: float) -> None:
    """Raise DomainError unless the significance level ``alpha`` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")


def compare_reports(rows_a, rows_b, metric: str, region: str,
                    label_a: str = "A", label_b: str = "B",
                    alpha: float = 0.05) -> dict:
    """Paired Wilcoxon test between two reports on one metric and region.

    Cases are paired by case_id (the intersection, sorted); the JSON-ready
    result records the comparison, the number of nonzero differences, W,
    the two-sided p, and significance at ``alpha`` (see :func:`check_alpha`).
    """
    check_metric(metric)
    check_region(region)
    check_alpha(alpha)

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
