"""Slow, explicit reference implementations shared by the test suite.

Everything here trades speed for obviousness: python loops, BFS with an
explicit queue, full enumeration. Tests compare the fast library code
against these.
"""

import itertools
from collections import deque

import numpy as np

from vqsct import autograd as ag
from vqsct.errors import ShapeError
from vqsct.volume import NORMALIZED_AIR


def conv_window_sum(x, w, b=None, stride=1, pad=0):
    """Convolution as a sum over kernel offsets, one window copy each.

    For every offset the strided input window is copied and contracted with
    that offset's weights by ``np.tensordot``; the terms are added onto
    zeros in ``itertools.product`` order and the bias comes last. This is
    the summation ``autograd.conv_forward_data`` reproduces byte for byte.
    """
    rank = x.ndim - 1
    out_sp = tuple((d + 2 * pad - k) // stride + 1
                   for d, k in zip(x.shape[1:], w.shape[2:]))
    if pad:
        x = np.pad(x, [(0, 0)] + [(pad, pad)] * rank)
    c_out = w.shape[0]
    out = np.zeros((c_out,) + out_sp, dtype=x.dtype)
    for off in itertools.product(*(range(k) for k in w.shape[2:])):
        win = x[(slice(None),) + tuple(slice(o, o + stride * (n - 1) + 1, stride)
                                       for o, n in zip(off, out_sp))]
        out += np.tensordot(w[(slice(None), slice(None)) + off], win,
                            axes=([1], [0]))
    if b is not None:
        out += b.reshape((c_out,) + (1,) * rank)
    return out


def conv_window_grads(x, w, gy, stride=1, pad=0):
    """Gradients of a convolution, one strided input window per kernel offset.

    For every offset the weight gradient is ``np.tensordot`` of ``gy`` with
    the copied input window, and the input gradient adds the offset's
    weights contracted with ``gy`` into that window of a padded buffer.
    Returns ``(grad_x, grad_w, grad_b)`` like ``autograd.conv_backward_data``.
    """
    rank = x.ndim - 1
    out_sp = gy.shape[1:]
    xp = np.pad(x, [(0, 0)] + [(pad, pad)] * rank) if pad else x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    spatial_axes = tuple(range(1, rank + 1))
    for off in itertools.product(*(range(k) for k in w.shape[2:])):
        sl = (slice(None),) + tuple(slice(o, o + stride * (n - 1) + 1, stride)
                                    for o, n in zip(off, out_sp))
        gw[(slice(None), slice(None)) + off] = np.tensordot(
            gy, xp[sl], axes=(spatial_axes, spatial_axes))
        gxp[sl] += np.tensordot(w[(slice(None), slice(None)) + off], gy,
                                axes=([0], [0]))
    gx = gxp[(slice(None),) + tuple(slice(pad, pad + d) for d in x.shape[1:])] if pad else gxp
    return gx, gw, gy.sum(axis=spatial_axes)


def _repeat2(x):
    """Nearest 2x upsampling: every voxel repeated twice along each spatial axis."""
    for axis in range(1, x.ndim):
        x = np.repeat(x, 2, axis=axis)
    return x


def upsample_conv_ref(x, w, b=None):
    """Nearest 2x upsampling by ``np.repeat``, then a pad-1 window-sum conv."""
    return conv_window_sum(_repeat2(x), w, b, stride=1, pad=1)


def upsample_conv_ref_grads(x, w, gy):
    """Gradients of :func:`upsample_conv_ref`: the window-by-window conv
    gradients on the upsampled map, and the input gradient summed over each
    2^rank block. Returns ``(grad_x, grad_w, grad_b)``."""
    gu, gw, gb = conv_window_grads(_repeat2(x), w, gy, stride=1, pad=1)
    shape = [gu.shape[0]]
    for d in x.shape[1:]:
        shape.extend((d, 2))
    return gu.reshape(shape).sum(axis=tuple(range(2, 2 * x.ndim, 2))), gw, gb


def phase_kernels_split(w):
    """Sub-pixel kernels of ``[C_out, C_in, 3, ...]`` taps by split and concatenate.

    Axis by axis, phase 0 takes taps ``(w0, w1 + w2)`` and phase 1 takes
    ``(w0 + w1, w2)``; the phases are stacked ahead of the output channels,
    row-major over the axes. The sums are those ``autograd.phase_kernels``
    forms, in the same order.
    """
    rank = w.ndim - 2
    k = w[None]
    for ax in range(3, 3 + rank):
        t0, t1, t2 = np.split(k, 3, axis=ax)
        k = np.stack((np.concatenate((t0, t1 + t2), axis=ax),
                      np.concatenate((t0 + t1, t2), axis=ax)), axis=1)
        k = k.reshape((-1,) + k.shape[2:])
    return k.reshape((-1,) + w.shape[1:2] + (2,) * rank)


def phase_kernel_grads_split(gk, w_shape):
    """Adjoint of :func:`phase_kernels_split` by split and concatenate, the
    last axis's phases first: ``w0 = p0a + p1a``, ``w1 = p0b + p1a``,
    ``w2 = p0b + p1b`` with ``p0a`` phase 0's first tap."""
    rank = len(w_shape) - 2
    k = gk.reshape((-1,) + tuple(w_shape[:2]) + (2,) * rank)
    for ax in range(2 + rank, 2, -1):
        k = k.reshape((-1, 2) + k.shape[1:])
        (p0a, p0b), (p1a, p1b) = (np.split(k[:, p], 2, axis=ax) for p in (0, 1))
        k = np.concatenate((p0a + p1a, p0b + p1a, p0b + p1b), axis=ax)
    return k.reshape(w_shape)


def mul(a, b):
    """Elementwise product node of two same-shape tensors.

    Each factor's gradient is the upstream gradient times the other factor,
    so a test loss such as ``sum_all(mul(out, out))`` has a plain derivative.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    return ag.Tensor(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def sum_all(a):
    """Scalar loss node: the sum of every element of ``a``.

    Its vjp hands the upstream scalar to every element, so the gradient of a
    test loss built on it is the plain derivative of the summed expression.
    """
    return ag.Tensor(np.asarray(a.data.sum()), "sum", (a,),
                     lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def flood_fill_body(slice_hu, threshold=-500.0):
    """Body mask of one 2D slice via border-seeded BFS over 4-neighbours.

    Foreground is HU strictly above the threshold. Background connected to
    the slice border through edge-adjacent background steps is outside air;
    everything else (foreground plus enclosed background) is body.
    """
    fg = np.asarray(slice_hu) > threshold
    h, w = fg.shape
    outside = np.zeros((h, w), dtype=bool)
    queue = deque()

    def seed(i, j):
        if not fg[i, j] and not outside[i, j]:
            outside[i, j] = True
            queue.append((i, j))

    for i in range(h):
        seed(i, 0)
        seed(i, w - 1)
    for j in range(w):
        seed(0, j)
        seed(h - 1, j)
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < h and 0 <= nj < w and not fg[ni, nj] \
                    and not outside[ni, nj]:
                outside[ni, nj] = True
                queue.append((ni, nj))
    return ~outside


def unit(rows):
    """Rows divided by their Euclidean norm (no zero rows expected)."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def brute_force_assign(inputs, codes):
    """Nearest-code-by-cosine scan with explicit loops; ties pick lowest index."""
    normed = inputs / np.maximum(np.linalg.norm(inputs, axis=1, keepdims=True),
                                 1e-12)
    normed[np.linalg.norm(inputs, axis=1) == 0.0] = 0.0
    normed[np.linalg.norm(inputs, axis=1) == 0.0, 0] = 1.0
    out = np.zeros(len(inputs), dtype=np.int64)
    for i, row in enumerate(normed):
        best, best_sim = 0, -np.inf
        for j, code in enumerate(codes):
            sim = float(np.dot(row, code))
            if sim > best_sim:
                best, best_sim = j, sim
        out[i] = best
    return out


def kmeans_centroids_by_gather(unit_rows, n_codes, seed=0):
    """``codebook.kmeans_init``'s centroids with one boolean gather per code.

    Each Lloyd iteration takes every code's members by ``pts[assign == i]``
    in code order and sets the code to their mean, or, for a code without
    members, to a random batch row drawn then; rows are then normalized.
    """
    from vqsct.codebook import KMEANS_ITERS, _normalize_rows
    pts = np.asarray(unit_rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(pts.shape[0], size=n_codes, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        assign = np.argmax(pts @ centroids.T, axis=1)
        for i in range(n_codes):
            members = pts[assign == i]
            if members.shape[0] == 0:
                centroids[i] = pts[rng.integers(pts.shape[0])]
            else:
                centroids[i] = members.mean(axis=0)
        centroids = _normalize_rows(centroids)[0]
    return centroids


def midranks(values):
    """Ranks 1..n with ties sharing the average rank, written longhand."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def wilcoxon_enum(x, y):
    """Exact two-sided signed-rank test by enumerating all sign assignments.

    Zero differences are dropped first. Returns (W, p) where W is the
    smaller rank sum and p the fraction of the 2^n assignments whose
    smaller rank sum is <= W.
    """
    diffs = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    ranks = midranks(np.abs(diffs))
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    total = ranks.sum()
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        plus = sum(r for r, b in zip(ranks, bits) if b)
        if min(plus, total - plus) <= w_obs + 1e-9:
            count += 1
    return float(w_obs), count / 2.0 ** n


def mae_loop(pred, gt, mask):
    """Masked mean absolute error, one voxel at a time."""
    total = 0.0
    count = 0
    for idx in np.ndindex(pred.shape):
        if mask[idx]:
            total += abs(float(pred[idx]) - float(gt[idx]))
            count += 1
    return total / count


def psnr_loop(pred, gt, mask, peak=4000.0):
    """Masked PSNR from a voxel-by-voxel squared-error sum."""
    total = 0.0
    count = 0
    for idx in np.ndindex(pred.shape):
        if mask[idx]:
            d = float(pred[idx]) - float(gt[idx])
            total += d * d
            count += 1
    mse = total / count
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def ssim_window(x, y, ci, cj, window=11, sigma=1.5, c1=(0.01 * 4000.0) ** 2,
                c2=(0.03 * 4000.0) ** 2):
    """SSIM of the single window centred at (ci, cj) of two 2D arrays."""
    half = window // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    k1 = np.exp(-(offs * offs) / (2.0 * sigma * sigma))
    k1 /= k1.sum()
    kern = np.outer(k1, k1)
    wx = np.asarray(x, dtype=np.float64)[ci - half:ci + half + 1,
                                         cj - half:cj + half + 1]
    wy = np.asarray(y, dtype=np.float64)[ci - half:ci + half + 1,
                                         cj - half:cj + half + 1]
    mx = (kern * wx).sum()
    my = (kern * wy).sum()
    vx = (kern * wx * wx).sum() - mx * mx
    vy = (kern * wy * wy).sum() - my * my
    cov = (kern * wx * wy).sum() - mx * my
    return ((2.0 * mx * my + c1) * (2.0 * cov + c2)
            / ((mx * mx + my * my + c1) * (vx + vy + c2)))


def ssim_means_whole_case(p, g, masks):
    """Masked mean SSIM per mask from one SSIM map of the whole case.

    The five Gaussian window means span all axial slices at once, and each
    mask's masked sums are added slice by slice in slice order: the form
    ``evaluation._ssim_means`` takes one z-slab at a time, byte for byte.
    """
    from vqsct.evaluation import (_SSIM_C1, _SSIM_C2, _SSIM_WINDOW,
                                  _gaussian_kernel_1d, _window_mean)
    half = _SSIM_WINDOW // 2
    kernel = _gaussian_kernel_1d()
    mu_x = _window_mean(p, kernel)
    mu_y = _window_mean(g, kernel)
    var_x = _window_mean(p * p, kernel) - mu_x * mu_x
    var_y = _window_mean(g * g, kernel) - mu_y * mu_y
    cov = _window_mean(p * g, kernel) - mu_x * mu_y
    s = ((2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
         / ((mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)))
    means = []
    for m in masks:
        c = m[half:-half, half:-half]
        weighted = 0.0
        for z in range(p.shape[2]):
            weighted += float(s[:, :, z][c[:, :, z]].sum())
        means.append(weighted / int(np.count_nonzero(c)))
    return means


def evaluate_case_whole_volume(pred, gt, case_id="case", bone_threshold_hu=300.0):
    """``evaluation.evaluate_case``'s rows from whole-volume masks in one process.

    The voxels are widened to float64 first. Both volumes' region masks are
    built over the whole volume at once; MAE and PSNR are taken over each
    truth mask, SSIM from one map of the whole case
    (:func:`ssim_means_whole_case`), and Dice from the whole masks' sums.
    """
    from vqsct.evaluation import METRICS, PSNR_PEAK, REGIONS, region_masks
    truth = region_masks(gt, bone_threshold_hu)
    derived = region_masks(pred, bone_threshold_hu)
    p, g = (np.asarray(v.voxels, dtype=np.float64) for v in (pred, gt))
    values = {metric: [] for metric in METRICS}
    for region in REGIONS:
        m = truth[region]
        d = p[m] - g[m]
        values["mae"].append(float(np.abs(d).mean()))
        mse = float((d ** 2).mean())
        values["psnr"].append(float("inf") if mse == 0.0
                              else float(10.0 * np.log10(PSNR_PEAK * PSNR_PEAK / mse)))
        a, b = derived[region], m
        total = int(a.sum()) + int(b.sum())
        values["dsc"].append(2.0 * int((a & b).sum()) / total if total else 1.0)
    values["ssim"] = ssim_means_whole_case(p, g, [truth[region] for region in REGIONS])
    return [{"case_id": str(case_id), "region": region, "metric": metric,
             "value": float(values[metric][i])}
            for i, region in enumerate(REGIONS) for metric in METRICS]


def graph_input_pad_then_cast(values, depth, space):
    """A slice or cube as the training and inference code once prepared it.

    The values are padded in float64 at the high end of each axis with the
    space's air up to a multiple of ``2 ** depth``, then cast to float32,
    and the leading channel axis is added.
    """
    arr = np.asarray(values, dtype=np.float64)
    div = 2 ** depth
    pads = [(0, (-n) % div) for n in arr.shape]
    padded = np.pad(arr, pads, mode="constant", constant_values=NORMALIZED_AIR[space])
    return padded.astype(np.float32)[None]


def array_symmetry(values, element):
    """One square (2D) or cube (3D) symmetry of one array.

    ``element // 2**rank`` picks the axis permutation in
    ``itertools.permutations`` order and the low ``rank`` bits flip the
    permuted axes, one ``np.flip`` each.
    """
    rank = values.ndim
    out = np.transpose(values, list(itertools.permutations(range(rank)))[element // 2 ** rank])
    for axis in range(rank):
        if element & (1 << axis):
            out = np.flip(out, axis=axis)
    return out.copy()


def reconstruct_cubes_stitched(ckpt, volume, edge):
    """3D reconstruction as ``pipeline.reconstruct_cubes`` once ran it, in HU.

    The whole normalized volume is padded with air to multiples of ``edge``,
    every cube is copied out of it and run through the model, the float32
    outputs are stitched into a float64 padded grid, which is cropped and
    mapped to HU as a whole.
    """
    from vqsct.model import GRAPH_DTYPE, forward, graph_input, param_tensors, value_space
    from vqsct.volume import normalized_to_hu

    space = value_space(ckpt)
    pads = [(0, (-n) % edge) for n in volume.dims]
    padded = np.pad(volume.voxels, pads, constant_values=NORMALIZED_AIR[space])
    params = param_tensors(ckpt, GRAPH_DTYPE)
    stitched = np.zeros(padded.shape)
    for ox, oy, oz in itertools.product(*(range(0, n, edge) for n in padded.shape)):
        window = (slice(ox, ox + edge), slice(oy, oy + edge), slice(oz, oz + edge))
        cube = graph_input(ckpt.config, padded[window].copy(), space)
        stitched[window] = forward(ckpt, cube, params).output.data[0]
    x, y, z = volume.dims
    return normalized_to_hu(stitched[:x, :y, :z].copy(), space)
