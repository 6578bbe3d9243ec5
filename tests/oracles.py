"""Slow, explicit reference implementations shared by the test suite.

Everything here trades speed for obviousness: python loops, BFS with an
explicit queue, full enumeration. Tests compare the fast library code
against these.
"""

import itertools
from collections import deque

import numpy as np


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
