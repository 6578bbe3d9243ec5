"""Minimal reverse-mode automatic differentiation over numpy arrays.

The computation graph is a DAG of :class:`Tensor` nodes built eagerly as
operations are applied. Each non-leaf node records its parent nodes and a
vector-Jacobian closure. :func:`backward` returns the gradients of a scalar
loss with respect to the requested leaves only: it walks, in reverse
topological order, just the nodes that lie on a path from a requested leaf
to the loss, and drops each intermediate gradient once it has been passed on.

Conventions:

* feature maps are ``[channels, *spatial]`` with spatial rank 2 or 3 and no
  batch axis: a graph holds one input, and training sums the gradients of
  one graph per batch item;
* a graph runs in the dtype of its leaves, and every op returns, and every
  vjp passes back, its parent's dtype: :func:`leaf` defaults to float64,
  which the gradient checks need, and production graphs are float32 over
  float32 casts of float64 master weights (see ``model.forward``);
* the convolution forward is a polyphase flat-shift GEMM: each kernel
  offset multiplies its weights with one contiguous slice of a flattened,
  zero-padded polyphase grid of the input, and the offsets are added in
  ``itertools.product`` order (see :func:`conv_forward_data`); the backward
  is its transpose on the same grids and shifts (see
  :func:`conv_backward_data`). Everything that depends on shapes alone
  (output extents, grid slices, shifts) is planned once per shape and
  cached, and each call lays its weights out once, one matrix per offset;
* a decoder stage, nearest 2x upsampling and a 3-tap conv, is one node
  (:func:`upsample_conv`): one conv with 2-tap sub-pixel kernels on the
  low-resolution map, one output phase per channel block. The kernels are
  a node of their own (:func:`phase_kernels`), so a step or command that
  shares one weight across many graphs collapses it once;
* reduction order is fixed, so identical inputs give bit-identical results
  at a fixed thread count.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "leaf",
    "add",
    "sub",
    "scale",
    "mean_all",
    "abs_val",
    "leaky_relu",
    "conv",
    "conv_forward_data",
    "conv_backward_data",
    "phase_kernels",
    "upsample_conv",
    "straight_through",
    "backward",
]


class Tensor:
    """One node of the computation graph.

    ``data`` is the forward value. ``parents`` and ``vjp`` describe how the
    node was made: ``vjp(upstream)`` returns one gradient array per parent.
    """

    __slots__ = ("data", "op", "parents", "vjp")

    def __init__(self, data, op="leaf", parents=(), vjp=None):
        self.data = data
        self.op = op
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def leaf(data, dtype=np.float64) -> Tensor:
    """Create a graph-boundary node; rejects NaN/Inf."""
    arr = np.asarray(data, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite values at graph boundary")
    return Tensor(arr)


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return Tensor(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return Tensor(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, "scale", (a,), lambda g: (g * c,))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return Tensor(np.asarray(a.data.mean()), "mean", (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def abs_val(a: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return Tensor(np.abs(a.data), "abs", (a,), lambda g: (g * np.sign(a.data),))


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    if not 0.0 <= slope < 1.0:
        raise DomainError(f"leaky_relu slope must be in [0, 1), got {slope}")
    # with slope < 1, max(x, slope*x) is x for x >= 0 (both zeros keep x's
    # sign) and slope*x below: the bytes of where(x >= 0, x, slope*x)
    out = a.data * slope
    np.maximum(a.data, out, out=out)
    # g * 1 is g and g * slope is slope * g, both in the graph's dtype: the
    # bytes of where(x >= 0, g, slope * g) without its per-element branch
    return Tensor(out, "leaky_relu", (a,),
                  lambda g: (g * np.maximum(a.data >= 0, a.data.dtype.type(slope)),))


# conv_forward_data equals a window-by-window product byte for byte only
# where every output meets the same BLAS kernel. OpenBLAS rounds the last
# ``n mod 8`` (gemm) or ``n mod 4`` (gemv) columns of an ``n``-column product
# in remainder kernels, and products with M*N*K up to 100**3 in small-matrix
# kernels whose remainders round differently again. A block of 64 columns
# has no remainder, and its results do not depend on the product's width.
# These are the float64 (dgemm) periods; sgemm's differ, so float32 convs
# skip the remainder recompute, which buys them no byte identity.
_GEMM_BLOCK = 64
_SMALL_GEMM = 100 ** 3
# Columns of the wide output per GEMM, so that the slab being accumulated
# and the term added to it stay in cache across all kernel offsets.
_GEMM_COLUMNS = 8192


@functools.lru_cache(maxsize=1024)
def _conv_geometry(x_shape, w_shape, stride, pad):
    """Validate conv operands and return the flat-shift plan of both passes.

    Returns ``(out_sp, grid, rowstride, rows, phases, offsets)``: the output
    extents ``S'``, the polyphase grid ``Q = ceil((S + 2*pad)/stride)``, its
    row-major strides, the ``out_sp[0]`` grid rows' length of the wide
    output; per polyphase component that some kernel offset takes, ``(r,
    dst, src, taps)``: its residue, the slices of :func:`_phase_slices`, and
    ``(a, lead - shift)`` for each offset it holds, where ``lead`` is the
    largest shift (the backward's gather start); and per kernel offset ``a``,
    in ``itertools.product`` order, ``(a, a % stride, shift)``: the
    component that holds the offset's window, and where in it the window
    starts. The result depends on the shapes alone, so it is cached on them;
    every part of it is a tuple, which callers cannot alter.
    """
    rank = len(x_shape) - 1
    if rank not in (2, 3):
        raise ShapeError(f"conv: spatial rank must be 2 or 3, got {rank}")
    if len(w_shape) != rank + 2:
        raise ShapeError(f"conv: kernel rank {len(w_shape)} does not match input rank {len(x_shape)}")
    if w_shape[1] != x_shape[0]:
        raise ShapeError(f"conv: kernel expects {w_shape[1]} input channels, input has {x_shape[0]}")
    if stride not in (1, 2):
        raise DomainError(f"conv: stride must be 1 or 2, got {stride}")
    if pad < 0:
        raise DomainError("conv: negative padding")
    for k in w_shape[2:]:
        if k != 2 and k % 2 == 0:
            raise DomainError(f"conv: kernel extent {k} must be odd or 2")
    out = []
    for d, k in zip(x_shape[1:], w_shape[2:]):
        o = (d + 2 * pad - k) // stride + 1
        if o <= 0:
            raise DomainError(f"conv: non-positive output extent for input {d}, kernel {k}, stride {stride}, pad {pad}")
        out.append(o)
    out_sp = tuple(out)
    grid = tuple(-(-(d + 2 * pad) // stride) for d in x_shape[1:])
    rowstride = tuple(math.prod(grid[i + 1:]) for i in range(rank))
    offsets = tuple((off, tuple(o % stride for o in off),
                     sum(o // stride * rs for o, rs in zip(off, rowstride)))
                    for off in itertools.product(*(range(k) for k in w_shape[2:])))
    lead = offsets[-1][2]  # the last offset shifts furthest
    phases = tuple((r,) + _phase_slices(r, x_shape[1:], stride, pad)
                   + (tuple((off, lead - shift) for off, residue, shift in offsets if residue == r),)
                   for r in itertools.product(*(range(min(stride, k)) for k in w_shape[2:])))
    return out_sp, grid, rowstride, out_sp[0] * rowstride[0], phases, offsets


def _phase_slices(r, extents, stride, pad):
    """Where polyphase component ``r`` meets the input, as (grid, input) slices.

    Grid index ``j`` of component ``r`` holds padded position ``stride*j +
    r``; the returned slices pair the grid indices that fall inside the input
    with the input positions they hold, axis by axis.
    """
    dst, src = [slice(None)], [slice(None)]
    for ri, d in zip(r, extents):
        j0 = max(0, -(-(pad - ri) // stride))  # first grid index inside the input
        first = stride * j0 + ri - pad
        dst.append(slice(j0, j0 + len(range(first, d, stride))))
        src.append(slice(first, d, stride))
    return tuple(dst), tuple(src)


def _polyphase_grids(x, stride, pad, phases, grid, length):
    """Flattened polyphase components of the zero-padded input.

    Component ``r`` holds the padded input at positions ``stride*j + r`` on
    the grid ``grid``, row-major, zero-filled to ``length`` elements; only
    the residues of ``phases`` (from :func:`_conv_geometry`) are built. An
    unpadded stride-1 input that needs no zero tail is its own single
    component.
    """
    c_in = x.shape[0]
    size = math.prod(grid)
    if stride == 1 and pad == 0 and length == size:
        return {phases[0][0]: x.reshape(c_in, size)}
    components = {}
    for r, dst, src, _ in phases:
        buf = np.zeros((c_in, length), dtype=x.dtype)
        buf[:, :size].reshape((c_in,) + grid)[dst] = x[src]
        components[r] = buf
    return components


def conv_forward_data(x, w, b=None, stride=1, pad=0):
    """Convolution on raw arrays as a polyphase flat-shift GEMM.

    ``x`` is ``[C_in, *S]``, ``w`` is ``[C_out, C_in, *K]``; output is
    ``[C_out, *S']`` with ``S' = floor((S + 2*pad - K)/stride) + 1``.

    The zero-padded input is split into its polyphase components, one per
    residue ``a % stride`` that a kernel offset ``a`` takes (stride 1 has
    just the padded input). Each lies on a common grid ``Q = ceil((S +
    2*pad)/stride)``, flattened row-major with a zero tail, so the window of
    offset ``a`` is one contiguous slice of component ``a % stride`` that
    starts at shift ``a // stride``. Each offset is then one GEMM
    ``w[:, :, *a] @ slice`` into a "wide" output that keeps all ``Q[1:]``
    columns of every grid row; the surplus columns are cropped at the end.
    The GEMMs run over ``_GEMM_COLUMNS``-column slabs of the wide output.
    With one input channel every term is one exact product, which ``np.dot``
    forms faster than ``np.matmul``'s one-column GEMM.

    Offsets are added one at a time, in ``itertools.product`` order, onto
    zeros, and the bias comes last, so every output is the same sequence of
    rounded operations as in a window-by-window sum. Each output also meets
    the same BLAS kernel: where the wide output has no surplus columns, its
    GEMMs are the window-by-window ones; otherwise every wide GEMM spans
    whole ``_GEMM_BLOCK``-column blocks, and the outputs that a
    window-by-window GEMM leaves in its remainder columns are recomputed by
    a GEMM over their windows alone, of a width with the same remainder
    (over the whole output when the window-by-window GEMM is above BLAS's
    small-matrix size). That recompute targets float64's kernels; a float32
    conv keeps the order of operations but not this kernel match.
    """
    out_sp, grid, rowstride, rows, plan, geometry = _conv_geometry(x.shape, w.shape, stride, pad)
    c_out, c_in = w.shape[:2]
    n_out = math.prod(out_sp)
    if rows == n_out:  # no surplus columns: one GEMM per offset, as window by window
        redo, span, slab = 0, rows, rows
    else:
        if c_in == 1 or n_out % _GEMM_BLOCK == 0 or x.dtype != np.float64:
            redo = 0  # exact one-term products, no remainder columns, or no dgemm to match
        elif n_out * c_out * c_in <= _SMALL_GEMM:
            redo = min(n_out, n_out % _GEMM_BLOCK + _GEMM_BLOCK)
        else:
            redo = n_out
        span = 0 if redo == n_out else -(-rows // _GEMM_BLOCK) * _GEMM_BLOCK
        slab = _GEMM_COLUMNS
    reach = geometry[-1][2] + span  # the last offset shifts furthest
    phases = _polyphase_grids(x, stride, pad, plan, grid, max(math.prod(grid), reach))
    w_k = w.transpose(tuple(range(2, w.ndim)) + (0, 1))  # [*K, C_out, C_in]: w_k[a] is w[:, :, *a]
    if c_out > 1:  # np.dot copies such a matrix, but keeps one row a strided vector
        w_k = np.ascontiguousarray(w_k)
    # (weights, component, shift) per kernel offset, in summation order
    offsets = [(w_k[off], phases[residue], shift) for off, residue, shift in geometry]
    product = np.dot if c_in == 1 else np.matmul

    wide = np.zeros((c_out, max(rows, span)), dtype=x.dtype)
    scratch = np.empty(c_out * min(span, slab), dtype=x.dtype)
    for c0 in range(0, span, slab):
        c1 = min(c0 + slab, span)
        acc = wide[:, c0:c1]
        term = scratch[:c_out * (c1 - c0)].reshape(c_out, c1 - c0)
        for w_off, phase, shift in offsets:
            acc += product(w_off, phase[:, shift + c0:shift + c1], out=term)
    if redo:
        where = sum(i * rs for i, rs in zip(
            np.unravel_index(np.arange(n_out - redo, n_out), out_sp), rowstride))
        fix = np.zeros((c_out, redo), dtype=x.dtype)
        term = np.empty_like(fix)
        for w_off, phase, shift in offsets:
            fix += product(w_off, phase.take(shift + where, axis=1), out=term)
        wide[:, where] = fix
    out = np.ascontiguousarray(wide[:, :rows].reshape((c_out, out_sp[0]) + grid[1:])[
        (slice(None), slice(None)) + tuple(slice(0, n) for n in out_sp[1:])])
    if b is not None:
        out += b.reshape((c_out,) + (1,) * len(out_sp))
    return out


def conv_backward_data(x, w, gy, stride=1, pad=0):
    """Analytic gradients of :func:`conv_forward_data`.

    Returns ``(grad_x, grad_w, grad_b)``; ``grad_b`` is the spatial sum of
    ``gy`` (callers without bias ignore it).

    This is the transpose of the forward's flat-shift GEMM, on the same
    polyphase grids and per-offset shifts. ``gy`` is laid out like the
    forward's wide output, with zeros in the surplus columns, after ``lead
    = max(shift)`` zero columns. The weight gradient of offset ``a`` is then
    one GEMM, ``gwide @ slice.T``, with the forward's slice of component ``a
    % stride``. The gradient of each polyphase component is gathered from
    ``gy``: every offset of that residue adds ``w[:, :, *a].T @`` one
    contiguous slice of the padded ``gy`` that starts at ``lead - shift``,
    in ``itertools.product`` order, onto zeros, over ``_GEMM_COLUMNS``-column
    slabs; each component is then scattered back into the input's positions
    (with stride 1 the one component is the padded input, and ``grad_x`` is a
    view of its interior). With one output channel every term is one exact
    product, formed by a broadcast multiply rather than a one-column GEMM.
    """
    out_sp, grid, _, rows, plan, offsets = _conv_geometry(x.shape, w.shape, stride, pad)
    c_out, c_in = w.shape[:2]
    if gy.shape != (c_out,) + out_sp:
        raise ShapeError(f"conv backward: upstream shape {gy.shape} != output shape {(c_out,) + out_sp}")
    size = math.prod(grid)
    lead = offsets[-1][2]  # the last offset shifts furthest

    if out_sp == grid:  # no shifts and no surplus columns: gy is its own wide layout
        gbuf = np.ascontiguousarray(gy).reshape(c_out, size)
    else:
        gbuf = np.zeros((c_out, lead + size), dtype=gy.dtype)
        gbuf[:, lead:lead + rows].reshape((c_out, out_sp[0]) + grid[1:])[
            (slice(None), slice(None)) + tuple(slice(0, n) for n in out_sp[1:])] = gy
    gwide = gbuf[:, lead:lead + rows]
    phases = _polyphase_grids(x, stride, pad, plan, grid, max(size, lead + rows))

    gw = np.empty_like(w)
    for off, r, shift in offsets:
        gw[(slice(None), slice(None)) + off] = gwide @ phases[r][:, shift:shift + rows].T

    product = np.multiply if c_out == 1 else np.matmul  # [C_in, 1] * [1, n] broadcasts
    slab = min(_GEMM_COLUMNS, size)
    acc = np.empty((c_in, size), dtype=x.dtype)
    gx = None if stride == 1 else np.zeros_like(x)
    scratch = np.empty(c_in * slab, dtype=x.dtype)
    # [*K, C_in, C_out]: w_t[a] is w[:, :, *a].T
    w_t = np.ascontiguousarray(w.transpose(tuple(range(2, w.ndim)) + (1, 0)))
    for _, dst, src, taps in plan:
        terms = [(w_t[off], start) for off, start in taps]
        acc.fill(0.0)
        for c0 in range(0, size, slab):
            c1 = min(c0 + slab, size)
            part = acc[:, c0:c1]
            term = scratch[:c_in * (c1 - c0)].reshape(c_in, c1 - c0)
            for w_a, start in terms:
                part += product(w_a, gbuf[:, start + c0:start + c1], out=term)
        if stride == 1:  # one component covers the whole input: no scatter
            gx = acc.reshape((c_in,) + grid)[dst]
        else:
            gx[src] = acc.reshape((c_in,) + grid)[dst]
    gb = gy.sum(axis=tuple(range(1, gy.ndim)))
    return gx, gw, gb


def conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """N-d convolution node (spatial rank 2 or 3), optional bias."""
    y = conv_forward_data(x.data, w.data, b.data if b is not None else None, stride, pad)
    parents = (x, w) if b is None else (x, w, b)

    def vjp(g):
        return conv_backward_data(x.data, w.data, g, stride, pad)[:len(parents)]
    return Tensor(y, "conv", parents, vjp)


def _tap(a, axis, i):
    """Entry ``i`` of ``a`` along ``axis``, as a view that keeps the axis."""
    return a[(slice(None),) * axis + (slice(i, i + 1),)]


def _phase_kernels(w):
    """Collapse ``[C_out, C_in, 3, ...]`` taps into the sub-pixel kernels.

    Along each spatial axis, output phase 0 of a nearest 2x upsampling
    followed by a pad-1 conv sees taps ``(w0, w1 + w2)`` on the
    low-resolution input, and phase 1 sees ``(w0 + w1, w2)``; the axes are
    collapsed in order, each on the previous axis's result. Returns
    ``[2^rank * C_out, C_in, 2, ...]``; output channel ``p * C_out + c``
    holds phase ``p`` (row-major over the axes' phases) of channel ``c``.
    """
    rank = w.ndim - 2
    k = w[None]  # [phases, C_out, C_in, *taps]
    for ax in range(3, 3 + rank):
        t0, t1, t2 = (_tap(k, ax, i) for i in range(3))
        out = np.empty((k.shape[0], 2) + k.shape[1:ax] + (2,) + k.shape[ax + 1:], dtype=k.dtype)
        phase0, phase1 = out[:, 0], out[:, 1]  # each laid out like k, with 2 taps
        _tap(phase0, ax, 0)[...] = t0
        np.add(t1, t2, out=_tap(phase0, ax, 1))
        np.add(t0, t1, out=_tap(phase1, ax, 0))
        _tap(phase1, ax, 1)[...] = t2
        k = out.reshape((-1,) + out.shape[2:])
    return k.reshape((-1,) + w.shape[1:2] + (2,) * rank)


def _phase_kernel_grads(gk, w_shape):
    """Adjoint of :func:`_phase_kernels`: ``[2^rank * C_out, C_in, 2, ...]``
    kernel gradients back to ``w_shape``, the last axis's phases first.

    Along an axis, with ``a`` and ``b`` a phase's first and second tap, the
    taps' gradients are ``(a0 + a1, b0 + a1, b0 + b1)``.
    """
    rank = len(w_shape) - 2
    k = gk.reshape((-1,) + tuple(w_shape[:2]) + (2,) * rank)
    for ax in range(2 + rank, 2, -1):
        k = k.reshape((-1, 2) + k.shape[1:])
        (a0, b0), (a1, b1) = ((_tap(p, ax, 0), _tap(p, ax, 1)) for p in (k[:, 0], k[:, 1]))
        out = np.empty(a0.shape[:ax] + (3,) + a0.shape[ax + 1:], dtype=k.dtype)
        np.add(a0, a1, out=_tap(out, ax, 0))
        np.add(b0, a1, out=_tap(out, ax, 1))
        np.add(b0, b1, out=_tap(out, ax, 2))
        k = out
    return k.reshape(w_shape)


def phase_kernels(w: Tensor) -> Tensor:
    """The sub-pixel kernels of a ``[C_out, C_in, 3, ...]`` weight, as one node.

    Its value is :func:`_phase_kernels` of ``w`` and its vjp the tap sums of
    :func:`_phase_kernel_grads`. Build it once per weight and pass it to
    every :func:`upsample_conv` over that weight: a backward then runs the
    tap sums once, on the kernel gradient of its own graph.
    """
    w_shape = w.data.shape
    if any(k != 3 for k in w_shape[2:]):
        raise DomainError(f"phase_kernels: kernel extents must be 3, got {w_shape[2:]}")
    return Tensor(_phase_kernels(w.data), "phase_kernels", (w,),
                  lambda g: (_phase_kernel_grads(g, w_shape),))


def upsample_conv(x: Tensor, k: Tensor, b: Tensor | None = None) -> Tensor:
    """Nearest 2x upsampling followed by a 3-tap, pad-1 conv, as one node.

    ``k`` holds the sub-pixel kernels of the conv's ``[C_out, C_in, 3,
    ...]`` weight ``w``, from :func:`phase_kernels`. The node equals in real
    arithmetic repeating every voxel twice along each spatial axis and
    convolving with ``w``, but runs on the low-resolution map: one stride-1,
    pad-1 conv with the 2-tap kernels gives each output phase ``p`` over
    ``n + 1`` positions per axis; the crop ``[p:p + n]`` fills ``out[:,
    p::2]``, and the bias is added last. The vjp scatters the upstream
    phases back into that layout and runs one conv backward, which gives
    ``k`` its gradient; ``phase_kernels`` takes it back through the tap sums
    to ``w``.
    """
    sp = x.data.shape[1:]
    if k.data.shape[2:] != (2,) * len(sp) or k.data.shape[0] % 2 ** len(sp):
        raise ShapeError(f"upsample_conv: {k.data.shape} are not sub-pixel kernels "
                         f"for a rank-{len(sp)} input")
    c_out = k.data.shape[0] // 2 ** len(sp)
    phases = tuple(itertools.product((0, 1), repeat=len(sp)))
    crops = [(slice(None),) + tuple(slice(p, p + n) for p, n in zip(phase, sp))
             for phase in phases]
    strided = [(slice(None),) + tuple(slice(p, None, 2) for p in phase) for phase in phases]
    phase_shape = (len(phases), c_out) + tuple(n + 1 for n in sp)
    by_phase = conv_forward_data(x.data, k.data, None, 1, 1).reshape(phase_shape)
    y = np.empty((c_out,) + tuple(2 * n for n in sp), dtype=by_phase.dtype)
    for i in range(len(phases)):
        y[strided[i]] = by_phase[i][crops[i]]
    if b is not None:
        y += b.data.reshape((c_out,) + (1,) * len(sp))
    parents = (x, k) if b is None else (x, k, b)

    def vjp(g):
        g_phase = np.zeros(phase_shape, dtype=g.dtype)
        for i in range(len(phases)):
            g_phase[i][crops[i]] = g[strided[i]]
        gx, gk, _ = conv_backward_data(x.data, k.data, g_phase.reshape((-1,) + g_phase.shape[2:]), 1, 1)
        return (gx, gk, g.sum(axis=tuple(range(1, g.ndim))))[:len(parents)]
    return Tensor(y, "upsample_conv", parents, vjp)


def straight_through(x: Tensor, quantized) -> Tensor:
    """Forward the quantized values, pass gradients through unchanged."""
    q = np.array(quantized, dtype=x.data.dtype, order="C")  # one copy, cast or not
    if q.shape != x.data.shape:
        raise ShapeError(f"straight_through: quantized shape {q.shape} != input shape {x.data.shape}")
    return Tensor(q, "straight_through", (x,), lambda g: (g,))


def _toposort(root: Tensor):
    """Every node the root depends on, parents before children.

    A depth-first walk from the root that pushes each node's unseen parents
    in order, so the last parent is expanded first. The order fixes the
    order in which :func:`backward` adds up the gradients of a node used
    more than once.
    """
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, wrt: dict) -> dict:
    """Return ``{name: d loss / d wrt[name]}`` for a scalar ``loss``.

    Only nodes with a requested tensor among their ancestors (or that are one)
    are differentiated; gradients flowing into any other parent are
    discarded, and each intermediate gradient is released once its vjp has
    run. A requested tensor the loss does not depend on gets zeros. Nodes
    key the bookkeeping by identity (``Tensor`` defines no equality).
    """
    if loss.data.size != 1:
        raise DomainError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    targets = set(wrt.values())
    needed = set(targets)
    for node in order:  # parents come before children
        for p in node.parents:
            if p in needed:
                needed.add(node)
                break
    grads = {loss: np.ones_like(loss.data)} if loss in needed else {}
    found = {}
    for node in reversed(order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node in targets:
            found[node] = g
        if node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent not in needed:
                continue
            acc = grads.get(parent)
            # never in place: a vjp may hand one array to several parents
            grads[parent] = pg if acc is None else acc + pg
    return {name: found[t] if t in found else np.zeros_like(t.data)
            for name, t in wrt.items()}
