"""Minimal reverse-mode automatic differentiation over numpy arrays.

The computation graph is a DAG of :class:`Tensor` nodes built eagerly as
operations are applied. Each non-leaf node records its parent nodes and a
vector-Jacobian closure. :func:`backward` returns the gradients of a scalar
loss with respect to the requested leaves only: it walks, in reverse
topological order, just the nodes that lie on a path from a requested leaf
to the loss, and drops each intermediate gradient once it has been passed on.

Conventions:

* feature maps are ``[channels, *spatial]`` with spatial rank 2 or 3 and no
  batch axis (a batch is a set of subgraphs sharing parameter leaves);
* all graph arrays are float64 (gradient checks require it; bulk volume data
  may live in float32 outside the graph and is converted at the boundary);
* the convolution forward is a polyphase flat-shift GEMM: each kernel
  offset multiplies its weights with one contiguous slice of a flattened,
  zero-padded polyphase grid of the input, and the offsets are added in
  ``itertools.product`` order (see :func:`conv_forward_data`); the backward
  is its transpose on the same grids and shifts (see
  :func:`conv_backward_data`);
* reduction order is fixed, so identical inputs give bit-identical results
  at a fixed thread count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "leaf",
    "add",
    "sub",
    "mul",
    "scale",
    "sum_all",
    "mean_all",
    "abs_val",
    "leaky_relu",
    "conv",
    "conv_forward_data",
    "conv_backward_data",
    "upsample_nearest",
    "l2_normalize_rows",
    "straight_through",
    "reshape",
    "moveaxis",
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return Tensor(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, "scale", (a,), lambda g: (g * c,))


def sum_all(a: Tensor) -> Tensor:
    return Tensor(np.asarray(a.data.sum()), "sum", (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return Tensor(np.asarray(a.data.mean()), "mean", (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def abs_val(a: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return Tensor(np.abs(a.data), "abs", (a,), lambda g: (g * np.sign(a.data),))


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    if not 0.0 <= slope < 1.0:
        raise DomainError(f"leaky_relu slope must be in [0, 1), got {slope}")
    pos = a.data >= 0  # x == 0 takes the positive branch
    out = np.where(pos, a.data, slope * a.data)
    return Tensor(out, "leaky_relu", (a,), lambda g: (g * np.where(pos, 1.0, slope),))


# conv_forward_data equals a window-by-window product byte for byte only
# where every output meets the same BLAS kernel. OpenBLAS rounds the last
# ``n mod 8`` (gemm) or ``n mod 4`` (gemv) columns of an ``n``-column product
# in remainder kernels, and products with M*N*K up to 100**3 in small-matrix
# kernels whose remainders round differently again. A block of 64 columns
# has no remainder, and its results do not depend on the product's width.
_GEMM_BLOCK = 64
_SMALL_GEMM = 100 ** 3
# Columns of the wide output per GEMM, so that the slab being accumulated
# and the term added to it stay in cache across all kernel offsets.
_GEMM_COLUMNS = 8192


def _conv_geometry(x_shape, w_shape, stride, pad):
    """Validate conv operands and return (rank, out_spatial)."""
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
    return rank, tuple(out)


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


def _polyphase_grids(x, stride, pad, ks, grid, length):
    """Flattened polyphase components of the zero-padded input.

    Component ``r`` holds the padded input at positions ``stride*j + r`` on
    the grid ``grid``, row-major, zero-filled to ``length`` elements; only
    residues some kernel offset takes are built. An unpadded stride-1 input
    that needs no zero tail is its own single component.
    """
    c_in, rank = x.shape[0], x.ndim - 1
    size = math.prod(grid)
    if stride == 1 and pad == 0 and length == size:
        return {(0,) * rank: x.reshape(c_in, size)}
    phases = {}
    for r in itertools.product(*(range(min(stride, k)) for k in ks)):
        buf = np.zeros((c_in, length), dtype=x.dtype)
        dst, src = _phase_slices(r, x.shape[1:], stride, pad)
        buf[:, :size].reshape((c_in,) + grid)[dst] = x[src]
        phases[r] = buf
    return phases


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
    small-matrix size).
    """
    rank, out_sp = _conv_geometry(x.shape, w.shape, stride, pad)
    c_out, c_in = w.shape[:2]
    ks = w.shape[2:]
    grid = tuple(-(-(d + 2 * pad) // stride) for d in x.shape[1:])
    rowstride = tuple(math.prod(grid[i + 1:]) for i in range(rank))
    rows = out_sp[0] * rowstride[0]
    n_out = math.prod(out_sp)
    if rows == n_out:  # no surplus columns: one GEMM per offset, as window by window
        redo, span, slab = 0, rows, rows
    else:
        if c_in == 1 or n_out % _GEMM_BLOCK == 0:
            redo = 0  # exact one-term products, or no remainder columns
        elif n_out * c_out * c_in <= _SMALL_GEMM:
            redo = min(n_out, n_out % _GEMM_BLOCK + _GEMM_BLOCK)
        else:
            redo = n_out
        span = 0 if redo == n_out else -(-rows // _GEMM_BLOCK) * _GEMM_BLOCK
        slab = _GEMM_COLUMNS
    reach = sum((k - 1) // stride * rs for k, rs in zip(ks, rowstride)) + span
    phases = _polyphase_grids(x, stride, pad, ks, grid, max(math.prod(grid), reach))
    offsets = []  # (weights, component, shift) per kernel offset, in summation order
    for off in itertools.product(*(range(k) for k in ks)):
        w_off = w[(slice(None), slice(None)) + off]
        if c_out > 1:  # np.dot copies such a matrix, but keeps one row a strided vector
            w_off = np.ascontiguousarray(w_off)
        offsets.append((w_off, phases[tuple(o % stride for o in off)],
                        sum(o // stride * rs for o, rs in zip(off, rowstride))))
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
        out += b.reshape((c_out,) + (1,) * rank)
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
    rank, out_sp = _conv_geometry(x.shape, w.shape, stride, pad)
    c_out, c_in = w.shape[:2]
    if gy.shape != (c_out,) + out_sp:
        raise ShapeError(f"conv backward: upstream shape {gy.shape} != output shape {(c_out,) + out_sp}")
    ks = w.shape[2:]
    grid = tuple(-(-(d + 2 * pad) // stride) for d in x.shape[1:])
    rowstride = tuple(math.prod(grid[i + 1:]) for i in range(rank))
    size = math.prod(grid)
    rows = out_sp[0] * rowstride[0]
    offsets = [(off, tuple(o % stride for o in off), sum(o // stride * rs for o, rs in zip(off, rowstride)))
               for off in itertools.product(*(range(k) for k in ks))]
    lead = max(shift for _, _, shift in offsets)

    if out_sp == grid:  # no shifts and no surplus columns: gy is its own wide layout
        gbuf = np.ascontiguousarray(gy).reshape(c_out, size)
    else:
        gbuf = np.zeros((c_out, lead + size), dtype=gy.dtype)
        gbuf[:, lead:lead + rows].reshape((c_out, out_sp[0]) + grid[1:])[
            (slice(None), slice(None)) + tuple(slice(0, n) for n in out_sp[1:])] = gy
    gwide = gbuf[:, lead:lead + rows]
    phases = _polyphase_grids(x, stride, pad, ks, grid, max(size, lead + rows))

    gw = np.empty_like(w)
    for off, r, shift in offsets:
        gw[(slice(None), slice(None)) + off] = gwide @ phases[r][:, shift:shift + rows].T

    product = np.multiply if c_out == 1 else np.matmul  # [C_in, 1] * [1, n] broadcasts
    slab = min(_GEMM_COLUMNS, size)
    acc = np.empty((c_in, size), dtype=x.dtype)
    gx = None if stride == 1 else np.zeros_like(x)
    scratch = np.empty(c_in * slab, dtype=x.dtype)
    for r in phases:
        terms = [(np.ascontiguousarray(w[(slice(None), slice(None)) + off].T), lead - shift)
                 for off, residue, shift in offsets if residue == r]
        acc.fill(0.0)
        for c0 in range(0, size, slab):
            c1 = min(c0 + slab, size)
            part = acc[:, c0:c1]
            term = scratch[:c_in * (c1 - c0)].reshape(c_in, c1 - c0)
            for w_t, start in terms:
                part += product(w_t, gbuf[:, start + c0:start + c1], out=term)
        dst, src = _phase_slices(r, x.shape[1:], stride, pad)
        if stride == 1:  # one component covers the whole input: no scatter
            gx = acc.reshape((c_in,) + grid)[dst]
        else:
            gx[src] = acc.reshape((c_in,) + grid)[dst]
    gb = gy.sum(axis=tuple(range(1, rank + 1)))
    return gx, gw, gb


def conv(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """N-d convolution node (spatial rank 2 or 3), optional bias."""
    y = conv_forward_data(x.data, w.data, b.data if b is not None else None, stride, pad)
    parents = (x, w) if b is None else (x, w, b)

    def vjp(g):
        return conv_backward_data(x.data, w.data, g, stride, pad)[:len(parents)]
    return Tensor(y, "conv", parents, vjp)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each voxel ``factor`` times along every spatial axis."""
    if factor < 1:
        raise DomainError(f"upsample factor must be >= 1, got {factor}")
    rank = x.data.ndim - 1
    y = x.data
    for ax in range(1, rank + 1):
        y = np.repeat(y, factor, axis=ax)

    def vjp(g):
        # fold each spatial axis into (extent, factor) blocks and sum the factor axes
        shape = [x.data.shape[0]]
        for d in x.data.shape[1:]:
            shape.extend((d, factor))
        folded = g.reshape(shape)
        return (folded.sum(axis=tuple(range(2, 2 * rank + 1, 2))),)

    return Tensor(y, "upsample", (x,), vjp)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row of an ``[M, d]`` matrix onto the unit sphere.

    Rows with norm below ``eps`` map to the basis vector e0, the rule of
    ``codebook.quantize``; e0 is a constant, so such rows pass zero gradient.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects a 2-d matrix, got shape {x.data.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    y = x.data / denom
    zero = norms[:, 0] < eps
    y[zero] = 0.0
    y[zero, 0] = 1.0

    def vjp(g):
        inner = (y * g).sum(axis=1, keepdims=True)
        gx = (g - y * inner) / denom
        gx[zero] = 0.0
        return (gx,)

    return Tensor(y, "l2norm", (x,), vjp)


def straight_through(x: Tensor, quantized) -> Tensor:
    """Forward the quantized values, pass gradients through unchanged."""
    q = np.asarray(quantized, dtype=x.data.dtype)
    if q.shape != x.data.shape:
        raise ShapeError(f"straight_through: quantized shape {q.shape} != input shape {x.data.shape}")
    return Tensor(q.copy(), "straight_through", (x,), lambda g: (g,))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return Tensor(x.data.reshape(shape), "reshape", (x,), lambda g: (g.reshape(x.data.shape),))


def moveaxis(x: Tensor, source: int, dest: int) -> Tensor:
    y = np.moveaxis(x.data, source, dest).copy()
    return Tensor(y, "moveaxis", (x,), lambda g: (np.moveaxis(g, dest, source).copy(),))


def _toposort(root: Tensor):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, wrt: dict) -> dict:
    """Return ``{name: d loss / d wrt[name]}`` for a scalar ``loss``.

    Only nodes with a requested tensor among their ancestors (or that are one)
    are differentiated; gradients flowing into any other parent are
    discarded, and each intermediate gradient is released once its vjp has
    run. A requested tensor the loss does not depend on gets zeros.
    """
    if loss.data.size != 1:
        raise DomainError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    targets = {id(t) for t in wrt.values()}
    needed = set(targets)
    for node in order:  # parents come before children
        if any(id(p) in needed for p in node.parents):
            needed.add(id(node))
    grads = {id(loss): np.ones_like(loss.data)} if id(loss) in needed else {}
    found = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in targets:
            found[id(node)] = g
        if node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if id(parent) not in needed:
                continue
            acc = grads.get(id(parent))
            # never in place: a vjp may hand one array to several parents
            grads[id(parent)] = pg if acc is None else acc + pg
    return {name: found[id(t)] if id(t) in found else np.zeros_like(t.data)
            for name, t in wrt.items()}
