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
* convolutions are computed by direct summation over kernel offsets,
  vectorized across channels and spatial positions via ``tensordot``;
* reduction order is fixed, so identical inputs give bit-identical results
  at a fixed thread count.
"""

from __future__ import annotations

import itertools

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


def conv_forward_data(x, w, b=None, stride=1, pad=0):
    """Direct-summation convolution on raw arrays.

    ``x`` is ``[C_in, *S]``, ``w`` is ``[C_out, C_in, *K]``; output is
    ``[C_out, *S']`` with ``S' = floor((S + 2*pad - K)/stride) + 1``.
    """
    rank, out_sp = _conv_geometry(x.shape, w.shape, stride, pad)
    if pad:
        x = np.pad(x, [(0, 0)] + [(pad, pad)] * rank)
    c_out = w.shape[0]
    out = np.zeros((c_out,) + out_sp, dtype=x.dtype)
    for off in itertools.product(*(range(k) for k in w.shape[2:])):
        win = x[(slice(None),) + tuple(
            slice(o, o + stride * (n - 1) + 1, stride) for o, n in zip(off, out_sp)
        )]
        out += np.tensordot(w[(slice(None), slice(None)) + off], win, axes=([1], [0]))
    if b is not None:
        out += b.reshape((c_out,) + (1,) * rank)
    return out


def conv_backward_data(x, w, gy, stride=1, pad=0):
    """Analytic gradients of :func:`conv_forward_data`.

    Returns ``(grad_x, grad_w, grad_b)``; ``grad_b`` is the spatial sum of
    ``gy`` (callers without bias ignore it).
    """
    rank, out_sp = _conv_geometry(x.shape, w.shape, stride, pad)
    if gy.shape != (w.shape[0],) + out_sp:
        raise ShapeError(f"conv backward: upstream shape {gy.shape} != output shape {(w.shape[0],) + out_sp}")
    xp = np.pad(x, [(0, 0)] + [(pad, pad)] * rank) if pad else x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    spatial_axes = tuple(range(1, rank + 1))
    for off in itertools.product(*(range(k) for k in w.shape[2:])):
        sl = (slice(None),) + tuple(
            slice(o, o + stride * (n - 1) + 1, stride) for o, n in zip(off, out_sp)
        )
        win = xp[sl]
        gw[(slice(None), slice(None)) + off] = np.tensordot(gy, win, axes=(spatial_axes, spatial_axes))
        gxp[sl] += np.tensordot(w[(slice(None), slice(None)) + off], gy, axes=([0], [0]))
    gx = gxp[(slice(None),) + tuple(slice(pad, pad + d) for d in x.shape[1:])] if pad else gxp
    gb = gy.sum(axis=spatial_axes)
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

    Rows with norm below ``eps`` are divided by ``eps`` instead (keeps the
    map total and differentiable; quantization flags such rows separately).
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects a 2-d matrix, got shape {x.data.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    y = x.data / denom

    def vjp(g):
        inner = (y * g).sum(axis=1, keepdims=True)
        gx = (g - y * inner) / denom
        # below the clamp the map is linear: x / eps
        small = norms < eps
        if small.any():
            gx = np.where(small, g / eps, gx)
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
            if acc is None:
                grads[id(parent)] = np.zeros_like(parent.data) + pg
            else:
                acc += pg
    return {name: found[id(t)] if id(t) in found else np.zeros_like(t.data)
            for name, t in wrt.items()}
