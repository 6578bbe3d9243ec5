"""Gradient and value checks for the reverse-mode numeric core.

Every analytic gradient is checked against an independent oracle: either a
central finite difference, a hand-written loop, or both. Nothing in here
reuses the library's own machinery as its reference.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqsct import autograd as ag
from vqsct.errors import DomainError, ShapeError

from oracles import (conv_window_grads, conv_window_sum, mul, phase_kernel_grads_split,
                     phase_kernels_split, sum_all, upsample_conv_ref,
                     upsample_conv_ref_grads)


def central_diff(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        up = x.copy()
        up[idx] += eps
        dn = x.copy()
        dn[idx] -= eps
        grad[idx] = (f(up) - f(dn)) / (2.0 * eps)
        it.iternext()
    return grad


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def conv_loop(x, w, b=None, stride=1, pad=0):
    """Direct-summation convolution written as explicit python loops."""
    c_in = x.shape[0]
    spatial = x.shape[1:]
    c_out = w.shape[0]
    kernel = w.shape[2:]
    pads = [(0, 0)] + [(pad, pad)] * len(spatial)
    xp = np.pad(x, pads)
    out_sp = tuple((s + 2 * pad - k) // stride + 1 for s, k in zip(spatial, kernel))
    out = np.zeros((c_out,) + out_sp)
    for co in range(c_out):
        for pos in np.ndindex(*out_sp):
            acc = 0.0
            for ci in range(c_in):
                for kpos in np.ndindex(*kernel):
                    src = tuple(p * stride + k for p, k in zip(pos, kpos))
                    acc += xp[(ci,) + src] * w[(co, ci) + kpos]
            if b is not None:
                acc += b[co]
            out[(co,) + pos] = acc
    return out


# ---------------------------------------------------------------------------
# Leaves and elementwise arithmetic
# ---------------------------------------------------------------------------

def test_leaf_holds_float64_copy():
    data = np.arange(6, dtype=np.float32).reshape(2, 3)
    t = ag.leaf(data)
    assert t.data.dtype == np.float64
    data[0, 0] = 99
    assert t.data[0, 0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_leaf_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        ag.leaf(np.array([1.0, bad]))


def test_add_mul_values_and_grads():
    rng = np.random.default_rng(3)
    xv = rng.standard_normal((4, 5))
    yv = rng.standard_normal((4, 5))
    x, y = ag.leaf(xv), ag.leaf(yv)
    loss = sum_all(mul(ag.add(x, y), y))
    grads = ag.backward(loss, {"x": x, "y": y})
    assert np.allclose(grads["x"], yv)
    assert np.allclose(grads["y"], xv + 2 * yv)


def test_sub_matches_finite_difference():
    rng = np.random.default_rng(4)
    xv = rng.standard_normal((3, 3))
    yv = rng.standard_normal((3, 3))

    def f(v):
        d = ag.sub(ag.leaf(v), ag.leaf(yv))
        return sum_all(mul(d, d)).data.item()

    x = ag.leaf(xv)
    d = ag.sub(x, ag.leaf(yv))
    loss = sum_all(mul(d, d))
    grads = ag.backward(loss, {"x": x})
    assert rel_err(grads["x"], central_diff(f, xv)) < 1e-7


@pytest.mark.parametrize("op", [ag.add, ag.sub, mul])
def test_elementwise_ops_reject_shape_mismatch(op):
    with pytest.raises(ShapeError):
        op(ag.leaf(np.zeros((2, 3))), ag.leaf(np.zeros((3, 2))))


def test_scale_and_mean():
    x = ag.leaf(np.array([1.0, 2.0, 3.0, 4.0]))
    loss = ag.scale(ag.mean_all(x), 10.0)
    assert loss.data.item() == pytest.approx(25.0)
    grads = ag.backward(loss, {"x": x})
    assert np.allclose(grads["x"], 2.5)


def test_abs_gradient_is_sign_with_zero_at_zero():
    x = ag.leaf(np.array([-2.0, 0.0, 3.0]))
    loss = sum_all(ag.abs_val(x))
    grads = ag.backward(loss, {"x": x})
    assert np.array_equal(grads["x"], np.array([-1.0, 0.0, 1.0]))


def test_leaky_relu_values_and_slope():
    x = ag.leaf(np.array([-10.0, -1.0, 0.0, 2.0]))
    y = ag.leaky_relu(x, slope=0.1)
    assert np.allclose(y.data, [-1.0, -0.1, 0.0, 2.0])
    loss = sum_all(y)
    grads = ag.backward(loss, {"x": x})
    # the kink at exactly zero takes the positive branch
    assert np.array_equal(grads["x"], np.array([0.1, 0.1, 1.0, 1.0]))
    # any upstream gradient: the bytes of g * where(x >= 0, 1, slope)
    g = np.random.default_rng(15).standard_normal(4)
    (got,) = y.vjp(g)
    assert got.tobytes() == (g * np.where(x.data >= 0, 1.0, 0.1)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.1])
def test_leaky_relu_bytes_match_where_form(dtype, slope):
    # signed zeros and subnormals on both sides of the kink
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 17 * tiny, -17 * tiny,
                        np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.5, -1.5], dtype=dtype)
    rng = np.random.default_rng(16)
    xv = np.concatenate((special, rng.standard_normal(52).astype(dtype))).reshape(4, 16)
    y = ag.leaky_relu(ag.leaf(xv, dtype), slope)
    assert y.data.dtype == dtype
    assert y.data.tobytes() == np.where(xv >= 0, xv, slope * xv).tobytes()
    g = rng.permutation(np.concatenate((special, rng.standard_normal(52).astype(dtype)))).reshape(4, 16)
    (got,) = y.vjp(g)
    assert got.dtype == dtype
    assert got.tobytes() == np.where(xv >= 0, g, slope * g).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.1])
def test_leaky_relu_vjp_bytes_match_where_form_on_non_finite_values(dtype, slope):
    # every pairing of signed zeros, infinities and NaNs in x and g: g * 1 is
    # g, and g * slope is the where form's slope * g in the same dtype
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5], dtype=dtype)
    xv, g = (a.ravel() for a in np.meshgrid(special, special, indexing="ij"))
    with np.errstate(invalid="ignore"):
        (got,) = ag.leaky_relu(ag.Tensor(xv), slope).vjp(g)
        want = np.where(xv >= 0, g, slope * g)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Convolution against the loop oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("stride,pad,ksize", [(1, 0, 3), (1, 1, 3), (2, 1, 3),
                                              (2, 0, 2), (1, 0, 1)])
def test_conv_matches_loop_oracle(rank, stride, pad, ksize):
    rng = np.random.default_rng(rank * 100 + stride * 10 + pad + ksize)
    spatial = (7, 6) if rank == 2 else (5, 4, 6)
    xv = rng.standard_normal((2,) + spatial)
    wv = rng.standard_normal((3, 2) + (ksize,) * rank)
    bv = rng.standard_normal(3)
    out = ag.conv(ag.leaf(xv), ag.leaf(wv), ag.leaf(bv), stride=stride, pad=pad)
    expected = conv_loop(xv, wv, bv, stride=stride, pad=pad)
    assert out.data.shape == expected.shape
    assert np.allclose(out.data, expected, atol=1e-12)


# Extents odd and even per axis. With stride 2, pad 1 and kernel 3, the
# (1, 3) and (1, 3, 2) inputs leave the even-row polyphase component all
# padding: it receives no input voxel.
_CONV_EXTENTS = {2: [(7, 6), (6, 7), (1, 3)], 3: [(5, 4, 6), (1, 3, 2)]}
# (C_in, C_out): a one-channel input, a one-channel output, and neither.
_CONV_CHANNELS = [(1, 4), (3, 1), (3, 5), (1, 1)]


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("ksize", [1, 2, 3])
def test_conv_forward_bytes_match_window_sum(rank, stride, pad, ksize):
    rng = np.random.default_rng(1000 * rank + 100 * stride + 10 * pad + ksize)
    checked = 0
    for spatial in _CONV_EXTENTS[rank]:
        if any(d + 2 * pad < ksize for d in spatial):
            continue  # no valid output position
        for c_in, c_out in _CONV_CHANNELS:
            x = rng.standard_normal((c_in,) + spatial)
            w = rng.standard_normal((c_out, c_in) + (ksize,) * rank)
            for b in (rng.standard_normal(c_out), None):
                got = ag.conv_forward_data(x, w, b, stride, pad)
                want = conv_window_sum(x, w, b, stride, pad)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (spatial, c_in, c_out, b is None)
                checked += 1
    assert checked


# Model layers as (C_in, C_out, spatial, kernel, stride, pad): the 2D ones at
# the extents that slices of a 110 x 90 x 74 volume, padded to 112 x 92 x 76,
# give them (dec.0's 46 x 38 product leaves remainder columns in BLAS), the
# 3D ones at a 32-voxel cube, and two 32-channel layers whose GEMM lies above
# BLAS's small-matrix size, one with remainder columns.
_MODEL_CONVS = [
    (1, 8, (112, 92), 3, 2, 1), (8, 16, (56, 46), 3, 2, 1),
    (16, 16, (28, 23), 1, 1, 0), (8, 16, (56, 46), 1, 1, 0),
    (16, 8, (56, 46), 1, 1, 0), (16, 8, (46, 38), 3, 1, 1),
    (8, 8, (92, 76), 3, 1, 1), (8, 1, (92, 76), 3, 1, 1),
    (1, 8, (32, 32, 32), 3, 2, 1), (8, 16, (16, 16, 16), 3, 2, 1),
    (16, 8, (16, 16, 16), 3, 1, 1), (8, 8, (32, 32, 32), 3, 1, 1),
    (8, 1, (32, 32, 32), 3, 1, 1),
    (32, 32, (37, 60), 3, 1, 1), (32, 32, (40, 64), 3, 1, 1),
]


@pytest.mark.parametrize("c_in,c_out,spatial,ksize,stride,pad", _MODEL_CONVS)
def test_conv_forward_bytes_match_window_sum_on_model_layers(c_in, c_out, spatial,
                                                            ksize, stride, pad):
    rng = np.random.default_rng(sum(spatial) + c_in + c_out)
    x = rng.standard_normal((c_in,) + spatial)
    w = rng.standard_normal((c_out, c_in) + (ksize,) * len(spatial))
    b = rng.standard_normal(c_out)
    got = ag.conv_forward_data(x, w, b, stride, pad)
    assert got.tobytes() == conv_window_sum(x, w, b, stride, pad).tobytes()


def _assert_conv_grads_match(got, want):
    """grad_b bitwise; grad_x and grad_w to 1e-12 relative to the largest entry."""
    assert got[2].tobytes() == want[2].tobytes()
    for g, r in zip(got[:2], want[:2]):
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.max(np.abs(r)))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("ksize", [1, 2, 3])
def test_conv_backward_matches_window_grads(rank, stride, pad, ksize):
    rng = np.random.default_rng(2000 * rank + 100 * stride + 10 * pad + ksize)
    checked = 0
    for spatial in _CONV_EXTENTS[rank]:
        if any(d + 2 * pad < ksize for d in spatial):
            continue  # no valid output position
        out_sp = tuple((d + 2 * pad - ksize) // stride + 1 for d in spatial)
        for c_in, c_out in _CONV_CHANNELS:
            x = rng.standard_normal((c_in,) + spatial)
            w = rng.standard_normal((c_out, c_in) + (ksize,) * rank)
            gy = rng.standard_normal((c_out,) + out_sp)
            _assert_conv_grads_match(ag.conv_backward_data(x, w, gy, stride, pad),
                                     conv_window_grads(x, w, gy, stride, pad))
            checked += 1
    assert checked


@pytest.mark.parametrize("c_in,c_out,spatial,ksize,stride,pad", _MODEL_CONVS)
def test_conv_backward_matches_window_grads_on_model_layers(c_in, c_out, spatial,
                                                           ksize, stride, pad):
    rng = np.random.default_rng(sum(spatial) + c_in + c_out + 1)
    x = rng.standard_normal((c_in,) + spatial)
    w = rng.standard_normal((c_out, c_in) + (ksize,) * len(spatial))
    out_sp = tuple((d + 2 * pad - ksize) // stride + 1 for d in spatial)
    gy = rng.standard_normal((c_out,) + out_sp)
    _assert_conv_grads_match(ag.conv_backward_data(x, w, gy, stride, pad),
                             conv_window_grads(x, w, gy, stride, pad))


# (rank, kernel, stride, pad) of every conv the model runs.
_FLOAT32_CONVS = [(rank, ksize, stride, pad) for rank in (2, 3)
                  for ksize, stride, pad in [(1, 1, 0), (3, 1, 1), (3, 2, 1)]]
_FLOAT32_EXTENTS = {2: (40, 34), 3: (12, 10, 8)}


def _assert_float32_close(got, want, magnitude):
    """A float32 result within 1e-5 of its float64 oracle, per entry relative to
    ``magnitude``, the same sum over the terms' absolute values."""
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-5 * magnitude)


@pytest.mark.parametrize("rank,ksize,stride,pad", _FLOAT32_CONVS)
def test_float32_conv_matches_float64_oracle(rank, ksize, stride, pad):
    rng = np.random.default_rng(3000 + 100 * rank + 10 * stride + ksize)
    spatial = _FLOAT32_EXTENTS[rank]
    for c_in, c_out in _CONV_CHANNELS + [(8, 16), (16, 8)]:
        x = rng.standard_normal((c_in,) + spatial).astype(np.float32)
        w = rng.standard_normal((c_out, c_in) + (ksize,) * rank).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        out_sp = tuple((d + 2 * pad - ksize) // stride + 1 for d in spatial)
        gy = rng.standard_normal((c_out,) + out_sp).astype(np.float32)
        x64, w64, b64, gy64 = (a.astype(np.float64) for a in (x, w, b, gy))
        _assert_float32_close(ag.conv_forward_data(x, w, b, stride, pad),
                              conv_window_sum(x64, w64, b64, stride, pad),
                              conv_window_sum(abs(x64), abs(w64), abs(b64), stride, pad))
        for got, want, magnitude in zip(
                ag.conv_backward_data(x, w, gy, stride, pad),
                conv_window_grads(x64, w64, gy64, stride, pad),
                conv_window_grads(abs(x64), abs(w64), abs(gy64), stride, pad)):
            _assert_float32_close(got, want, magnitude)


def test_conv_data_functions_keep_their_parameter_names():
    # the benchmark's per-layer tracer reads these arguments by position
    assert list(inspect.signature(ag.conv_forward_data).parameters) == \
        ["x", "w", "b", "stride", "pad"]
    assert list(inspect.signature(ag.conv_backward_data).parameters) == \
        ["x", "w", "gy", "stride", "pad"]


def test_conv_identity_kernel():
    rng = np.random.default_rng(11)
    xv = rng.standard_normal((1, 6, 6))
    w = np.ones((1, 1, 1, 1))
    out = ag.conv(ag.leaf(xv), ag.leaf(w))
    assert np.array_equal(out.data, xv)


def test_conv_output_geometry():
    x = ag.leaf(np.zeros((1, 13, 9)))
    w = ag.leaf(np.zeros((4, 1, 3, 3)))
    out = ag.conv(x, w, stride=2, pad=1)
    assert out.data.shape == (4, (13 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_conv_rejects_bad_stride_and_kernel():
    x = ag.leaf(np.zeros((1, 8, 8)))
    with pytest.raises(DomainError):
        ag.conv(x, ag.leaf(np.zeros((1, 1, 3, 3))), stride=3)
    with pytest.raises(DomainError):
        ag.conv(x, ag.leaf(np.zeros((1, 1, 4, 4))))
    with pytest.raises(ShapeError):
        ag.conv(x, ag.leaf(np.zeros((1, 2, 3, 3))))


def test_conv_geometry_errors_raise_on_every_call():
    # the geometry is cached on its shapes; a rejected geometry must raise
    # again on every call, not be served from the cache
    bad = [((1, 8, 8), (1, 1, 3, 3), 3, 0, DomainError),       # stride
           ((1, 8, 8), (1, 1, 4, 4), 1, 0, DomainError),       # even kernel
           ((1, 8, 8), (1, 1, 3, 3), 1, -1, DomainError),      # negative pad
           ((1, 2, 8), (1, 1, 3, 3), 1, 0, DomainError),       # no output
           ((1, 8, 8), (1, 2, 3, 3), 1, 0, ShapeError),        # channels
           ((1, 8), (1, 1, 3), 1, 0, ShapeError),              # rank 1
           ((1, 8, 8), (1, 1, 3, 3, 3), 1, 0, ShapeError)]     # kernel rank
    for x_shape, w_shape, stride, pad, error in bad:
        x, w = np.zeros(x_shape), np.zeros(w_shape)
        for _ in range(3):
            with pytest.raises(error):
                ag.conv_forward_data(x, w, None, stride, pad)
    geometry = ag._conv_geometry((2, 6, 5), (3, 2, 3, 3), 2, 1)
    assert geometry is ag._conv_geometry((2, 6, 5), (3, 2, 3, 3), 2, 1)
    assert isinstance(geometry, tuple) and isinstance(geometry[-1], tuple)
    assert all(isinstance(entry, tuple) for entry in geometry[-1])


@pytest.mark.parametrize("rank,stride,pad", [(2, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_conv_gradients_match_finite_differences(rank, stride, pad):
    rng = np.random.default_rng(rank * 7 + stride)
    spatial = (6,) * rank if rank == 2 else (4,) * rank
    xv = rng.standard_normal((2,) + spatial)
    wv = 0.5 * rng.standard_normal((2, 2) + (3,) * rank)
    bv = 0.5 * rng.standard_normal(2)

    def run(x, w, b):
        out = ag.conv(ag.leaf(x), ag.leaf(w), ag.leaf(b), stride=stride, pad=pad)
        return sum_all(mul(out, out))

    x, w, b = ag.leaf(xv), ag.leaf(wv), ag.leaf(bv)
    out = ag.conv(x, w, b, stride=stride, pad=pad)
    loss = sum_all(mul(out, out))
    grads = ag.backward(loss, {"x": x, "w": w, "b": b})

    # eps 1e-5 keeps float64 roundoff in the difference quotient below the
    # 1e-6 relative threshold at this loss scale
    fd_x = central_diff(lambda v: run(v, wv, bv).data.item(), xv, eps=1e-5)
    fd_w = central_diff(lambda v: run(xv, v, bv).data.item(), wv, eps=1e-5)
    fd_b = central_diff(lambda v: run(xv, wv, v).data.item(), bv, eps=1e-5)
    assert rel_err(grads["x"], fd_x, floor=1e-3) < 1e-6
    assert rel_err(grads["w"], fd_w, floor=1e-3) < 1e-6
    assert rel_err(grads["b"], fd_b, floor=1e-3) < 1e-6


# ---------------------------------------------------------------------------
# Upsample-and-convolve
# ---------------------------------------------------------------------------

def _center_tap(c, rank):
    """A ``[c, c, 3, ...]`` kernel that passes each channel's centre voxel."""
    w = np.zeros((c, c) + (3,) * rank)
    w[(np.arange(c), np.arange(c)) + (1,) * rank] = 1.0
    return w


def test_upsample_nearest_repeats_values():
    # with only the centre tap the node is nearest upsampling, exactly
    xv = np.arange(4.0).reshape(1, 2, 2)
    out = ag.upsample_conv(ag.leaf(xv), ag.phase_kernels(ag.leaf(_center_tap(1, 2))))
    expected = xv.repeat(2, axis=1).repeat(2, axis=2)
    assert np.array_equal(out.data, expected)


@pytest.mark.parametrize("rank", [2, 3])
def test_upsample_gradient_is_block_sum(rank):
    rng = np.random.default_rng(6 + rank)
    xv = rng.standard_normal((2,) + (3,) * rank)
    x = ag.leaf(xv)
    up = ag.upsample_conv(x, ag.phase_kernels(ag.leaf(_center_tap(2, rank))))
    weight = rng.standard_normal(up.data.shape)
    loss = sum_all(mul(up, ag.leaf(weight)))
    grads = ag.backward(loss, {"x": x})
    # each input cell receives the sum of the weights over its 2^rank block
    expected = weight.copy()
    for axis in range(1, rank + 1):
        shape = list(expected.shape)
        shape[axis] //= 2
        shape.insert(axis + 1, 2)
        expected = expected.reshape(shape).sum(axis=axis + 1)
    assert np.allclose(grads["x"], expected)


# the decoder's stage inputs: 96 x 96 slices, the padded 112 x 92 slices of
# a 110 x 90 x 74 volume, and 32^3 cubes
_UPSAMPLE_CONV_CASES = [((16, 24, 24), 8), ((8, 48, 48), 8), ((16, 28, 23), 8),
                        ((8, 56, 46), 8), ((16, 8, 8, 8), 8), ((8, 16, 16, 16), 8),
                        ((8, 48, 48), 1), ((8, 16, 16, 16), 1)]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_upsample_conv_matches_repeat_then_conv_oracle(dtype, tol):
    """Forward and all three gradients, each within ``tol`` of the float64
    oracle relative to the same sum over the terms' absolute values."""
    rng = np.random.default_rng(17)
    for shape, c_out in _UPSAMPLE_CONV_CASES:
        rank = len(shape) - 1
        xv = rng.standard_normal(shape).astype(dtype)
        wv = rng.standard_normal((c_out, shape[0]) + (3,) * rank).astype(dtype)
        bv = rng.standard_normal(c_out).astype(dtype)
        x, w, b = ag.leaf(xv, dtype), ag.leaf(wv, dtype), ag.leaf(bv, dtype)
        k = ag.phase_kernels(w)
        y = ag.upsample_conv(x, k, b)
        gy = rng.standard_normal(y.data.shape).astype(dtype)
        x64, w64, b64, gy64 = (a.astype(np.float64) for a in (xv, wv, bv, gy))
        pairs = [(y.data, upsample_conv_ref(x64, w64, b64),
                  upsample_conv_ref(abs(x64), abs(w64), abs(b64)))]
        gx, gk, gb = y.vjp(gy)
        pairs += zip((gx, k.vjp(gk)[0], gb), upsample_conv_ref_grads(x64, w64, gy64),
                     upsample_conv_ref_grads(abs(x64), abs(w64), abs(gy64)))
        for got, want, magnitude in pairs:
            assert got.dtype == dtype and got.shape == want.shape, shape
            assert np.all(np.abs(got - want) <= tol * magnitude), shape


@pytest.mark.parametrize("rank", [2, 3])
def test_upsample_conv_gradients_match_finite_differences(rank):
    rng = np.random.default_rng(18 + rank)
    spatial = (3, 4) if rank == 2 else (2, 3, 2)
    xv = rng.standard_normal((2,) + spatial)
    wv = 0.5 * rng.standard_normal((3, 2) + (3,) * rank)
    bv = 0.5 * rng.standard_normal(3)

    def run(x, w, b):
        out = ag.upsample_conv(ag.leaf(x), ag.phase_kernels(ag.leaf(w)), ag.leaf(b))
        return sum_all(mul(out, out))

    x, w, b = ag.leaf(xv), ag.leaf(wv), ag.leaf(bv)
    out = ag.upsample_conv(x, ag.phase_kernels(w), b)
    grads = ag.backward(sum_all(mul(out, out)), {"x": x, "w": w, "b": b})
    fd_x = central_diff(lambda v: run(v, wv, bv).data.item(), xv, eps=1e-5)
    fd_w = central_diff(lambda v: run(xv, v, bv).data.item(), wv, eps=1e-5)
    fd_b = central_diff(lambda v: run(xv, wv, v).data.item(), bv, eps=1e-5)
    assert rel_err(grads["x"], fd_x, floor=1e-3) < 1e-6
    assert rel_err(grads["w"], fd_w, floor=1e-3) < 1e-6
    assert rel_err(grads["b"], fd_b, floor=1e-3) < 1e-6


def test_upsample_conv_rejects_other_kernel_extents():
    x = ag.leaf(np.zeros((2, 4, 4)))
    for ks in [(1, 1), (5, 5), (3, 1), (2, 2)]:
        with pytest.raises(DomainError):
            ag.upsample_conv(x, ag.phase_kernels(ag.leaf(np.zeros((2, 2) + ks))))
    with pytest.raises(ShapeError):
        ag.upsample_conv(x, ag.phase_kernels(ag.leaf(np.zeros((2, 3, 3, 3)))))
    # a 3-tap weight, or the kernels of a rank-3 weight, are no rank-2 kernels
    for k in (ag.leaf(np.zeros((2, 2, 3, 3))), ag.phase_kernels(ag.leaf(np.zeros((1, 2, 3, 3, 3))))):
        with pytest.raises(ShapeError):
            ag.upsample_conv(x, k)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phase_kernels_and_their_vjp_match_the_split_oracles_bitwise(rank, dtype):
    rng = np.random.default_rng(40 + rank)
    for c_out, c_in in [(1, 1), (3, 2), (8, 16)]:
        w = ag.leaf(rng.standard_normal((c_out, c_in) + (3,) * rank), dtype)
        k = ag.phase_kernels(w)
        want = phase_kernels_split(w.data)
        assert k.data.dtype == dtype and k.data.shape == want.shape
        assert k.data.tobytes() == want.tobytes()
        gk = rng.standard_normal(k.data.shape).astype(dtype)
        (gw,) = k.vjp(gk)
        want = phase_kernel_grads_split(gk, w.data.shape)
        assert gw.dtype == dtype and gw.shape == w.data.shape
        assert gw.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The straight-through copy
# ---------------------------------------------------------------------------

def test_straight_through_forward_and_bitwise_gradient():
    rng = np.random.default_rng(10)
    xv = rng.standard_normal((7, 3))
    qv = rng.standard_normal((7, 3))
    weight = rng.standard_normal((7, 3))
    x = ag.leaf(xv)
    out = ag.straight_through(x, qv)
    assert np.array_equal(out.data, qv)
    loss = sum_all(mul(out, ag.leaf(weight)))
    grads = ag.backward(loss, {"x": x})
    # the copy gradient must be bit-for-bit the downstream gradient
    assert np.array_equal(grads["x"], weight)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_straight_through_bitwise_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = ag.leaf(rng.standard_normal((rows, cols)))
    q = rng.standard_normal((rows, cols))
    w = rng.standard_normal((rows, cols))
    loss = sum_all(mul(ag.straight_through(x, q), ag.leaf(w)))
    grads = ag.backward(loss, {"x": x})
    assert np.array_equal(grads["x"], w)


@pytest.mark.parametrize("q_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_straight_through_makes_one_c_ordered_copy(q_dtype, order):
    # the forward value is a C-ordered array of the input's dtype that owns
    # its data, made in one allocation whether or not a cast happens
    rng = np.random.default_rng(16)
    x = ag.leaf(rng.standard_normal((512, 256)), np.float32)
    q = np.asarray(rng.standard_normal((512, 256)), q_dtype, order=order)
    tracemalloc.start()
    try:
        out = ag.straight_through(x, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32 and out.data.flags.c_contiguous
    assert out.data.flags.owndata and not np.shares_memory(out.data, q)
    assert out.data.tobytes() == q.astype(np.float32).tobytes()
    assert peak < 1.5 * out.data.nbytes, peak / out.data.nbytes


# ---------------------------------------------------------------------------
# Graph dtype
# ---------------------------------------------------------------------------

def _every_op(rng, dtype):
    """One node of each op, over fresh leaves of ``dtype``."""
    def lf(*shape):
        return ag.leaf(rng.standard_normal(shape), dtype)

    a, b = lf(3, 4), lf(3, 4)
    x2, w2, b2 = lf(2, 6, 5), lf(3, 2, 3, 3), lf(3)
    x3, w3 = lf(2, 4, 5, 3), lf(3, 2, 3, 3, 3)
    return [
        ag.add(a, b), ag.sub(a, b), mul(a, b), ag.scale(a, 0.3),
        ag.mean_all(a), ag.abs_val(a), ag.leaky_relu(a, 0.1),
        ag.conv(x2, w2, b2, stride=1, pad=1), ag.conv(x2, w2, stride=2, pad=1),
        ag.conv(x3, w3, stride=1, pad=1), ag.conv(x3, w3, stride=2, pad=1),
        ag.phase_kernels(w2), ag.phase_kernels(w3),
        ag.upsample_conv(x2, ag.phase_kernels(w2), b2), ag.upsample_conv(x3, ag.phase_kernels(w3)),
        ag.straight_through(a, rng.standard_normal((3, 4))),
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_op_keeps_its_parents_dtype(dtype):
    rng = np.random.default_rng(14)
    for node in _every_op(rng, dtype):
        assert node.data.dtype == dtype, node.op
        g = rng.standard_normal(node.data.shape).astype(dtype)
        grads = node.vjp(g)
        assert len(grads) == len(node.parents), node.op
        for parent, grad in zip(node.parents, grads):
            assert grad.dtype == parent.data.dtype == dtype, node.op
            assert grad.shape == parent.data.shape, node.op


# ---------------------------------------------------------------------------
# Graph mechanics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    x = ag.leaf(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ag.backward(ag.add(x, x), {"x": x})


def test_diamond_graph_accumulates_once():
    # x feeds two branches that rejoin; d(loss)/dx = 2x + 3
    xv = np.array([1.5, -2.0])
    x = ag.leaf(xv)
    loss = sum_all(ag.add(mul(x, x), ag.scale(x, 3.0)))
    grads = ag.backward(loss, {"x": x})
    assert np.allclose(grads["x"], 2 * xv + 3.0)


def test_shared_vjp_array_reaches_two_parents_with_other_paths():
    # add's vjp hands one array to both of its parents, and here each parent
    # also gets a gradient from another path: summing into that array in
    # place would change the other parent's gradient too
    rng = np.random.default_rng(5)
    xv = rng.standard_normal(6)
    cv = rng.standard_normal(6)

    def run(v):
        x = ag.leaf(v)
        h = ag.leaky_relu(x)
        k = mul(x, x)
        s = ag.add(ag.add(h, h), k)
        loss = ag.add(sum_all(mul(s, ag.leaf(cv))), sum_all(mul(h, k)))
        return x, loss

    x, loss = run(xv)
    grads = ag.backward(loss, {"x": x})
    fd = central_diff(lambda v: run(v)[1].data.item(), xv)
    assert rel_err(grads["x"], fd) < 1e-6


def test_backward_returns_zeros_for_unreachable_leaves():
    x = ag.leaf(np.ones(3))
    orphan = ag.leaf(np.ones(4))
    loss = sum_all(x)
    grads = ag.backward(loss, {"x": x, "orphan": orphan})
    assert np.array_equal(grads["orphan"], np.zeros(4))


def test_deep_chain_does_not_hit_recursion_limit():
    x = ag.leaf(np.array([1.0]))
    node = x
    for _ in range(5000):
        node = ag.scale(node, 1.0)
    grads = ag.backward(sum_all(node), {"x": x})
    assert np.allclose(grads["x"], 1.0)


# ---------------------------------------------------------------------------
# Random small networks, every parameter against finite differences
# ---------------------------------------------------------------------------

def build_random_net(rng, rank):
    """A small conv -> lrelu -> upsample_conv net with random geometry."""
    side = int(rng.integers(6, 9))
    spatial = (side,) * rank
    c_mid = int(rng.integers(2, 4))
    xv = rng.standard_normal((1,) + spatial)
    params = {
        "w1": 0.5 * rng.standard_normal((c_mid, 1) + (3,) * rank),
        "b1": 0.2 * rng.standard_normal(c_mid),
        "w2": 0.5 * rng.standard_normal((1, c_mid) + (3,) * rank),
        "b2": 0.2 * rng.standard_normal(1),
    }

    def forward(leaves):
        h = ag.conv(ag.leaf(xv), leaves["w1"], leaves["b1"], stride=2, pad=1)
        h = ag.leaky_relu(h)
        h = ag.upsample_conv(h, ag.phase_kernels(leaves["w2"]), leaves["b2"])
        return ag.mean_all(ag.abs_val(h))

    return params, forward


@pytest.mark.parametrize("rank,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_random_network_all_parameter_gradients(rank, seed):
    rng = np.random.default_rng(seed)
    params, forward = build_random_net(rng, rank)

    leaves = {k: ag.leaf(v) for k, v in params.items()}
    grads = ag.backward(forward(leaves), leaves)
    for name in params:
        def f(v, name=name):
            trial = {k: ag.leaf(x) for k, x in params.items()}
            trial[name] = ag.leaf(v)
            return forward(trial).data.item()
        fd = central_diff(f, params[name], eps=1e-6)
        assert rel_err(grads[name], fd) < 1e-4, name
