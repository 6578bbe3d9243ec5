"""Gradient and value checks for the reverse-mode numeric core.

Every analytic gradient is checked against an independent oracle: either a
central finite difference, a hand-written loop, or both. Nothing in here
reuses the library's own machinery as its reference.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqsct import autograd as ag
from vqsct.codebook import _normalize_rows
from vqsct.errors import DomainError, ShapeError

from oracles import conv_window_grads, conv_window_sum


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
    loss = ag.sum_all(ag.mul(ag.add(x, y), y))
    grads = ag.backward(loss, {"x": x, "y": y})
    assert np.allclose(grads["x"], yv)
    assert np.allclose(grads["y"], xv + 2 * yv)


def test_sub_matches_finite_difference():
    rng = np.random.default_rng(4)
    xv = rng.standard_normal((3, 3))
    yv = rng.standard_normal((3, 3))

    def f(v):
        d = ag.sub(ag.leaf(v), ag.leaf(yv))
        return ag.sum_all(ag.mul(d, d)).data.item()

    x = ag.leaf(xv)
    d = ag.sub(x, ag.leaf(yv))
    loss = ag.sum_all(ag.mul(d, d))
    grads = ag.backward(loss, {"x": x})
    assert rel_err(grads["x"], central_diff(f, xv)) < 1e-7


@pytest.mark.parametrize("op", [ag.add, ag.sub, ag.mul])
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
    loss = ag.sum_all(ag.abs_val(x))
    grads = ag.backward(loss, {"x": x})
    assert np.array_equal(grads["x"], np.array([-1.0, 0.0, 1.0]))


def test_leaky_relu_values_and_slope():
    x = ag.leaf(np.array([-10.0, -1.0, 0.0, 2.0]))
    y = ag.leaky_relu(x, slope=0.1)
    assert np.allclose(y.data, [-1.0, -0.1, 0.0, 2.0])
    loss = ag.sum_all(y)
    grads = ag.backward(loss, {"x": x})
    # the kink at exactly zero takes the positive branch
    assert np.array_equal(grads["x"], np.array([0.1, 0.1, 1.0, 1.0]))


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


@pytest.mark.parametrize("rank,stride,pad", [(2, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_conv_gradients_match_finite_differences(rank, stride, pad):
    rng = np.random.default_rng(rank * 7 + stride)
    spatial = (6,) * rank if rank == 2 else (4,) * rank
    xv = rng.standard_normal((2,) + spatial)
    wv = 0.5 * rng.standard_normal((2, 2) + (3,) * rank)
    bv = 0.5 * rng.standard_normal(2)

    def run(x, w, b):
        out = ag.conv(ag.leaf(x), ag.leaf(w), ag.leaf(b), stride=stride, pad=pad)
        return ag.sum_all(ag.mul(out, out))

    x, w, b = ag.leaf(xv), ag.leaf(wv), ag.leaf(bv)
    out = ag.conv(x, w, b, stride=stride, pad=pad)
    loss = ag.sum_all(ag.mul(out, out))
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
# Upsampling
# ---------------------------------------------------------------------------

def test_upsample_nearest_repeats_values():
    xv = np.arange(4.0).reshape(1, 2, 2)
    out = ag.upsample_nearest(ag.leaf(xv), 2)
    expected = xv.repeat(2, axis=1).repeat(2, axis=2)
    assert np.array_equal(out.data, expected)


def test_upsample_factor_one_is_identity():
    rng = np.random.default_rng(5)
    xv = rng.standard_normal((3, 4, 4))
    out = ag.upsample_nearest(ag.leaf(xv), 1)
    assert np.array_equal(out.data, xv)


@pytest.mark.parametrize("rank", [2, 3])
def test_upsample_gradient_is_block_sum(rank):
    rng = np.random.default_rng(6 + rank)
    xv = rng.standard_normal((2,) + (3,) * rank)
    x = ag.leaf(xv)
    up = ag.upsample_nearest(x, 2)
    weight = rng.standard_normal(up.data.shape)
    loss = ag.sum_all(ag.mul(up, ag.leaf(weight)))
    grads = ag.backward(loss, {"x": x})
    # each input cell receives the sum of the weights over its 2^rank block
    expected = weight.copy()
    for axis in range(1, rank + 1):
        shape = list(expected.shape)
        shape[axis] //= 2
        shape.insert(axis + 1, 2)
        expected = expected.reshape(shape).sum(axis=axis + 1)
    assert np.allclose(grads["x"], expected)


# ---------------------------------------------------------------------------
# Row normalization and the straight-through copy
# ---------------------------------------------------------------------------

def test_l2_normalize_rows_unit_norms():
    rng = np.random.default_rng(8)
    xv = rng.standard_normal((10, 6)) * 3.0
    y = ag.l2_normalize_rows(ag.leaf(xv))
    assert np.allclose(np.linalg.norm(y.data, axis=1), 1.0)


def test_l2_normalize_rows_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    xv = rng.standard_normal((5, 4))
    weight = rng.standard_normal((5, 4))

    def f(v):
        y = ag.l2_normalize_rows(ag.leaf(v))
        return ag.sum_all(ag.mul(y, ag.leaf(weight))).data.item()

    x = ag.leaf(xv)
    y = ag.l2_normalize_rows(x)
    loss = ag.sum_all(ag.mul(y, ag.leaf(weight)))
    grads = ag.backward(loss, {"x": x})
    assert rel_err(grads["x"], central_diff(f, xv)) < 1e-6


def test_l2_normalize_rows_zero_row_is_e0_with_zero_gradient():
    # a zero row becomes the constant e0; comparing with the quantizer's
    # normalizer checks that the two modules share one rule
    rng = np.random.default_rng(19)
    xv = rng.standard_normal((5, 4))
    xv[2] = 0.0
    weight = rng.standard_normal((5, 4))

    def f(v):
        y = ag.l2_normalize_rows(ag.leaf(v))
        return ag.sum_all(ag.mul(y, ag.leaf(weight))).data.item()

    x = ag.leaf(xv)
    y = ag.l2_normalize_rows(x)
    want, zero_rows = _normalize_rows(xv)
    assert list(zero_rows) == [2]
    assert np.array_equal(y.data[2], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(y.data[2], want[2])
    grads = ag.backward(ag.sum_all(ag.mul(y, ag.leaf(weight))), {"x": x})
    assert np.array_equal(grads["x"][2], np.zeros(4))
    live = np.arange(5) != 2
    assert rel_err(grads["x"][live], central_diff(f, xv)[live]) < 1e-6


def test_straight_through_forward_and_bitwise_gradient():
    rng = np.random.default_rng(10)
    xv = rng.standard_normal((7, 3))
    qv = rng.standard_normal((7, 3))
    weight = rng.standard_normal((7, 3))
    x = ag.leaf(xv)
    out = ag.straight_through(x, qv)
    assert np.array_equal(out.data, qv)
    loss = ag.sum_all(ag.mul(out, ag.leaf(weight)))
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
    loss = ag.sum_all(ag.mul(ag.straight_through(x, q), ag.leaf(w)))
    grads = ag.backward(loss, {"x": x})
    assert np.array_equal(grads["x"], w)


# ---------------------------------------------------------------------------
# Shape plumbing and graph mechanics
# ---------------------------------------------------------------------------

def test_reshape_and_moveaxis_gradients_round_trip():
    rng = np.random.default_rng(12)
    xv = rng.standard_normal((2, 3, 4))
    x = ag.leaf(xv)
    y = ag.moveaxis(ag.reshape(x, (6, 4)), 0, 1)
    weight = rng.standard_normal((4, 6))
    loss = ag.sum_all(ag.mul(y, ag.leaf(weight)))
    grads = ag.backward(loss, {"x": x})
    assert np.array_equal(grads["x"], np.moveaxis(weight, 1, 0).reshape(2, 3, 4))


def test_backward_requires_scalar():
    x = ag.leaf(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ag.backward(ag.add(x, x), {"x": x})


def test_diamond_graph_accumulates_once():
    # x feeds two branches that rejoin; d(loss)/dx = 2x + 3
    xv = np.array([1.5, -2.0])
    x = ag.leaf(xv)
    loss = ag.sum_all(ag.add(ag.mul(x, x), ag.scale(x, 3.0)))
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
        k = ag.mul(x, x)
        s = ag.add(ag.add(h, h), k)
        loss = ag.add(ag.sum_all(ag.mul(s, ag.leaf(cv))), ag.sum_all(ag.mul(h, k)))
        return x, loss

    x, loss = run(xv)
    grads = ag.backward(loss, {"x": x})
    fd = central_diff(lambda v: run(v)[1].data.item(), xv)
    assert rel_err(grads["x"], fd) < 1e-6


def test_backward_returns_zeros_for_unreachable_leaves():
    x = ag.leaf(np.ones(3))
    orphan = ag.leaf(np.ones(4))
    loss = ag.sum_all(x)
    grads = ag.backward(loss, {"x": x, "orphan": orphan})
    assert np.array_equal(grads["orphan"], np.zeros(4))


def test_deep_chain_does_not_hit_recursion_limit():
    x = ag.leaf(np.array([1.0]))
    node = x
    for _ in range(5000):
        node = ag.scale(node, 1.0)
    grads = ag.backward(ag.sum_all(node), {"x": x})
    assert np.allclose(grads["x"], 1.0)


# ---------------------------------------------------------------------------
# Random small networks, every parameter against finite differences
# ---------------------------------------------------------------------------

def build_random_net(rng, rank):
    """A small conv -> lrelu -> upsample -> conv net with random geometry."""
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
        h = ag.upsample_nearest(h, 2)
        h = ag.conv(h, leaves["w2"], leaves["b2"], stride=1, pad=1)
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
