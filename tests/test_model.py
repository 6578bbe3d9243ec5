"""Model assembly: configs, shapes, freezing, the checkpoint format."""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from oracles import graph_input_pad_then_cast, unit
from vqsct import autograd as ag
from vqsct import model, volume
from vqsct.codebook import Codebook, kmeans_init, quantize
from vqsct.errors import DomainError, FormatError, ShapeError
from vqsct.model import (Checkpoint, ModelConfig, _commitment, apply_freeze,
                         build_model, forward, graph_input, load_checkpoint,
                         mask_for_mode, param_tensors, reinitialized, save_checkpoint,
                         value_space)
from vqsct.volume import NORMALIZED_AIR


def small_config(rank=2, **overrides):
    base = dict(spatial_rank=rank, depth=2, base_channels=4, codebook_size=8,
                codebook_dim=6, pyramid_levels=1, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def initialize_codebooks(ckpt, rng):
    for cb in ckpt.codebooks:
        if not cb.initialized:
            kmeans_init(cb, unit(rng.standard_normal((4 * cb.n_codes, cb.dim))),
                        seed=1)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        small_config(rank=4).validate()
    with pytest.raises(DomainError):
        small_config(depth=0).validate()
    with pytest.raises(DomainError):
        small_config(pyramid_levels=3).validate()  # deeper than depth
    small_config().validate()


@pytest.mark.parametrize("rank,over,under,kind", [
    (2, {"base_channels": 483}, {"base_channels": 482}, "a conv weight"),
    (3, {"base_channels": 279}, {"base_channels": 278}, "a conv weight"),
    (2, {"base_channels": 1, "codebook_size": 2, "codebook_dim": 2 ** 24 + 1},
     {"base_channels": 1, "codebook_size": 2, "codebook_dim": 2 ** 24}, "a 1x1 projection"),
    (2, {"codebook_size": 2 ** 20 + 1, "codebook_dim": 128},
     {"codebook_size": 2 ** 20, "codebook_dim": 128}, "a codebook"),
])
def test_validate_bounds_the_largest_block_in_plain_integers(rank, over, under, kind):
    # the largest block of each kind may hold 512^3 values, not one more, at
    # the deepest depth too: validate never loops over depth
    with pytest.raises(DomainError, match=f"^{kind} .* above the limit of 134217728"):
        small_config(rank=rank, depth=13, **over).validate()
    small_config(rank=rank, depth=13, **under).validate()


@pytest.mark.parametrize("rank", [2, 3])
def test_validate_bounds_depth_by_the_slices_of_a_grid_within_the_voxel_limit(rank):
    # 2^13 = 8192 fits in a 11585^2 slice of a 512^3-voxel grid; 2^14 fits in
    # none, and 2^40 or 10^20 is never formed
    assert 2 ** 13 <= math.isqrt(volume.MAX_VOXELS) < 2 ** 14
    small_config(rank=rank, depth=13).validate()
    for depth in (14, 2 ** 40, 10 ** 20):
        with pytest.raises(DomainError, match=f"^depth must be <= 13, got {depth}: "):
            small_config(rank=rank, depth=depth).validate()


def test_block_limit_covers_every_block_shape():
    for rank, depth, base, size, dim in itertools.product((2, 3), (1, 2, 4, 6), (1, 3),
                                                          (2, 9), (1, 5)):
        cfg = small_config(rank=rank, depth=depth, base_channels=base, codebook_size=size,
                           codebook_dim=dim, pyramid_levels=depth)
        largest = max(int(np.prod(shape)) for shape in model._block_shapes(cfg).values())
        assert largest <= max((8 * base) ** 2 * 3 ** rank, dim * 8 * base, size * dim)


def test_channel_progression_caps_at_eight_times_base():
    cfg = ModelConfig(spatial_rank=2, depth=6, base_channels=4,
                      codebook_size=8, codebook_dim=6, pyramid_levels=1, seed=0)
    assert cfg.channels() == [1, 4, 8, 16, 32, 32, 32]
    for base, depth in itertools.product((1, 3, 8), (1, 2, 4, 9)):
        cfg = small_config(base_channels=base, depth=depth)
        assert cfg.channels() == [1] + [min(base * 2 ** s, 8 * base) for s in range(depth)]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_build_model_is_deterministic_and_seed_sensitive():
    a = build_model(small_config())
    b = build_model(small_config())
    c = build_model(small_config(seed=1))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_build_model_weights_respect_fan_in_bounds():
    ckpt = build_model(small_config())
    for name, value in ckpt.params.items():
        if name.endswith(".w"):
            fan_in = int(np.prod(value.shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            assert np.abs(value).max() <= bound
            assert np.abs(value).max() > 0.1 * bound


def test_build_model_provenance_and_step():
    ckpt = build_model(small_config())
    assert ckpt.provenance == "scratch"
    assert ckpt.step == 0
    assert not ckpt.codebooks[0].initialized


def test_reinitialized_differs_from_base():
    base = build_model(small_config())
    fresh = reinitialized(base, seed=99)
    assert any(not np.array_equal(base.params[n], fresh.params[n])
               for n in base.params)
    assert fresh.config == dataclasses.replace(base.config, seed=99)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rank,shape", [(2, (1, 16, 12)), (3, (1, 8, 8, 12))])
def test_forward_output_shape_matches_input(rank, shape):
    rng = np.random.default_rng(0)
    ckpt = build_model(small_config(rank=rank))
    initialize_codebooks(ckpt, rng)
    result = forward(ckpt, rng.standard_normal(shape), beta=0.25)
    assert result.output.data.shape == shape
    assert np.isfinite(result.commitment.data).all()


def test_forward_rejects_indivisible_extents():
    rng = np.random.default_rng(1)
    ckpt = build_model(small_config())  # depth 2 => extents divisible by 4
    initialize_codebooks(ckpt, rng)
    with pytest.raises(DomainError):
        forward(ckpt, rng.standard_normal((1, 10, 12)))


@pytest.mark.parametrize("space", ["unit01", "sym11"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(9, 7), (13, 4), (5, 9, 7)])
def test_graph_input_matches_pad_then_cast_per_slice(shape, dtype, space):
    # odd extents pad on every axis; the values arrive as copies and as
    # strided views, as the training items and the translated slices do
    config = small_config(rank=len(shape))  # depth 2: multiples of 4
    rng = np.random.default_rng(13)
    stack = rng.uniform(NORMALIZED_AIR[space], 1.0, shape + (2,)).astype(dtype)
    for values in (stack[..., 1], stack[..., 0].copy()):
        got = graph_input(config, values, space)
        want = graph_input_pad_then_cast(values, config.depth, space)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.shape[1:] == tuple(-(-n // 4) * 4 for n in shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,depth,levels", [
    ((13, 10), 2, 2), ((9, 16), 3, 3), ((7, 9, 12), 2, 2), ((16, 9, 12), 3, 2)])
def test_level_rows_count_the_quantized_rows_of_a_graph_input(shape, depth, levels):
    config = small_config(rank=len(shape), depth=depth, pyramid_levels=levels)
    x = graph_input(config, np.random.default_rng(3).uniform(0, 1, shape), "unit01")
    rows = forward(build_model(config), x).unit_rows
    assert config.level_rows(shape) == [len(r) for r in rows]


def test_graph_input_checks_rank_and_depth_before_padding(monkeypatch):
    def no_padding(*args, **kwargs):
        raise AssertionError("padded")

    monkeypatch.setattr(model, "pad_to_multiple", no_padding)
    with pytest.raises(ShapeError):
        graph_input(small_config(), np.zeros((1, 8, 8)), "sym11")
    with pytest.raises(DomainError, match="depth 2 pads cubes"):
        graph_input(small_config(rank=3), np.zeros((8, 3, 8)), "unit01")
    with pytest.raises(DomainError, match=r"2\^100000"):
        graph_input(small_config(depth=100000), np.zeros((8, 8)), "unit01")


def test_check_cube_edge_agrees_with_the_modulus():
    for depth in range(1, 9):
        config = small_config(rank=3, depth=depth)
        for edge in range(0, 300):
            rejected = False
            try:
                config.check_cube_edge(edge)
            except DomainError as exc:
                rejected = True
                assert str(exc) == f"cube edge {edge} must be divisible by 2^{depth}"
            assert rejected == bool(edge % 2 ** depth), (depth, edge)
    with pytest.raises(DomainError, match=r"^cube edge 64 must be divisible by 2\^100000$"):
        small_config(rank=3, depth=100000).check_cube_edge(64)


def test_forward_deterministic():
    rng = np.random.default_rng(2)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 8, 8))
    a = forward(ckpt, x)
    b = forward(ckpt, x)
    assert np.array_equal(a.output.data, b.output.data)
    assert np.array_equal(a.code_indices[0], b.code_indices[0])


def test_forward_uses_every_pyramid_level():
    rng = np.random.default_rng(3)
    ckpt = build_model(small_config(pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    result = forward(ckpt, rng.standard_normal((1, 16, 16)))
    assert len(result.code_indices) == 2
    # deepest level is the coarsest grid
    assert result.code_indices[0].shape == (4, 4)
    assert result.code_indices[1].shape == (8, 8)


def test_quantizer_transparent_when_codebook_holds_encoder_rows():
    # a codebook stocked with the (normalized) encoder rows makes quantization
    # lossless; a random codebook in the same position changes the output
    rng = np.random.default_rng(4)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 8, 8))
    probe = forward(ckpt, x)
    normed = probe.unit_rows[0]

    exact = ckpt.copy()
    cb = Codebook(len(normed), normed.shape[1], seed=0)
    kmeans_init(cb, unit(rng.standard_normal((2 * len(normed), normed.shape[1]))))
    cb.codes = normed.copy()
    exact.codebooks[0] = cb
    transparent = forward(exact, x, beta=0.25)
    quantized = cb.codes[transparent.code_indices[0].ravel()]
    assert np.allclose(quantized, normed, atol=1e-12)
    assert transparent.commitment.data.item() < 1e-20
    assert not np.allclose(transparent.output.data, probe.output.data)


def test_forward_commitment_oracle():
    # the level mean of beta * mean_rows ||z/|z| - codes[idx]||^2
    rng = np.random.default_rng(6)
    ckpt = build_model(small_config(pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 16, 16))
    with_commit = forward(ckpt, x, beta=0.25)
    per_level = []
    for rows, idx, cb in zip(with_commit.unit_rows, with_commit.code_indices,
                             ckpt.codebooks):
        diff = rows - cb.codes[idx.ravel()]
        per_level.append(0.25 * np.mean(np.sum(diff ** 2, axis=1)))
    assert with_commit.commitment.data.item() == pytest.approx(
        np.mean(per_level), rel=1e-12)

    plain = forward(ckpt, x)
    assert plain.commitment is None
    assert plain.output.data.tobytes() == with_commit.output.data.tobytes()
    with pytest.raises(DomainError):
        forward(ckpt, x, beta=-0.25)


@pytest.mark.parametrize("beta", [-0.25, float("inf"), float("nan")])
def test_forward_rejects_a_beta_out_of_the_training_range(beta):
    ckpt = build_model(small_config())
    x = np.zeros((1, 8, 8), np.float32)
    with pytest.raises(DomainError, match=r"^beta must be finite and >= 0"):
        forward(ckpt, x, beta=beta)


def test_commitment_is_one_node_over_the_level_projections():
    rng = np.random.default_rng(8)
    ckpt = build_model(small_config(pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    params = param_tensors(ckpt)
    x = rng.standard_normal((1, 16, 16))
    result = forward(ckpt, x, params, beta=0.25)
    node = result.commitment
    assert node.op == "commitment" and len(node.parents) == 2
    for j, proj in enumerate(node.parents):
        assert proj.op == "conv" and proj.parents[1] is params[f"vq{j}.in.w"]
    # every other node of the commitment's graph is also in the output's
    output_nodes = {id(n) for n in ag._toposort(result.output)}
    assert [n for n in ag._toposort(node) if id(n) not in output_nodes] == [node]
    assert forward(ckpt, x, params).commitment is None


def test_commitment_gradient_matches_finite_differences():
    # float64, two pyramid levels, a few entries of every encoder-side
    # parameter; the perturbations must not move any row to another code
    rng = np.random.default_rng(9)
    ckpt = build_model(small_config(pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 16, 16))
    params = param_tensors(ckpt)
    base = forward(ckpt, x, params, beta=0.25)
    grads = ag.backward(base.commitment, params)

    def commitment(name, idx, value):
        trial = ckpt.copy()
        trial.params[name][idx] = value
        res = forward(trial, x, beta=0.25)
        for got, want in zip(res.code_indices, base.code_indices):
            assert np.array_equal(got, want)
        return res.commitment.data.item()

    eps, worst = 1e-5, 0.0
    for name in apply_freeze(ckpt, mask_for_mode("scratch")):
        if not (name.startswith("enc.") or ".in." in name):
            assert not grads[name].any(), name  # the decoder side gets none
            continue
        value = ckpt.params[name]
        for flat in rng.choice(value.size, size=min(3, value.size), replace=False):
            idx = np.unravel_index(flat, value.shape)
            fd = (commitment(name, idx, value[idx] + eps)
                  - commitment(name, idx, value[idx] - eps)) / (2 * eps)
            got = grads[name][idx]
            worst = max(worst, abs(got - fd) / max(abs(got), abs(fd), 1e-6))
    assert worst <= 1e-4


def test_commitment_passes_no_gradient_to_a_zero_row():
    # the zero row quantizes as the constant e0; the other rows' gradients
    # match central differences with their codes held
    rng = np.random.default_rng(10)
    cb = Codebook(8, 6, seed=0)
    kmeans_init(cb, unit(rng.standard_normal((32, 6))), seed=1)
    zv = rng.standard_normal((6, 4, 4))
    zv[:, 1, 2] = 0.0
    qres = quantize(cb, zv.reshape(6, -1).T)
    assert list(qres.zero_rows) == [6]
    z = ag.leaf(zv)
    grad = ag.backward(_commitment([(z, qres)], 0.25), {"z": z})["z"]
    assert grad.shape == zv.shape and grad.dtype == zv.dtype
    assert not grad[:, 1, 2].any()

    def value(v):
        res = quantize(cb, v.reshape(6, -1).T)
        assert np.array_equal(res.indices, qres.indices)
        return _commitment([(ag.leaf(v), res)], 0.25).data.item()

    eps = 1e-6
    for idx in np.ndindex(zv.shape):
        if idx[1:] == (1, 2):
            continue
        up, dn = zv.copy(), zv.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd = (value(up) - value(dn)) / (2 * eps)
        assert abs(grad[idx] - fd) <= 1e-6 * max(abs(fd), 1e-3), idx


def test_forward_accepts_external_param_tensors():
    rng = np.random.default_rng(5)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    params = param_tensors(ckpt)
    x = rng.standard_normal((1, 8, 8))
    result = forward(ckpt, x, params=params)
    loss = ag.mean_all(ag.abs_val(result.output))
    grads = ag.backward(loss, params)
    assert set(grads) == set(ckpt.params)
    assert any(np.abs(g).sum() > 0 for g in grads.values())


@pytest.mark.parametrize("rank,shape", [(2, (1, 16, 16)), (3, (1, 8, 8, 8))])
def test_float32_forward_and_commitment_match_float64(rank, shape):
    rng = np.random.default_rng(11)
    ckpt = build_model(small_config(rank=rank, pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal(shape)
    p64, p32 = param_tensors(ckpt), param_tensors(ckpt, np.float32)
    want = forward(ckpt, x, p64, beta=0.25)
    got = forward(ckpt, x.astype(np.float32), p32, beta=0.25)
    for a, b in zip(want.code_indices, got.code_indices):
        assert np.array_equal(a, b)
    assert got.output.data.dtype == got.commitment.data.dtype == np.float32
    np.testing.assert_allclose(got.output.data, want.output.data, rtol=0,
                               atol=1e-5 * np.max(np.abs(want.output.data)))
    assert got.commitment.data.item() == pytest.approx(want.commitment.data.item(), rel=1e-5)

    def loss(result):
        return ag.add(ag.mean_all(ag.abs_val(result.output)), result.commitment)

    g64, g32 = ag.backward(loss(want), p64), ag.backward(loss(got), p32)
    for name in ckpt.params:
        assert g32[name].dtype == np.float32, name
        np.testing.assert_allclose(g32[name], g64[name], rtol=0,
                                   atol=1e-5 * np.max(np.abs(g64[name])), err_msg=name)


def test_forward_graph_dtype_follows_input():
    rng = np.random.default_rng(12)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 8, 8))
    assert forward(ckpt, x.astype(np.float32)).output.data.dtype == np.float32
    for other in (x, x.astype(np.float16), np.zeros((1, 8, 8), dtype=np.int64)):
        assert forward(ckpt, other).output.data.dtype == np.float64
    assert all(p.dtype == np.float64 for p in ckpt.params.values())


def _two_level_loss(seed):
    rng = np.random.default_rng(seed)
    ckpt = build_model(small_config(pyramid_levels=2))
    initialize_codebooks(ckpt, rng)
    params = param_tensors(ckpt)
    result = forward(ckpt, rng.standard_normal((1, 16, 16)), params=params)
    return ckpt, params, ag.mean_all(ag.abs_val(result.output))


def test_backward_on_trainable_subset_matches_full_bitwise():
    ckpt, params, loss = _two_level_loss(6)
    trainable = apply_freeze(ckpt, mask_for_mode("enc-frozen"))
    full = ag.backward(loss, params)
    subset = ag.backward(loss, {n: params[n] for n in trainable})
    assert set(subset) == set(trainable)
    for name in trainable:
        assert subset[name].tobytes() == full[name].tobytes(), name


def test_backward_skips_conv_vjps_of_frozen_encoder(monkeypatch):
    ckpt, params, loss = _two_level_loss(7)
    calls = []
    original = ag.conv_backward_data

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ag, "conv_backward_data", counting)
    trainable = apply_freeze(ckpt, mask_for_mode("enc-frozen"))
    ag.backward(loss, {n: params[n] for n in trainable})
    assert len(calls) == 5  # vq0.out, vq1.out, dec.0, dec.1, dec.final
    calls.clear()
    ag.backward(loss, params)
    assert len(calls) == 9  # plus enc.0, enc.1, vq0.in, vq1.in


# ---------------------------------------------------------------------------
# Freeze masks
# ---------------------------------------------------------------------------

def test_mask_for_mode_matrix():
    assert dataclasses.astuple(mask_for_mode("scratch")) == (True, True)
    assert dataclasses.astuple(mask_for_mode("no-frozen")) == (True, True)
    assert dataclasses.astuple(mask_for_mode("enc-frozen")) == (False, False)
    assert dataclasses.astuple(
        mask_for_mode("enc-frozen", freeze_codebook_with_encoder=False)) \
        == (False, True)
    with pytest.raises(DomainError):
        mask_for_mode("half-frozen")


def test_apply_freeze_separates_encoder_side():
    ckpt = build_model(small_config())
    trainable = apply_freeze(ckpt, mask_for_mode("enc-frozen"))
    assert trainable
    for name in trainable:
        assert not name.startswith("enc.")
        assert ".in." not in name
    full = apply_freeze(ckpt, mask_for_mode("no-frozen"))
    assert sorted(full) == sorted(ckpt.params)


# ---------------------------------------------------------------------------
# Value space
# ---------------------------------------------------------------------------

def test_value_space_follows_provenance():
    ckpt = build_model(small_config())
    assert value_space(ckpt) == "sym11"
    pre = dataclasses.replace(ckpt) if False else ckpt.copy()
    pre.provenance = "pretrained"
    assert value_space(pre) == "unit01"
    fin = ckpt.copy()
    fin.provenance = "finetuned"
    assert value_space(fin) == "sym11"


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(6)
    ckpt = build_model(small_config(rank=3))
    initialize_codebooks(ckpt, rng)
    ckpt.step = 17
    ckpt.provenance = "pretrained"
    path = tmp_path / "model.vqck"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.step == 17
    assert back.provenance == "pretrained"
    # the file stores 32-bit floats, so values come back f32-quantized
    def stored(x):
        return x.astype("<f4").astype(np.float64)
    for name in ckpt.params:
        assert np.array_equal(back.params[name], stored(ckpt.params[name]))
    for a, b in zip(ckpt.codebooks, back.codebooks):
        assert np.array_equal(b.codes, stored(a.codes))
        assert np.array_equal(b.usage_age, a.usage_age)
        assert np.array_equal(b.ema_cluster_size, stored(a.ema_cluster_size))
        assert np.array_equal(b.ema_embed_sum, stored(a.ema_embed_sum))
        assert a.initialized == b.initialized


def test_checkpoint_resave_is_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    first = tmp_path / "a.vqck"
    second = tmp_path / "b.vqck"
    save_checkpoint(ckpt, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("value", [1e39, -1e300, np.inf, np.nan])
def test_checkpoint_whose_float32_cast_would_not_load_is_never_written(tmp_path, value):
    ckpt = build_model(small_config())
    path = tmp_path / "m.vqck"
    save_checkpoint(ckpt, path)
    before = path.read_bytes()
    ckpt.params["enc.1.w"].flat[5] = value
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="^checkpoint block enc.1.w "):
            save_checkpoint(ckpt, path)
        with pytest.raises(DomainError):
            save_checkpoint(ckpt, tmp_path / "new.vqck")
    # the previous file stays, and no temporary file is left beside it
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["m.vqck"]
    load_checkpoint(path)


def test_checkpoint_magic_enforced(tmp_path):
    rng = np.random.default_rng(8)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    path = tmp_path / "m.vqck"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"JUNK0001"
    bad = tmp_path / "bad.vqck"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_loaded_checkpoint_forward_is_bitwise_equal(tmp_path):
    rng = np.random.default_rng(9)
    ckpt = build_model(small_config())
    initialize_codebooks(ckpt, rng)
    x = rng.standard_normal((1, 8, 8))
    path = tmp_path / "m.vqck"
    save_checkpoint(ckpt, path)
    want = forward(load_checkpoint(path), x).output.data
    got = forward(load_checkpoint(path), x).output.data
    assert np.array_equal(want, got)
    # and the load stays faithful to the stored 32-bit precision
    close = forward(ckpt, x).output.data
    assert np.allclose(want, close, atol=1e-5)


def test_block_views_cover_the_flat_array_in_order():
    shapes = [(2, 3), (4,), (1, 2, 2), (0,), (3, 1)]
    flat = np.arange(17.0)
    views = model.block_views(flat, iter(shapes))
    assert [v.shape for v in views] == shapes
    assert all(np.shares_memory(v, flat) for v in views if v.size)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), flat)
    views[2][...] = -1.0  # a view writes its own run of the flat array
    assert np.array_equal(np.flatnonzero(flat == -1.0), np.arange(10, 14))


def test_copy_of_a_trained_checkpoint_shares_no_memory(tmp_path):
    from vqsct.phantom import generate_texture_volume
    from vqsct.training import pretrain_recon

    vols = [volume.normalize(generate_texture_volume((16, 16, 16), seed=5), "unit01")]
    ckpt = pretrain_recon(small_config(pyramid_levels=2), vols, steps=2, seed=1,
                          batch_size=2).checkpoint
    before = tmp_path / "before.vqck"
    save_checkpoint(ckpt, before)
    dup = ckpt.copy()
    arrays = [(ckpt.params[name], dup.params[name]) for name in ckpt.params]
    for cb, twin in zip(ckpt.codebooks, dup.codebooks):
        assert twin.initialized == cb.initialized
        arrays += [(getattr(cb, field), getattr(twin, field)) for field in
                   ("codes", "ema_embed_sum", "ema_cluster_size", "usage_age")]
    for original, copied in arrays:
        assert np.array_equal(original, copied) and original.dtype == copied.dtype
        assert not np.shares_memory(original, copied)
        copied += 1
    dup.codebooks[0].initialized = False
    dup.step += 1
    after = tmp_path / "after.vqck"
    save_checkpoint(ckpt, after)
    assert after.read_bytes() == before.read_bytes()


def test_block_count_is_the_number_of_block_shapes():
    for rank, depth, base in itertools.product((2, 3), (1, 2, 3, 5), (1, 4)):
        for levels in range(1, depth + 1):
            cfg = small_config(rank=rank, depth=depth, base_channels=base,
                               pyramid_levels=levels)
            assert model._block_count(cfg) == len(model._block_shapes(cfg))


@pytest.mark.parametrize("depth,match", [(10 ** 9, r"header \(depth must be <= 13, got"),
                                         (13, "manifest")], ids=["above-13", "13"])
def test_huge_depth_is_rejected_before_any_layer_spec_is_built(tmp_path, monkeypatch, depth,
                                                                match):
    # a depth-2 checkpoint whose header claims depth 10^9 (above the bound) or 13
    ckpt = build_model(small_config())
    ckpt.config = dataclasses.replace(ckpt.config, depth=depth)
    path = tmp_path / "m.vqck"
    save_checkpoint(ckpt, path)

    def no_specs(config):
        raise AssertionError("a layer spec was built")

    monkeypatch.setattr(model, "_layer_specs", no_specs)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)
