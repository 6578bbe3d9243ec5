"""Model assembly: configs, shapes, freezing, the checkpoint format."""

import dataclasses

import numpy as np
import pytest

from oracles import unit
from vqsct import autograd as ag
from vqsct.codebook import Codebook, kmeans_init
from vqsct.errors import DomainError, FormatError
from vqsct.model import (Checkpoint, ModelConfig, apply_freeze, build_model,
                         forward, load_checkpoint, mask_for_mode,
                         param_tensors, reinitialized, save_checkpoint,
                         value_space)


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


def test_channel_progression_caps_at_eight_times_base():
    cfg = ModelConfig(spatial_rank=2, depth=6, base_channels=4,
                      codebook_size=8, codebook_dim=6, pyramid_levels=1, seed=0)
    assert cfg.channels() == [1, 4, 8, 16, 32, 32, 32]


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
    assert dataclasses.astuple(mask_for_mode("scratch")) == (True, True, True)
    assert dataclasses.astuple(mask_for_mode("no-frozen")) == (True, True, True)
    assert dataclasses.astuple(mask_for_mode("enc-frozen")) == (False, False, True)
    assert dataclasses.astuple(
        mask_for_mode("enc-frozen", freeze_codebook_with_encoder=False)) \
        == (False, True, True)
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
