"""Optimizer recurrence and the two training loops."""

import numpy as np
import pytest

from vqsct.codebook import kmeans_init
from vqsct.errors import DomainError, ShapeError, TrainingError
from vqsct.model import ModelConfig, build_model, forward, save_checkpoint
from vqsct.training import (adamw_step, finetune_translate, init_optimizer,
                            pretrain_recon, select_checkpoint)
from vqsct.volume import Volume, normalize


def small_config(rank=2, **overrides):
    base = dict(spatial_rank=rank, depth=2, base_channels=4, codebook_size=8,
                codebook_dim=6, pyramid_levels=1, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# AdamW against the hand recurrence
# ---------------------------------------------------------------------------

def adamw_oracle(p, g, m, v, step, lr, b1, b2, eps, wd):
    """One decoupled-weight-decay Adam step, written out longhand."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** step)
    v_hat = v / (1 - b2 ** step)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p, m, v


def test_adamw_single_step_worked_example():
    params = {"p": np.array([0.0])}
    state = init_optimizer(params, ["p"], learning_rate=1e-3, weight_decay=0.0)
    adamw_step(state, params, {"p": np.array([1.0])})
    # bias-corrected m_hat = v_hat = 1, so the step is lr / (1 + eps)
    assert params["p"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-14)
    assert params["p"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adamw_zero_gradient_zero_decay_is_noop():
    params = {"p": np.array([1.0, -2.0])}
    state = init_optimizer(params, ["p"], learning_rate=1e-2, weight_decay=0.0)
    adamw_step(state, params, {"p": np.zeros(2)})
    assert np.array_equal(params["p"], np.array([1.0, -2.0]))


def test_adamw_matches_longhand_recurrence_over_many_steps():
    rng = np.random.default_rng(0)
    pv = rng.standard_normal(5)
    params = {"p": pv.copy()}
    state = init_optimizer(params, ["p"], learning_rate=3e-3, weight_decay=0.01)
    m = np.zeros(5)
    v = np.zeros(5)
    want = pv.copy()
    for step in range(1, 40):
        g = rng.standard_normal(5)
        adamw_step(state, params, {"p": g})
        want, m, v = adamw_oracle(want, g, m, v, step, 3e-3, 0.9, 0.999,
                                  1e-8, 0.01)
        assert np.allclose(params["p"], want, atol=1e-14)


def test_adamw_converges_on_quadratic():
    params = {"p": np.array([0.0])}
    state = init_optimizer(params, ["p"], learning_rate=1e-2, weight_decay=0.0)
    for _ in range(10_000):
        grad = 2.0 * (params["p"] - 3.0)
        adamw_step(state, params, {"p": grad})
    assert abs(params["p"][0] - 3.0) < 1e-3


def test_adamw_updates_only_trainable_subset():
    params = {"a": np.ones(3), "b": np.ones(3)}
    state = init_optimizer(params, ["a"], learning_rate=1e-2, weight_decay=0.0)
    adamw_step(state, params, {"a": np.ones(3)})
    assert not np.array_equal(params["a"], np.ones(3))
    assert np.array_equal(params["b"], np.ones(3))


def test_adamw_rejects_bad_gradients():
    params = {"p": np.ones(2)}
    state = init_optimizer(params, ["p"], learning_rate=1e-2, weight_decay=0.0)
    with pytest.raises(ShapeError):
        adamw_step(state, params, {"p": np.ones(3)})
    with pytest.raises(TrainingError, match="p"):
        adamw_step(state, params, {"p": np.array([1.0, np.nan])})


# ---------------------------------------------------------------------------
# Pre-training loop
# ---------------------------------------------------------------------------

def texture_volumes(n, base_seed=50, dims=(24, 24, 24)):
    from vqsct.phantom import generate_texture_volume
    return [normalize(generate_texture_volume(dims, seed=base_seed + i), "unit01")
            for i in range(n)]


def test_pretrain_zero_steps_initializes_codebook_only():
    vols = texture_volumes(2)
    result = pretrain_recon(small_config(), vols, steps=0, seed=3)
    ckpt = result.checkpoint
    assert ckpt.step == 0
    assert ckpt.provenance == "pretrained"
    assert all(cb.initialized for cb in ckpt.codebooks)
    base = build_model(small_config())
    for name in base.params:
        assert np.array_equal(ckpt.params[name], base.params[name])


def test_pretrain_reduces_training_loss():
    vols = texture_volumes(8)
    result = pretrain_recon(small_config(), vols, steps=200, seed=3,
                            learning_rate=1e-3, batch_size=8)
    assert result.l1_history[-1] <= 0.5 * result.l1_history[0]
    assert len(result.l1_history) == 200


def test_pretrain_requires_unit01_volumes():
    from vqsct.phantom import generate_texture_volume
    bad = normalize(generate_texture_volume((24, 24, 24), seed=1), "sym11")
    with pytest.raises(DomainError):
        pretrain_recon(small_config(), [bad], steps=1, seed=0)


def test_pretrain_deterministic_checkpoint_bytes(tmp_path):
    vols = texture_volumes(3)
    paths = []
    for run in range(2):
        result = pretrain_recon(small_config(), vols, steps=20, seed=7,
                                learning_rate=1e-3, batch_size=4)
        path = tmp_path / f"run{run}.vqck"
        save_checkpoint(result.checkpoint, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_pretrain_3d_uses_cube_tiles():
    vols = texture_volumes(2, dims=(16, 16, 16))
    result = pretrain_recon(small_config(rank=3), vols, steps=2, seed=0,
                            learning_rate=1e-4, batch_size=2, cube_edge=8)
    assert result.checkpoint.config.spatial_rank == 3
    assert len(result.l1_history) == 2


def test_pretrain_augmented_is_deterministic_and_changes_trajectory():
    vols = texture_volumes(2, dims=(16, 16, 16))
    runs = [pretrain_recon(small_config(), vols, steps=8, seed=7,
                           learning_rate=1e-3, batch_size=4, augment=True)
            for _ in range(2)]
    for name in runs[0].checkpoint.params:
        assert np.array_equal(runs[0].checkpoint.params[name],
                              runs[1].checkpoint.params[name])
    plain = pretrain_recon(small_config(), vols, steps=8, seed=7,
                           learning_rate=1e-3, batch_size=4)
    assert any(not np.array_equal(plain.checkpoint.params[n],
                                  runs[0].checkpoint.params[n])
               for n in plain.checkpoint.params)


# ---------------------------------------------------------------------------
# Fine-tuning loop
# ---------------------------------------------------------------------------

def paired_slices(n, seed=0, side=16):
    rng = np.random.default_rng(seed)
    pets, cts = [], []
    for _ in range(n):
        base = rng.uniform(-1, 1, (side, side))
        pets.append(base)
        cts.append(np.clip(0.8 * base + 0.1, -1, 1))
    return pets, cts


def pretrained_base(seed=0):
    vols = texture_volumes(2, dims=(16, 16, 16))
    return pretrain_recon(small_config(), vols, steps=5, seed=seed,
                          learning_rate=1e-4, batch_size=4).checkpoint


def test_finetune_rejects_unpaired_or_mismatched():
    base = pretrained_base()
    pets, cts = paired_slices(4)
    with pytest.raises(DomainError):
        finetune_translate(base, "scratch", pets, cts[:3], steps=1, seed=0)
    bad_cts = [np.zeros((8, 8))] + cts[1:]
    with pytest.raises(ShapeError):
        finetune_translate(base, "scratch", pets, bad_cts, steps=1, seed=0)


def test_finetune_scratch_reinitializes_while_others_keep_base():
    base = pretrained_base()
    pets, cts = paired_slices(6)
    scratch = finetune_translate(base, "scratch", pets, cts, steps=0, seed=5)
    kept = finetune_translate(base, "no-frozen", pets, cts, steps=0, seed=5)
    assert any(not np.array_equal(scratch.checkpoint.params[n], base.params[n])
               for n in base.params)
    for name in base.params:
        assert np.array_equal(kept.checkpoint.params[name], base.params[name])
    assert scratch.checkpoint.provenance == "finetuned"
    assert kept.checkpoint.provenance == "finetuned"


def test_finetune_enc_frozen_keeps_encoder_bytes():
    base = pretrained_base()
    pets, cts = paired_slices(8)
    result = finetune_translate(base, "enc-frozen", pets, cts, steps=30,
                                seed=2, learning_rate=1e-3, batch_size=4)
    ckpt = result.checkpoint
    enc_names = [n for n in base.params
                 if n.startswith("enc.") or ".in." in n]
    dec_names = [n for n in base.params if n not in enc_names]
    for name in enc_names:
        assert base.params[name].tobytes() == ckpt.params[name].tobytes()
    assert any(base.params[n].tobytes() != ckpt.params[n].tobytes()
               for n in dec_names)


def test_finetune_no_frozen_overfits_single_pair():
    from scipy.ndimage import gaussian_filter
    vols = texture_volumes(2, dims=(16, 16, 16))
    base = pretrain_recon(small_config(base_channels=8), vols, steps=5, seed=0,
                          learning_rate=1e-4, batch_size=4).checkpoint
    rng = np.random.default_rng(3)
    field = gaussian_filter(rng.standard_normal((16, 16)), 3.0)
    field /= np.abs(field).max()
    pet = [field]
    ct = [np.clip(field * 0.5, -1, 1)]
    result = finetune_translate(base, "no-frozen", pet, ct, steps=500, seed=4,
                                learning_rate=3e-3, batch_size=1)
    assert result.l1_history[-1] <= 0.02


def test_finetune_augment_shares_one_symmetry_per_pair():
    # The identity map is learnable under augmentation only when the input
    # and target of each sampled pair receive the same flip/transpose.
    base = pretrained_base()
    rng = np.random.default_rng(9)
    slices = [rng.uniform(-1, 1, (16, 16)) for _ in range(3)]
    result = finetune_translate(base, "no-frozen", slices, slices, steps=150,
                                seed=4, learning_rate=2e-3, batch_size=2,
                                augment=True)
    assert result.l1_history[-1] <= 0.5 * result.l1_history[0]


def test_finetune_loss_histories_have_step_length():
    base = pretrained_base()
    pets, cts = paired_slices(5)
    result = finetune_translate(base, "no-frozen", pets, cts, steps=7, seed=0,
                                learning_rate=1e-4, batch_size=2)
    assert len(result.l1_history) == 7
    assert len(result.loss_history) == 7
    assert all(np.isfinite(v) for v in result.l1_history)
    # commitment adds on top of the bare L1
    assert all(t >= l - 1e-12 for l, t in zip(result.l1_history,
                                              result.loss_history))


# ---------------------------------------------------------------------------
# Checkpoint selection
# ---------------------------------------------------------------------------

def test_select_checkpoint_prefers_identity_quality():
    rng = np.random.default_rng(8)
    vols = texture_volumes(1, dims=(16, 16, 16))
    hu_vol = Volume(np.clip(rng.standard_normal((16, 16, 16)) * 300, -1000, 2000),
                    (1.5, 1.5, 1.5), "HU", {})

    good = pretrain_recon(small_config(), vols, steps=150, seed=0,
                          learning_rate=2e-3, batch_size=8).checkpoint
    # constant-output rival: zero out the decoder head so it emits a flat image
    flat = good.copy()
    flat.params["dec.final.w"] = np.zeros_like(flat.params["dec.final.w"])
    flat.params["dec.final.b"] = np.full_like(flat.params["dec.final.b"], 0.5)

    best = select_checkpoint([flat, good], [hu_vol])
    assert best is good
    # single candidate comes back unconditionally
    assert select_checkpoint([flat], [hu_vol]) is flat


def test_select_checkpoint_tie_keeps_first():
    vols = texture_volumes(1, dims=(16, 16, 16))
    rng = np.random.default_rng(9)
    hu_vol = Volume(np.clip(rng.standard_normal((16, 16, 16)) * 300, -1000, 2000),
                    (1.5, 1.5, 1.5), "HU", {})
    ckpt = pretrain_recon(small_config(), vols, steps=0, seed=0).checkpoint
    twin = ckpt.copy()
    best = select_checkpoint([ckpt, twin], [hu_vol])
    assert best is ckpt


def test_select_checkpoint_validates_inputs():
    rng = np.random.default_rng(10)
    hu_vol = Volume(rng.standard_normal((16, 16, 16)) * 100, (1, 1, 1), "HU", {})
    with pytest.raises(DomainError):
        select_checkpoint([], [hu_vol])
    ckpt = pretrain_recon(small_config(), texture_volumes(1, dims=(16, 16, 16)),
                          steps=0, seed=0).checkpoint
    with pytest.raises(DomainError):
        select_checkpoint([ckpt], [])
    not_hu = Volume(rng.uniform(0, 1, (16, 16, 16)), (1, 1, 1), "unit01", {})
    with pytest.raises(DomainError):
        select_checkpoint([ckpt], [not_hu])
