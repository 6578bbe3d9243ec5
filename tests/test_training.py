"""Optimizer recurrence and the two training loops."""

import os
import select
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from test_pipeline import _no_child_left, forks  # noqa: F401

from vqsct import autograd as ag
from vqsct import training
from vqsct.codebook import kmeans_init
from vqsct.errors import DomainError, ShapeError, TrainingError, VqsctError
from vqsct.model import (GRAPH_DTYPE, FreezeMask, ModelConfig, build_model, forward,
                         param_tensors, save_checkpoint)
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


def test_adamw_keeps_float64_state_under_float32_gradients():
    rng = np.random.default_rng(1)
    params = {"p": rng.standard_normal(4)}
    state = init_optimizer(params, ["p"], learning_rate=1e-2)
    want = params["p"].copy()
    m, v = np.zeros(4), np.zeros(4)
    for step in range(1, 4):
        g = rng.standard_normal(4).astype(np.float32)
        adamw_step(state, params, {"p": g})
        want, m, v = adamw_oracle(want, g.astype(np.float64), m, v, step, 1e-2,
                                  0.9, 0.999, 1e-8, 0.01)
    for arr in (params["p"], state.m["p"], state.v["p"]):
        assert arr.dtype == np.float64
    assert np.allclose(params["p"], want, atol=1e-14)


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


def test_kmeans_init_builds_one_set_of_leaves_and_runs_no_decoder(monkeypatch):
    leaf_dtypes, convs = [], []
    real_fwd = ag.conv_forward_data

    def counting(ckpt, dtype=np.float64):
        leaf_dtypes.append(dtype)
        return param_tensors(ckpt, dtype)

    def fwd(x, w, b=None, stride=1, pad=0):
        convs.append((stride, pad))
        return real_fwd(x, w, b, stride, pad)

    monkeypatch.setattr(training, "param_tensors", counting)
    monkeypatch.setattr(ag, "conv_forward_data", fwd)
    config = small_config(pyramid_levels=2)
    pretrain_recon(config, texture_volumes(1, dims=(16, 16, 16)), steps=0, seed=0,
                   batch_size=16)
    assert leaf_dtypes == [np.float32]
    # per item: the stride-2 encoder convs and each level's two 1x1
    # projections; every decoder conv is a stride-1, pad-1 one
    assert sorted(set(convs)) == [(1, 0), (2, 1)]
    assert len(convs) == 16 * (config.depth + 2 * config.pyramid_levels)


def test_kmeans_rows_are_the_full_forward_unit_rows():
    ckpt = build_model(small_config(pyramid_levels=2))
    rng = np.random.default_rng(4)
    items = [rng.uniform(0, 1, (1, 16, 16)).astype(np.float32) for _ in range(5)]
    batch = np.array([3, 0, 4])
    level_rows = training._collect_level_rows(ckpt, [items[i] for i in batch])
    assert len(level_rows) == 2
    for j, rows in enumerate(level_rows):
        want = np.concatenate([forward(ckpt, items[i]).unit_rows[j] for i in batch])
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_each_step_collapses_each_decoder_weight_once(monkeypatch):
    # once per step, not once per batch item, and never for k-means init
    collapsed = []
    real = ag._phase_kernels

    def counting(w):
        collapsed.append(w.shape)
        return real(w)

    monkeypatch.setattr(ag, "_phase_kernels", counting)
    config = small_config(pyramid_levels=2)
    decoder = [build_model(config).params[f"dec.{i}.w"].shape for i in range(config.depth)]
    pretrain_recon(config, texture_volumes(1, dims=(16, 16, 16)), steps=3, seed=0,
                   learning_rate=1e-3, batch_size=4)
    assert collapsed == decoder * 3


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


# a negative batch size could hang this process; test_cli checks it time-bounded
@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0}, {"learning_rate": float("nan")},
    {"learning_rate": float("inf")}, {"learning_rate": 0.0},
    {"learning_rate": -1e-3}, {"weight_decay": -0.01},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
    {"beta": -0.25}, {"beta": float("nan")}, {"beta": float("inf")},
    {"decay": 0.0}, {"decay": 1.0}, {"decay": 7.0}, {"decay": float("nan")},
    {"expire_age": 0}, {"expire_age": -4}])
def test_out_of_range_training_values_are_rejected(kwargs):
    # with zero steps: each value is checked before any training work, also
    # where the loop would never reach the code that uses it
    with pytest.raises(DomainError, match=next(iter(kwargs)).replace("_", " ")):
        pretrain_recon(small_config(), texture_volumes(1), steps=0, seed=0, **kwargs)


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


@pytest.mark.parametrize("rank", [2, 3])
def test_training_runs_every_conv_in_float32(monkeypatch, rank):
    # through the module globals that autograd.conv calls: the k-means
    # forward, each step's forwards (commitment branch included) and backward
    operands = {"forward": [], "backward": []}
    real_fwd, real_bwd = ag.conv_forward_data, ag.conv_backward_data

    def fwd(x, w, b=None, stride=1, pad=0):
        operands["forward"].append({a.dtype for a in (x, w, b) if a is not None})
        return real_fwd(x, w, b, stride, pad)

    def bwd(x, w, gy, stride=1, pad=0):
        operands["backward"].append({x.dtype, w.dtype, gy.dtype})
        return real_bwd(x, w, gy, stride, pad)

    monkeypatch.setattr(ag, "conv_forward_data", fwd)
    monkeypatch.setattr(ag, "conv_backward_data", bwd)
    result = pretrain_recon(small_config(rank=rank, pyramid_levels=2),
                            texture_volumes(1, dims=(16, 16, 16)), steps=2, seed=0,
                            learning_rate=1e-3, batch_size=2, beta=0.25, cube_edge=8)
    for calls in operands.values():
        assert calls and all(kinds == {np.dtype(np.float32)} for kinds in calls)
    assert all(p.dtype == np.float64 for p in result.checkpoint.params.values())
    assert all(cb.codes.dtype == np.float64 for cb in result.checkpoint.codebooks)


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
# One graph per batch item
# ---------------------------------------------------------------------------

def joint_batch_backward(calls, target_of):
    """Oracle: one backward over the whole batch as a single graph.

    Every recorded item forward is rebuilt on one shared set of float32
    parameter leaves; the item losses are joined by an ``add`` chain, item 0
    first, and scaled by 1/B. Returns the loss node and the leaves.
    """
    ckpt = calls[0][0]
    params = param_tensors(ckpt, np.float32)
    losses = []
    for _, x, beta in calls:
        res = forward(ckpt, x, params, beta=beta)
        l1 = ag.mean_all(ag.abs_val(ag.sub(res.output, ag.leaf(target_of(x), np.float32))))
        losses.append(l1 if res.commitment is None else ag.add(l1, res.commitment))
    total = losses[0]
    for extra in losses[1:]:
        total = ag.add(total, extra)
    return ag.scale(total, 1.0 / len(losses)), params


@pytest.mark.parametrize("rank,beta,batch,mode", [
    (2, 0.25, 3, "pretrain"), (2, 0.0, 5, "pretrain"), (3, 0.25, 3, "pretrain"),
    (3, 0.0, 2, "pretrain"), (2, 0.25, 3, "enc-frozen"), (2, 0.0, 6, "enc-frozen")])
def test_step_gradients_equal_the_joint_batch_graph_bytes(monkeypatch, rank, beta, batch, mode):
    # the step's summed per-item gradients, and its logged loss, against one
    # backward over a batch-wide graph of the same step
    calls, steps = [], []

    def recording_forward(ckpt, x, params=None, beta=0.0):
        if params is not None:  # a training item, not a k-means initialization forward
            calls.append((ckpt, x, beta))
        return forward(ckpt, x, params, beta=beta)

    def checking_adamw_step(state, params, grads):
        total, leaves = joint_batch_backward(calls, target_of)
        want = ag.backward(total, {name: leaves[name] for name in state.m})
        assert sorted(grads) == sorted(want)
        for name, g in want.items():
            assert grads[name].dtype == g.dtype == np.float32
            assert grads[name].tobytes() == g.tobytes(), name
        steps.append((len(calls), float(total.data), sorted(grads)))
        calls.clear()
        adamw_step(state, params, grads)

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "adamw_step", checking_adamw_step)
    config = small_config(rank=rank, pyramid_levels=2)
    if mode == "pretrain":
        def target_of(x):
            return x
        result = pretrain_recon(config, texture_volumes(1, dims=(16, 16, 16)), steps=2,
                                seed=1, learning_rate=1e-3, batch_size=batch, beta=beta,
                                cube_edge=8, augment=True)
    else:
        base = pretrain_recon(config, texture_volumes(1, dims=(16, 16, 16)), steps=0,
                              seed=1).checkpoint
        pets, cts = paired_slices(batch + 1)
        pairs = {np.asarray(p, np.float32)[None].tobytes(): np.asarray(c, np.float32)[None]
                 for p, c in zip(pets, cts)}

        def target_of(x):
            return pairs[x.tobytes()]
        result = finetune_translate(base, mode, pets, cts, steps=2, seed=1,
                                    learning_rate=1e-3, batch_size=batch, beta=beta)
    assert [n for n, _, _ in steps] == [batch, batch]
    assert [loss for _, loss, _ in steps] == result.loss_history
    trainable = steps[0][2]
    assert any(name.startswith("enc.") for name in trainable) == (mode == "pretrain")


def test_non_finite_step_loss_stops_before_the_update(monkeypatch):
    # a float32 output near its range: each item's mean L1 overflows to inf
    base = pretrained_base()
    base.params["dec.final.b"] = np.full_like(base.params["dec.final.b"], 3e38)
    updates = []
    monkeypatch.setattr(training, "adamw_step", lambda *args: updates.append(args))
    pets, cts = paired_slices(3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="training diverged: loss inf"):
            finetune_translate(base, "no-frozen", pets, cts, steps=1, seed=0,
                               batch_size=3, beta=0.0)
    assert updates == []


@pytest.mark.parametrize("rank,augment", [(2, False), (2, True), (3, False), (3, True)])
def test_float64_items_and_their_graph_dtype_cast_train_alike(tmp_path, rank, augment):
    # the entry points keep float32 training sets; graph_input casts float64
    # items to the same bytes, so checkpoints and histories are identical
    rng = np.random.default_rng(16)
    shape = (13, 10) if rank == 2 else (9, 12, 10)  # every extent padded
    inputs = [rng.uniform(-1, 1, shape) for _ in range(5)]
    targets = [np.clip(0.7 * x + 0.1, -1, 1) for x in inputs]
    runs = []
    for dtype in (np.float64, GRAPH_DTYPE):
        ckpt = build_model(small_config(rank=rank, pyramid_levels=2))
        ckpt.provenance = "finetuned"
        result = training._train_loop(
            ckpt, [x.astype(dtype) for x in inputs], [t.astype(dtype) for t in targets],
            3, 5, mask=FreezeMask(True, True), learning_rate=1e-3, batch_size=3,
            beta=0.25, expire_age=1, decay=0.9, weight_decay=0.01, augment=augment)
        path = tmp_path / f"{np.dtype(dtype).name}.vqck"
        save_checkpoint(result.checkpoint, path)
        runs.append((path.read_bytes(), result.l1_history, result.loss_history))
    assert runs[0] == runs[1]


def test_step_memory_does_not_grow_by_an_item_graph_per_item():
    # 64x64 slices through depth 2 with 2 quantized levels: an item graph
    # holds about 1.1 MB, while what a step keeps per item for the codebook
    # update (its float64 unit rows and code indices) is about 70 kB
    vols = texture_volumes(1, dims=(64, 64, 16))
    config = small_config(pyramid_levels=2)
    peaks = {}
    for batch in (2, 16):
        tracemalloc.start()
        pretrain_recon(config, vols, steps=2, seed=0, learning_rate=1e-3,
                       batch_size=batch)
        peaks[batch] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[16] < 4 * peaks[2], peaks


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


# ---------------------------------------------------------------------------
# Batch items on worker processes
# ---------------------------------------------------------------------------

def _run_bytes(result, tmp_path):
    """The checkpoint's file bytes and the two histories of a training run."""
    path = tmp_path / "run.vqck"
    save_checkpoint(result.checkpoint, path)
    return path.read_bytes(), result.l1_history, result.loss_history


def _pretrain(rank, workers, beta=0.0, augment=False, steps=3, batch=5):
    vols = texture_volumes(2, dims=(16, 16, 16))
    return pretrain_recon(small_config(rank=rank, pyramid_levels=2), vols, steps=steps,
                          seed=7, learning_rate=2e-3, batch_size=batch, beta=beta,
                          cube_edge=8, augment=augment, workers=workers)


def _planes(dims=(24, 20, 16), seed=11):
    """Paired sym11 slices of one volume along all three planes (three shapes)."""
    rng = np.random.default_rng(seed)
    pet = rng.uniform(-1, 1, dims).astype(np.float32)
    ct = np.clip(0.8 * pet + 0.1, -1, 1)
    pets, cts = [], []
    for axis in (2, 1, 0):
        pets.extend(np.moveaxis(pet, axis, 0))
        cts.extend(np.moveaxis(ct, axis, 0))
    return pets, cts


def _finetune(base, mode, workers, train_codebook=False, dims=(16, 16, 16), steps=3):
    pets, cts = _planes(dims)
    return finetune_translate(base, mode, pets, cts, steps=steps, seed=5,
                              learning_rate=2e-3, batch_size=6, beta=0.25, augment=True,
                              freeze_codebook_with_encoder=not train_codebook,
                              workers=workers)


_WORKERS = [1, 2, 3, 9]  # 9: more workers than a step's items


@pytest.mark.parametrize("rank,beta,augment", [(2, 0.0, False), (2, 0.0, True), (3, 0.0, False),
                                               (3, 0.0, True), (2, 0.25, True), (3, 0.25, False)])
def test_pretrain_bytes_do_not_depend_on_workers(tmp_path, forks, rank, beta, augment):
    # beta > 0 takes the commitment path; each command forks its pool once
    runs = []
    for workers in _WORKERS:
        del forks[:]
        runs.append(_run_bytes(_pretrain(rank, workers, beta, augment), tmp_path))
        assert len(forks) == min(workers, 5) - 1
        assert _no_child_left()
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("mode,train_codebook,dims", [
    ("scratch", False, (16, 16, 16)), ("no-frozen", False, (16, 16, 16)),
    ("enc-frozen", False, (16, 16, 16)), ("enc-frozen", True, (16, 16, 16)),
    ("no-frozen", False, (24, 20, 16))],
    ids=["scratch", "no-frozen", "enc-frozen", "enc-frozen-train-codebook", "non-cubic"])
def test_finetune_bytes_do_not_depend_on_workers(tmp_path, forks, mode, train_codebook, dims):
    # on a non-cubic volume a step's items differ in shape and in level rows
    base = _pretrain(2, 1).checkpoint
    runs = []
    for workers in _WORKERS:
        del forks[:]
        runs.append(_run_bytes(_finetune(base, mode, workers, train_codebook, dims), tmp_path))
        assert len(forks) == min(workers, 6) - 1
        assert _no_child_left()
    assert all(run == runs[0] for run in runs)


def test_step_gradients_and_losses_fold_in_item_order_on_workers(monkeypatch):
    # the summed gradients AdamW gets, and the logged loss, at 3 workers equal
    # the one-worker bytes step by step
    seen = {}
    for workers in (1, 3):
        def recording(state, params, grads, _seen=seen.setdefault(workers, [])):
            _seen.append({name: g.tobytes() for name, g in grads.items()})
            adamw_step(state, params, grads)

        monkeypatch.setattr(training, "adamw_step", recording)
        result = _pretrain(2, workers, beta=0.25, augment=True)
        seen[workers].append(result.loss_history)
    assert seen[1] == seen[3] and len(seen[1]) == 4


def test_no_fork_for_zero_or_one_step_one_worker_or_a_second_thread(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork was called")

    want = _pretrain(2, 1).checkpoint.params
    monkeypatch.setattr(os, "fork", no_fork)
    for steps in (0, 1):
        _pretrain(2, 3, steps=steps)
    got = _pretrain(2, 1).checkpoint.params
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        threaded = _pretrain(2, 3).checkpoint.params
    finally:
        release.set()
        other.join()
    for name in want:
        assert want[name].tobytes() == got[name].tobytes() == threaded[name].tobytes()


def _marked_planes(marks):
    """Paired 16x16 slices whose PET slice ``k`` has the value ``100 + k`` at
    one corner, for the slices in ``marks``."""
    pets, cts = _planes((16, 16, 16))
    pets = [p.copy() for p in pets]
    for k in marks:
        pets[k][0, 0] = 100.0 + k
    return pets, cts


def _failing_items(monkeypatch, fail):
    """Patch the training items' ``forward`` (k-means initialization runs
    ``encode``) to call ``fail(k)`` first on marked slice ``k``."""
    real = training.forward

    def failing(ckpt, x, params=None, beta=0.0):
        k = int(x[0, 0, 0]) - 100
        if 0 <= k < 48:
            fail(k)
        return real(ckpt, x, params, beta=beta)

    monkeypatch.setattr(training, "forward", failing)


def _batches(steps=2, n=48, batch=6):
    """The item indices of a finetune's first ``steps`` batches, seed 5."""
    batches = training._epoch_batches(n, batch, np.random.default_rng([5, 0]))
    return [next(batches) for _ in range(steps + 1)]


def test_item_error_on_a_worker_is_the_serial_error(monkeypatch):
    # every item of the second step fails, in this process half a second
    # late: the children's later items fail first, and every worker count
    # still raises the error of item 0, the serial path's
    parent = os.getpid()
    base = _pretrain(2, 1).checkpoint
    step2 = [int(k) for k in _batches()[1]]
    pets, cts = _marked_planes(step2)

    def fail(k):
        if os.getpid() == parent:
            time.sleep(0.5)
        raise DomainError(f"slice {k} failed")

    _failing_items(monkeypatch, fail)
    messages = set()
    for workers in (1, 2, 3):
        with pytest.raises(DomainError) as err:
            finetune_translate(base, "no-frozen", pets, cts, steps=2, seed=5,
                               batch_size=6, beta=0.0, workers=workers)
        messages.add(str(err.value))
        assert _no_child_left()
    assert messages == {f"slice {step2[0]} failed"}


def test_killed_training_worker_is_an_error_and_is_reaped(monkeypatch, forks):
    parent = os.getpid()
    base = _pretrain(2, 1).checkpoint
    pets, cts = _marked_planes(range(48))

    def kill_in_a_child(k):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_items(monkeypatch, kill_in_a_child)
    del forks[:]
    with pytest.raises(VqsctError, match="^a worker process was killed by SIGKILL$"):
        finetune_translate(base, "no-frozen", pets, cts, steps=3, seed=5, batch_size=6,
                           beta=0.0, workers=2)
    assert len(forks) == 1 and _no_child_left()


def test_diverged_loss_on_workers_leaves_no_child(forks):
    base = pretrained_base()
    base.params["dec.final.b"] = np.full_like(base.params["dec.final.b"], 3e38)
    pets, cts = paired_slices(6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="training diverged: loss inf"):
            finetune_translate(base, "no-frozen", pets, cts, steps=3, seed=0,
                               batch_size=6, beta=0.0, workers=3)
    assert len(forks) == 2 and _no_child_left()


def test_interrupted_training_parent_kills_and_reaps_its_children(monkeypatch):
    # the children sleep 40 s in their first items while the parent is
    # interrupted in its own: they are killed, not waited for
    parent = os.getpid()
    base = _pretrain(2, 1).checkpoint
    pets, cts = _marked_planes(range(48))

    def interrupted(k):
        if os.getpid() != parent:
            time.sleep(40)
        time.sleep(0.2)  # the children have taken their items
        raise KeyboardInterrupt

    _failing_items(monkeypatch, interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        finetune_translate(base, "no-frozen", pets, cts, steps=3, seed=5, batch_size=6,
                           beta=0.0, workers=3)
    assert time.perf_counter() - start < 30
    assert _no_child_left()


def test_workers_exit_when_the_training_parent_dies(monkeypatch):
    # a forked "parent" opens a pool of three and dies after its first step
    # without closing it; its two children hold the write end of a pipe and
    # nothing else does, so the pipe's end of file says they have exited
    read_end, write_end = os.pipe()
    vols = texture_volumes(1, dims=(16, 16, 16))

    def dies(state, params, grads):
        os.close(write_end)
        os._exit(0)

    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            monkeypatch.setattr(training, "adamw_step", dies)
            pretrain_recon(small_config(), vols, steps=3, seed=0, batch_size=6, workers=3)
        finally:
            os._exit(1)
    os.close(write_end)
    try:
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        ready, _, _ = select.select([read_end], [], [], 20)
        assert ready and os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
    assert _no_child_left()
