"""Training loops, the AdamW optimizer, checkpoint selection.

Two loops share one engine: self-reconstruction pretraining on unit01 CT
volumes (input == target) and paired PET-to-CT fine-tuning on sym11 slices
under the scratch / no-frozen / enc-frozen regimes. Both are fully
deterministic given their seed at a fixed thread count: data order, k-means
codebook initialization, EMA updates, and stale-code expiration all draw
from generators derived from the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .codebook import ema_update, expire_stale, kmeans_init
from .errors import DomainError, ShapeError, TrainingError
from .model import (Checkpoint, FreezeMask, ModelConfig, apply_freeze, build_model,
                    forward, mask_for_mode, param_tensors, reinitialized, value_space)
from .volume import (HU_MAX, HU_MIN, N_CUBE_SYMMETRIES, N_PLANE_SYMMETRIES,
                     NORMALIZED_AIR, Volume, apply_cube_symmetry,
                     apply_plane_symmetry, extract_cubes, normalize, pad_to_multiple)

__all__ = [
    "OptimizerState",
    "TrainResult",
    "init_optimizer",
    "adamw_step",
    "pretrain_recon",
    "finetune_translate",
    "select_checkpoint",
]


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    learning_rate: float
    weight_decay: float = 0.01
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_optimizer(params: dict[str, np.ndarray], trainable: list[str],
                   learning_rate: float, weight_decay: float = 0.01) -> OptimizerState:
    state = OptimizerState(learning_rate=float(learning_rate),
                           weight_decay=float(weight_decay))
    for name in trainable:
        state.m[name] = np.zeros_like(params[name])
        state.v[name] = np.zeros_like(params[name])
    return state


def adamw_step(state: OptimizerState, params: dict[str, np.ndarray],
               grads: dict[str, np.ndarray]) -> None:
    """One decoupled-weight-decay Adam update over the optimizer's parameters.

    Updates ``params`` and ``state`` in place. Only parameters registered in
    the state (the trainable set) are touched.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name in sorted(state.m):
        g = grads[name]
        if g.shape != params[name].shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        params[name] -= state.learning_rate * (
            m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            + state.weight_decay * params[name])


# ---------------------------------------------------------------------------
# Shared training engine
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint: Checkpoint
    l1_history: list[float]
    loss_history: list[float]


def _epoch_batches(n_items: int, batch_size: int, rng):
    """Endless stream of index batches, reshuffled each epoch, constant size."""
    size = min(batch_size, n_items)
    while True:
        perm = rng.permutation(n_items)
        for lo in range(0, n_items - size + 1, size):
            yield perm[lo:lo + size]


def _collect_level_rows(ckpt: Checkpoint, items, batch) -> list[np.ndarray]:
    """Quantizer unit rows per pyramid level over a batch (for k-means init)."""
    per_level = [[] for _ in ckpt.codebooks]
    for idx in batch:
        res = forward(ckpt, items[idx])
        for j, rows in enumerate(res.unit_rows):
            per_level[j].append(rows)
    return [np.concatenate(chunks, axis=0) for chunks in per_level]


def _ensure_codebooks_initialized(ckpt: Checkpoint, items, batch, seed: int) -> None:
    if all(cb.initialized for cb in ckpt.codebooks):
        return
    level_rows = _collect_level_rows(ckpt, items, batch)
    for j, cb in enumerate(ckpt.codebooks):
        if not cb.initialized:
            kmeans_init(cb, level_rows[j], seed=seed + j)


def _augmented_item(item: np.ndarray, element: int) -> np.ndarray:
    """Apply a grid symmetry to every channel of a [C, *spatial] item."""
    if item.ndim == 3:
        return np.stack([apply_plane_symmetry(ch, element) for ch in item])
    return np.stack([apply_cube_symmetry(ch, element) for ch in item])


def _train_loop(ckpt: Checkpoint, inputs, targets, steps: int, seed: int, *,
                mask: FreezeMask, learning_rate: float, batch_size: int,
                beta: float, expire_age: int, decay: float,
                weight_decay: float, augment: bool = False) -> TrainResult:
    """The shared optimization loop over paired (input, target) items."""
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    if not 0.0 < learning_rate < np.inf:
        raise DomainError(f"learning rate must be finite and > 0, got {learning_rate}")
    if not 0.0 <= weight_decay < np.inf:
        raise DomainError(f"weight decay must be finite and >= 0, got {weight_decay}")
    n = len(inputs)
    data_rng = np.random.default_rng([seed, 0])
    expire_rng = np.random.default_rng([seed, 1])
    augment_rng = np.random.default_rng([seed, 2])
    batches = _epoch_batches(n, batch_size, data_rng)

    first_batch = next(batches)
    _ensure_codebooks_initialized(ckpt, inputs, first_batch, seed)

    trainable = apply_freeze(ckpt, mask)
    state = init_optimizer(ckpt.params, trainable, learning_rate, weight_decay)
    l1_history: list[float] = []
    loss_history: list[float] = []

    batch = first_batch
    for _ in range(steps):
        params = param_tensors(ckpt)
        item_losses = []
        l1_values = []
        level_rows = [[] for _ in ckpt.codebooks]
        level_indices = [[] for _ in ckpt.codebooks]
        for idx in batch:
            inp = inputs[idx]
            tgt = targets[idx]
            if augment:
                n_sym = (N_PLANE_SYMMETRIES if inp.ndim == 3
                         else N_CUBE_SYMMETRIES)
                element = int(augment_rng.integers(n_sym))
                inp = _augmented_item(inp, element)
                tgt = inp if targets[idx] is inputs[idx] else _augmented_item(
                    tgt, element)
            res = forward(ckpt, inp, params, beta=beta)
            l1 = ag.mean_all(ag.abs_val(ag.sub(res.output, ag.leaf(tgt))))
            loss = l1 if res.commitment is None else ag.add(l1, res.commitment)
            item_losses.append(loss)
            l1_values.append(float(l1.data))
            for j in range(len(ckpt.codebooks)):
                level_rows[j].append(res.unit_rows[j])
                level_indices[j].append(res.code_indices[j].ravel())

        total = item_losses[0]
        for extra in item_losses[1:]:
            total = ag.add(total, extra)
        total = ag.scale(total, 1.0 / len(item_losses))
        if not np.isfinite(total.data):
            raise TrainingError(f"training diverged: loss {float(total.data)}")

        grads = ag.backward(total, {name: params[name] for name in trainable})
        adamw_step(state, ckpt.params, grads)

        if mask.codebook_trainable:
            for j, cb in enumerate(ckpt.codebooks):
                rows = np.concatenate(level_rows[j], axis=0)
                indices = np.concatenate(level_indices[j], axis=0)
                ema_update(cb, rows, indices, decay=decay)
                expire_stale(cb, rows, expire_age,
                             seed=int(expire_rng.integers(2 ** 31)))

        l1_history.append(float(np.mean(l1_values)))
        loss_history.append(float(total.data))
        ckpt.step += 1
        batch = next(batches)

    return TrainResult(ckpt, l1_history, loss_history)


# ---------------------------------------------------------------------------
# Public training entry points
# ---------------------------------------------------------------------------

def _volume_slices(volume: Volume, pad_value: float, div: int):
    """All axial slices as [1, x, y] items, padded to a multiple of div."""
    out = []
    for z in range(volume.dims[2]):
        sl = pad_to_multiple(volume.voxels[:, :, z], div, pad_value)
        out.append(sl[None, :, :])
    return out


def pretrain_recon(config: ModelConfig, volumes, steps: int, seed: int, *,
                   learning_rate: float = 1e-5, batch_size: int = 8,
                   beta: float = 0.25, expire_age: int = 2, decay: float = 0.99,
                   weight_decay: float = 0.01, cube_edge: int = 64,
                   augment: bool = False) -> TrainResult:
    """Self-supervised reconstruction pretraining on unit01 volumes.

    For a 2D config the items are all axial slices of the volumes; for 3D,
    non-overlapping cubes of ``cube_edge`` voxels. The codebooks are k-means
    initialized on the first batch; the returned checkpoint is tagged
    ``pretrained`` (its value space is unit01). With ``augment`` each sampled
    item passes through a seeded grid symmetry (flips and transposes).
    """
    config.validate()
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    volumes = list(volumes)
    if not volumes:
        raise DomainError("pretraining needs at least one volume")
    for vol in volumes:
        if vol.intensity_space != "unit01":
            raise DomainError(
                f"pretraining volumes must be unit01, got {vol.intensity_space}")

    div = 2 ** config.depth
    air = NORMALIZED_AIR["unit01"]
    items = []
    if config.spatial_rank == 2:
        for vol in volumes:
            items.extend(_volume_slices(vol, air, div))
    else:
        if cube_edge % div:
            raise DomainError(f"cube edge {cube_edge} must be divisible by {div}")
        for vol in volumes:
            for cube, _ in extract_cubes(vol, cube_edge, air):
                items.append(cube[None])

    ckpt = build_model(config)
    result = _train_loop(
        ckpt, items, items, steps, seed,
        mask=FreezeMask(True, True), learning_rate=learning_rate,
        batch_size=batch_size, beta=beta, expire_age=expire_age, decay=decay,
        weight_decay=weight_decay, augment=augment)
    result.checkpoint.provenance = "pretrained"
    return result


def finetune_translate(base: Checkpoint, mode: str, pet_slices, ct_slices,
                       steps: int, seed: int, *, learning_rate: float = 1e-5,
                       batch_size: int = 8, beta: float = 0.25,
                       expire_age: int = 2, decay: float = 0.99,
                       weight_decay: float = 0.01,
                       freeze_codebook_with_encoder: bool = True,
                       augment: bool = False) -> TrainResult:
    """Supervised PET-to-CT fine-tuning on paired sym11 slices.

    ``mode`` selects the regime: ``scratch`` re-initializes every parameter
    from the run seed, ``no-frozen`` trains everything from the base
    checkpoint, ``enc-frozen`` freezes the encoder (and by default the
    codebook). With ``augment`` each sampled pair passes through one shared
    seeded grid symmetry. The result is tagged ``finetuned`` (sym11 value
    space).
    """
    mask = mask_for_mode(mode, freeze_codebook_with_encoder)
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    pet_slices = [np.asarray(s, dtype=np.float64) for s in pet_slices]
    ct_slices = [np.asarray(s, dtype=np.float64) for s in ct_slices]
    if len(pet_slices) != len(ct_slices):
        raise DomainError(
            f"unpaired slices: {len(pet_slices)} PET vs {len(ct_slices)} CT")
    if not pet_slices:
        raise DomainError("fine-tuning needs at least one slice pair")
    for p, c in zip(pet_slices, ct_slices):
        if p.shape != c.shape:
            raise ShapeError(f"slice pair shapes differ: {p.shape} vs {c.shape}")

    ckpt = reinitialized(base, seed) if mode == "scratch" else base.copy()
    div = 2 ** ckpt.config.depth
    air = NORMALIZED_AIR["sym11"]
    inputs = [pad_to_multiple(p, div, air)[None] for p in pet_slices]
    targets = [pad_to_multiple(c, div, air)[None] for c in ct_slices]

    result = _train_loop(
        ckpt, inputs, targets, steps, seed,
        mask=mask, learning_rate=learning_rate, batch_size=batch_size,
        beta=beta, expire_age=expire_age, decay=decay,
        weight_decay=weight_decay, augment=augment)
    result.checkpoint.provenance = "finetuned"
    return result


def select_checkpoint(candidates, eval_volumes, *, cube_edge: int = 64) -> Checkpoint:
    """Return the candidate with the lowest whole-volume reconstruction MSE.

    Each candidate reconstructs every evaluation CT volume through its own
    pipeline (tri-planar fusion for 2D models, cube tiling for 3D); MSE is
    computed in HU against the clamped input. Ties keep the earliest
    candidate.
    """
    from .pipeline import reconstruct_cubes, translate_volume

    candidates = list(candidates)
    if not candidates:
        raise DomainError("select_checkpoint needs at least one candidate")
    eval_volumes = list(eval_volumes)
    if not eval_volumes:
        raise DomainError("select_checkpoint needs at least one evaluation volume")
    for vol in eval_volumes:
        if vol.intensity_space != "HU":
            raise DomainError(f"evaluation volumes must be HU, got {vol.intensity_space}")

    best = None
    best_mse = np.inf
    for ckpt in candidates:
        se = 0.0
        count = 0
        for vol in eval_volumes:
            normed = normalize(vol, value_space(ckpt))
            if ckpt.config.spatial_rank == 2:
                pred = translate_volume(ckpt, normed).fused.voxels
            else:
                pred = reconstruct_cubes(ckpt, normed, edge=cube_edge).voxels
            ref = np.clip(vol.voxels, HU_MIN, HU_MAX)
            se += float(((pred - ref) ** 2).sum())
            count += pred.size
        mse = se / count
        if mse < best_mse:
            best = ckpt
            best_mse = mse
    return best
