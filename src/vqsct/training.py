"""Training loops, the AdamW optimizer, checkpoint selection.

Two loops share one engine: self-reconstruction pretraining on unit01 CT
volumes (input == target) and paired PET-to-CT fine-tuning on sym11 slices
under the scratch / no-frozen / enc-frozen regimes. The engine takes plain
2D slices or 3D cubes (``pretrain_recon`` and ``vqsct finetune`` hold them
in ``GRAPH_DTYPE``) and prepares each drawn item with ``model.graph_input``
(then ``volume.apply_grid_symmetry`` when augmenting). Both are fully
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
from .model import (GRAPH_DTYPE, Checkpoint, FreezeMask, ModelConfig, apply_freeze,
                    build_model, encode, forward, graph_input, mask_for_mode,
                    param_tensors, reinitialized, value_space, with_sub_pixel_kernels)
from .volume import (HU_MAX, HU_MIN, N_GRID_SYMMETRIES, NORMALIZED_AIR,
                     apply_grid_symmetry, extract_cubes, normalize)

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
        g = np.asarray(grads[name], dtype=np.float64)  # the moments stay float64
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


def _collect_level_rows(ckpt: Checkpoint, items) -> list[np.ndarray]:
    """Quantizer unit rows per pyramid level over graph inputs (for k-means init).

    One set of ``GRAPH_DTYPE`` leaves serves all the items, and each item
    runs only the encoder and the quantizer levels.
    """
    params = param_tensors(ckpt, GRAPH_DTYPE)
    per_level = [[] for _ in ckpt.codebooks]
    for item in items:
        for j, (_, _, qres) in enumerate(encode(ckpt, item, params)):
            per_level[j].append(qres.unit_rows)
    return [np.concatenate(chunks, axis=0) for chunks in per_level]


def _ensure_codebooks_initialized(ckpt: Checkpoint, items, seed: int) -> None:
    if all(cb.initialized for cb in ckpt.codebooks):
        return
    level_rows = _collect_level_rows(ckpt, items)
    for j, cb in enumerate(ckpt.codebooks):
        if not cb.initialized:
            kmeans_init(cb, level_rows[j], seed=seed + j)


def _train_loop(ckpt: Checkpoint, inputs, targets, steps: int, seed: int, *,
                mask: FreezeMask, learning_rate: float, batch_size: int,
                beta: float, expire_age: int, decay: float,
                weight_decay: float, augment: bool = False) -> TrainResult:
    """The shared optimization loop over paired (input, target) items.

    The items are 2D slices or 3D cubes in ``ckpt``'s value space, and
    ``targets`` is None when each input is its own target. Each drawn item
    passes through :func:`model.graph_input`, so every forward (k-means
    initialization included), backward and loss runs in float32 against
    float32 casts of the float64 master weights, which AdamW updates in
    float64. An item may be float64 or already ``GRAPH_DTYPE``, as
    :func:`pretrain_recon` and ``vqsct finetune`` keep it; the cast gives
    the same bytes either way.

    Each step builds the parameter leaves, and the decoder's sub-pixel
    kernels over them, once. Every batch item then runs
    its own graph: forward, loss (L1, plus the commitment when ``beta > 0``)
    and a backward of ``loss / B`` over the trainable leaves, after which
    the graph is released. The step adds the items' gradients in item
    order, item 0 first, and logs ``(loss_0 + loss_1 + ...) / B`` summed in
    that order, so each step holds one item graph at a time. When the
    codebooks train, each item's quantizer unit rows and code indices go
    to their place in one batch array per level (sized by
    ``ModelConfig.level_rows``, the rows stored column by column), which
    the EMA update and code expiry read.
    """
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    if not 0.0 < learning_rate < np.inf:
        raise DomainError(f"learning rate must be finite and > 0, got {learning_rate}")
    if not 0.0 <= weight_decay < np.inf:
        raise DomainError(f"weight decay must be finite and >= 0, got {weight_decay}")
    if not 0.0 <= beta < np.inf:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    if not 0.0 < decay < 1.0:
        raise DomainError(f"decay must be in (0, 1), got {decay}")
    if expire_age < 1:
        raise DomainError(f"expire age must be >= 1, got {expire_age}")
    config, space = ckpt.config, value_space(ckpt)
    sides = (inputs,) if targets is None else (inputs, targets)
    n = len(inputs)
    data_rng = np.random.default_rng([seed, 0])
    expire_rng = np.random.default_rng([seed, 1])
    augment_rng = np.random.default_rng([seed, 2])
    batches = _epoch_batches(n, batch_size, data_rng)

    first_batch = next(batches)
    _ensure_codebooks_initialized(
        ckpt, [graph_input(config, inputs[idx], space) for idx in first_batch], seed)

    trainable = apply_freeze(ckpt, mask)
    state = init_optimizer(ckpt.params, trainable, learning_rate, weight_decay)
    l1_history: list[float] = []
    loss_history: list[float] = []

    batch = first_batch
    for _ in range(steps):
        params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
        wrt = {name: params[name] for name in trainable}
        weight = 1.0 / len(batch)
        grads = None
        total = None
        l1_values = []
        if mask.codebook_trainable:  # each item's rows at its offset, in item order
            bounds = np.cumsum([[0] * len(ckpt.codebooks)]
                               + [config.level_rows(np.shape(inputs[idx])) for idx in batch],
                               axis=0)
            # stored column by column: the EMA update sums one column at a time
            level_columns = [np.empty((cb.dim, rows))
                             for rows, cb in zip(bounds[-1], ckpt.codebooks)]
            level_indices = [np.empty(rows, dtype=np.intp) for rows in bounds[-1]]
        for i, idx in enumerate(batch):
            pair = [graph_input(config, items[idx], space) for items in sides]
            if augment:
                element = int(augment_rng.integers(N_GRID_SYMMETRIES[config.spatial_rank]))
                pair = [apply_grid_symmetry(item, element) for item in pair]
            res = forward(ckpt, pair[0], params, beta=beta)
            l1 = ag.mean_all(ag.abs_val(ag.sub(res.output, ag.leaf(pair[-1], GRAPH_DTYPE))))
            loss = l1 if res.commitment is None else ag.add(l1, res.commitment)
            item_grads = ag.backward(ag.scale(loss, weight), wrt)
            if grads is None:
                grads, total = item_grads, loss.data
            else:
                grads = {name: grads[name] + g for name, g in item_grads.items()}
                total = total + loss.data
            l1_values.append(float(l1.data))
            if mask.codebook_trainable:
                for j, (start, end) in enumerate(zip(bounds[i], bounds[i + 1])):
                    level_columns[j][:, start:end] = res.unit_rows[j].T
                    level_indices[j][start:end] = res.code_indices[j].ravel()
            del res, l1, loss  # free this item's graph before the next forward

        total = total * weight
        if not np.isfinite(total):
            raise TrainingError(f"training diverged: loss {float(total)}")
        adamw_step(state, ckpt.params, grads)

        if mask.codebook_trainable:
            for cb, columns, indices in zip(ckpt.codebooks, level_columns, level_indices):
                ema_update(cb, columns.T, indices, decay=decay)
                expire_stale(cb, columns.T, expire_age,
                             seed=int(expire_rng.integers(2 ** 31)))
            del level_columns, level_indices

        l1_history.append(float(np.mean(l1_values)))
        loss_history.append(float(total))
        ckpt.step += 1
        batch = next(batches)

    return TrainResult(ckpt, l1_history, loss_history)


# ---------------------------------------------------------------------------
# Public training entry points
# ---------------------------------------------------------------------------

def pretrain_recon(config: ModelConfig, volumes, steps: int, seed: int, *,
                   learning_rate: float = 1e-5, batch_size: int = 8,
                   beta: float = 0.25, expire_age: int = 2, decay: float = 0.99,
                   weight_decay: float = 0.01, cube_edge: int = 64,
                   augment: bool = False) -> TrainResult:
    """Self-supervised reconstruction pretraining on unit01 volumes.

    For a 2D config the items are all axial slices of the volumes; for 3D,
    non-overlapping cubes of ``cube_edge`` voxels. The volumes are consumed
    one at a time: each is checked (its space, then its extents or the cube
    edge) and its items are kept as ``GRAPH_DTYPE`` (axial views of a float32
    cast, or float32 cubes) before the next is drawn, so ``volumes`` may be a
    generator that reads each one. The codebooks are k-means initialized on
    the first batch; the returned checkpoint is tagged ``pretrained`` (its
    value space is unit01). With ``augment`` each sampled item passes
    through a seeded grid symmetry (flips and transposes).
    """
    config.validate()
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    items = []
    for vol in volumes:
        if vol.intensity_space != "unit01":
            raise DomainError(
                f"pretraining volumes must be unit01, got {vol.intensity_space}")
        if config.spatial_rank == 2:
            config.check_extents(vol.dims[:2], "axial slices")
            data = vol.voxels.astype(GRAPH_DTYPE)
            items.extend(data[:, :, z] for z in range(vol.dims[2]))
        else:
            config.check_cube_edge(cube_edge)
            items.extend(cube.astype(GRAPH_DTYPE) for cube, _ in
                         extract_cubes(vol, cube_edge, NORMALIZED_AIR["unit01"]))
        del vol  # before the next volume is drawn
    if not items:
        raise DomainError("pretraining needs at least one volume")

    ckpt = build_model(config)
    ckpt.provenance = "pretrained"  # the unit01 space its items are drawn in
    return _train_loop(
        ckpt, items, None, steps, seed,
        mask=FreezeMask(True, True), learning_rate=learning_rate,
        batch_size=batch_size, beta=beta, expire_age=expire_age, decay=decay,
        weight_decay=weight_decay, augment=augment)


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
    pet_slices = list(pet_slices)
    ct_slices = list(ct_slices)
    if len(pet_slices) != len(ct_slices):
        raise DomainError(
            f"unpaired slices: {len(pet_slices)} PET vs {len(ct_slices)} CT")
    if not pet_slices:
        raise DomainError("fine-tuning needs at least one slice pair")
    for p, c in zip(pet_slices, ct_slices):
        if np.shape(p) != np.shape(c):
            raise ShapeError(f"slice pair shapes differ: {np.shape(p)} vs {np.shape(c)}")
    base.config.check_extents([n for p in pet_slices for n in np.shape(p)], "slices")

    ckpt = reinitialized(base, seed) if mode == "scratch" else base.copy()
    ckpt.provenance = "finetuned"  # the sym11 space its slices are drawn in
    return _train_loop(
        ckpt, pet_slices, ct_slices, steps, seed,
        mask=mask, learning_rate=learning_rate, batch_size=batch_size,
        beta=beta, expire_age=expire_age, decay=decay,
        weight_decay=weight_decay, augment=augment)


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
