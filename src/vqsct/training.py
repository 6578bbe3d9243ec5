"""Training loops, the AdamW optimizer, checkpoint selection.

Two loops share one engine: self-reconstruction pretraining on unit01 CT
volumes (input == target) and paired PET-to-CT fine-tuning on sym11 slices
under the scratch / no-frozen / enc-frozen regimes. Each first checks every
option (:func:`check_train_options`), before any item is drawn. The engine
takes plain 2D slices or 3D cubes (in ``GRAPH_DTYPE``) and prepares each
drawn item with ``model.graph_input`` (then, when augmenting,
``volume.apply_plane_symmetry`` or ``apply_cube_symmetry`` of its one
channel). Both are fully deterministic given their seed: data order,
k-means codebook initialization, EMA updates, and stale-code expiration all
draw from generators derived from the run seed. A step's batch items may run
on forked worker processes (``workers``) that read the checkpoint in shared
memory; the calling process adds their gradients in item order and does
everything else, so the bytes do not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .codebook import ema_update, expire_stale, kmeans_init
from .errors import DomainError, ShapeError, TrainingError
from .model import (GRAPH_DTYPE, Checkpoint, FreezeMask, ModelConfig, apply_freeze,
                    block_views, build_model, encode, forward, graph_input, mask_for_mode,
                    param_tensors, reinitialized, value_space, with_sub_pixel_kernels)
from .volume import (HU_MAX, HU_MIN, N_GRID_SYMMETRIES, NORMALIZED_AIR,
                     apply_cube_symmetry, apply_plane_symmetry, check_cube_size,
                     extract_cubes, normalize)
from .workers import Pool, shared_array

__all__ = [
    "OptimizerState",
    "TrainResult",
    "init_optimizer",
    "adamw_step",
    "check_train_options",
    "pretrain_recon",
    "finetune_translate",
    "select_checkpoint",
]

# One batch item's peak working set on a worker (the step's leaves, then the
# item's forward, loss and backward graph) per input voxel and base channel,
# rounded up: with criterion 09's model its traced peak is 3.3 / 3.7 MB for
# a 96^2 slice without / with the commitment term, 1.6 MB for 70x50 and
# 9.8 MB for a 32^3 cube with it, at base 8 (44 / 50, 57 and 37 bytes per
# voxel and channel).
_TRAIN_BYTES_PER_VOXEL_CHANNEL = 64


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


def check_train_options(steps: int, batch_size: int, learning_rate: float,
                        weight_decay: float, beta: float, decay: float, expire_age: int) -> None:
    """Raise DomainError unless every training option is in range; no numpy is called."""
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    if not 0.0 < learning_rate < math.inf:
        raise DomainError(f"learning rate must be finite and > 0, got {learning_rate}")
    if not 0.0 <= weight_decay < math.inf:
        raise DomainError(f"weight decay must be finite and >= 0, got {weight_decay}")
    if not 0.0 <= beta < math.inf:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    if not 0.0 < decay < 1.0:
        raise DomainError(f"decay must be in (0, 1), got {decay}")
    if expire_age < 1:
        raise DomainError(f"expire age must be >= 1, got {expire_age}")


def _epoch_batches(n_items: int, batch_size: int, rng):
    """Endless stream of index batches, reshuffled each epoch, constant size."""
    size = min(batch_size, n_items)
    while True:
        perm = rng.permutation(n_items)
        for lo in range(0, n_items - size + 1, size):
            yield perm[lo:lo + size]


def _shared_copy(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` in :func:`workers.shared_array`."""
    out = shared_array(arr.shape, arr.dtype)
    out[...] = arr
    return out


class _Step:
    """One training step's batch as every worker process of the step sees it.

    The workers read the checkpoint itself, whose weights and codes
    :func:`_train_loop` keeps in shared memory (:func:`workers.shared_array`).
    Before each round the parent publishes in such arrays the batch's item
    indices and augmentation elements and, when the step has row slots, each
    item's offset into every level's rows. :meth:`run` runs batch items on
    any worker: it builds the ``GRAPH_DTYPE`` leaves and sub-pixel kernels
    once per round, and each item fills its own slots, its flattened
    gradient, loss and L1, and its unit rows and code indices at its offsets.
    The parent then folds the slots in item order. Each level's unit rows
    are stored column by column, as one ``[dim, rows]`` array in the leading
    elements of its slot, which k-means (:meth:`initialize_codebooks`), the
    EMA update and code expiry read through its ``[rows, dim]`` transposed
    view; the slots exist when one of them will read them.
    """

    def __init__(self, ckpt: Checkpoint, sides, trainable, size: int, *, beta: float,
                 augment: bool, codebook_trainable: bool):
        config = ckpt.config
        self.ckpt, self.config, self.space, self.sides = ckpt, config, value_space(ckpt), sides
        self.beta, self.augment, self.trainable = beta, augment, trainable
        self.round = shared_array((1,), np.int64)
        self.round[0] = 0
        self.batch = shared_array((size,), np.intp)
        self.elements = shared_array((size,), np.intp)
        self.grad_shapes = [ckpt.params[name].shape for name in trainable]
        self.grads = shared_array((size, sum(math.prod(shape) for shape in self.grad_shapes)),
                                  GRAPH_DTYPE)
        self.losses = shared_array((size,), GRAPH_DTYPE)
        self.l1 = shared_array((size,), np.float64)
        shapes = {np.shape(item) for item in sides[0]}
        self.item_bytes = (max(map(math.prod, shapes)) * config.base_channels
                           * _TRAIN_BYTES_PER_VOXEL_CHANNEL)
        self.bounds = self.columns = self.indices = None
        if codebook_trainable or not all(cb.initialized for cb in ckpt.codebooks):
            # room for a batch of the items with the most rows
            most = np.max([config.level_rows(shape) for shape in shapes], axis=0)
            self.bounds = shared_array((size + 1, len(ckpt.codebooks)), np.intp)
            self.columns = [shared_array((cb.dim * size * rows,), np.float64)
                            for cb, rows in zip(ckpt.codebooks, most)]
            self.indices = [shared_array((size * rows,), np.intp) for rows in most]
        self._built, self._params = None, None  # this process's leaves, and their round

    def publish(self, batch, elements) -> None:
        """Publish a step: the batch, its elements and its items' row offsets."""
        self.batch[...] = batch
        if elements is not None:
            self.elements[...] = elements
        if self.bounds is not None:
            self.bounds[...] = np.cumsum(
                [[0] * len(self.indices)]
                + [self.config.level_rows(np.shape(self.sides[0][idx])) for idx in batch],
                axis=0)
        self.round[0] += 1

    def levels(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level, the step's ``[dim, rows]`` unit-row columns and its code indices."""
        rows = self.bounds[-1]
        return [(columns[:cb.dim * n].reshape(cb.dim, n), indices[:n])
                for columns, indices, cb, n
                in zip(self.columns, self.indices, self.ckpt.codebooks, rows)]

    def _keep(self, i: int, unit_rows, code_indices) -> None:
        """Store item ``i``'s unit rows and code indices, per level, at its offsets."""
        for j, ((columns, indices), rows, codes) in enumerate(
                zip(self.levels(), unit_rows, code_indices)):
            start, end = self.bounds[i, j], self.bounds[i + 1, j]
            columns[:, start:end] = rows.T
            indices[start:end] = codes.ravel()

    def initialize_codebooks(self, batch, seed: int) -> None:
        """k-means-initialize each uninitialized codebook (level ``j`` with seed
        ``seed + j``) on ``batch``'s unaugmented encoder rows, in the step's slots."""
        if all(cb.initialized for cb in self.ckpt.codebooks):
            return
        self.publish(batch, None)
        params = param_tensors(self.ckpt, GRAPH_DTYPE)
        for i, idx in enumerate(batch):
            levels = encode(self.ckpt, graph_input(self.config, self.sides[0][idx], self.space),
                            params)
            self._keep(i, [qres.unit_rows for *_, qres in levels],
                       [qres.indices for *_, qres in levels])
        for j, (cb, (columns, _)) in enumerate(zip(self.ckpt.codebooks, self.levels())):
            if not cb.initialized:
                kmeans_init(cb, columns.T, seed=seed + j)

    def run(self, lo: int, hi: int) -> None:
        """Run the published batch's items ``[lo, hi)`` into their slots."""
        if self._built != self.round[0]:
            self._params = with_sub_pixel_kernels(self.ckpt,
                                                  param_tensors(self.ckpt, GRAPH_DTYPE))
            self._built = int(self.round[0])
        params = self._params
        wrt = {name: params[name] for name in self.trainable}
        weight = 1.0 / len(self.batch)
        # looked up per call, so a function rebound in this module's namespace is the one run
        symmetry = apply_plane_symmetry if self.config.spatial_rank == 2 else apply_cube_symmetry
        for i in range(lo, hi):
            pair = [graph_input(self.config, items[self.batch[i]], self.space)
                    for items in self.sides]
            if self.augment:  # each [1, *S] item's one channel
                pair = [symmetry(item[0], int(self.elements[i]))[None] for item in pair]
            res = forward(self.ckpt, pair[0], params, beta=self.beta)
            l1 = ag.mean_all(ag.abs_val(ag.sub(res.output, ag.leaf(pair[-1], GRAPH_DTYPE))))
            loss = l1 if res.commitment is None else ag.add(l1, res.commitment)
            item_grads = ag.backward(ag.scale(loss, weight), wrt)
            for name, dest in zip(self.trainable, block_views(self.grads[i], self.grad_shapes)):
                dest[...] = item_grads[name]
            self.losses[i] = loss.data
            self.l1[i] = l1.data
            if self.bounds is not None:
                self._keep(i, res.unit_rows, res.code_indices)
            del res, l1, loss, item_grads  # free this item's graph before the next forward

    def fold(self):
        """``(gradients, loss, mean L1)`` of the step: the items' gradients and
        losses added in item order, item 0 first, the loss sum scaled by 1/B."""
        flat = self.grads[0].copy()
        total = self.losses[0]
        for grads, loss in zip(self.grads[1:], self.losses[1:]):
            flat += grads
            total = total + loss
        grads = dict(zip(self.trainable, block_views(flat, self.grad_shapes)))
        return grads, total * (1.0 / len(self.batch)), float(np.mean(self.l1))


def _train_loop(ckpt: Checkpoint, inputs, targets, steps: int, seed: int, *,
                mask: FreezeMask, learning_rate: float, batch_size: int,
                beta: float, expire_age: int, decay: float,
                weight_decay: float, augment: bool = False,
                workers: int = 1) -> TrainResult:
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
    kernels over them, once per worker. Every batch item then runs
    its own graph: forward, loss (L1, plus the commitment when ``beta > 0``)
    and a backward of ``loss / B`` over the trainable leaves, after which
    the graph is released, so a worker holds one item graph at a time. The
    step adds the items' gradients in item order, item 0 first, and logs
    ``(loss_0 + loss_1 + ...) / B`` summed in that order. When the
    codebooks train, each item's quantizer unit rows and code indices go
    to their place in one batch array per level (sized by
    ``ModelConfig.level_rows``), which the EMA update and code expiry read.

    The batch items of every step run as one round of a :class:`workers.Pool`
    of at most ``workers`` processes (one if ``steps < 2``), sized for one
    largest item's graph each and forked once, after the k-means
    initialization has set the codes and the codes and weights have moved
    into shared memory. The augmentation elements are drawn in item order
    before the round; everything but the items (the sums, and AdamW, the
    EMA update and code expiry, in place) runs here, so the bytes do not
    depend on ``workers`` (see :class:`_Step`). The callers check the options.
    """
    config = ckpt.config
    sides = (inputs,) if targets is None else (inputs, targets)
    n = len(inputs)
    data_rng = np.random.default_rng([seed, 0])
    expire_rng = np.random.default_rng([seed, 1])
    augment_rng = np.random.default_rng([seed, 2])
    batches = _epoch_batches(n, batch_size, data_rng)

    first_batch = next(batches)
    trainable = apply_freeze(ckpt, mask)
    step = _Step(ckpt, sides, trainable, len(first_batch), beta=beta, augment=augment,
                 codebook_trainable=mask.codebook_trainable and steps > 0)
    step.initialize_codebooks(first_batch, seed)
    # after k-means, which rebinds the codes: every later update is in place
    ckpt.params = {name: _shared_copy(arr) for name, arr in ckpt.params.items()}
    for cb in ckpt.codebooks:
        cb.codes = _shared_copy(cb.codes)

    state = init_optimizer(ckpt.params, trainable, learning_rate, weight_decay)
    l1_history: list[float] = []
    loss_history: list[float] = []
    symmetries = N_GRID_SYMMETRIES[config.spatial_rank]
    # a pool forked for one step costs about what it saves: the processes'
    # copy-on-write faults after the fork take about half a step
    with Pool(step.run, workers if steps > 1 else 1, len(first_batch), step.item_bytes) as pool:
        batch = first_batch
        for _ in range(steps):
            elements = ([int(augment_rng.integers(symmetries)) for _ in batch]
                        if augment else None)
            step.publish(batch, elements)
            pool.round()
            grads, total, l1 = step.fold()
            if not np.isfinite(total):
                raise TrainingError(f"training diverged: loss {float(total)}")
            adamw_step(state, ckpt.params, grads)

            if mask.codebook_trainable:
                for cb, (columns, indices) in zip(ckpt.codebooks, step.levels()):
                    ema_update(cb, columns.T, indices, decay=decay)
                    expire_stale(cb, columns.T, expire_age,
                                 seed=int(expire_rng.integers(2 ** 31)))

            l1_history.append(l1)
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
                   augment: bool = False, workers: int = 1) -> TrainResult:
    """Self-supervised reconstruction pretraining on unit01 volumes.

    For a 2D config the items are all axial slices of the volumes; for 3D,
    non-overlapping cubes of ``cube_edge`` voxels, whose edge is checked
    before any volume is drawn. The volumes are consumed one at a time: each
    is checked (its space, then a 2D config's extents) and its items are
    kept as ``GRAPH_DTYPE`` (axial views of the float32 voxels, or float32
    cubes) before the next is drawn, so ``volumes`` may be a generator that
    reads each one. The codebooks are k-means initialized on the first
    batch; the returned checkpoint is tagged ``pretrained`` (its value space
    is unit01). With ``augment`` each sampled item passes through a seeded
    grid symmetry (flips and transposes). At most ``workers`` processes run
    each step's batch items; the bytes do not depend on it.
    """
    check_train_options(steps, batch_size, learning_rate, weight_decay, beta, decay, expire_age)
    config.validate()
    if config.spatial_rank == 3:  # before any volume is drawn
        config.check_cube_edge(cube_edge)
        check_cube_size(cube_edge)
    items = []
    for vol in volumes:
        vol.check_space("unit01", "a pretraining volume")
        if config.spatial_rank == 2:
            config.check_extents(vol.dims[:2], "axial slices")
            data = np.asarray(vol.voxels, GRAPH_DTYPE)  # a read volume is float32 already
            items.extend(data[:, :, z] for z in range(vol.dims[2]))
        else:
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
        weight_decay=weight_decay, augment=augment, workers=workers)


def finetune_translate(base: Checkpoint, mode: str, pet_slices, ct_slices,
                       steps: int, seed: int, *, learning_rate: float = 1e-5,
                       batch_size: int = 8, beta: float = 0.25,
                       expire_age: int = 2, decay: float = 0.99,
                       weight_decay: float = 0.01,
                       freeze_codebook_with_encoder: bool = True,
                       augment: bool = False, workers: int = 1) -> TrainResult:
    """Supervised PET-to-CT fine-tuning on paired sym11 slices.

    ``mode`` selects the regime: ``scratch`` re-initializes every parameter
    from the run seed, ``no-frozen`` trains everything from the base
    checkpoint, ``enc-frozen`` freezes the encoder (and by default the
    codebook). With ``augment`` each sampled pair passes through one shared
    seeded grid symmetry. The result is tagged ``finetuned`` (sym11 value
    space). At most ``workers`` processes run each step's batch items; the
    bytes do not depend on it.
    """
    check_train_options(steps, batch_size, learning_rate, weight_decay, beta, decay, expire_age)
    mask = mask_for_mode(mode, freeze_codebook_with_encoder)
    base.config.check_rank(2, "fine-tuning")
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
        weight_decay=weight_decay, augment=augment, workers=workers)


def select_checkpoint(candidates, eval_volumes, *, cube_edge: int = 64,
                      workers: int = 1) -> Checkpoint:
    """Return the candidate with the lowest whole-volume reconstruction MSE.

    Each candidate reconstructs every evaluation CT volume through its own
    pipeline (tri-planar fusion for 2D models, cube tiling for 3D); MSE is
    computed in float64 between the float32 HU output, as ``vqsct
    translate`` or ``reconstruct`` would write it, and the clamped input.
    Each volume is normalized once per value space the candidates need, and
    clamped once. Ties keep the earliest candidate. Each 3D candidate checks
    ``cube_edge`` before any candidate runs or any of ``eval_volumes`` (a
    generator, say) is drawn. ``workers`` is handed to
    :func:`pipeline.translate_volume` and :func:`pipeline.reconstruct_cubes`,
    whose bytes do not depend on it.
    """
    from .pipeline import reconstruct_cubes, translate_volume

    candidates = list(candidates)
    if not candidates:
        raise DomainError("select_checkpoint needs at least one candidate")
    for ckpt in candidates:
        if ckpt.config.spatial_rank == 3:
            ckpt.config.check_cube_edge(cube_edge)
    eval_volumes = list(eval_volumes)
    if not eval_volumes:
        raise DomainError("select_checkpoint needs at least one evaluation volume")
    for vol in eval_volumes:
        vol.check_space("HU", "an evaluation volume")
    normed = {space: [normalize(vol, space) for vol in eval_volumes]
              for space in dict.fromkeys(value_space(ckpt) for ckpt in candidates)}
    refs = [np.clip(vol.voxels, HU_MIN, HU_MAX) for vol in eval_volumes]

    best = None
    best_mse = np.inf
    for ckpt in candidates:
        se = 0.0
        count = 0
        for vol, ref in zip(normed[value_space(ckpt)], refs):
            if ckpt.config.spatial_rank == 2:
                pred = translate_volume(ckpt, vol, workers).fused.voxels
            else:
                pred = reconstruct_cubes(ckpt, vol, edge=cube_edge, workers=workers).voxels
            se += float((np.subtract(pred, ref, dtype=np.float64) ** 2).sum())
            count += pred.size
        mse = se / count
        if mse < best_mse:
            best = ckpt
            best_mse = mse
    return best
