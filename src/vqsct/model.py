"""Encoder / vector-quantizer / decoder assembly with freeze masks.

The encoder is ``depth`` stages of stride-2 convolution with channels
doubling from ``base_channels`` (capped at 8x) under a leaky-ReLU. The
decoder mirrors it with nearest-neighbor upsampling and a final linear
convolution. Each quantized pyramid level projects its feature map to the
code dimension with a 1x1 convolution, snaps every spatial vector to the
nearest codebook entry on the unit sphere, and projects back; level 0 is
the bottleneck, further levels are quantized skip connections into the
decoder at matching resolutions.

Checkpoints serialize to the VQCK format: magic ``VQCK0001``, a 4-byte
little-endian header length, a JSON header (config, provenance, step,
codebook bookkeeping, block manifest with shapes and byte offsets), then
the raw little-endian float32 blocks in manifest order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autograd as ag
from .atomic import atomic_open
from .codebook import Codebook, quantize
from .errors import DomainError, FormatError, ShapeError

__all__ = [
    "ModelConfig",
    "FreezeMask",
    "Checkpoint",
    "ForwardResult",
    "PROVENANCE_TAGS",
    "MODES",
    "build_model",
    "param_tensors",
    "forward",
    "apply_freeze",
    "mask_for_mode",
    "value_space",
    "save_checkpoint",
    "load_checkpoint",
    "reinitialized",
]

MAGIC = b"VQCK0001"
PROVENANCE_TAGS = ("pretrained", "scratch", "finetuned")
MODES = ("scratch", "no-frozen", "enc-frozen")

LEAKY_SLOPE = 0.1
CHANNEL_CAP_FACTOR = 8


@dataclass(frozen=True)
class ModelConfig:
    spatial_rank: int = 2
    depth: int = 3
    base_channels: int = 8
    codebook_size: int = 32
    codebook_dim: int = 16
    pyramid_levels: int = 1
    seed: int = 0

    def validate(self) -> "ModelConfig":
        if self.spatial_rank not in (2, 3):
            raise DomainError(f"spatial_rank must be 2 or 3, got {self.spatial_rank}")
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise DomainError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.codebook_size < 2:
            raise DomainError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.codebook_dim < 1:
            raise DomainError(f"codebook_dim must be >= 1, got {self.codebook_dim}")
        if not 1 <= self.pyramid_levels <= self.depth:
            raise DomainError(
                f"pyramid_levels must be in [1, depth={self.depth}], got {self.pyramid_levels}")
        return self

    def channels(self) -> list[int]:
        """Channel count entering stage boundaries: index 0 is the input."""
        out = [1]
        for s in range(self.depth):
            out.append(min(self.base_channels * 2 ** s,
                           CHANNEL_CAP_FACTOR * self.base_channels))
        return out


@dataclass(frozen=True)
class FreezeMask:
    """Which parameter groups a training loop may update."""

    encoder_trainable: bool = True
    codebook_trainable: bool = True


def mask_for_mode(mode: str, freeze_codebook_with_encoder: bool = True) -> FreezeMask:
    """Map a fine-tuning mode name onto its freeze mask.

    In enc-frozen mode the codebook is frozen together with the encoder by
    default; pass ``freeze_codebook_with_encoder=False`` to keep it learning.
    """
    if mode == "scratch" or mode == "no-frozen":
        return FreezeMask(True, True)
    if mode == "enc-frozen":
        return FreezeMask(False, not freeze_codebook_with_encoder)
    raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    codebooks: list[Codebook]
    step: int = 0
    provenance: str = "scratch"

    def copy(self) -> "Checkpoint":
        return Checkpoint(self.config,
                          {k: v.copy() for k, v in self.params.items()},
                          [cb.copy() for cb in self.codebooks],
                          self.step, self.provenance)


@dataclass
class ForwardResult:
    output: ag.Tensor
    commitment: ag.Tensor | None            # scalar node flowing to the encoder; None if beta == 0
    code_indices: list[np.ndarray]          # per level, spatial layout
    unit_rows: list[np.ndarray]             # per level, quantize's [positions, codebook_dim] unit rows


def value_space(ckpt: Checkpoint) -> str:
    """Normalized intensity space the checkpoint operates in.

    Self-reconstruction pretraining runs in unit01; translation fine-tuning
    (and scratch training for it) runs in sym11.
    """
    return "unit01" if ckpt.provenance == "pretrained" else "sym11"


def _layer_specs(config: ModelConfig):
    """Yield (name, c_out, c_in, kernel_extent) in initialization order."""
    ch = config.channels()
    specs = []
    for i in range(config.depth):
        specs.append((f"enc.{i}", ch[i + 1], ch[i], 3))
    for j in range(config.pyramid_levels):
        level_ch = ch[config.depth - j]
        specs.append((f"vq{j}.in", config.codebook_dim, level_ch, 1))
        specs.append((f"vq{j}.out", level_ch, config.codebook_dim, 1))
    for i in range(config.depth):
        c_in = ch[config.depth - i]
        c_out = ch[max(config.depth - 1 - i, 1)]
        specs.append((f"dec.{i}", c_out, c_in, 3))
    specs.append(("dec.final", 1, ch[1], 3))
    return specs


def build_model(config: ModelConfig) -> Checkpoint:
    """Construct a freshly initialized checkpoint.

    All weights and biases draw uniformly from +-sqrt(6 / fan_in) with a
    single seeded generator; per-level codebooks start as seeded random unit
    vectors awaiting k-means initialization.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, c_out, c_in, k in _layer_specs(config):
        kshape = (c_out, c_in) + (k,) * config.spatial_rank
        fan_in = c_in * k ** config.spatial_rank
        lim = np.sqrt(6.0 / fan_in)
        params[f"{name}.w"] = rng.uniform(-lim, lim, kshape)
        params[f"{name}.b"] = rng.uniform(-lim, lim, c_out)
    codebooks = [
        Codebook(config.codebook_size, config.codebook_dim,
                 seed=int(rng.integers(2 ** 31)))
        for _ in range(config.pyramid_levels)
    ]
    return Checkpoint(config, params, codebooks, step=0, provenance="scratch")


def param_tensors(ckpt: Checkpoint) -> dict[str, ag.Tensor]:
    """Graph leaves over the checkpoint parameters, shared across a batch."""
    return {name: ag.leaf(arr) for name, arr in ckpt.params.items()}


def _quantize_level(feat: ag.Tensor, level: int, params, codebook: Codebook, beta: float):
    """Project, snap to codes, project back; returns the graph pieces.

    The commitment node is built only for ``beta > 0`` (else it is None).
    """
    proj = ag.conv(feat, params[f"vq{level}.in.w"], params[f"vq{level}.in.b"])
    dim = proj.data.shape[0]
    spatial = proj.data.shape[1:]
    rows_data = proj.data.reshape(dim, -1).T
    qres = quantize(codebook, rows_data)
    qmap = qres.quantized.T.reshape((dim,) + spatial)
    st = ag.straight_through(proj, qmap)
    out = ag.conv(st, params[f"vq{level}.out.w"], params[f"vq{level}.out.b"])

    commit = None
    if beta > 0:
        rows_t = ag.moveaxis(ag.reshape(proj, (dim, rows_data.shape[0])), 0, 1)
        normed = ag.l2_normalize_rows(rows_t)
        diff = ag.sub(normed, ag.leaf(qres.quantized))
        # mean over rows of the squared distance: elementwise mean times row width
        commit = ag.scale(ag.mean_all(ag.mul(diff, diff)), beta * dim)
    return out, commit, qres.indices.reshape(spatial), qres.unit_rows


def forward(ckpt: Checkpoint, x, params: dict[str, ag.Tensor] | None = None,
            beta: float = 0.0) -> ForwardResult:
    """Run the full encoder/quantizer/decoder graph on one input.

    ``x`` is ``[1, *spatial]`` with every spatial extent divisible by
    2^depth. Pass a shared ``params`` dict (from :func:`param_tensors`) to
    accumulate gradients across several inputs in one backward pass. The
    commitment term, weighted by ``beta``, is part of the graph only when
    ``beta > 0``; inference leaves it out.
    """
    cfg = ckpt.config
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != cfg.spatial_rank + 1 or arr.shape[0] != 1:
        raise ShapeError(
            f"input must be [1, *spatial] with rank {cfg.spatial_rank}, got {arr.shape}")
    div = 2 ** cfg.depth
    if any(d % div for d in arr.shape[1:]):
        raise DomainError(f"spatial extents {arr.shape[1:]} must be divisible by {div}")
    if not beta >= 0.0:
        raise DomainError(f"commitment weight beta must be >= 0, got {beta}")
    if params is None:
        params = param_tensors(ckpt)

    h = ag.leaf(arr)
    enc_feats = []
    for i in range(cfg.depth):
        h = ag.leaky_relu(
            ag.conv(h, params[f"enc.{i}.w"], params[f"enc.{i}.b"], stride=2, pad=1),
            LEAKY_SLOPE)
        enc_feats.append(h)

    quantized = []
    commits = []
    indices = []
    rows = []
    for j in range(cfg.pyramid_levels):
        out, commit, idx, unit_rows = _quantize_level(
            enc_feats[cfg.depth - 1 - j], j, params, ckpt.codebooks[j], beta)
        quantized.append(out)
        commits.append(commit)
        indices.append(idx)
        rows.append(unit_rows)

    d = quantized[0]
    for i in range(cfg.depth):
        d = ag.upsample_nearest(d, 2)
        d = ag.leaky_relu(
            ag.conv(d, params[f"dec.{i}.w"], params[f"dec.{i}.b"], pad=1), LEAKY_SLOPE)
        skip_level = i + 1
        if skip_level < cfg.pyramid_levels:
            d = ag.add(d, quantized[skip_level])
    out = ag.conv(d, params["dec.final.w"], params["dec.final.b"], pad=1)

    total_commit = commits[0]
    if total_commit is not None:
        for c in commits[1:]:
            total_commit = ag.add(total_commit, c)
        if len(commits) > 1:
            total_commit = ag.scale(total_commit, 1.0 / len(commits))

    return ForwardResult(out, total_commit, indices, rows)


def apply_freeze(ckpt: Checkpoint, mask: FreezeMask) -> list[str]:
    """Sorted names of the parameters an optimizer may update under ``mask``.

    Decoder-side parameters (``dec.*`` and the from-codebook projections)
    are always trainable; encoder-side ones (``enc.*`` and the into-codebook
    projections) follow ``mask.encoder_trainable``. Codebook EMA updates are
    gated separately by ``mask.codebook_trainable``.
    """
    names = []
    for name in ckpt.params:
        enc_side = name.startswith("enc.") or ".in." in name
        if mask.encoder_trainable or not enc_side:
            names.append(name)
    return sorted(names)


# ---------------------------------------------------------------------------
# VQCK serialization
# ---------------------------------------------------------------------------

_MAX_AGE = np.iinfo(np.int64).max


def _is_int(value) -> bool:
    """A JSON integer (booleans excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _block_order(params: dict, n_levels: int):
    names = sorted(params)
    for j in range(n_levels):
        names.extend([f"codebook{j}.codes", f"codebook{j}.ema_embed_sum",
                      f"codebook{j}.ema_cluster_size"])
    return names


def _block_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Shape of every VQCK block of an architecture, in file order."""
    shapes = {}
    for name, c_out, c_in, k in _layer_specs(config):
        shapes[f"{name}.w"] = (c_out, c_in) + (k,) * config.spatial_rank
        shapes[f"{name}.b"] = (c_out,)
    order = _block_order(shapes, config.pyramid_levels)
    book = (config.codebook_size, config.codebook_dim)
    for j in range(config.pyramid_levels):
        shapes[f"codebook{j}.codes"] = book
        shapes[f"codebook{j}.ema_embed_sum"] = book
        shapes[f"codebook{j}.ema_cluster_size"] = book[:1]
    return {name: shapes[name] for name in order}


def _manifest(shapes: dict):
    """Manifest entries for float32 blocks laid back to back, and the payload size."""
    manifest = []
    offset = 0
    for name, shape in shapes.items():
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * int(np.prod(shape))
    return manifest, offset


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize to VQCK; re-saving a loaded checkpoint is byte-identical."""
    blocks: dict[str, np.ndarray] = dict(ckpt.params)
    for j, cb in enumerate(ckpt.codebooks):
        blocks[f"codebook{j}.codes"] = cb.codes
        blocks[f"codebook{j}.ema_embed_sum"] = cb.ema_embed_sum
        blocks[f"codebook{j}.ema_cluster_size"] = cb.ema_cluster_size
    order = _block_order(ckpt.params, len(ckpt.codebooks))
    manifest, _ = _manifest({name: blocks[name].shape for name in order})
    header = {
        "config": asdict(ckpt.config),
        "provenance": ckpt.provenance,
        "step": ckpt.step,
        "codebooks": [
            {"initialized": cb.initialized, "usage_age": cb.usage_age.tolist()}
            for cb in ckpt.codebooks
        ],
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in order:
            fh.write(blocks[name].astype("<f4").ravel().tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a VQCK file, checking it against the architecture in its header.

    The config values and the step are JSON integers, the step >= 0. The
    manifest must list exactly the blocks of that architecture, with
    their shapes, back to back in file order; the payload must end with the
    last block and hold only finite values; there must be one codebook
    record per pyramid level with one non-negative integer usage age per
    code. Any mismatch raises :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a VQCK checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    end = start + header_len
    if end > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
        config = ModelConfig(**header["config"])
        for name, value in asdict(config).items():
            if not _is_int(value):
                raise DomainError(f"config {name} must be an integer, got {value!r}")
        config.validate()
        provenance = header["provenance"]
        step = header["step"]
        manifest = header["manifest"]
        ages = [meta["usage_age"] for meta in header["codebooks"]]
        flags = [meta["initialized"] for meta in header["codebooks"]]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:  # DomainError is a ValueError
        raise FormatError(f"{path}: malformed checkpoint header ({exc})") from None
    if not _is_int(step) or step < 0:
        raise FormatError(f"{path}: step must be a non-negative integer, got {step!r}")
    if provenance not in PROVENANCE_TAGS:
        raise FormatError(f"{path}: unknown provenance tag {provenance!r}")

    shapes = _block_shapes(config)
    expected, size = _manifest(shapes)
    if manifest != expected:
        raise FormatError(f"{path}: block manifest does not match the header's architecture")
    payload = blob[end:]
    if len(payload) != size:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, manifest needs {size}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite values in payload")
    if len(ages) != config.pyramid_levels:
        raise FormatError(f"{path}: {len(ages)} codebook records for "
                          f"{config.pyramid_levels} pyramid levels")
    for j, (age, flag) in enumerate(zip(ages, flags)):
        if (not isinstance(age, list) or len(age) != config.codebook_size
                or not all(_is_int(a) and 0 <= a <= _MAX_AGE for a in age)
                or not isinstance(flag, bool)):
            raise FormatError(f"{path}: codebook {j} record needs a boolean flag "
                              f"and {config.codebook_size} non-negative integer usage ages")

    blocks = {}
    offset = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        blocks[name] = values[offset:offset + n].reshape(shape)
        offset += n
    params = {n: a for n, a in blocks.items() if not n.startswith("codebook")}
    codebooks = []
    for j, (age, flag) in enumerate(zip(ages, flags)):
        cb = Codebook.__new__(Codebook)
        cb.codes = blocks[f"codebook{j}.codes"]
        cb.ema_embed_sum = blocks[f"codebook{j}.ema_embed_sum"]
        cb.ema_cluster_size = blocks[f"codebook{j}.ema_cluster_size"]
        cb.usage_age = np.asarray(age, dtype=np.int64)
        cb.initialized = flag
        codebooks.append(cb)
    return Checkpoint(config, params, codebooks, step=step, provenance=provenance)


def reinitialized(ckpt: Checkpoint, seed: int) -> Checkpoint:
    """Fresh scratch checkpoint with this checkpoint's architecture."""
    return build_model(replace(ckpt.config, seed=seed))
