"""Encoder / vector-quantizer / decoder assembly with freeze masks.

The encoder is ``depth`` stages of stride-2 convolution with channels
doubling from ``base_channels`` (capped at 8x) under a leaky-ReLU. The
decoder mirrors it: each stage is a nearest-neighbor 2x upsampling and a
3x3(x3) convolution, run as one sub-pixel node on the low-resolution map
(``autograd.upsample_conv``), under a leaky-ReLU; a final linear
convolution gives the output. Each quantized pyramid level projects its
feature map to the code dimension with a 1x1 convolution, snaps every
spatial vector to the nearest codebook entry on the unit sphere, and
projects back; level 0 is the bottleneck, further levels are quantized
skip connections into the decoder at matching resolutions.

Checkpoints are VQCK files in ``atomic``'s framed container: a header of
config, provenance, step, codebook bookkeeping and block manifest (shapes
and byte offsets), then the little-endian float32 blocks in manifest order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autograd as ag
from .atomic import is_json_int, read_framed, write_framed
from .codebook import Codebook, quantize
from .errors import DomainError, FormatError, ShapeError
from .volume import NORMALIZED_AIR, pad_to_multiple

__all__ = [
    "ModelConfig",
    "FreezeMask",
    "Checkpoint",
    "ForwardResult",
    "PROVENANCE_TAGS",
    "MODES",
    "GRAPH_DTYPE",
    "graph_input",
    "build_model",
    "param_tensors",
    "with_sub_pixel_kernels",
    "encode",
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
# Training and inference build their graphs in this dtype, over casts of the
# float64 master weights (mixed precision; the optimizer state, codebooks and
# gradient checks stay float64).
GRAPH_DTYPE = np.float32


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

    def check_extents(self, extents, what: str) -> None:
        """Raise DomainError if 2^depth exceeds the smallest of ``extents``.

        :func:`graph_input` pads each slice up to a multiple of 2^depth; a
        rank-2 command checks its slices' in-plane extents here before it
        pads any, so an oversized depth fails with one line at once.
        """
        smallest = min(extents)
        if self.depth >= int(smallest).bit_length():  # 2^depth > smallest
            raise DomainError(
                f"depth {self.depth} pads {what} to multiples of 2^{self.depth}, "
                f"above their smallest in-plane extent {smallest}")

    def check_cube_edge(self, edge: int) -> None:
        """Raise DomainError unless 2^depth divides ``edge``, read off its trailing zero bits."""
        if edge and self.depth >= (edge & -edge).bit_length():
            raise DomainError(f"cube edge {edge} must be divisible by 2^{self.depth}")

    def level_rows(self, shape) -> list[int]:
        """Quantized rows per pyramid level of one item of spatial ``shape``.

        :func:`graph_input` pads each extent up to a multiple of 2^depth, and
        level ``j`` quantizes the encoder map 2^(depth - j) times coarser.
        """
        blocks = [-(-n >> self.depth) for n in shape]  # ceil(n / 2^depth)
        return [math.prod(b << j for b in blocks) for j in range(self.pyramid_levels)]

    def channels(self) -> list[int]:
        """Channel count entering stage boundaries: index 0 is the input."""
        out = [1]
        channels = self.base_channels
        for _ in range(self.depth):
            out.append(channels)
            channels = min(2 * channels, CHANNEL_CAP_FACTOR * self.base_channels)
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
    commitment: ag.Tensor | None            # one scalar node over the level projections; None if beta == 0
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


def param_tensors(ckpt: Checkpoint, dtype=np.float64) -> dict[str, ag.Tensor]:
    """Graph leaves over the checkpoint parameters.

    The leaves are ``dtype`` casts of the float64 master weights; build them
    once per training step or command, in the dtype of the inputs they will
    meet, and pass them to every :func:`forward` of that step or command.
    """
    return {name: ag.leaf(arr, dtype) for name, arr in ckpt.params.items()}


def with_sub_pixel_kernels(ckpt: Checkpoint, params: dict[str, ag.Tensor]) -> dict[str, ag.Tensor]:
    """``params`` plus one ``ag.phase_kernels`` node per decoder stage.

    Stage ``i``'s node is keyed ``dec.{i}.k``. Passing the result to every
    :func:`forward` of a training step or command collapses each decoder
    weight into its sub-pixel kernels once, not once per input.
    """
    kernels = {f"dec.{i}.k": ag.phase_kernels(params[f"dec.{i}.w"])
               for i in range(ckpt.config.depth)}
    return {**params, **kernels}


def _quantize_level(feat: ag.Tensor, level: int, params, codebook: Codebook):
    """Project, snap to codes, project back.

    Returns ``(out, proj, qres)``: the back-projection, the ``vq{level}.in``
    projection whose rows were quantized, and the quantizer's result.
    """
    proj = ag.conv(feat, params[f"vq{level}.in.w"], params[f"vq{level}.in.b"])
    dim = proj.data.shape[0]
    qres = quantize(codebook, proj.data.reshape(dim, -1).T)
    st = ag.straight_through(proj, qres.quantized.T.reshape(proj.data.shape))
    out = ag.conv(st, params[f"vq{level}.out.w"], params[f"vq{level}.out.b"])
    return out, proj, qres


def _commitment(levels, beta: float) -> ag.Tensor:
    """One node for the commitment term over all ``(proj, qres)`` levels.

    Its value is ``beta / L * sum_levels mean_rows |u - q|^2`` over
    quantize's float64 unit rows ``u`` and their codes ``q``, stored in the
    projections' dtype. Each row's gradient goes back through the
    normalization ``u = z / norm``: ``(g_u - u (u . g_u)) / norm`` with
    ``g_u = 2 beta / (L M) g (u - q)``; a zero row became the constant e0
    and gets zero gradient.
    """
    weight = beta / len(levels)
    value = weight * sum(np.mean(np.sum((qres.unit_rows - qres.quantized) ** 2, axis=1))
                         for _, qres in levels)
    projs = tuple(proj for proj, _ in levels)

    def vjp(g):
        grads = []
        for proj, qres in levels:
            u = qres.unit_rows
            g_u = (2.0 * weight / u.shape[0] * float(g)) * (u - qres.quantized)
            g_z = (g_u - u * np.sum(u * g_u, axis=1, keepdims=True)) / qres.norms[:, None]
            g_z[qres.zero_rows] = 0.0
            grads.append(np.ascontiguousarray(g_z.T.reshape(proj.data.shape),
                                              dtype=proj.data.dtype))
        return grads

    return ag.Tensor(np.asarray(value, dtype=projs[0].data.dtype), "commitment", projs, vjp)


def graph_input(config: ModelConfig, values, space: str) -> np.ndarray:
    """A 2D slice or 3D cube as a ``[1, *S]`` ``GRAPH_DTYPE`` input of ``config``'s graph.

    Every slice, cube and training item enters the graph through here. 2^depth
    is checked against the extents before anything is formed; the cast is
    then padded at the high end with ``NORMALIZED_AIR[space]`` (exact in
    float32) up to multiples of 2^depth.
    """
    arr = np.asarray(values)
    if arr.ndim != config.spatial_rank:
        raise ShapeError(
            f"a rank-{config.spatial_rank} model takes {config.spatial_rank}D inputs, "
            f"got shape {arr.shape}")
    config.check_extents(arr.shape, "slices" if arr.ndim == 2 else "cubes")
    padded = pad_to_multiple(arr.astype(GRAPH_DTYPE, copy=False), 1 << config.depth,
                             NORMALIZED_AIR[space])
    return padded[None]


def _checked_input(cfg: ModelConfig, x) -> np.ndarray:
    """``x`` as a checked ``[1, *spatial]`` float32 (if float32) or float64 array."""
    arr = np.asarray(x)
    arr = arr.astype(np.float32 if arr.dtype == np.float32 else np.float64, copy=False)
    if arr.ndim != cfg.spatial_rank + 1 or arr.shape[0] != 1:
        raise ShapeError(
            f"input must be [1, *spatial] with rank {cfg.spatial_rank}, got {arr.shape}")
    div = 2 ** cfg.depth
    if any(d % div for d in arr.shape[1:]):
        raise DomainError(f"spatial extents {arr.shape[1:]} must be divisible by {div}")
    return arr


def encode(ckpt: Checkpoint, x, params: dict[str, ag.Tensor]):
    """Run the encoder and every quantizer level on one input.

    ``x`` is as for :func:`forward` and ``params`` the leaves of
    :func:`param_tensors`, in the input's dtype. Returns per pyramid level
    ``(out, proj, qres)``: the back-projection the decoder reads, the
    ``vq{level}.in`` projection whose rows were quantized, and the
    quantizer's result (its ``unit_rows`` are what k-means initialization
    reads).
    """
    cfg = ckpt.config
    arr = _checked_input(cfg, x)
    h = ag.leaf(arr, arr.dtype)
    enc_feats = []
    for i in range(cfg.depth):
        h = ag.leaky_relu(
            ag.conv(h, params[f"enc.{i}.w"], params[f"enc.{i}.b"], stride=2, pad=1),
            LEAKY_SLOPE)
        enc_feats.append(h)
    return [_quantize_level(enc_feats[cfg.depth - 1 - j], j, params, ckpt.codebooks[j])
            for j in range(cfg.pyramid_levels)]


def forward(ckpt: Checkpoint, x, params: dict[str, ag.Tensor] | None = None,
            beta: float = 0.0) -> ForwardResult:
    """Run the full encoder/quantizer/decoder graph on one input.

    ``x`` is ``[1, *spatial]`` with every spatial extent divisible by
    2^depth, as :func:`graph_input` makes it. Pass ``params`` (from
    :func:`param_tensors`, best extended by :func:`with_sub_pixel_kernels`)
    to reuse one set of leaves and decoder
    kernels across several inputs; each call builds a graph of its own
    input over them, which a backward differentiates alone. Without the
    kernels, each call collapses the decoder weights itself. The
    commitment term, weighted by ``beta``, is one graph node whose parents
    are the level projections (see :func:`_commitment`); it is built only
    when ``beta > 0``, so inference leaves it out.

    The graph runs in the input's dtype: a float32 input stays float32, and
    any other becomes float64. Training and inference feed ``GRAPH_DTYPE``
    (float32), so the production graph is float32 over float32 casts of the
    float64 master weights in ``ckpt.params``; ``params``, if given, should
    be in the input's dtype. The quantizer assigns codes, and the commitment
    is computed, in float64 either way.
    """
    cfg = ckpt.config
    arr = _checked_input(cfg, x)
    if not beta >= 0.0:
        raise DomainError(f"commitment weight beta must be >= 0, got {beta}")
    if params is None:
        params = param_tensors(ckpt, arr.dtype)
    if "dec.0.k" not in params:
        params = with_sub_pixel_kernels(ckpt, params)

    levels = encode(ckpt, arr, params)
    d = levels[0][0]
    for i in range(cfg.depth):
        d = ag.leaky_relu(
            ag.upsample_conv(d, params[f"dec.{i}.k"], params[f"dec.{i}.b"]), LEAKY_SLOPE)
        skip_level = i + 1
        if skip_level < cfg.pyramid_levels:
            d = ag.add(d, levels[skip_level][0])
    out = ag.conv(d, params["dec.final.w"], params["dec.final.b"], pad=1)

    projections = [(proj, qres) for _, proj, qres in levels]
    return ForwardResult(out, _commitment(projections, beta) if beta > 0 else None,
                         [qres.indices.reshape(proj.data.shape[1:]) for proj, qres in projections],
                         [qres.unit_rows for _, qres in projections])


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


def _block_order(params: dict, n_levels: int):
    names = sorted(params)
    for j in range(n_levels):
        names.extend([f"codebook{j}.codes", f"codebook{j}.ema_embed_sum",
                      f"codebook{j}.ema_cluster_size"])
    return names


def _block_count(config: ModelConfig) -> int:
    """``len(_block_shapes(config))``: a weight and a bias per layer, 3 blocks per codebook."""
    return 4 * config.depth + 7 * config.pyramid_levels + 2


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
    write_framed(path, MAGIC, header,
                 (blocks[name].astype("<f4").ravel().tobytes() for name in order))


def load_checkpoint(path) -> Checkpoint:
    """Read a VQCK file, checking it against the architecture in its header.

    The config values and the step are JSON integers, the step >= 0. The
    manifest must list exactly the blocks of that architecture, with
    their shapes, back to back in file order; the payload must end with the
    last block and hold only finite values; there must be one codebook
    record per pyramid level with one non-negative integer usage age per
    code. Any mismatch raises :class:`FormatError`.
    """
    header, payload = read_framed(path, MAGIC, "a VQCK checkpoint")
    try:
        config = ModelConfig(**header["config"])
        for name, value in asdict(config).items():
            if not is_json_int(value):
                raise DomainError(f"config {name} must be an integer, got {value!r}")
        config.validate()
        provenance = header["provenance"]
        step = header["step"]
        manifest = header["manifest"]
        ages = [meta["usage_age"] for meta in header["codebooks"]]
        flags = [meta["initialized"] for meta in header["codebooks"]]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:  # DomainError is a ValueError
        raise FormatError(f"{path}: malformed checkpoint header ({exc})") from None
    if not is_json_int(step) or step < 0:
        raise FormatError(f"{path}: step must be a non-negative integer, got {step!r}")
    if provenance not in PROVENANCE_TAGS:
        raise FormatError(f"{path}: unknown provenance tag {provenance!r}")

    # lengths first, so that a crafted depth builds no shapes
    if not isinstance(manifest, list) or len(manifest) != _block_count(config):
        raise FormatError(f"{path}: block manifest does not match the header's architecture")
    shapes = _block_shapes(config)
    expected, size = _manifest(shapes)
    if manifest != expected:
        raise FormatError(f"{path}: block manifest does not match the header's architecture")
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
                or not all(is_json_int(a) and 0 <= a <= _MAX_AGE for a in age)
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
