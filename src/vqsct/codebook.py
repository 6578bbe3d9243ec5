"""Cosine-similarity vector quantizer with EMA learning.

Codes live on the unit sphere; assignment maximizes cosine similarity
(ties break toward the lowest index, zero-norm inputs are mapped to a fixed
basis vector and flagged). :func:`quantize` is the one place that normalizes
input rows: it returns them as ``unit_rows``. The codebook is learned without
gradients from those unit rows: k-means initialization on the first batch,
an exponential moving average of the assigned vectors per code, and
expiration of codes that go unused for several consecutive batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Codebook",
    "QuantizeResult",
    "ExpireInfo",
    "kmeans_init",
    "quantize",
    "ema_update",
    "expire_stale",
]

DEFAULT_DECAY = 0.99
DEFAULT_EXPIRE_AGE = 2
KMEANS_ITERS = 10


def _normalize_rows(x: np.ndarray, eps: float = 1e-12):
    """Return (unit rows, zero-row indices); zero rows become basis vector e0."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    zero = np.flatnonzero(norms < eps)
    out = x / np.maximum(norms, eps)[:, None]
    if zero.size:
        out[zero] = 0.0
        out[zero, 0] = 1.0
    return out, zero


@dataclass
class QuantizeResult:
    """Assignment of a batch of vectors to codebook entries."""

    indices: np.ndarray        # [M] int64 code index per input row
    quantized: np.ndarray      # [M, dim] selected code vectors (exact copies)
    unit_rows: np.ndarray      # [M, dim] the inputs on the unit sphere (zero rows -> e0)
    zero_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass
class ExpireInfo:
    replaced: np.ndarray       # indices of codes that were replaced


class Codebook:
    """Fixed-size set of unit-norm code vectors with usage bookkeeping.

    ``initialized`` records whether k-means initialization has run; codes are
    valid unit vectors from construction on, so quantization is total either
    way. ``usage_age[i]`` counts consecutive batches without an assignment to
    code ``i`` (zero iff assigned in the most recent update).
    """

    def __init__(self, n_codes: int, dim: int, seed: int = 0):
        if n_codes < 2:
            raise DomainError(f"codebook needs at least 2 codes, got {n_codes}")
        if dim < 1:
            raise DomainError(f"code dimension must be positive, got {dim}")
        rng = np.random.default_rng(seed)
        codes, _ = _normalize_rows(rng.standard_normal((n_codes, dim)))
        self.codes = codes
        self.usage_age = np.zeros(n_codes, dtype=np.int64)
        self.ema_cluster_size = np.ones(n_codes, dtype=np.float64)
        self.ema_embed_sum = codes.copy()
        self.initialized = False

    @property
    def n_codes(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    def copy(self) -> "Codebook":
        dup = Codebook.__new__(Codebook)
        dup.codes = self.codes.copy()
        dup.usage_age = self.usage_age.copy()
        dup.ema_cluster_size = self.ema_cluster_size.copy()
        dup.ema_embed_sum = self.ema_embed_sum.copy()
        dup.initialized = self.initialized
        return dup


def kmeans_init(codebook: Codebook, unit_rows: np.ndarray, seed: int = 0) -> Codebook:
    """Initialize codes as L2-normalized k-means centroids of the first batch.

    ``unit_rows`` are the batch's rows as :func:`quantize` returns them
    (already on the unit sphere; they are not normalized again).
    ``KMEANS_ITERS`` Lloyd iterations, centroids seeded from distinct batch
    rows; empty clusters are re-seeded from random batch rows. Deterministic
    given the seed. Mutates and returns ``codebook``.
    """
    if codebook.initialized:
        raise DomainError("codebook is already initialized")
    pts = np.asarray(unit_rows, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != codebook.dim:
        raise ShapeError(f"kmeans batch shape {pts.shape} incompatible with code dim {codebook.dim}")
    k = codebook.n_codes
    if pts.shape[0] < k:
        raise DomainError(f"kmeans needs at least {k} vectors, got {pts.shape[0]}")

    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(pts.shape[0], size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        # on the unit sphere, nearest-in-Euclidean == argmax cosine
        assign = np.argmax(pts @ centroids.T, axis=1)
        for i in range(k):
            members = pts[assign == i]
            if members.shape[0] == 0:
                centroids[i] = pts[rng.integers(pts.shape[0])]
            else:
                centroids[i] = members.mean(axis=0)
        centroids, _ = _normalize_rows(centroids)

    codebook.codes = centroids
    codebook.ema_embed_sum = centroids.copy()
    codebook.ema_cluster_size = np.ones(k, dtype=np.float64)
    codebook.usage_age = np.zeros(k, dtype=np.int64)
    codebook.initialized = True
    return codebook


def quantize(codebook: Codebook, inputs: np.ndarray) -> QuantizeResult:
    """Assign each input row to the code with maximal cosine similarity.

    Inputs are row-normalized once and returned as ``unit_rows``, the
    input of :func:`kmeans_init`, :func:`ema_update` and :func:`expire_stale`.
    Ties break toward the lowest code index (argmax convention); zero-norm
    rows are replaced by the fixed basis vector e0 and reported in
    ``zero_rows``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"quantize expects [M, dim] inputs, got shape {x.shape}")
    if x.shape[1] != codebook.dim:
        raise ShapeError(f"input dim {x.shape[1]} != code dim {codebook.dim}")
    normed, zero_rows = _normalize_rows(x)
    sims = normed @ codebook.codes.T
    indices = np.argmax(sims, axis=1)
    return QuantizeResult(indices=indices, quantized=codebook.codes[indices],
                          unit_rows=normed, zero_rows=zero_rows)


def ema_update(codebook: Codebook, unit_rows: np.ndarray, indices: np.ndarray,
               decay: float = DEFAULT_DECAY) -> Codebook:
    """Fold one batch into the per-code EMA and refresh assigned codes.

    ``unit_rows`` and ``indices`` are the fields of the batch's
    :func:`quantize` result; the rows are not normalized again. Codes with assignments are replaced by their
    re-normalized EMA sum and their age resets; unassigned codes keep their
    values and age by one.
    Mutates and returns ``codebook``.
    """
    if not 0.0 < decay < 1.0:
        raise DomainError(f"decay must be in (0, 1), got {decay}")
    if unit_rows.shape[0] != indices.shape[0]:
        raise ShapeError("unit rows and code indices disagree on batch size")
    k = codebook.n_codes
    counts = np.bincount(indices, minlength=k).astype(np.float64)
    # per-column bincount adds the rows in input order onto zeros, as np.add.at would
    sums = np.stack([np.bincount(indices, weights=col, minlength=k) for col in unit_rows.T], axis=1)

    codebook.ema_cluster_size = decay * codebook.ema_cluster_size + (1.0 - decay) * counts
    codebook.ema_embed_sum = decay * codebook.ema_embed_sum + (1.0 - decay) * sums

    assigned = counts > 0
    prev = codebook.codes[assigned]
    new_codes, degenerate = _normalize_rows(codebook.ema_embed_sum[assigned])
    if degenerate.size:  # EMA sum collapsed to zero; keep the previous code
        new_codes[degenerate] = prev[degenerate]
    codebook.codes[assigned] = new_codes
    codebook.usage_age[assigned] = 0
    codebook.usage_age[~assigned] += 1
    return codebook


def expire_stale(codebook: Codebook, unit_rows: np.ndarray, age_threshold: int = DEFAULT_EXPIRE_AGE,
                 seed: int = 0) -> ExpireInfo:
    """Replace codes unused for ``age_threshold`` batches with batch rows.

    ``unit_rows`` are the current batch's rows as :func:`quantize` returns
    them; they are not normalized again. Replacements are distinct rows
    sampled uniformly (seeded); if there are more stale codes than rows the
    sampling falls back to with-replacement. Replaced codes get age 0 and
    fresh EMA accumulators.
    """
    if age_threshold < 1:
        raise DomainError(f"age_threshold must be >= 1, got {age_threshold}")
    if unit_rows.ndim != 2 or unit_rows.shape[0] == 0:
        raise DomainError("expire_stale needs a non-empty [M, dim] batch")
    stale = np.flatnonzero(codebook.usage_age >= age_threshold)
    if stale.size == 0:
        return ExpireInfo(replaced=stale)

    rng = np.random.default_rng(seed)
    picks = rng.choice(unit_rows.shape[0], size=stale.size,
                       replace=stale.size > unit_rows.shape[0])
    codebook.codes[stale] = unit_rows[picks]
    codebook.ema_embed_sum[stale] = unit_rows[picks]
    codebook.ema_cluster_size[stale] = 1.0
    codebook.usage_age[stale] = 0
    return ExpireInfo(replaced=stale)
