"""Cosine-similarity vector quantizer with EMA learning.

Codes live on the unit sphere; assignment maximizes cosine similarity
(ties break toward the lowest index, zero-norm inputs are mapped to a fixed
basis vector and flagged). :func:`quantize` is the one normalizer of input
rows: it returns them as ``unit_rows`` with the norms it divided by, which
the model's commitment term reads. The codebook is learned without gradients
from those unit rows: k-means initialization on the first batch, an
exponential moving average of the assigned vectors per code, and expiration
of codes that go unused for several consecutive batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Codebook",
    "QuantizeResult",
    "kmeans_init",
    "quantize",
    "ema_update",
    "expire_stale",
]

DEFAULT_DECAY = 0.99
DEFAULT_EXPIRE_AGE = 2
KMEANS_ITERS = 10
# k-means assigns its rows in blocks of about this many bytes of similarities
# (4,096 rows at 32 codes), not through one [rows, codes] matrix
KMEANS_BLOCK_BYTES = 1 << 20


def _normalize_rows(x: np.ndarray, eps: float = 1e-12):
    """Return (unit rows, zero-row indices, max(norm, eps) divisors); zero rows become e0."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    zero = np.flatnonzero(norms < eps)
    divisors = np.maximum(norms, eps)
    out = x / divisors[:, None]
    if zero.size:
        out[zero] = 0.0
        out[zero, 0] = 1.0
    return out, zero, divisors


@dataclass
class QuantizeResult:
    """Assignment of a batch of vectors to codebook entries."""

    indices: np.ndarray        # [M] int64 code index per input row
    quantized: np.ndarray      # [M, dim] selected code vectors (exact copies)
    unit_rows: np.ndarray      # [M, dim] the inputs on the unit sphere (zero rows -> e0)
    norms: np.ndarray          # [M] what each input row was divided by (at least eps)
    zero_rows: np.ndarray      # indices of the rows that became e0


class Codebook:
    """Fixed-size set of unit-norm code vectors with usage bookkeeping.

    ``initialized`` records whether k-means initialization has run; codes are
    valid unit vectors from construction on, so quantization is total either
    way. ``usage_age[i]`` counts consecutive batches without an assignment to
    code ``i`` (zero iff assigned in the most recent update). Construction
    and :func:`kmeans_init` start the same fresh bookkeeping (``_start``).
    """

    def __init__(self, n_codes: int, dim: int, seed: int = 0):
        if n_codes < 2:
            raise DomainError(f"codebook needs at least 2 codes, got {n_codes}")
        if dim < 1:
            raise DomainError(f"code dimension must be positive, got {dim}")
        rng = np.random.default_rng(seed)
        self._start(_normalize_rows(rng.standard_normal((n_codes, dim)))[0], initialized=False)

    def _start(self, codes: np.ndarray, initialized: bool) -> None:
        """Take ``codes``, EMA sums equal to a copy of them, unit cluster sizes and zero ages."""
        self.codes = codes
        self.ema_embed_sum = codes.copy()
        self.ema_cluster_size = np.ones(len(codes), dtype=np.float64)
        self.usage_age = np.zeros(len(codes), dtype=np.int64)
        self.initialized = initialized

    @property
    def n_codes(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]


def _row_blocks(n_rows: int, n_codes: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` blocks of ``n_rows >= 2`` rows, each of about
    ``KMEANS_BLOCK_BYTES`` of similarities and none of one row.

    numpy computes a one-row product by gemv, which may differ in the last
    bit from the gemm of a larger block; so a one-row tail joins the block
    before, and every row's similarities are those of the whole product.
    """
    starts = list(range(0, n_rows, max(2, KMEANS_BLOCK_BYTES // (8 * n_codes))))
    if n_rows - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n_rows]))


def _code_sums(rows: np.ndarray, indices: np.ndarray, k: int):
    """Each of ``k`` codes' member count and sum of member ``rows``: one weighted
    ``np.bincount`` per column, adding in row order onto zeros as ``np.add.at`` would."""
    sums = np.empty((k, rows.shape[1]))
    for j in range(rows.shape[1]):
        sums[:, j] = np.bincount(indices, weights=rows[:, j], minlength=k)
    return np.bincount(indices, minlength=k), sums


def kmeans_init(codebook: Codebook, unit_rows: np.ndarray, seed: int = 0) -> Codebook:
    """Initialize codes as L2-normalized k-means centroids of the first batch.

    ``unit_rows`` are the batch's rows as :func:`quantize` returns them
    (already on the unit sphere; they are not normalized again), C- or
    F-ordered: training passes the transposed view of its ``[dim, rows]``
    unit-row slots, whose columns each ``np.bincount`` then reads in place.
    ``KMEANS_ITERS`` Lloyd iterations, centroids seeded from distinct batch
    rows; each iteration assigns the rows in blocks of about
    ``KMEANS_BLOCK_BYTES`` of similarities, sums every cluster's members as
    :func:`ema_update` does (``_code_sums``), and re-seeds empty clusters, in
    code order, from random batch rows. Deterministic given the seed.
    Mutates and returns ``codebook``.
    """
    if codebook.initialized:
        raise DomainError("codebook is already initialized")
    pts = np.asarray(unit_rows, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != codebook.dim:
        raise ShapeError(f"kmeans batch shape {pts.shape} incompatible with code dim {codebook.dim}")
    k, n = codebook.n_codes, pts.shape[0]
    if n < k:
        raise DomainError(f"kmeans needs at least {k} vectors, got {n}")

    blocks = _row_blocks(n, k)
    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    assign = np.empty(n, dtype=np.intp)
    for _ in range(KMEANS_ITERS):
        # on the unit sphere, nearest-in-Euclidean == argmax cosine
        for lo, hi in blocks:
            np.argmax(pts[lo:hi] @ centroids.T, axis=1, out=assign[lo:hi])
        counts, sums = _code_sums(pts, assign, k)
        centroids = sums / np.maximum(counts, 1)[:, None]
        for i in np.flatnonzero(counts == 0):  # in ascending order: the same draws
            centroids[i] = pts[rng.integers(n)]
        centroids = _normalize_rows(centroids)[0]

    codebook._start(centroids, initialized=True)
    return codebook


def quantize(codebook: Codebook, inputs: np.ndarray) -> QuantizeResult:
    """Assign each input row to the code with maximal cosine similarity.

    Inputs are row-normalized once and returned as ``unit_rows``, the
    input of :func:`kmeans_init`, :func:`ema_update` and :func:`expire_stale`
    and of the model's commitment term, with the ``norms`` they were divided
    by. Ties break toward the lowest code index (argmax convention);
    zero-norm rows are replaced by the fixed basis vector e0 and reported in
    ``zero_rows``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"quantize expects [M, dim] inputs, got shape {x.shape}")
    if x.shape[1] != codebook.dim:
        raise ShapeError(f"input dim {x.shape[1]} != code dim {codebook.dim}")
    normed, zero_rows, norms = _normalize_rows(x)
    sims = normed @ codebook.codes.T
    indices = np.argmax(sims, axis=1)
    return QuantizeResult(indices=indices, quantized=codebook.codes[indices],
                          unit_rows=normed, norms=norms, zero_rows=zero_rows)


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
    counts, sums = _code_sums(unit_rows, indices, codebook.n_codes)

    codebook.ema_cluster_size = decay * codebook.ema_cluster_size + (1.0 - decay) * counts
    codebook.ema_embed_sum = decay * codebook.ema_embed_sum + (1.0 - decay) * sums

    assigned = counts > 0
    prev = codebook.codes[assigned]
    new_codes, degenerate, _ = _normalize_rows(codebook.ema_embed_sum[assigned])
    if degenerate.size:  # EMA sum collapsed to zero; keep the previous code
        new_codes[degenerate] = prev[degenerate]
    codebook.codes[assigned] = new_codes
    codebook.usage_age[assigned] = 0
    codebook.usage_age[~assigned] += 1
    return codebook


def expire_stale(codebook: Codebook, unit_rows: np.ndarray, age_threshold: int = DEFAULT_EXPIRE_AGE,
                 seed: int = 0) -> np.ndarray:
    """Replace codes unused for ``age_threshold`` batches with batch rows.

    ``unit_rows`` are the current batch's rows as :func:`quantize` returns
    them; they are not normalized again. Replacements are distinct rows
    sampled uniformly (seeded); if there are more stale codes than rows the
    sampling falls back to with-replacement. Replaced codes get age 0 and
    fresh EMA accumulators. Returns the indices of the replaced codes.
    """
    if age_threshold < 1:
        raise DomainError(f"age_threshold must be >= 1, got {age_threshold}")
    if unit_rows.ndim != 2 or unit_rows.shape[0] == 0:
        raise DomainError("expire_stale needs a non-empty [M, dim] batch")
    stale = np.flatnonzero(codebook.usage_age >= age_threshold)
    if stale.size == 0:
        return stale

    rng = np.random.default_rng(seed)
    picks = rng.choice(unit_rows.shape[0], size=stale.size,
                       replace=stale.size > unit_rows.shape[0])
    codebook.codes[stale] = unit_rows[picks]
    codebook.ema_embed_sum[stale] = unit_rows[picks]
    codebook.ema_cluster_size[stale] = 1.0
    codebook.usage_age[stale] = 0
    return stale
