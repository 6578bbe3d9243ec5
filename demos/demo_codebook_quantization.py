"""
Cosine codebooks: k-means seeding, EMA updates, code expiration
===============================================================

The quantizer snaps unit-norm rows to their nearest codebook entry by
cosine similarity. This walks through its whole life cycle on synthetic
clustered data: initialization from the first batch, exponential moving
average updates, and the replacement of codes that stop being used.
"""

import numpy as np

from vqsct.codebook import (Codebook, ema_update, expire_stale, kmeans_init,
                            quantize)

rng = np.random.default_rng(0)

# Three well separated directions in 8 dimensions, plus noise.
anchors = np.zeros((3, 8))
anchors[0, 0] = 1.0
anchors[1, 3] = 1.0
anchors[2, 6] = 1.0


def batch(n=96, clusters=3):
    which = rng.integers(0, clusters, n)
    return anchors[which] + 0.05 * rng.normal(size=(n, 8))


# Quantization normalizes each row once and reports the unit rows with the
# indices and the selected codes; the learners below all take those rows.
# A codebook starts unseeded; the first training batch runs k-means on its
# unit rows to place the initial codes.
book = Codebook(n_codes=4, dim=8, seed=0)
print(f"initialized from data yet: {book.initialized}")

first = batch()
kmeans_init(book, quantize(book, first).unit_rows)
print(f"after kmeans_init: {book.initialized}, "
      f"code norms {np.linalg.norm(book.codes, axis=1).round(6)}")

# The commitment penalty the model adds during training (weight beta)
# measures how far the unit rows sit from their assigned codes.
result = quantize(book, first)
beta = 0.25
penalty = beta * np.mean(np.sum((result.unit_rows - result.quantized) ** 2, axis=1))
print(f"\nassignment counts: {np.bincount(result.indices, minlength=4)}")
print(f"commitment penalty: {penalty:.4f}")

# EMA updates pull each code toward the (normalized) mean of the rows
# assigned to it. Codes drift onto the true cluster directions.
for _ in range(30):
    result = quantize(book, batch())
    ema_update(book, result.unit_rows, result.indices)
sims = (book.codes @ anchors.T).max(axis=1)
print(f"\nafter 30 EMA batches, best anchor cosine per code: {sims.round(3)}")

# Codes unused for enough consecutive batches are stale and get replaced
# by random rows of the current batch. Starve the cluster on axis 6 by
# sampling only the first two clusters, and watch its code be recycled.
print()
for step in range(4):
    result = quantize(book, batch(clusters=2))
    ema_update(book, result.unit_rows, result.indices)
    info = expire_stale(book, result.unit_rows)
    replaced = info.replaced.tolist() if info.replaced.size else "none"
    print(f"batch {step}: ages {book.usage_age.tolist()}, replaced {replaced}")
