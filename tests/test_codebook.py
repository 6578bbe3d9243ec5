"""Cosine codebook checks against brute-force and scalar-loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_assign, unit
from vqsct.codebook import (Codebook, ema_update, expire_stale, kmeans_init,
                            quantize)
from vqsct.errors import DomainError


def make_initialized(n_codes, dim, seed, batch_size=64):
    rng = np.random.default_rng(seed)
    cb = Codebook(n_codes, dim, seed=seed)
    kmeans_init(cb, unit(rng.standard_normal((batch_size, dim))), seed=seed)
    return cb, rng


# ---------------------------------------------------------------------------
# Construction and initialization
# ---------------------------------------------------------------------------

def test_new_codebook_has_unit_codes_and_no_init_flag():
    cb = Codebook(8, 5, seed=3)
    assert cb.codes.shape == (8, 5)
    assert np.allclose(np.linalg.norm(cb.codes, axis=1), 1.0)
    assert not cb.initialized
    assert np.array_equal(cb.usage_age, np.zeros(8, dtype=np.int64))


def test_codebook_rejects_degenerate_sizes():
    with pytest.raises(DomainError):
        Codebook(1, 4, seed=0)
    with pytest.raises(DomainError):
        Codebook(4, 0, seed=0)


def test_kmeans_init_sets_flag_and_unit_norms():
    cb, _ = make_initialized(6, 4, seed=7)
    assert cb.initialized
    assert np.allclose(np.linalg.norm(cb.codes, axis=1), 1.0, atol=1e-6)


def test_kmeans_init_requires_enough_rows_and_single_shot():
    cb = Codebook(8, 4, seed=0)
    with pytest.raises(DomainError):
        kmeans_init(cb, unit(np.random.default_rng(0).standard_normal((5, 4))))
    kmeans_init(cb, unit(np.random.default_rng(0).standard_normal((16, 4))))
    with pytest.raises(DomainError):
        kmeans_init(cb, unit(np.random.default_rng(1).standard_normal((16, 4))))


def test_kmeans_init_recovers_separated_clusters():
    # four tight clusters near orthogonal axes must map to four distinct codes
    rng = np.random.default_rng(5)
    centers = np.eye(4)
    batch = np.concatenate([
        c + 0.01 * rng.standard_normal((25, 4)) for c in centers])
    cb = Codebook(4, 4, seed=1)
    kmeans_init(cb, unit(batch), seed=1)
    assigned = quantize(cb, batch).indices
    groups = [set(assigned[i * 25:(i + 1) * 25]) for i in range(4)]
    assert all(len(g) == 1 for g in groups)
    assert len(set.union(*groups)) == 4


def test_kmeans_init_deterministic():
    rng = np.random.default_rng(9)
    batch = rng.standard_normal((40, 6))
    a = Codebook(5, 6, seed=2)
    b = Codebook(5, 6, seed=2)
    kmeans_init(a, unit(batch), seed=3)
    kmeans_init(b, unit(batch), seed=3)
    assert np.array_equal(a.codes, b.codes)


# ---------------------------------------------------------------------------
# Quantization against the brute-force oracle
# ---------------------------------------------------------------------------

def test_quantize_matches_brute_force_scan():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n_codes = int(rng.integers(2, 17))
        dim = int(rng.integers(1, 9))
        cb, _ = make_initialized(n_codes, dim, seed=trial,
                                 batch_size=max(2 * n_codes, 16))
        inputs = rng.standard_normal((int(rng.integers(1, 33)), dim))
        result = quantize(cb, inputs)
        assert np.array_equal(result.indices, brute_force_assign(inputs, cb.codes))
        assert np.array_equal(result.quantized, cb.codes[result.indices])


def test_quantize_scale_invariance():
    rng = np.random.default_rng(1)
    cb, _ = make_initialized(10, 6, seed=4)
    inputs = rng.standard_normal((20, 6))
    base = quantize(cb, inputs).indices
    for _ in range(20):
        scales = rng.uniform(0.01, 100.0, size=(20, 1))
        assert np.array_equal(quantize(cb, inputs * scales).indices, base)


def test_quantize_tie_breaks_to_lowest_index():
    cb = Codebook(3, 2, seed=0)
    kmeans_init(cb, unit(np.random.default_rng(0).standard_normal((8, 2))))
    # force two identical codes; both are equally near any input
    cb.codes = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    result = quantize(cb, np.array([[5.0, 0.1]]))
    assert result.indices[0] == 0


def test_quantize_flags_zero_rows():
    cb, _ = make_initialized(4, 3, seed=6)
    inputs = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    result = quantize(cb, inputs)
    assert list(result.zero_rows) == [0]
    # the zero row quantizes along the first basis direction
    e0 = np.zeros(3)
    e0[0] = 1.0
    assert result.indices[0] == brute_force_assign(e0[None], cb.codes)[0]
    # the unit rows handed to the learners: e0 for the zero row
    assert np.array_equal(result.unit_rows[0], e0)
    assert np.allclose(result.unit_rows[1:], unit(inputs[1:]), atol=1e-12)


# ---------------------------------------------------------------------------
# EMA updates against the scalar recurrence oracle
# ---------------------------------------------------------------------------

def ema_oracle(codes, cluster_size, embed_sum, inputs, indices, decay):
    """Per-scalar EMA recurrence written as explicit loops."""
    n_codes, dim = codes.shape
    normed = inputs / np.linalg.norm(inputs, axis=1, keepdims=True)
    counts = np.zeros(n_codes)
    sums = np.zeros((n_codes, dim))
    for row, j in zip(normed, indices):
        counts[j] += 1
        sums[j] += row
    new_size = np.empty_like(cluster_size)
    new_sum = np.empty_like(embed_sum)
    new_codes = codes.copy()
    for j in range(n_codes):
        new_size[j] = decay * cluster_size[j] + (1 - decay) * counts[j]
        for d in range(dim):
            new_sum[j, d] = decay * embed_sum[j, d] + (1 - decay) * sums[j, d]
        if counts[j] > 0:
            norm = np.linalg.norm(new_sum[j])
            if norm > 1e-12:
                new_codes[j] = new_sum[j] / norm
    return new_codes, new_size, new_sum


def test_ema_update_matches_scalar_recurrence():
    rng = np.random.default_rng(4)
    for trial in range(20):
        cb, _ = make_initialized(6, 4, seed=trial + 100)
        inputs = rng.standard_normal((24, 4))
        result = quantize(cb, inputs)
        want_codes, want_size, want_sum = ema_oracle(
            cb.codes, cb.ema_cluster_size, cb.ema_embed_sum,
            inputs, result.indices, decay=0.99)
        ema_update(cb, result.unit_rows, result.indices, decay=0.99)
        assert np.allclose(cb.codes, want_codes, atol=1e-12)
        assert np.allclose(cb.ema_cluster_size, want_size, atol=1e-12)
        assert np.allclose(cb.ema_embed_sum, want_sum, atol=1e-12)


def test_ema_update_sums_bitwise_equal_add_at():
    # np.add.at adds the rows in input order onto zeros; so must ema_update
    rng = np.random.default_rng(6)
    cb, _ = make_initialized(32, 16, seed=14)
    rows = unit(rng.standard_normal((9216, 16)))
    indices = quantize(cb, rows).indices
    sums = np.zeros((32, 16))
    np.add.at(sums, indices, rows)
    want = 0.99 * cb.ema_embed_sum + (1.0 - 0.99) * sums
    ema_update(cb, rows, indices, decay=0.99)
    assert cb.ema_embed_sum.tobytes() == want.tobytes()


def test_ema_update_keeps_unit_norms_over_long_sequences():
    rng = np.random.default_rng(5)
    cb, _ = make_initialized(8, 6, seed=11)
    for _ in range(200):
        inputs = rng.standard_normal((16, 6))
        result = quantize(cb, inputs)
        ema_update(cb, result.unit_rows, result.indices)
    assert np.allclose(np.linalg.norm(cb.codes, axis=1), 1.0, atol=1e-6)


def test_ema_update_ages_unused_codes():
    cb, _ = make_initialized(4, 3, seed=12)
    inputs = np.tile(cb.codes[0], (6, 1)) + 1e-4
    result = quantize(cb, inputs)
    used = set(result.indices)
    ema_update(cb, result.unit_rows, result.indices)
    for j in range(4):
        assert cb.usage_age[j] == (0 if j in used else 1)


# ---------------------------------------------------------------------------
# Stale-code expiration
# ---------------------------------------------------------------------------

def test_expire_stale_replaces_old_codes_from_batch():
    cb, rng = make_initialized(5, 4, seed=13)
    cb.usage_age[:] = [0, 3, 0, 2, 5]
    batch = rng.standard_normal((10, 4))
    info = expire_stale(cb, unit(batch), age_threshold=2, seed=21)
    assert sorted(info.replaced) == [1, 3, 4]
    normed = batch / np.linalg.norm(batch, axis=1, keepdims=True)
    for j in info.replaced:
        assert any(np.allclose(cb.codes[j], row, atol=1e-12) for row in normed)
        assert cb.usage_age[j] == 0


def test_expire_stale_noop_when_all_fresh():
    cb, rng = make_initialized(5, 4, seed=14)
    before = cb.codes.copy()
    info = expire_stale(cb, unit(rng.standard_normal((8, 4))), age_threshold=2, seed=0)
    assert info.replaced.size == 0
    assert np.array_equal(cb.codes, before)


def test_expire_stale_with_replacement_when_batch_too_small():
    cb, _ = make_initialized(6, 4, seed=15)
    cb.usage_age[:] = 10
    batch = np.random.default_rng(3).standard_normal((2, 4))
    rows = unit(batch)
    info = expire_stale(cb, rows, age_threshold=2, seed=5)
    assert sorted(info.replaced) == list(range(6))
    for j in info.replaced:
        assert any(np.array_equal(cb.codes[j], row) for row in rows)


def test_expire_stale_deterministic():
    results = []
    for _ in range(2):
        cb, rng = make_initialized(6, 4, seed=16)
        cb.usage_age[:] = [0, 5, 5, 0, 5, 5]
        batch = np.random.default_rng(9).standard_normal((12, 4))
        expire_stale(cb, unit(batch), age_threshold=2, seed=77)
        results.append(cb.codes.copy())
    assert np.array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# Randomized end-to-end property
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_update_sequences_preserve_membership_and_norms(seed):
    rng = np.random.default_rng(seed)
    n_codes = int(rng.integers(2, 9))
    dim = int(rng.integers(2, 7))
    cb = Codebook(n_codes, dim, seed=seed % 1000)
    first = rng.standard_normal((max(n_codes * 2, 8), dim))
    kmeans_init(cb, unit(first), seed=seed % 997)
    for _ in range(5):
        batch = rng.standard_normal((max(n_codes, 4), dim))
        result = quantize(cb, batch)
        assert result.indices.min() >= 0
        assert result.indices.max() < n_codes
        ema_update(cb, result.unit_rows, result.indices)
        expire_stale(cb, result.unit_rows, age_threshold=2,
                     seed=int(rng.integers(2**31)))
    assert np.allclose(np.linalg.norm(cb.codes, axis=1), 1.0, atol=1e-6)
