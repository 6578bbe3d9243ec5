"""Synthetic phantom generator checks: geometry, intensities, determinism."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from vqsct import phantom
from vqsct.errors import DomainError
from vqsct.phantom import (LABEL_AIR, LABEL_BONE, LABEL_LUNG, LABEL_SOFT,
                           generate_phantom_pair, generate_texture_volume)


@pytest.fixture(scope="module")
def pair():
    return generate_phantom_pair((48, 48, 48), seed=11)


def test_rejects_small_dims():
    with pytest.raises(DomainError):
        generate_phantom_pair((31, 48, 48), seed=0)


def test_dims_above_the_voxel_limit_are_rejected_before_any_array(monkeypatch):
    assert phantom.checked_dims((512, 512, 512), 32, "phantom") == (512, 512, 512)

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was called")

    monkeypatch.setattr(phantom, "np", NoNumpy())
    with pytest.raises(DomainError, match="above the limit"):
        generate_phantom_pair((512, 512, 513), seed=0)
    with pytest.raises(DomainError, match="above the limit"):
        generate_texture_volume((10 ** 6, 10 ** 6, 16), seed=0)


def test_broadcast_grids_give_the_dense_grid_bytes(monkeypatch):
    sparse = (generate_phantom_pair((40, 33, 35), seed=12),
              generate_texture_volume((21, 18, 16), seed=13))
    real = np.meshgrid
    monkeypatch.setattr(np, "meshgrid", lambda *axes, indexing, sparse:
                        real(*axes, indexing=indexing))
    (ct, pet, truth), texture = (generate_phantom_pair((40, 33, 35), seed=12),
                                 generate_texture_volume((21, 18, 16), seed=13))
    (ct_s, pet_s, truth_s), texture_s = sparse
    assert ct_s.voxels.tobytes() == ct.voxels.tobytes()
    assert pet_s.voxels.tobytes() == pet.voxels.tobytes()
    assert truth_s.labels.tobytes() == truth.labels.tobytes()
    assert texture_s.voxels.tobytes() == texture.voxels.tobytes()


def test_deterministic_given_seed():
    ct_a, pet_a, tr_a = generate_phantom_pair((32, 32, 32), seed=5)
    ct_b, pet_b, tr_b = generate_phantom_pair((32, 32, 32), seed=5)
    assert np.array_equal(ct_a.voxels, ct_b.voxels)
    assert np.array_equal(pet_a.voxels, pet_b.voxels)
    assert np.array_equal(tr_a.labels, tr_b.labels)


def test_different_seeds_differ():
    ct_a, _, _ = generate_phantom_pair((32, 32, 32), seed=5)
    ct_b, _, _ = generate_phantom_pair((32, 32, 32), seed=6)
    assert not np.array_equal(ct_a.voxels, ct_b.voxels)


def test_all_tissue_classes_present(pair):
    _, _, truth = pair
    counts = truth.label_counts()
    for label in ("air", "lung", "soft", "bone"):
        assert counts[label] > 0


def test_ct_tissue_intensities(pair):
    ct, _, truth = pair
    vox = ct.voxels
    labels = truth.labels
    assert np.all(vox[labels == LABEL_AIR] == -1000.0)
    assert vox[labels == LABEL_LUNG].mean() <= -600.0
    assert abs(vox[labels == LABEL_SOFT].mean() - 40.0) < 30.0
    assert vox[labels == LABEL_BONE].mean() > 300.0


def test_lung_centers_are_lung_labeled_and_dark(pair):
    ct, _, truth = pair
    dims = np.array(truth.labels.shape)
    for lung in truth.geometry["lungs"]:
        center = tuple(int(round((c + 1) / 2 * (n - 1)))
                       for c, n in zip(lung["center"], dims))
        assert truth.labels[center] == LABEL_LUNG
        assert ct.voxels[center] <= -600.0


def test_lungs_enclosed_by_body_in_every_slice(pair):
    # each axial slice with lung voxels must surround them with body tissue,
    # so the slice-wise fill of the body contour can capture the cavities
    _, _, truth = pair
    labels = truth.labels
    body = labels != LABEL_AIR
    for z in range(labels.shape[2]):
        lung = labels[:, :, z] == LABEL_LUNG
        if not lung.any():
            continue
        xs, ys = np.nonzero(lung)
        for x, y in zip(xs, ys):
            col = body[x, :, z]
            row = body[:, y, z]
            assert row[:x].any() and row[x + 1:].any()
            assert col[:y].any() and col[y + 1:].any()


def test_pet_activity_ordering(pair):
    _, pet, truth = pair
    vox = pet.voxels
    labels = truth.labels
    air = vox[labels == LABEL_AIR].mean()
    lung = vox[labels == LABEL_LUNG].mean()
    soft = vox[labels == LABEL_SOFT].mean()
    assert air < lung < soft
    assert vox.min() >= 0.0
    assert pet.intensity_space == "activity"


def test_lesions_recorded_and_hot(pair):
    _, pet, truth = pair
    lesions = truth.geometry["lesions"]
    assert 2 <= len(lesions) <= 4
    soft_mean = pet.voxels[truth.labels == LABEL_SOFT].mean()
    lung_mean = pet.voxels[truth.labels == LABEL_LUNG].mean()
    for lesion in lesions:
        # the scanner blur dilutes a lesion bordering cold lung, so the
        # margin over the soft background is modest for small amplitudes
        peak = pet.voxels[tuple(lesion["center_voxel"])]
        assert peak > 1.25 * soft_mean
        assert peak > lung_mean


def test_volumes_carry_spacing_and_space(pair):
    ct, pet, _ = pair
    assert ct.intensity_space == "HU"
    assert ct.spacing_mm == (1.5, 1.5, 1.5)
    assert pet.spacing_mm == ct.spacing_mm
    assert ct.dims == (48, 48, 48)


def test_texture_volume_range_and_determinism():
    a = generate_texture_volume((24, 24, 24), seed=3)
    b = generate_texture_volume((24, 24, 24), seed=3)
    assert np.array_equal(a.voxels, b.voxels)
    assert a.voxels.min() >= -1000.0
    assert a.voxels.max() <= 2800.0
    assert a.intensity_space == "HU"
    with pytest.raises(DomainError):
        generate_texture_volume((8, 24, 24), seed=0)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0, 8.0])
def test_gaussian_filter_matches_scipy_bytes(sigma):
    # sigma 8 has radius 32, longer than every extent here
    rng = np.random.default_rng(31)
    for shape in [(16, 16, 16), (24, 20, 18), (5, 7, 9), (1, 12, 3), (33, 2, 6)]:
        a = rng.standard_normal(shape)
        got = phantom._gaussian_filter(a, sigma)
        assert got.tobytes() == gaussian_filter(a, sigma).tobytes(), shape


def test_phantoms_match_a_scipy_filtered_build(monkeypatch):
    ours = [generate_phantom_pair((40, 34, 36), seed=7),
            generate_texture_volume((20, 17, 16), seed=8)]
    monkeypatch.setattr(phantom, "_gaussian_filter", gaussian_filter)
    theirs = [generate_phantom_pair((40, 34, 36), seed=7),
              generate_texture_volume((20, 17, 16), seed=8)]
    (ct_a, pet_a, _), tex_a = ours
    (ct_b, pet_b, _), tex_b = theirs
    assert ct_a.voxels.tobytes() == ct_b.voxels.tobytes()
    assert pet_a.voxels.tobytes() == pet_b.voxels.tobytes()
    assert tex_a.voxels.tobytes() == tex_b.voxels.tobytes()
