"""Synthetic paired PET/CT phantoms and procedural texture volumes.

The phantom is a torso-like arrangement of ellipsoids: a soft-tissue body,
two air-filled lungs, a rib-cage-like bone shell, and a spine column, over
an exterior of air. The paired PET volume assigns each tissue an activity
level, adds a few hot lesions inside the soft tissue, blurs the result, and
applies Poisson count noise. Everything is deterministic given the seed.
Smoothing is a separable Gaussian filter with mirrored borders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .volume import Volume, correlate_valid

__all__ = [
    "LABEL_AIR",
    "LABEL_LUNG",
    "LABEL_SOFT",
    "LABEL_BONE",
    "LABEL_NAMES",
    "MAX_VOXELS",
    "PhantomTruth",
    "checked_dims",
    "generate_phantom_pair",
    "generate_texture_volume",
]

LABEL_AIR = 0
LABEL_LUNG = 1
LABEL_SOFT = 2
LABEL_BONE = 3
LABEL_NAMES = ("air", "lung", "soft", "bone")

# mean CT number per tissue, HU
_HU_AIR = -1000.0
_HU_LUNG = -800.0
_HU_SOFT = 40.0
_HU_BONE = 700.0

# relative tracer activity per tissue
_ACT_AIR = 0.01
_ACT_LUNG = 0.25
_ACT_SOFT = 1.0
_ACT_BONE = 0.5

_PET_BLUR_SIGMA = 2.0
_PET_COUNT_SCALE = 400.0

# The largest grid a phantom or texture volume may have: 512^3 voxels, whose
# float64 volume alone is 1 GiB; generating one holds several such arrays.
MAX_VOXELS = 512 ** 3


@dataclass
class PhantomTruth:
    """Per-voxel tissue labels plus the geometry that generated them."""

    labels: np.ndarray  # uint8, same dims as the volumes
    geometry: dict
    seed: int

    def label_counts(self) -> dict:
        counts = np.bincount(self.labels.ravel(), minlength=len(LABEL_NAMES))
        return {name: int(counts[i]) for i, name in enumerate(LABEL_NAMES)}


def checked_dims(dims, smallest: int, what: str) -> tuple[int, int, int]:
    """``dims`` as three ints, each >= ``smallest``, with at most ``MAX_VOXELS`` in all.

    Checked in plain integers, before any array is allocated.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < smallest for d in dims):
        raise DomainError(f"{what} dims must be 3 values >= {smallest}, got {dims}")
    if math.prod(dims) > MAX_VOXELS:
        raise DomainError(f"{what} dims {dims} hold {math.prod(dims)} voxels, "
                          f"above the limit of {MAX_VOXELS} (512^3)")
    return dims


def _normalized_grid(dims):
    """Per-axis coordinates mapping voxel index 0 to -1 and the last to +1.

    The three grids are sparse (each spans one axis), and broadcast together
    to the full grid wherever they meet.
    """
    axes = [np.linspace(-1.0, 1.0, n) for n in dims]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _ellipsoid_q(u, v, w, center, semi):
    """Quadratic form; q <= 1 is inside the ellipsoid."""
    return (((u - center[0]) / semi[0]) ** 2
            + ((v - center[1]) / semi[1]) ** 2
            + ((w - center[2]) / semi[2]) ** 2)


def _gaussian_filter(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with mirrored borders (``d c b a | a b c d``).

    The kernel has radius ``int(4 sigma + 0.5)``. Each axis in turn is
    padded by the radius and filtered by :func:`volume.correlate_valid`
    (taps summed pairwise from the outside in); phantom bytes depend on
    that order.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    kernel = kernel / kernel.sum()
    out = np.asarray(a, dtype=np.float64)
    for axis in range(out.ndim):
        pads = [(0, 0)] * out.ndim
        pads[axis] = (radius, radius)
        out = correlate_valid(np.pad(out, pads, mode="symmetric"), kernel, axis)
    return out


def _smooth_noise(dims, sigma, rng):
    """Gaussian-filtered white noise rescaled to unit standard deviation."""
    g = _gaussian_filter(rng.standard_normal(dims), sigma)
    return g / g.std()


def generate_phantom_pair(dims, seed: int, spacing_mm=(1.5, 1.5, 1.5)):
    """Build one paired (CT, PET, truth) phantom case.

    Each dimension must be at least 32 voxels. The CT carries tissue-mean
    HU values plus a smooth texture; the PET carries per-tissue activity
    with hot lesions, a sigma-2 Gaussian blur, and Poisson noise.
    """
    dims = checked_dims(dims, 32, "phantom")
    rng = np.random.default_rng(seed)

    geometry = {
        "body": {"center": (0.0, 0.0, 0.0), "semi": (0.80, 0.68, 0.95)},
        "lungs": [
            {"center": (-0.34, -0.08, 0.15), "semi": (0.30, 0.36, 0.54)},
            {"center": (0.34, -0.08, 0.15), "semi": (0.30, 0.36, 0.54)},
        ],
        "shell": {"center": (0.0, -0.05, 0.20), "semi": (0.68, 0.55, 0.68),
                  "band": (0.60, 1.0)},
        "spine": {"center_xy": (0.0, 0.38), "radius": 0.10, "half_height": 0.60},
        "hu": {"air": _HU_AIR, "lung": _HU_LUNG, "soft": _HU_SOFT, "bone": _HU_BONE},
        "activity": {"air": _ACT_AIR, "lung": _ACT_LUNG, "soft": _ACT_SOFT,
                     "bone": _ACT_BONE},
        "pet_blur_sigma": _PET_BLUR_SIGMA,
        "pet_count_scale": _PET_COUNT_SCALE,
    }

    u, v, w = _normalized_grid(dims)
    body = _ellipsoid_q(u, v, w, **geometry["body"]) <= 1.0
    lung = np.zeros(dims, dtype=bool)
    for ell in geometry["lungs"]:
        lung |= _ellipsoid_q(u, v, w, **ell) <= 1.0
    shell_q = _ellipsoid_q(u, v, w, geometry["shell"]["center"], geometry["shell"]["semi"])
    lo, hi = geometry["shell"]["band"]
    bone = (shell_q >= lo) & (shell_q <= hi)
    sp = geometry["spine"]
    bone |= (((u - sp["center_xy"][0]) / sp["radius"]) ** 2
             + ((v - sp["center_xy"][1]) / sp["radius"]) ** 2 <= 1.0) \
        & (np.abs(w) <= sp["half_height"])
    lung &= body
    bone &= body
    bone &= ~lung

    labels = np.full(dims, LABEL_AIR, dtype=np.uint8)
    labels[body] = LABEL_SOFT
    labels[lung] = LABEL_LUNG
    labels[bone] = LABEL_BONE

    texture = _smooth_noise(dims, 3.0, rng)
    ct = np.full(dims, _HU_AIR, dtype=np.float64)
    ct[labels == LABEL_SOFT] = _HU_SOFT + 20.0 * texture[labels == LABEL_SOFT]
    ct[labels == LABEL_LUNG] = _HU_LUNG + 20.0 * texture[labels == LABEL_LUNG]
    ct[labels == LABEL_BONE] = _HU_BONE + 25.0 * texture[labels == LABEL_BONE]

    activity = np.full(dims, _ACT_AIR, dtype=np.float64)
    activity[labels == LABEL_LUNG] = _ACT_LUNG
    activity[labels == LABEL_SOFT] = _ACT_SOFT
    activity[labels == LABEL_BONE] = _ACT_BONE

    # hot lesions well inside the soft tissue
    body_q = _ellipsoid_q(u, v, w, **geometry["body"])
    pool = np.flatnonzero((labels == LABEL_SOFT) & (body_q <= 0.5))
    n_lesions = int(rng.integers(2, 5))
    centers = np.unravel_index(rng.choice(pool, size=n_lesions, replace=False), dims)
    sigmas = rng.uniform(0.05, 0.09, n_lesions) * (min(dims) / 2.0)
    amps = rng.uniform(2.0, 4.0, n_lesions)
    ix, iy, iz = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims],
                             indexing="ij", sparse=True)
    lesions = []
    for i in range(n_lesions):
        cx, cy, cz = (centers[0][i], centers[1][i], centers[2][i])
        d2 = (ix - cx) ** 2 + (iy - cy) ** 2 + (iz - cz) ** 2
        activity += amps[i] * np.exp(-d2 / (2.0 * sigmas[i] ** 2))
        lesions.append({"center_voxel": (int(cx), int(cy), int(cz)),
                        "sigma_voxels": float(sigmas[i]), "amplitude": float(amps[i])})
    geometry["lesions"] = lesions

    blurred = _gaussian_filter(activity, _PET_BLUR_SIGMA)
    pet = rng.poisson(blurred * _PET_COUNT_SCALE) / _PET_COUNT_SCALE

    ct_volume = Volume(ct, spacing_mm, "HU", {"phantom_seed": seed})
    pet_volume = Volume(pet.astype(np.float64), spacing_mm, "activity",
                        {"phantom_seed": seed})
    return ct_volume, pet_volume, PhantomTruth(labels, geometry, seed)


def generate_texture_volume(dims, seed: int, spacing_mm=(1.5, 1.5, 1.5)) -> Volume:
    """Procedural HU volume for self-reconstruction pretraining.

    Multi-scale smooth noise spanning a wide HU band plus a handful of
    random ellipsoid inclusions, clipped to plausible CT numbers.
    """
    dims = checked_dims(dims, 16, "texture")
    rng = np.random.default_rng(seed)
    field = (0.5 * _smooth_noise(dims, 2.0, rng)
             + 0.3 * _smooth_noise(dims, 4.0, rng)
             + 0.2 * _smooth_noise(dims, 8.0, rng))
    hu = -200.0 + 600.0 * field

    u, v, w = _normalized_grid(dims)
    for _ in range(int(rng.integers(3, 7))):
        center = rng.uniform(-0.6, 0.6, 3)
        semi = rng.uniform(0.15, 0.45, 3)
        offset = rng.uniform(-900.0, 900.0)
        inside = _ellipsoid_q(u, v, w, center, semi) <= 1.0
        hu[inside] += offset

    return Volume(np.clip(hu, -1000.0, 2800.0), spacing_mm, "HU",
                  {"texture_seed": seed})
